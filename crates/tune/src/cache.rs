//! The persistent on-disk tuning cache (`.hpf-tune.json`).
//!
//! One JSON object per file: `{"version": 4, "entries": [...]}` with one
//! entry per kernel fingerprint, each holding the winning grid, the
//! `engine-bytecode` label (re-parsed with `ExecConfig::from_cli_str`; one
//! naming a checked-mode (`-interp`) configuration is outside the space: stale), the
//! superstep depth, and the winner's SP-2 and host prices. Reads go
//! through the shared [`hpf_trace::json`] parser; writes are a hand-rolled
//! [`hpf_trace::json::Value::render`] of the same shape, so the file
//! round-trips through the crate's own machinery. A file that fails to
//! parse — truncated write, hand-edited junk, wrong version — is reported
//! as an error string; the tuner warns and falls back to a fresh search
//! rather than failing the run.

use hpf_trace::json::{parse, Value};
use std::path::Path;

/// Cache format version; bumped when the entry schema changes so stale
/// files fall back to a fresh search instead of being misread (v2 added
/// the winning superstep depth; v3 dropped the spawn threshold, which went
/// with the per-step thread spawn it worked around; v4 records the host
/// price in place of a measurement, under keys that fold in the host's
/// core count).
pub const CACHE_VERSION: u64 = 4;

/// The default cache file name, resolved in the working directory.
pub const DEFAULT_CACHE_FILE: &str = ".hpf-tune.json";

/// One cached tuning decision, keyed by the kernel fingerprint.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheEntry {
    /// Kernel fingerprint ([`fingerprint`]): normalized IR, machine shape,
    /// problem size, host cores and VM tier, FNV-1a hashed to 16 hex digits.
    pub key: String,
    /// Winning PE mesh.
    pub grid: Vec<usize>,
    /// Winning `engine-bytecode` label
    /// ([`hpf_exec::ExecConfig::label`] / `from_cli_str` round-trip).
    pub config: String,
    /// Winning communication-avoiding superstep depth (1 = classic).
    pub superstep: u64,
    /// The winner's modeled step time when it was searched, milliseconds.
    pub modeled_ms: f64,
    /// The winner's host price of a step when it was searched, milliseconds.
    pub host_ms: f64,
}

/// Deterministic 64-bit FNV-1a over a seed string, as 16 hex digits — the
/// kernel fingerprint. The seed is built by the caller from everything the
/// tuning decision depends on (normalized IR listing, array shapes, PE
/// count, halo), so equal seeds mean the cached winner is reusable and any
/// change to kernel or machine re-keys the search.
pub fn fingerprint(seed: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in seed.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// An in-memory image of the cache file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuneCache {
    /// Entries in file order; at most one per key.
    pub entries: Vec<CacheEntry>,
}

impl TuneCache {
    /// Load the cache at `path`. A missing file is an empty cache (the
    /// normal cold start); an unreadable or unparsable file is an error
    /// string describing the corruption, which callers surface as a
    /// warning before searching fresh.
    pub fn load(path: &Path) -> Result<TuneCache, String> {
        if !path.exists() {
            return Ok(TuneCache::default());
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
        let v = parse(&text).map_err(|e| format!("corrupt JSON: {e}"))?;
        Self::from_value(&v)
    }

    fn from_value(v: &Value) -> Result<TuneCache, String> {
        let version = num(v.get("version").ok_or("missing version")?)? as u64;
        if version != CACHE_VERSION {
            return Err(format!("version {version}, expected {CACHE_VERSION}"));
        }
        let entries = match v.get("entries").ok_or("missing entries")? {
            Value::Array(a) => a,
            _ => return Err("entries is not an array".into()),
        };
        let mut out = TuneCache::default();
        for e in entries {
            let grid = match e.get("grid").ok_or("entry missing grid")? {
                Value::Array(a) => {
                    a.iter().map(|d| num(d).map(|n| n as usize)).collect::<Result<Vec<_>, _>>()?
                }
                _ => return Err("grid is not an array".into()),
            };
            if grid.is_empty() || grid.contains(&0) {
                return Err(format!("bad grid {grid:?}"));
            }
            out.entries.push(CacheEntry {
                key: string(e.get("key").ok_or("entry missing key")?)?,
                grid,
                config: string(e.get("config").ok_or("entry missing config")?)?,
                superstep: num(e.get("superstep").ok_or("entry missing superstep")?)? as u64,
                modeled_ms: num(e.get("modeled_ms").ok_or("entry missing modeled_ms")?)?,
                host_ms: num(e.get("host_ms").ok_or("entry missing host_ms")?)?,
            });
        }
        Ok(out)
    }

    /// The entry cached for `key`, if any.
    pub fn lookup(&self, key: &str) -> Option<&CacheEntry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// Insert `entry`, replacing any existing entry with the same key.
    pub fn insert(&mut self, entry: CacheEntry) {
        self.entries.retain(|e| e.key != entry.key);
        self.entries.push(entry);
    }

    /// Serialize to the on-disk JSON (trailing newline included).
    pub fn to_json(&self) -> String {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                Value::Object(vec![
                    ("key".into(), Value::String(e.key.clone())),
                    (
                        "grid".into(),
                        Value::Array(e.grid.iter().map(|&d| Value::Number(d as f64)).collect()),
                    ),
                    ("config".into(), Value::String(e.config.clone())),
                    ("superstep".into(), Value::Number(e.superstep as f64)),
                    ("modeled_ms".into(), Value::Number(e.modeled_ms)),
                    ("host_ms".into(), Value::Number(e.host_ms)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("version".into(), Value::Number(CACHE_VERSION as f64)),
            ("entries".into(), Value::Array(entries)),
        ]);
        doc.render() + "\n"
    }

    /// Write the cache to `path` (overwriting).
    pub fn store(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn num(v: &Value) -> Result<f64, String> {
    match v {
        Value::Number(n) => Ok(*n),
        other => Err(format!("expected number, found {other:?}")),
    }
}

fn string(v: &Value) -> Result<String, String> {
    match v {
        Value::String(s) => Ok(s.clone()),
        other => Err(format!("expected string, found {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: &str) -> CacheEntry {
        CacheEntry {
            key: key.to_string(),
            grid: vec![2, 2],
            config: "threaded-bytecode".to_string(),
            superstep: 2,
            modeled_ms: 1.25,
            host_ms: 0.5,
        }
    }

    #[test]
    fn fingerprint_is_deterministic_and_input_sensitive() {
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
        assert_eq!(fingerprint("").len(), 16);
        // Known FNV-1a 64 vector.
        assert_eq!(fingerprint(""), "cbf29ce484222325");
    }

    #[test]
    fn json_round_trip_preserves_entries() {
        let mut c = TuneCache::default();
        c.insert(entry("aaaa"));
        c.insert(entry("bbbb"));
        let parsed = TuneCache::from_value(&parse(&c.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn insert_replaces_same_key() {
        let mut c = TuneCache::default();
        c.insert(entry("k"));
        let mut e2 = entry("k");
        e2.grid = vec![4, 1];
        c.insert(e2.clone());
        assert_eq!(c.entries.len(), 1);
        assert_eq!(c.lookup("k"), Some(&e2));
    }

    #[test]
    fn corrupt_documents_are_errors_not_panics() {
        for bad in [
            "{",                                             // truncated
            "[]",                                            // wrong shape
            "{\"version\":99,\"entries\":[]}",               // future version
            "{\"version\":1,\"entries\":[]}",                // pre-superstep version
            "{\"version\":2,\"entries\":[]}",                // spawn-threshold version
            "{\"version\":3,\"entries\":[]}",                // measured-winner version
            "{\"version\":4}",                               // missing entries
            "{\"version\":4,\"entries\":[{\"key\":1}]}",     // wrong field type
            "{\"version\":4,\"entries\":[{\"key\":\"x\"}]}", // missing fields
        ] {
            let r = parse(bad).and_then(|v| TuneCache::from_value(&v));
            assert!(r.is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn load_missing_file_is_empty_cache() {
        let path =
            std::env::temp_dir().join(format!("hpf-tune-missing-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert_eq!(TuneCache::load(&path).unwrap(), TuneCache::default());
    }

    #[test]
    fn store_then_load_round_trips_on_disk() {
        let path = std::env::temp_dir().join(format!("hpf-tune-rt-{}.json", std::process::id()));
        let mut c = TuneCache::default();
        c.insert(entry("deadbeef01234567"));
        c.store(&path).unwrap();
        assert_eq!(TuneCache::load(&path).unwrap(), c);
        std::fs::remove_file(&path).unwrap();
    }
}
