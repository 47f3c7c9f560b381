//! Harness-side spans: one per call into a layer's public function, named
//! `<layer>.<what>`, with start, end and the span that was open when it
//! began. Kept in memory; [`write_json`] dumps them when the run ends.
//!
//! The recorder is off in the untraced run ([`span`] then only calls its
//! closure), so the end-to-end numbers never pay for it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Turn recording on for this thread (the driver thread — the harness
/// never calls the program from any other).
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() =
            Some(Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() })
    });
}

/// Run `f` inside a span called `name`. The recorder is borrowed only to
/// open and close the span, never while `f` runs, so spans nest freely.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let id = rec.spans.len() as u32;
            let start_ns = rec.epoch.elapsed().as_nanos() as u64;
            rec.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: rec.open.last().copied(),
            });
            rec.open.push(id);
            id
        })
    });
    let out = f();
    if let Some(id) = id {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id as usize].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                // Also drops spans a caught panic left open above this one.
                if let Some(at) = rec.open.iter().position(|&o| o == id) {
                    rec.open.truncate(at);
                }
            }
        });
    }
    out
}

/// Like [`span`], also returning the seconds `f` took (measured whether or
/// not the recorder is on).
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = span(name, f);
    (out, t.elapsed().as_secs_f64())
}

/// What the recorded spans add up to.
pub struct Summary {
    /// Self time per layer (the part of the name before the first `.`):
    /// a span's duration minus what its direct children cover.
    pub layer_self_ns: BTreeMap<String, u64>,
    /// Recorder epoch to now.
    pub wall_ns: u64,
    /// Share of the wall that lies inside some span not of the `bench`
    /// layer, i.e. is attributed to a layer of the program.
    pub attributed_pct: f64,
    pub count: usize,
}

pub fn summary() -> Summary {
    RECORDER.with(|r| {
        let r = r.borrow();
        let rec = r.as_ref().expect("summary() needs the recorder on");
        let mut child_ns = vec![0u64; rec.spans.len()];
        for s in &rec.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut layer_self_ns: BTreeMap<String, u64> = BTreeMap::new();
        for (s, kids) in rec.spans.iter().zip(&child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *layer_self_ns.entry(layer.to_string()).or_default() +=
                (s.end_ns - s.start_ns).saturating_sub(*kids);
        }
        let wall_ns = rec.epoch.elapsed().as_nanos() as u64;
        let in_layers: u64 =
            layer_self_ns.iter().filter(|(l, _)| l.as_str() != "bench").map(|(_, ns)| ns).sum();
        Summary {
            attributed_pct: 100.0 * in_layers as f64 / wall_ns.max(1) as f64,
            layer_self_ns,
            wall_ns,
            count: rec.spans.len(),
        }
    })
}

/// The trace file: the per-layer self times, then every span as
/// `[name-index, start_ns, end_ns, parent]` (parent −1 at the root).
pub fn write_json(path: &std::path::Path, workload: &str) -> std::io::Result<()> {
    let sum = summary();
    RECORDER.with(|r| {
        let r = r.borrow();
        let rec = r.as_ref().expect("checked by summary()");
        let mut names: Vec<&'static str> = Vec::new();
        let mut out = String::with_capacity(64 + rec.spans.len() * 40);
        out.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"wall_ns\":{},\"attributed_pct\":{:.3},\"layer_self_ns\":{{",
            sum.wall_ns, sum.attributed_pct
        ));
        let layers: Vec<String> =
            sum.layer_self_ns.iter().map(|(l, ns)| format!("\"{l}\":{ns}")).collect();
        out.push_str(&layers.join(","));
        out.push_str("},\"spans\":[");
        for (i, s) in rec.spans.iter().enumerate() {
            let ni = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                names.len() - 1
            });
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!("[{ni},{},{},{parent}]", s.start_ns, s.end_ns));
        }
        out.push_str("],\"names\":[");
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        out.push_str(&quoted.join(","));
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    })
}
