//! Chrome `trace_event` JSON export.
//!
//! The output is the "JSON object format" understood by `chrome://tracing`
//! and Perfetto: a `traceEvents` array of metadata (`ph:"M"`) events naming
//! the process and one thread per track, followed by complete (`ph:"X"`)
//! duration events. Timestamps are microseconds since the process-wide
//! trace epoch; each track's events are emitted in non-decreasing `ts`
//! order. Hand-rolled — the build environment has no serde — and parsed
//! back by [`crate::json`] in tests and CI.

use crate::summary::Trace;

// The JSON string escaper lives with the rest of the JSON machinery; this
// re-export keeps the historical `chrome::escape` path working.
pub use crate::json::escape;

fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e3)
}

impl Trace {
    /// Serialize to Chrome `trace_event` JSON.
    pub fn to_chrome_json(&self) -> String {
        let mut evs: Vec<String> = Vec::new();
        evs.push(
            "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"hpf-stencil\"}}"
                .to_string(),
        );
        for (tid, track) in self.tracks.iter().enumerate() {
            evs.push(format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(&track.name)
            ));
            evs.push(format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_sort_index\",\
                 \"args\":{{\"sort_index\":{tid}}}}}"
            ));
        }
        for (tid, track) in self.tracks.iter().enumerate() {
            for e in &track.events {
                evs.push(format!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"dur\":{},\
                     \"name\":\"{}\",\"cat\":\"{}\"}}",
                    us(e.start_ns),
                    us(e.dur_ns),
                    e.kind.label(),
                    e.kind.category(),
                ));
            }
        }
        format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n", evs.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::span::{Event, SpanKind};
    use crate::summary::Track;

    fn sample() -> Trace {
        Trace {
            tracks: vec![
                Track {
                    name: "driver".into(),
                    events: vec![Event { kind: SpanKind::Step, start_ns: 0, dur_ns: 5_000 }],
                    dropped: 0,
                },
                Track {
                    name: "PE 0".into(),
                    events: vec![
                        Event { kind: SpanKind::KernelExec, start_ns: 1_000, dur_ns: 2_000 },
                        Event { kind: SpanKind::CommDrain, start_ns: 3_000, dur_ns: 500 },
                    ],
                    dropped: 0,
                },
            ],
        }
    }

    #[test]
    fn export_parses_and_has_expected_shape() {
        let j = sample().to_chrome_json();
        let v = parse(&j).expect("valid JSON");
        let obj = match &v {
            Value::Object(kv) => kv,
            _ => panic!("top level must be an object"),
        };
        let events = obj
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| match v {
                Value::Array(a) => a,
                _ => panic!("traceEvents must be an array"),
            })
            .expect("has traceEvents");
        // 1 process_name + 2x(thread_name + sort) + 3 X events
        assert_eq!(events.len(), 1 + 4 + 3);
    }

    #[test]
    fn per_track_timestamps_are_monotonic() {
        let j = sample().to_chrome_json();
        let v = parse(&j).unwrap();
        let mut last_ts: std::collections::HashMap<i64, f64> = Default::default();
        if let Value::Object(kv) = &v {
            if let Some((_, Value::Array(evs))) = kv.iter().find(|(k, _)| k == "traceEvents") {
                for e in evs {
                    if let Value::Object(fields) = e {
                        let get =
                            |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
                        if !matches!(get("ph"), Some(Value::String(s)) if s == "X") {
                            continue;
                        }
                        let tid = match get("tid") {
                            Some(Value::Number(n)) => *n as i64,
                            _ => panic!("X event missing tid"),
                        };
                        let ts = match get("ts") {
                            Some(Value::Number(n)) => *n,
                            _ => panic!("X event missing ts"),
                        };
                        let prev = last_ts.insert(tid, ts);
                        assert!(prev.is_none_or(|p| ts >= p), "ts regressed on tid {tid}");
                    }
                }
            }
        }
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn spans_carry_their_category_and_no_args() {
        let j = sample().to_chrome_json();
        assert!(j.contains("\"name\":\"comm-drain\",\"cat\":\"comm\"}"), "{j}");
        assert!(j.contains("\"name\":\"kernel-exec\",\"cat\":\"compute\"}"), "{j}");
    }
}
