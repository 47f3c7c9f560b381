//! Point-in-time export of a run's metrics.
//!
//! A [`MetricsSnapshot`] is everything the executor collected, frozen
//! for export: a copy of each PE recorder's [`Fold`], the driver's step
//! counters and step-wall histogram, and the step series. It renders
//! three ways — a JSON document (`hpf-metrics/v1`), Prometheus text
//! exposition, and the tables the `hpfsc --report` page is built from.

use crate::fold::Fold;
use crate::histogram::{bucket_upper, Histogram};
use crate::json::{escape, Value};
use crate::sample::StepSeries;
use crate::table::{Align, TextTable};

/// Frozen metrics for one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// The execution-config label the run used (e.g.
    /// `threaded-bytecode`).
    pub config: String,
    /// Number of PEs.
    pub pes: usize,
    /// Plan steps executed while metrics were on.
    pub steps: u64,
    /// Logical time steps those plan steps covered (supersteps cover
    /// several each).
    pub logical_steps: u64,
    /// Bytes sent between PEs over those steps.
    pub bytes_moved: u64,
    /// Wall time of each plan step (driver view).
    pub step_wall: Histogram,
    /// Each PE recorder's per-kind aggregates, in PE order.
    pub per_pe: Vec<Fold>,
    /// The per-step time series.
    pub series: StepSeries,
}

impl MetricsSnapshot {
    /// All PE folds merged into one — the machine-wide view of the
    /// per-kind latency data.
    pub fn merged_pe_registry(&self) -> Fold {
        let mut all = Fold::default();
        self.per_pe.iter().for_each(|f| all.merge(f));
        all
    }

    fn driver_counters(&self) -> [(&'static str, u64); 3] {
        [
            ("steps", self.steps),
            ("logical_steps", self.logical_steps),
            ("bytes_moved", self.bytes_moved),
        ]
    }

    /// JSON document (`hpf-metrics/v1`).
    pub fn to_json(&self) -> Value {
        let pe = |f: &Fold| writer_json(&[], f.hists());
        Value::Object(vec![
            ("schema".into(), Value::String("hpf-metrics/v1".into())),
            ("config".into(), Value::String(self.config.clone())),
            ("pes".into(), Value::Number(self.pes as f64)),
            ("steps".into(), Value::Number(self.steps as f64)),
            (
                "driver".into(),
                writer_json(&self.driver_counters(), [("step-wall", &self.step_wall)].into_iter()),
            ),
            ("per_pe".into(), Value::Array(self.per_pe.iter().map(pe).collect())),
            ("series".into(), series_json(&self.series)),
        ])
    }

    /// Prometheus text exposition: driver samples labelled
    /// `pe="driver"`, PE samples labelled by index, plus series-level
    /// gauges. Metric names are sanitized to `[a-zA-Z0-9_]` and prefixed
    /// `hpf_`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let driver = prom_label("pe", "driver");
        for (n, c) in self.driver_counters() {
            let name = prom_name(n);
            out.push_str(&format!("# TYPE {name}_total counter\n"));
            out.push_str(&format!("{name}_total{{{driver}}} {c}\n"));
        }
        hist_prometheus(&mut out, &driver, "step-wall", &self.step_wall);
        for (pe, f) in self.per_pe.iter().enumerate() {
            let labels = prom_label("pe", &pe.to_string());
            f.hists().for_each(|(n, h)| hist_prometheus(&mut out, &labels, n, h));
        }
        out.push_str("# TYPE hpf_load_imbalance gauge\n");
        out.push_str(&format!("hpf_load_imbalance {}\n", self.series.mean_imbalance()));
        out.push_str("# TYPE hpf_steps_sampled gauge\n");
        out.push_str(&format!("hpf_steps_sampled {}\n", self.series.len()));
        out
    }

    /// Per-PE utilization table: busy fraction, span count, span wall
    /// time.
    pub fn render_utilization(&self) -> String {
        let busy = self.series.mean_busy();
        let mut t = TextTable::new(&[
            ("pe", Align::Left),
            ("busy%", Align::Right),
            ("spans", Align::Right),
            ("span-ms", Align::Right),
        ]);
        for (pe, f) in self.per_pe.iter().enumerate() {
            let spans: u64 = f.hists().map(|(_, h)| h.count()).sum();
            let wall: u64 = f.hists().map(|(_, h)| h.sum()).sum();
            t.row([
                format!("PE {pe}"),
                format!("{:.1}", busy.get(pe).copied().unwrap_or(0.0) * 100.0),
                spans.to_string(),
                format!("{:.3}", wall as f64 / 1e6),
            ]);
        }
        t.line(format!(
            "(mean over {} sampled steps; imbalance max/mean = {:.2})",
            self.series.len(),
            self.series.mean_imbalance()
        ));
        t.render()
    }

    /// Histogram summary table over the merged PE folds: count,
    /// p50/p99, max per span kind, in microseconds.
    pub fn render_histograms(&self) -> String {
        let merged = self.merged_pe_registry();
        let mut t = TextTable::new(&[
            ("histogram", Align::Left),
            ("count", Align::Right),
            ("p50-us", Align::Right),
            ("p99-us", Align::Right),
            ("max-us", Align::Right),
        ]);
        for (name, h) in merged.hists() {
            t.row([
                name.to_string(),
                h.count().to_string(),
                format!("{:.1}", h.quantile(0.5) as f64 / 1e3),
                format!("{:.1}", h.quantile(0.99) as f64 / 1e3),
                format!("{:.1}", h.max() as f64 / 1e3),
            ]);
        }
        if t.is_empty() {
            t.line("(no spans recorded)");
        }
        t.render()
    }
}

/// One writer's JSON form: `{"counters":{...},"gauges":{},"hists":{name:
/// {"count":..,"sum_ns":..,"min_ns":..,"max_ns":..,"p50_ns":..,
/// "p99_ns":..}}}`. Bucket arrays are omitted — the Prometheus
/// exposition carries them; the snapshot keeps the digest. `gauges` is
/// part of the v1 schema and always empty.
fn writer_json<'a>(
    counters: &[(&str, u64)],
    hists: impl Iterator<Item = (&'static str, &'a Histogram)>,
) -> Value {
    let counters = counters.iter().map(|&(n, c)| (n.into(), Value::Number(c as f64))).collect();
    let digest = |h: &Histogram| {
        Value::Object(vec![
            ("count".into(), Value::Number(h.count() as f64)),
            ("sum_ns".into(), Value::Number(h.sum() as f64)),
            ("min_ns".into(), Value::Number(h.min() as f64)),
            ("max_ns".into(), Value::Number(h.max() as f64)),
            ("p50_ns".into(), Value::Number(h.quantile(0.5) as f64)),
            ("p99_ns".into(), Value::Number(h.quantile(0.99) as f64)),
        ])
    };
    Value::Object(vec![
        ("counters".into(), Value::Object(counters)),
        ("gauges".into(), Value::Object(Vec::new())),
        ("hists".into(), Value::Object(hists.map(|(n, h)| (n.into(), digest(h))).collect())),
    ])
}

/// One histogram's Prometheus exposition (cumulative buckets, sum,
/// count), every sample tagged with `labels`.
fn hist_prometheus(out: &mut String, labels: &str, name: &str, h: &Histogram) {
    let name = prom_name(name);
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cum = 0u64;
    for (i, &c) in h.buckets().iter().enumerate().filter(|(_, &c)| c > 0) {
        cum += c;
        out.push_str(&format!("{name}_bucket{{{labels},le=\"{}\"}} {cum}\n", bucket_upper(i)));
    }
    out.push_str(&format!("{name}_bucket{{{labels},le=\"+Inf\"}} {}\n", h.count()));
    out.push_str(&format!("{name}_sum{{{labels}}} {}\n", h.sum()));
    out.push_str(&format!("{name}_count{{{labels}}} {}\n", h.count()));
}

/// Sanitize a metric name for Prometheus and prefix the namespace.
fn prom_name(name: &str) -> String {
    let sanitized = name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' });
    "hpf_".chars().chain(sanitized).collect()
}

/// Quote a label value for Prometheus (reuses the JSON string escaper —
/// the grammars agree on `\\`, `\"`, and `\n`, the only specials here).
fn prom_label(key: &str, value: &str) -> String {
    format!("{key}=\"{}\"", escape(value))
}

fn series_json(s: &StepSeries) -> Value {
    let samples = s
        .samples()
        .iter()
        .map(|x| {
            Value::Object(vec![
                ("step".into(), Value::Number(x.step as f64)),
                ("wall_ns".into(), Value::Number(x.wall_ns as f64)),
                ("compute_ns".into(), Value::Number(x.compute_ns as f64)),
                ("pack_ns".into(), Value::Number(x.pack_ns as f64)),
                ("send_ns".into(), Value::Number(x.send_ns as f64)),
                ("drain_ns".into(), Value::Number(x.drain_ns as f64)),
                ("superstep_ns".into(), Value::Number(x.superstep_ns as f64)),
                ("bytes_moved".into(), Value::Number(x.bytes_moved as f64)),
                ("imbalance".into(), Value::Number(x.imbalance)),
                ("busy".into(), Value::Array(x.busy.iter().map(|&b| Value::Number(b)).collect())),
            ])
        })
        .collect();
    Value::Object(vec![
        ("dropped".into(), Value::Number(s.dropped() as f64)),
        ("samples".into(), Value::Array(samples)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::StepSample;
    use crate::span::{Event, SpanKind};

    fn fold(spans: &[(SpanKind, u64)]) -> Fold {
        let mut f = Fold::default();
        for &(kind, dur_ns) in spans {
            f.add(&Event { kind, start_ns: 0, dur_ns });
        }
        f
    }

    fn snapshot() -> MetricsSnapshot {
        let mut step_wall = Histogram::new();
        step_wall.record(5000);
        let mut series = StepSeries::default();
        series.push(StepSample {
            step: 0,
            wall_ns: 5000,
            compute_ns: 4000,
            bytes_moved: 64,
            busy: vec![0.24, 0.6],
            imbalance: StepSample::imbalance_of(&[0.24, 0.6]),
            ..Default::default()
        });
        MetricsSnapshot {
            config: "threaded-bytecode".into(),
            pes: 2,
            steps: 1,
            logical_steps: 1,
            bytes_moved: 64,
            step_wall,
            per_pe: vec![
                fold(&[
                    (SpanKind::KernelExec, 5),
                    (SpanKind::KernelExec, 900),
                    (SpanKind::Pack, 200),
                ]),
                fold(&[(SpanKind::KernelExec, 3000)]),
            ],
            series,
        }
    }

    #[test]
    fn json_round_trips_and_carries_the_schema_and_digests() {
        let j = snapshot().to_json();
        assert_eq!(j.get("schema"), Some(&Value::String("hpf-metrics/v1".into())));
        assert_eq!(j.get("pes"), Some(&Value::Number(2.0)));
        let back = crate::json::parse(&j.render()).unwrap();
        assert_eq!(back.render(), j.render());
        let driver = j.get("driver").unwrap();
        assert_eq!(driver.get("counters").unwrap().get("bytes_moved"), Some(&Value::Number(64.0)));
        assert_eq!(driver.get("gauges"), Some(&Value::Object(Vec::new())));
        assert!(driver.get("hists").unwrap().get("step-wall").is_some());
        let Some(Value::Array(pes)) = j.get("per_pe") else { panic!("no per_pe array") };
        let compute = pes[0].get("hists").unwrap().get("kernel-exec").unwrap();
        assert_eq!(compute.get("count"), Some(&Value::Number(2.0)));
        assert_eq!(compute.get("max_ns"), Some(&Value::Number(900.0)));
        assert!(pes[1].get("hists").unwrap().get("pack").is_none(), "only kinds seen");
    }

    #[test]
    fn prometheus_is_cumulative_and_labels_driver_and_pes() {
        let p = snapshot().to_prometheus();
        assert!(p.contains("hpf_steps_total{pe=\"driver\"} 1"), "{p}");
        assert!(p.contains("hpf_step_wall_count{pe=\"driver\"} 1"), "{p}");
        assert!(p.contains("hpf_kernel_exec_bucket{pe=\"0\",le=\"+Inf\"} 2"), "{p}");
        assert!(p.contains("hpf_kernel_exec_sum{pe=\"0\"} 905"), "{p}");
        // Bucket counts are cumulative: the le="1023" bucket sees both.
        assert!(p.contains("hpf_kernel_exec_bucket{pe=\"0\",le=\"1023\"} 2"), "{p}");
        assert!(p.contains("hpf_kernel_exec_count{pe=\"1\"} 1"), "{p}");
        assert!(p.contains("hpf_load_imbalance"), "{p}");
        assert_eq!(prom_name("kernel-exec"), "hpf_kernel_exec");
    }

    #[test]
    fn tables_cover_every_pe_and_merged_hists() {
        let s = snapshot();
        let util = s.render_utilization();
        assert!(util.contains("PE 0") && util.contains("PE 1"), "{util}");
        assert!(util.contains("imbalance"), "{util}");
        let hist = s.render_histograms();
        assert!(hist.contains("kernel-exec"), "{hist}");
        assert!(hist.contains("pack"), "{hist}");
        // Merged: both PEs' kernel spans in one row.
        assert_eq!(s.merged_pe_registry().kind(SpanKind::KernelExec).count(), 3);
    }
}
