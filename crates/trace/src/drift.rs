//! Cost-model drift attribution.
//!
//! The tuner prunes candidate configurations by modeled time, so the
//! model's per-component honesty matters more than its absolute scale:
//! the simulator's modeled SP-2 nanoseconds and the host's measured
//! nanoseconds differ by a large, roughly constant factor, but if one
//! component's factor diverges from the others', the model is mis-pricing
//! that component and the tuner's ranking can no longer be trusted.
//!
//! A [`DriftReport`] therefore joins, per component, the modeled time
//! (cost model applied to the exact `PeStats` counters) against the
//! measured wall time of the matching span kinds, and flags a component
//! when its modeled/measured ratio, *normalized by the median component
//! ratio*, leaves the [`BAND`]. The absolute scale divides out
//! (and a single drifting component cannot drag the normalizer the way a
//! weighted mean would); what remains is relative mis-pricing.

use crate::json::Value;
use crate::table::{Align, TextTable};

/// Acceptance band `(low, high)` for a component's normalized
/// modeled/measured ratio.
pub const BAND: (f64, f64) = (0.5, 2.0);

/// One modeled-vs-measured pairing.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftComponent {
    /// Component name ("compute", "msg-latency", "bandwidth", ...).
    pub name: &'static str,
    /// Cost-model nanoseconds for this component, summed over PEs.
    pub modeled_ns: f64,
    /// Measured wall nanoseconds in the matching span kinds, summed
    /// over PEs.
    pub measured_ns: f64,
}

impl DriftComponent {
    /// Modeled over measured; infinite when measured is zero but modeled
    /// is not (no measured side — rendered as `-` / `null`), and 1.0 when
    /// both are zero (no evidence of drift).
    pub fn ratio(&self) -> f64 {
        if self.measured_ns > 0.0 {
            self.modeled_ns / self.measured_ns
        } else if self.modeled_ns > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }
}

/// The drift report for one run.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftReport {
    /// Per-component pairings, in a fixed presentation order.
    pub components: Vec<DriftComponent>,
    /// The model's bottom line for the run — reconciles exactly with
    /// `CostModel::modeled_time_ns` on the run's aggregate counters.
    pub modeled_time_ns: f64,
    /// Total measured step wall nanoseconds (driver view).
    pub measured_wall_ns: u64,
}

impl DriftReport {
    /// The run-wide modeled/measured ratio (total over total); 1.0 when
    /// there is no measured evidence. Reported for context only — the
    /// flagging normalizer is [`DriftReport::center_ratio`], because this
    /// weighted total is itself dragged by whichever component drifts.
    pub fn overall_ratio(&self) -> f64 {
        let modeled: f64 = self.components.iter().map(|c| c.modeled_ns).sum();
        let measured: f64 = self.components.iter().map(|c| c.measured_ns).sum();
        if measured > 0.0 {
            modeled / measured
        } else {
            1.0
        }
    }

    /// The median ratio over components active on both sides — the
    /// robust estimate of the run's model-to-host scale factor. 1.0 when
    /// no component has evidence on both sides.
    pub fn center_ratio(&self) -> f64 {
        let mut ratios: Vec<f64> = self
            .components
            .iter()
            .filter(|c| c.modeled_ns > 0.0 && c.measured_ns > 0.0)
            .map(DriftComponent::ratio)
            .collect();
        if ratios.is_empty() {
            return 1.0;
        }
        ratios.sort_by(|a, b| a.total_cmp(b));
        let mid = ratios.len() / 2;
        if ratios.len() % 2 == 1 {
            ratios[mid]
        } else {
            (ratios[mid - 1] + ratios[mid]) / 2.0
        }
    }

    /// A component's ratio normalized by [`DriftReport::center_ratio`]:
    /// 1.0 means it drifts exactly as much as the typical component.
    pub fn normalized_ratio(&self, c: &DriftComponent) -> f64 {
        let center = self.center_ratio();
        if center > 0.0 && center.is_finite() {
            c.ratio() / center
        } else {
            c.ratio()
        }
    }

    /// Is this component's normalized ratio outside the band? A component
    /// with no measured spans is never flagged: each engine records a
    /// given cost under the span kinds its protocol actually exercises
    /// (the sequential engine never waits on messages, the threaded
    /// engine packs inside its post spans), so an empty measured side
    /// means *no evidence*, not infinite drift.
    pub fn is_flagged(&self, c: &DriftComponent) -> bool {
        if c.measured_ns <= 0.0 {
            return false;
        }
        let r = self.normalized_ratio(c);
        !(BAND.0..=BAND.1).contains(&r)
    }

    /// The components currently outside the band.
    pub fn flagged(&self) -> Vec<&DriftComponent> {
        self.components.iter().filter(|c| self.is_flagged(c)).collect()
    }

    /// Rendered drift table: one row per component with modeled ms,
    /// measured ms, raw and normalized ratios, and a `DRIFT` marker.
    pub fn render_table(&self) -> String {
        let mut t = TextTable::new(&[
            ("component", Align::Left),
            ("modeled-ms", Align::Right),
            ("measured-ms", Align::Right),
            ("ratio", Align::Right),
            ("rel", Align::Right),
            ("", Align::Left),
        ]);
        for c in &self.components {
            t.row([
                c.name.to_string(),
                format!("{:.3}", c.modeled_ns / 1e6),
                format!("{:.3}", c.measured_ns / 1e6),
                fmt_ratio(c.ratio()),
                fmt_ratio(self.normalized_ratio(c)),
                if self.is_flagged(c) { "DRIFT".into() } else { String::new() },
            ]);
        }
        t.line(format!(
            "(modeled {:.3} ms total, measured wall {:.3} ms; \
             rel = component ratio / median ratio, band {:.2}..{:.2})",
            self.modeled_time_ns / 1e6,
            self.measured_wall_ns as f64 / 1e6,
            BAND.0,
            BAND.1,
        ));
        t.render()
    }

    /// JSON form, renderable by `hpf_trace::json`.
    pub fn to_json(&self) -> Value {
        let comps = self
            .components
            .iter()
            .map(|c| {
                Value::Object(vec![
                    ("name".into(), Value::String(c.name.into())),
                    ("modeled_ns".into(), Value::Number(c.modeled_ns)),
                    ("measured_ns".into(), Value::Number(c.measured_ns)),
                    ("ratio".into(), json_ratio(c.ratio())),
                    ("normalized_ratio".into(), json_ratio(self.normalized_ratio(c))),
                    ("flagged".into(), Value::Bool(self.is_flagged(c))),
                ])
            })
            .collect();
        Value::Object(vec![
            ("components".into(), Value::Array(comps)),
            ("modeled_time_ns".into(), Value::Number(self.modeled_time_ns)),
            ("measured_wall_ns".into(), Value::Number(self.measured_wall_ns as f64)),
            ("band".into(), Value::Array(vec![Value::Number(BAND.0), Value::Number(BAND.1)])),
        ])
    }
}

/// A ratio with no measured side (infinite) is `null`: no evidence, not a
/// number.
fn json_ratio(r: f64) -> Value {
    if r.is_finite() {
        Value::Number(r)
    } else {
        Value::Null
    }
}

/// A ratio with no measured side (infinite) is `-`.
fn fmt_ratio(r: f64) -> String {
    if r.is_finite() {
        format!("{r:.2}")
    } else {
        "-".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(components: Vec<DriftComponent>) -> DriftReport {
        DriftReport { components, modeled_time_ns: 0.0, measured_wall_ns: 1_000_000 }
    }

    #[test]
    fn uniform_scale_factor_is_not_drift() {
        // Model is 100x the wall everywhere: every normalized ratio is 1.
        let r = report(vec![
            DriftComponent { name: "compute", modeled_ns: 100_000.0, measured_ns: 1_000.0 },
            DriftComponent { name: "bandwidth", modeled_ns: 50_000.0, measured_ns: 500.0 },
        ]);
        assert!(r.flagged().is_empty(), "{:?}", r.flagged());
        assert!((r.overall_ratio() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn a_mispriced_component_is_flagged() {
        // Bandwidth drifts 10x beyond the run's overall factor.
        let r = report(vec![
            DriftComponent { name: "compute", modeled_ns: 100_000.0, measured_ns: 1_000.0 },
            DriftComponent { name: "compute2", modeled_ns: 100_000.0, measured_ns: 1_000.0 },
            DriftComponent { name: "bandwidth", modeled_ns: 1_000_000.0, measured_ns: 500.0 },
        ]);
        let flagged = r.flagged();
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].name, "bandwidth");
        let table = r.render_table();
        assert!(table.contains("DRIFT"), "{table}");
        assert!(table.contains("bandwidth"), "{table}");
    }

    #[test]
    fn zero_modeled_with_real_wall_is_flagged() {
        // The model prices a component at zero that measurably costs time.
        let r = report(vec![
            DriftComponent { name: "compute", modeled_ns: 100_000.0, measured_ns: 1_000.0 },
            DriftComponent { name: "bandwidth", modeled_ns: 0.0, measured_ns: 1_000.0 },
        ]);
        assert_eq!(r.flagged().len(), 1);
        assert_eq!(r.flagged()[0].name, "bandwidth");
    }

    #[test]
    fn idle_components_are_never_flagged() {
        let r = report(vec![DriftComponent { name: "idle", modeled_ns: 0.0, measured_ns: 0.0 }]);
        assert!(r.flagged().is_empty());
        assert_eq!(r.components[0].ratio(), 1.0);
    }

    #[test]
    fn unmeasured_components_render_as_dash_and_null_never_inf() {
        // The sequential engine records no comm-post/comm-drain span, the
        // threaded engine no pack/unpack: modeled > 0, nothing measured.
        let r = report(vec![
            DriftComponent { name: "compute", modeled_ns: 100_000.0, measured_ns: 1_000.0 },
            DriftComponent { name: "msg-latency", modeled_ns: 5.0, measured_ns: 0.0 },
        ]);
        assert!(r.flagged().is_empty(), "no evidence is not drift");
        assert_eq!(r.center_ratio(), 100.0, "the unmeasured component stays out of the median");
        let table = r.render_table();
        let row = table.lines().find(|l| l.starts_with("msg-latency")).unwrap();
        assert!(row.trim_end().ends_with("0.000      -    -"), "{table}");
        assert!(!table.contains("inf"), "{table}");
        let j = r.to_json();
        let back = crate::json::parse(&j.render()).unwrap();
        assert_eq!(back.render(), j.render());
        let Some(Value::Array(comps)) = back.get("components") else { panic!("no components") };
        assert_eq!(comps[0].get("ratio"), Some(&Value::Number(100.0)));
        assert_eq!(comps[1].get("ratio"), Some(&Value::Null));
        assert_eq!(comps[1].get("normalized_ratio"), Some(&Value::Null));
        assert_eq!(comps[1].get("flagged"), Some(&Value::Bool(false)));
    }
}
