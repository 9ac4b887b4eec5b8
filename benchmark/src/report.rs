//! What one workload run hands back: named metric values and the tally of
//! operations attempted and failed — and how they are printed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spec;

/// Operations attempted and failed. Every batch pushed, request sent,
/// recovery and oracle check is one operation.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Ops {
    /// Counts `n` operations that cannot fail short of a panic (batches
    /// pushed into the engine).
    pub fn done(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// Metric values by name. Only names listed in [`spec`] are accepted.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// # Panics
    ///
    /// Panics on a name the benchmark does not list, or a non-finite value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(spec::unit_of(name).is_some(), "unlisted metric {name}");
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// A finished workload run.
pub struct Outcome {
    pub metrics: Metrics,
    pub ops: Ops,
    /// Free-form context lines (sample counts, sizes), printed before the
    /// metrics.
    pub context: Vec<String>,
}

impl Outcome {
    /// `(name, value, unit)` of the metrics this run must report: every
    /// end-to-end metric untraced, every per-layer metric traced. A
    /// per-layer metric the workload did not set belongs to a layer it
    /// bypasses and reads 0.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric is missing: every workload measures
    /// all of them.
    pub fn reported(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let listed = spec::manifest();
        if traced {
            listed
                .per_layer
                .iter()
                .map(|l| {
                    let value = self.metrics.get(&l.name).unwrap_or(0.0);
                    (l.name.as_str(), value, l.unit.as_str())
                })
                .collect()
        } else {
            listed
                .end_to_end
                .iter()
                .map(|e| {
                    let value = self
                        .metrics
                        .get(&e.name)
                        .unwrap_or_else(|| panic!("workload did not measure {}", e.name));
                    (e.name.as_str(), value, e.unit.as_str())
                })
                .collect()
        }
    }

    /// The result object the driver reads from the last line of stdout.
    pub fn result_json(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.ops.failed == 0,
            self.ops.attempted,
            self.ops.failed
        );
        for (i, (name, value, unit)) in self.reported(traced).into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to a String");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut metrics = Metrics::default();
        for (i, e) in spec::manifest().end_to_end.iter().enumerate() {
            metrics.set(&e.name, 1.5 + i as f64);
        }
        metrics.set("core.window_sort_s", 0.25);
        let mut ops = Ops::default();
        ops.done(9);
        ops.check(true, || unreachable!());
        Outcome {
            metrics,
            ops,
            context: Vec::new(),
        }
    }

    #[test]
    fn untraced_reports_every_end_to_end_metric_and_only_those() {
        let o = outcome();
        let names: Vec<_> = o.reported(false).iter().map(|r| r.0).collect();
        let listed = &spec::manifest().end_to_end;
        let listed: Vec<_> = listed.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, listed);
        let json = o.result_json(false);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!json.contains("core.window_sort_s"));
    }

    #[test]
    fn traced_reports_every_per_layer_metric_with_zero_for_bypassed_layers() {
        let o = outcome();
        let rows = o.reported(true);
        assert_eq!(rows.len(), spec::manifest().per_layer.len());
        assert!(rows.contains(&("core.window_sort_s", 0.25, "s")));
        assert!(rows.contains(&("durable.fsync_us", 0.0, "us")));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = outcome();
        o.ops.check(false, || "rank error over bound".to_string());
        assert!(o
            .result_json(false)
            .starts_with("{\"correct\": false, \"attempted\": 11, \"failed\": 1, "));
        assert_eq!(o.ops.notes, vec!["rank error over bound".to_string()]);
    }

    #[test]
    #[should_panic(expected = "unlisted metric")]
    fn an_unlisted_metric_is_refused() {
        Metrics::default().set("made_up", 1.0);
    }
}
