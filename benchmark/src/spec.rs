//! The benchmark's contract: `BENCHMARK.json` at the repository root,
//! compiled in and parsed once. Workload names with the reason each
//! exists, every end-to-end metric with its unit, direction and bound, and
//! every per-layer metric with its unit are stated there and nowhere else;
//! the emitter refuses a metric that is not listed.

use std::sync::OnceLock;

#[derive(serde::Deserialize)]
pub struct Workload {
    pub name: String,
    /// One line on why the workload exists.
    pub why: String,
}

/// One end-to-end metric: what a user of the system sees.
#[derive(serde::Deserialize)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// One per-layer metric. Per-layer metrics have no bound: they say where
/// an end-to-end change came from. (The manifest's other keys are the
/// driver's, not the harness's.)
#[derive(serde::Deserialize)]
pub struct Layer {
    pub name: String,
    pub unit: String,
}

#[derive(serde::Deserialize)]
pub struct Manifest {
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    /// Every workload reports every one of these with `--trace 0`.
    pub end_to_end: Vec<EndToEnd>,
    /// Every workload reports every one of these with `--trace 1`; a layer
    /// the workload bypasses reads 0.
    pub per_layer: Vec<Layer>,
}

pub fn manifest() -> &'static Manifest {
    static MANIFEST: OnceLock<Manifest> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    })
}

/// The unit of a listed metric, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    let m = manifest();
    let end_to_end = m.end_to_end.iter().map(|e| (&e.name, &e.unit));
    let per_layer = m.per_layer.iter().map(|l| (&l.name, &l.unit));
    end_to_end
        .chain(per_layer)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        (1..=64).contains(&name.len())
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let m = manifest();
        let mut names: Vec<&str> = m.workloads.iter().map(|w| w.name.as_str()).collect();
        names.extend(m.end_to_end.iter().map(|e| e.name.as_str()));
        names.extend(m.per_layer.iter().map(|l| l.name.as_str()));
        for name in &names {
            assert!(well_formed(name), "malformed name {name}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let direction_ok = |b: &str| b == "lower" || b == "higher";
        assert!(m
            .end_to_end
            .iter()
            .all(|e| unit_ok(&e.unit) && direction_ok(&e.better)));
        assert!(m.per_layer.iter().all(|l| unit_ok(&l.unit)));
    }

    #[test]
    fn counts_and_bounds_stay_within_the_contract() {
        let m = manifest();
        assert!(include_str!("../../BENCHMARK.json").len() <= 64 * 1024);
        assert!((1..=60).contains(&m.run_seconds));
        assert!((2..=8).contains(&m.workloads.len()));
        assert!((1..=16).contains(&m.end_to_end.len()));
        assert!((1..=128).contains(&m.per_layer.len()));
        assert!(m
            .workloads
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(m
            .end_to_end
            .iter()
            .all(|e| e.bound > 0.0 && e.bound <= 0.25));
        let setup = m.end_to_end.iter().find(|e| e.name == "setup_s");
        let setup = setup.expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        assert!(
            m.end_to_end.iter().all(|e| e.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn the_workload_list_matches_the_configurations() {
        let configured: Vec<&str> = crate::config::ALL.iter().map(|c| c.name).collect();
        let listed: Vec<&str> = manifest()
            .workloads
            .iter()
            .map(|w| w.name.as_str())
            .collect();
        assert_eq!(configured, listed);
    }
}
