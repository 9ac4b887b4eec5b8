//! The verification gate, end to end through the facade: adversarial
//! streams × every engine × every estimator, audited against exact
//! oracles — plus certification of the *degraded* bounds under load
//! shedding via the DSMS window tap.

use std::sync::{Arc, Mutex};

use gsm::core::{replay, Engine};
use gsm::dsms::{EngineBuilder, LoadShedder, QueryRequest};
use gsm::sketch::exact::ExactStats;
use gsm::sketch::LossyCounting;
use gsm::verify::{
    verify_family, verify_family_batched, verify_family_served, verify_family_sharded, Family,
    StreamSpec, VerifyConfig,
};

/// Every adversarial family passes the full differential audit on every
/// engine at smoke size — the same configuration CI's `verify` job runs.
#[test]
fn all_families_pass_on_all_engines() {
    let cfg = VerifyConfig::default();
    for family in Family::ALL {
        let spec = StreamSpec {
            family,
            seed: 42,
            n: 2048,
            window: 512,
        };
        let outcome = verify_family(&spec, &cfg);
        assert!(
            outcome.passed(),
            "{}: {:?}",
            family.name(),
            outcome.failures()
        );
        assert_eq!(outcome.engines.len(), Engine::ALL.len());
        assert_eq!(outcome.reports.len(), 5, "five estimators audited");
    }
}

/// The sharded gate: every adversarial family — including the totalOrder
/// edge values and the window ±1 off-by-one streams — passes the merged-ε
/// audits at every shard count in {1, 2, 4} on every engine, k = 1
/// reproduces the unsharded baseline byte for byte, and the
/// sharded `StreamEngine` path never diverges from the raw sharded
/// pipeline.
#[test]
fn all_families_pass_sharded_on_all_engines() {
    let cfg = VerifyConfig::default();
    for family in Family::ALL {
        let spec = StreamSpec {
            family,
            seed: 42,
            n: 2048,
            window: 512,
        };
        let outcome = verify_family_sharded(&spec, &cfg, &[1, 2, 4]);
        assert!(
            outcome.passed(),
            "{}: {:?}",
            family.name(),
            outcome.failures()
        );
        assert_eq!(outcome.k1_matches_baseline, Some(true), "{}", family.name());
        for run in &outcome.runs {
            assert_eq!(run.engines.len(), Engine::ALL.len());
            assert_eq!(run.reports.len(), 3, "three merged estimators audited");
        }
    }
}

/// The batched-ingest gate: for every adversarial family, ingesting
/// through `StreamEngine::push_batch` at boundary-adversarial batch
/// lengths {1, 7, window, window+1, 3·window} produces answers and
/// checkpoint envelopes byte-identical to element-at-a-time ingest, on
/// every engine at shard counts {1, 2, 4}.
#[test]
fn all_families_batch_ingest_byte_identically() {
    let cfg = VerifyConfig::default();
    for family in Family::ALL {
        let spec = StreamSpec {
            family,
            seed: 42,
            n: 2048,
            window: 512,
        };
        let outcome = verify_family_batched(&spec, &cfg, &[1, 2, 4]);
        assert!(
            outcome.passed(),
            "{}: {:?}",
            family.name(),
            outcome.failures()
        );
        // engines × shard counts × five batch lengths.
        assert_eq!(outcome.runs.len(), Engine::ALL.len() * 3 * 5);
    }
}

/// The serving gate: for every adversarial family, answers served through
/// the `gsm-serve` frontend (snapshot registry → admission queue → worker
/// pool) are byte-identical to direct engine queries on every engine at
/// shard counts {1, 3}, and every submitted request got exactly one
/// structured reply.
#[test]
fn all_families_serve_byte_identical_answers() {
    for family in Family::ALL {
        let spec = StreamSpec {
            family,
            seed: 42,
            n: 2048,
            window: 512,
        };
        let outcome = verify_family_served(&spec, &Engine::ALL);
        assert!(
            outcome.passed(),
            "{}: {:?}",
            family.name(),
            outcome.failures()
        );
        assert_eq!(outcome.runs.len(), Engine::ALL.len() * 2);
    }
}

/// The replay entry point is deterministic: same engine, same stream, same
/// summary — byte for byte, across repeated runs.
#[test]
fn replay_is_deterministic_per_engine() {
    let spec = StreamSpec {
        family: Family::ZipfSkew,
        seed: 7,
        n: 4096,
        window: 512,
    };
    let ids = spec.integer_ids();
    for engine in Engine::ALL {
        let a = replay(engine, 512, &ids, LossyCounting::with_window(0.01, 512));
        let b = replay(engine, 512, &ids, LossyCounting::with_window(0.01, 512));
        let ea: Vec<(f32, u64)> = a.entries().collect();
        let eb: Vec<(f32, u64)> = b.entries().collect();
        assert_eq!(ea, eb, "{engine:?} replay must be bit-stable");
    }
}

/// Load shedding degrades the guarantee from "ε of the stream" to "ε of
/// the admitted sub-stream". The window tap collects exactly what the
/// engine admitted, and the answers must satisfy the paper's bounds
/// against an oracle over that sub-stream — the certified form of the
/// degraded contract.
#[test]
fn shedding_bounds_certified_against_admitted_substream() {
    let spec = StreamSpec {
        family: Family::HeavyDuplicate,
        seed: 11,
        n: 40_000,
        window: 1024,
    };
    let data = spec.integer_ids();
    let eps = 0.005;
    let support = 0.05;

    let admitted: Arc<Mutex<Vec<f32>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&admitted);
    let mut eng = EngineBuilder::new(Engine::Host)
        .n_hint(data.len() as u64)
        .window_tap(Box::new(move |w: &[f32]| {
            sink.lock().expect("tap lock").extend_from_slice(w);
        }))
        .build()
        .expect("valid configuration");
    let f = eng.register_frequency(eps);
    let q = eng.register_quantile(0.02);

    // Admit 40% of arrivals through the uniform decimator.
    let mut shedder = LoadShedder::new(0.4);
    let kept: Vec<f32> = data.iter().copied().filter(|_| shedder.admit()).collect();
    eng.push_batch(&kept);
    let hot = eng
        .request(f, QueryRequest::HeavyHitters { support })
        .into_heavy_hitters();
    let med = eng
        .request(q, QueryRequest::Quantile { phi: 0.5 })
        .into_quantile();

    let admitted = admitted.lock().expect("tap lock").clone();
    assert_eq!(
        admitted.len() as u64,
        shedder.admitted(),
        "the tap must see exactly the admitted sub-stream"
    );
    assert_eq!(eng.count(), shedder.admitted());

    // Certify the degraded contracts against the admitted oracle.
    let oracle = ExactStats::new(&admitted);
    let n = admitted.len() as f64;
    let undercount_bound = (eps * n).ceil() as u64;
    for &(v, est) in &hot {
        let truth = oracle.frequency(v);
        assert!(est <= truth, "overestimate on admitted stream: {v}");
        assert!(
            truth - est <= undercount_bound,
            "undercount {} > eps*n' for {v}",
            truth - est
        );
    }
    // No false negatives above support, relative to the admitted stream.
    let threshold = (support * n).ceil() as u64;
    let answered: Vec<f32> = hot.iter().map(|&(v, _)| v).collect();
    for (v, _) in oracle.heavy_hitters(threshold) {
        assert!(
            answered.iter().any(|&a| a.to_bits() == v.to_bits()),
            "missing admitted-stream heavy hitter {v}"
        );
    }
    // Quantile rank error within eps of the admitted population.
    let err = oracle.quantile_rank_error(0.5, med);
    assert!(err <= 0.02 + 2.0 / n, "median rank error {err}");
}

/// A deliberately broken answer set is caught by the auditor: the gate
/// actually fails on violations, it does not rubber-stamp.
#[test]
fn auditor_rejects_fabricated_answers() {
    let spec = StreamSpec {
        family: Family::Uniform,
        seed: 3,
        n: 2048,
        window: 512,
    };
    let ids = spec.integer_ids();
    let oracle = ExactStats::new(&ids);
    let hot = oracle.heavy_hitters(1);
    let &(v, truth) = hot.first().expect("non-empty stream");
    // Claim one more occurrence than the truth: must trip no_overestimate.
    let report = gsm::verify::audit_frequency(&ids, 0.01, 0.05, &[(v, truth + 1)], &[], 10);
    assert!(!report.passed());
    assert!(report
        .violations()
        .any(|c| c.name.contains("no_overestimate")));
}
