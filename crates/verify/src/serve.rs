//! The served-vs-direct differential verifier.
//!
//! The serving frontend (`gsm-serve`) promises that putting a worker pool,
//! an admission queue, and a snapshot registry between the caller and the
//! engine changes *nothing* about the answers: a query served from a
//! published [`gsm_dsms::EngineSnapshot`] must be byte-identical to (a)
//! the same query run directly against that snapshot and (b) the engine's
//! own answer over the same sealed windows. This module certifies both
//! equalities for every query kind across every [`Engine`] and a sharded
//! configuration, plus the structural serving contract: every submitted
//! request produced exactly one structured reply
//! ([`gsm_serve::ServerStats::lost`] == 0).

use std::sync::Arc;

use gsm_core::{BitPrefixHierarchy, Engine};
use gsm_dsms::{EngineBuilder, QueryAnswer, QueryRequest};
use gsm_serve::{QueryServer, Reply, Request, ServeConfig};

use crate::gen::StreamSpec;

/// The served-vs-direct verdict for one engine × shard count.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ServeRun {
    /// Backend name.
    pub engine: String,
    /// Shard count the engine ingested with.
    pub shards: usize,
    /// Requests compared.
    pub compared: u64,
    /// Requests that got no structured reply (must be 0).
    pub lost: u64,
    /// Human-readable divergences (empty when passed).
    pub mismatches: Vec<String>,
}

impl ServeRun {
    /// Whether every served answer matched and no request was lost.
    pub fn passed(&self) -> bool {
        self.lost == 0 && self.mismatches.is_empty()
    }
}

/// The serving verdict for one adversarial stream.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ServeFamilyOutcome {
    /// Generator family name.
    pub family: String,
    /// Generator seed.
    pub seed: u64,
    /// Stream length.
    pub n: u64,
    /// One verdict per engine × shard count.
    pub runs: Vec<ServeRun>,
}

impl ServeFamilyOutcome {
    /// Whether every run passed.
    pub fn passed(&self) -> bool {
        self.runs.iter().all(ServeRun::passed)
    }

    /// Human-readable description of every failure.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for run in &self.runs {
            if run.lost > 0 {
                out.push(format!(
                    "{} {} k={}: {} requests lost without a reply",
                    self.family, run.engine, run.shards, run.lost
                ));
            }
            for m in &run.mismatches {
                out.push(format!(
                    "{} {} k={}: {}",
                    self.family, run.engine, run.shards, m
                ));
            }
        }
        out
    }
}

/// Compares one served reply against the expected direct answer.
fn check(
    mismatches: &mut Vec<String>,
    what: &str,
    served: Reply,
    expected_epoch: u64,
    expected: &QueryAnswer,
) {
    match served {
        Reply::Answer { epoch, answer } => {
            if epoch != expected_epoch {
                mismatches.push(format!(
                    "{what}: served from epoch {epoch}, expected {expected_epoch}"
                ));
            }
            if !answers_equal(&answer, expected) {
                mismatches.push(format!("{what}: served {answer:?} != direct {expected:?}"));
            }
        }
        other => mismatches.push(format!("{what}: expected an answer, got {other:?}")),
    }
}

/// Bit-exact comparison (floats by `to_bits`, so `-0.0 != 0.0` and NaNs
/// compare equal to themselves — stricter than `PartialEq`).
fn answers_equal(a: &QueryAnswer, b: &QueryAnswer) -> bool {
    match (a, b) {
        (QueryAnswer::Quantile(x), QueryAnswer::Quantile(y)) => x.to_bits() == y.to_bits(),
        (QueryAnswer::HeavyHitters(x), QueryAnswer::HeavyHitters(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((xv, xc), (yv, yc))| xv.to_bits() == yv.to_bits() && xc == yc)
        }
        (QueryAnswer::Hhh(x), QueryAnswer::Hhh(y)) => x == y,
        _ => false,
    }
}

/// Runs the served-vs-direct differential for one stream: every engine in
/// `engines`, at shard counts 1 and 3, with all five query kinds
/// registered. Uses the stream's canonical integer-id projection so
/// frequency supports are meaningful on every family.
pub fn verify_family_served(spec: &StreamSpec, engines: &[Engine]) -> ServeFamilyOutcome {
    let ids = spec.integer_ids();
    let mut runs = Vec::new();
    for &engine in engines {
        for shards in [1usize, 3] {
            runs.push(run_one(engine, shards, &ids));
        }
    }
    ServeFamilyOutcome {
        family: spec.family.name().to_string(),
        seed: spec.seed,
        n: ids.len() as u64,
        runs,
    }
}

fn run_one(engine: Engine, shards: usize, ids: &[f32]) -> ServeRun {
    let mut eng = EngineBuilder::new(engine)
        .n_hint(ids.len() as u64)
        .shards(shards)
        .build()
        .expect("shard counts are positive");
    let q = eng.register_quantile(0.02);
    let f = eng.register_frequency(0.005);
    let h = eng.register_hhh(0.005, BitPrefixHierarchy::new(vec![4, 8]));
    let sq = eng.register_sliding_quantile(0.05, 4 * eng.window().max(1024));
    let sf = eng.register_sliding_frequency(0.05, 4 * eng.window().max(1024));
    let registry = eng.serve();
    eng.push_batch(ids);
    // Flush, then publish, so the snapshot and the direct engine answers
    // cover exactly the same sealed windows.
    eng.flush();
    eng.publish_now();
    let snap = registry.latest().expect("published snapshot");
    let epoch = snap.epoch();

    let server = QueryServer::start(Arc::clone(&registry), ServeConfig::default());
    let client = server.client();
    let mut mismatches = Vec::new();
    let mut compared = 0u64;

    let mut requests = Vec::new();
    for phi in [0.01, 0.25, 0.5, 0.75, 0.99] {
        requests.push((q, QueryRequest::Quantile { phi }));
        requests.push((sq, QueryRequest::SlidingQuantile { phi }));
    }
    requests.push((f, QueryRequest::HeavyHitters { support: 0.03 }));
    requests.push((h, QueryRequest::Hhh { support: 0.03 }));
    requests.push((sf, QueryRequest::SlidingFrequency { support: 0.1 }));
    for (id, req) in requests {
        // Direct chain first: the engine's own answer must equal the
        // snapshot's, then the served reply must equal both.
        let direct = eng.request(id, req);
        let via_snap = snap.request(id.index(), req).expect("snapshot answer");
        if !answers_equal(&via_snap, &direct) {
            mismatches.push(format!(
                "{req:?}: snapshot {via_snap:?} != engine {direct:?}"
            ));
        }
        let served = client.call(Request::from_typed(id.index(), req));
        check(&mut mismatches, &format!("{req:?}"), served, epoch, &direct);
        compared += 1;
    }

    let stats = server.stats();
    drop(server);
    ServeRun {
        engine: format!("{engine:?}"),
        shards,
        compared,
        lost: stats.lost(),
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Family;

    #[test]
    fn served_answers_are_byte_identical_across_engines() {
        let spec = StreamSpec {
            family: Family::ZipfSkew,
            seed: 7,
            n: 20_000,
            window: 1024,
        };
        let outcome = verify_family_served(&spec, &Engine::ALL);
        assert!(
            outcome.passed(),
            "served-vs-direct divergence:\n{}",
            outcome.failures().join("\n")
        );
        assert_eq!(outcome.runs.len(), Engine::ALL.len() * 2);
        assert!(outcome.runs.iter().all(|r| r.compared == 13));
    }
}
