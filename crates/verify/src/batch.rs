//! The batch-partition ingest identity verifier.
//!
//! The engine's one ingest door (`StreamEngine::push_batch`) promises that
//! the result does not depend on how the caller slices the stream into
//! batches: same window seals, same checkpoints, same answers. This
//! module certifies that promise the same way the other drivers certify
//! theirs — differentially. One adversarial stream is ingested twice per
//! cell, once element-at-a-time (length-1 batches, the reference) and once
//! in fixed-size batches, across engines × shard counts × adversarial
//! batch lengths, and both the answer fingerprints (all five query kinds)
//! and the full checkpoint envelopes must match byte for byte.
//!
//! The audited batch lengths are the boundary-adversarial set: `1` (the
//! degenerate batch), `7` (never aligns with a window), `window` (always
//! aligns), `window + 1` (drifts one element per batch), and `3·window`
//! (spans several seals per call).

use gsm_core::Engine;
use gsm_dsms::{EngineBuilder, QueryId, QueryRequest, StreamEngine};

use crate::diff::{EngineRun, Fnv, VerifyConfig};
use crate::gen::StreamSpec;

/// The boundary-adversarial batch lengths audited for a given window.
pub fn canonical_batch_sizes(window: usize) -> [usize; 5] {
    [1, 7, window, window + 1, 3 * window]
}

/// The verdict for one engine × shard count × batch length cell.
#[derive(Clone, Debug, serde::Serialize)]
pub struct BatchRun {
    /// Shard count both engines fanned across.
    pub shards: usize,
    /// Batch length the batched engine ingested with.
    pub batch: usize,
    /// Engine label and the batched run's answer fingerprint.
    pub run: EngineRun,
    /// Whether the batched answers matched the element-at-a-time
    /// reference byte for byte.
    pub answers_match: bool,
    /// Whether the batched checkpoint envelope matched the
    /// element-at-a-time reference byte for byte.
    pub checkpoint_matches: bool,
}

impl BatchRun {
    /// Whether this cell held the identity contract.
    pub fn passed(&self) -> bool {
        self.answers_match && self.checkpoint_matches
    }
}

/// The batched-ingest verdict for one adversarial stream.
#[derive(Clone, Debug, serde::Serialize)]
pub struct BatchedFamilyOutcome {
    /// Generator family name.
    pub family: String,
    /// Generator seed.
    pub seed: u64,
    /// Stream length.
    pub n: u64,
    /// The engines' shared sealed window.
    pub window: u64,
    /// One verdict per engine × shard count × batch length.
    pub runs: Vec<BatchRun>,
}

impl BatchedFamilyOutcome {
    /// Whether every cell held the identity contract.
    pub fn passed(&self) -> bool {
        self.runs.iter().all(BatchRun::passed)
    }

    /// Human-readable description of every failure in this outcome.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for r in &self.runs {
            if !r.answers_match {
                out.push(format!(
                    "{} {} k={} batch={}: batched answers diverged from element-at-a-time ({:#x})",
                    self.family, r.run.engine, r.shards, r.batch, r.run.fingerprint
                ));
            }
            if !r.checkpoint_matches {
                out.push(format!(
                    "{} {} k={} batch={}: batched checkpoint diverged from element-at-a-time",
                    self.family, r.run.engine, r.shards, r.batch
                ));
            }
        }
        out
    }
}

/// One fully-answered engine: the checkpoint envelope plus a fingerprint
/// over every query kind's answers.
struct RunResult {
    checkpoint: String,
    fingerprint: u64,
}

/// Builds an engine with all five query kinds registered — the same
/// configuration for the reference and the batched side of every cell.
fn build_engine(
    engine: Engine,
    cfg: &VerifyConfig,
    n: usize,
    shards: usize,
) -> (StreamEngine, [QueryId; 5]) {
    let mut eng = EngineBuilder::new(engine)
        .n_hint(n as u64)
        .shards(shards)
        .build()
        .expect("shard counts are positive");
    let sq_width = (n / 4).max((2.0 / cfg.sliding_eps).ceil() as usize);
    let sf_width = (n / 4).max((4.0 / cfg.sliding_eps).ceil() as usize);
    let ids = [
        eng.register_quantile(cfg.quantile_eps),
        eng.register_frequency(cfg.frequency_eps),
        eng.register_hhh(
            cfg.frequency_eps,
            gsm_core::BitPrefixHierarchy::new(vec![4, 8]),
        ),
        eng.register_sliding_quantile(cfg.sliding_eps, sq_width),
        eng.register_sliding_frequency(cfg.sliding_eps, sf_width),
    ];
    (eng, ids)
}

/// Checkpoints, then answers every registered query and fingerprints the
/// lot. `checkpoint` flushes and the answer path flushes too — both sides
/// of a cell execute the identical sequence, so the comparison is exact.
fn drain(mut eng: StreamEngine, ids: [QueryId; 5], cfg: &VerifyConfig) -> RunResult {
    let checkpoint = eng.checkpoint();
    let mut h = Fnv::new();
    for &phi in &cfg.phis {
        h.u64(phi.to_bits());
        h.f32(
            eng.request(ids[0], QueryRequest::Quantile { phi })
                .into_quantile(),
        );
    }
    let support = cfg.support;
    for (v, c) in eng
        .request(ids[1], QueryRequest::HeavyHitters { support })
        .into_heavy_hitters()
    {
        h.f32(v);
        h.u64(c);
    }
    for e in eng
        .request(ids[2], QueryRequest::Hhh { support })
        .into_hhh()
    {
        h.u64(e.level as u64);
        h.f32(e.prefix);
        h.u64(e.discounted_count);
        h.u64(e.raw_count);
    }
    for &phi in &cfg.phis {
        h.u64(phi.to_bits());
        h.f32(
            eng.request(ids[3], QueryRequest::SlidingQuantile { phi })
                .into_quantile(),
        );
    }
    let support = cfg.support + cfg.sliding_eps;
    for (v, c) in eng
        .request(ids[4], QueryRequest::SlidingFrequency { support })
        .into_heavy_hitters()
    {
        h.f32(v);
        h.u64(c);
    }
    RunResult {
        checkpoint,
        fingerprint: h.0,
    }
}

/// Certifies batch-partition ingest identity for one adversarial stream:
/// every configured engine × every shard count in `shard_counts` × the
/// [`canonical_batch_sizes`] of the sealed window. The reference is
/// ingested one element per [`StreamEngine::push_batch`] call; each
/// batched run slices the identical stream into fixed-length calls.
/// Answers (all five query kinds) and checkpoint envelopes must match
/// byte for byte.
pub fn verify_family_batched(
    spec: &StreamSpec,
    cfg: &VerifyConfig,
    shard_counts: &[usize],
) -> BatchedFamilyOutcome {
    assert!(!cfg.engines.is_empty(), "need at least one engine");
    assert!(!shard_counts.is_empty(), "need at least one shard count");
    let ids = spec.integer_ids();
    let mut runs = Vec::new();
    let mut window = 0usize;
    for &engine in &cfg.engines {
        for &k in shard_counts {
            let (mut single, qids) = build_engine(engine, cfg, ids.len(), k);
            for v in ids.chunks(1) {
                single.push_batch(v);
            }
            window = single.window();
            let reference = drain(single, qids, cfg);
            for batch in canonical_batch_sizes(window) {
                let (mut batched, qids) = build_engine(engine, cfg, ids.len(), k);
                for chunk in ids.chunks(batch) {
                    batched.push_batch(chunk);
                }
                let result = drain(batched, qids, cfg);
                runs.push(BatchRun {
                    shards: k,
                    batch,
                    run: EngineRun {
                        engine: engine.label().to_string(),
                        fingerprint: result.fingerprint,
                    },
                    answers_match: result.fingerprint == reference.fingerprint,
                    checkpoint_matches: result.checkpoint == reference.checkpoint,
                });
            }
        }
    }
    BatchedFamilyOutcome {
        family: spec.family.name().to_string(),
        seed: spec.seed,
        n: ids.len() as u64,
        window: window as u64,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Family;

    #[test]
    fn batched_ingest_is_byte_identical_on_host() {
        let spec = StreamSpec {
            family: Family::WindowPlusOne,
            seed: 9,
            n: 4096,
            window: 1024,
        };
        let cfg = VerifyConfig {
            engines: vec![Engine::Host],
            ..VerifyConfig::default()
        };
        let outcome = verify_family_batched(&spec, &cfg, &[1, 2]);
        assert!(outcome.passed(), "failures: {:?}", outcome.failures());
        // 1 engine × 2 shard counts × 5 batch lengths.
        assert_eq!(outcome.runs.len(), 10);
    }

    #[test]
    fn divergence_is_described() {
        let spec = StreamSpec {
            family: Family::Uniform,
            seed: 3,
            n: 2048,
            window: 512,
        };
        let cfg = VerifyConfig {
            engines: vec![Engine::Host],
            ..VerifyConfig::default()
        };
        let mut outcome = verify_family_batched(&spec, &cfg, &[1]);
        assert!(outcome.failures().is_empty(), "{:?}", outcome.failures());
        outcome.runs[0].answers_match = false;
        outcome.runs[1].checkpoint_matches = false;
        assert!(!outcome.passed());
        assert_eq!(outcome.failures().len(), 2);
    }
}
