//! The shard-parallel differential verifier.
//!
//! [`verify_family`](crate::verify_family) certifies the *unsharded*
//! pipeline; this module fans the same adversarial stream across shard
//! counts and certifies the shard-merged answers. Three properties are
//! pinned per family:
//!
//! 1. **k = 1 is the identity.** One shard must produce answers
//!    byte-identical to the unsharded [`replay`] pipeline — sharding is a
//!    pure refactor until a second shard exists.
//! 2. **The engine is the pipeline.** A sharded [`gsm_dsms::StreamEngine`]'s
//!    answers are fingerprint-compared against summaries run directly on
//!    [`ShardedPipeline`]s with the same hash routing — the DSMS layer may
//!    not change a single answer byte, and the direct summaries expose the
//!    surfaced bounds (`tracked_eps`, `undercount_bound`) the audits need.
//! 3. **Merged answers keep their ε contracts.** Every shard count's
//!    merged answers are audited against the per-query bounds: rank error
//!    within `ε + 2/N`, undercounts within the summary's own surfaced
//!    bound and the analytic `⌈εN⌉ + k − 1`, zero false negatives, space
//!    within `k ×` one summary's envelope.
//!
//! Like the unsharded differ, frequency-class contracts are audited on the
//! [`StreamSpec::integer_ids`] projection; the engines here share one
//! pushed stream, so quantile answers are audited over the same ids (a
//! quantile contract holds on any input).

use gsm_core::{replay, BitPrefixHierarchy, Engine, HhhEntry, ShardedPipeline};
use gsm_dsms::{EngineBuilder, QueryRequest};
use gsm_sketch::exact::ExactStats;
use gsm_sketch::{ExpHistogram, HhhSummary, LossyCounting};

use crate::audit::{
    audit_sharded_frequency, audit_sharded_hhh, audit_sharded_quantile, AuditReport,
};
use crate::diff::{probe_values, EngineRun, Fnv, VerifyConfig};
use crate::gen::StreamSpec;

/// The verdict for one shard count within a [`ShardedFamilyOutcome`].
#[derive(Clone, Debug, serde::Serialize)]
pub struct ShardRun {
    /// Shard count this run fanned across.
    pub shards: usize,
    /// Per-engine fingerprints of the [`gsm_dsms::StreamEngine`] answers.
    pub engines: Vec<EngineRun>,
    /// Whether every engine produced byte-identical merged answers.
    pub cross_backend_agree: bool,
    /// Whether the engine's answers match the direct
    /// [`ShardedPipeline`]-level summaries byte for byte.
    pub engine_matches_pipeline: bool,
    /// Audits of the merged answers, one per registered query kind.
    pub reports: Vec<AuditReport>,
}

impl ShardRun {
    /// Whether this shard count agreed everywhere and held every bound.
    pub fn passed(&self) -> bool {
        self.cross_backend_agree
            && self.engine_matches_pipeline
            && self.reports.iter().all(AuditReport::passed)
    }
}

/// The sharded verdict for one adversarial stream: one [`ShardRun`] per
/// audited shard count, plus the unsharded baseline identity.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ShardedFamilyOutcome {
    /// Generator family name.
    pub family: String,
    /// Generator seed.
    pub seed: u64,
    /// Stream length (of the audited id projection).
    pub n: u64,
    /// Shared pipeline window the engines sealed to.
    pub window: u64,
    /// Fingerprint of the unsharded [`replay`] baseline answers.
    pub baseline_fingerprint: u64,
    /// Whether the k = 1 run reproduced the baseline byte for byte
    /// (`None` when 1 was not among the audited shard counts).
    pub k1_matches_baseline: Option<bool>,
    /// One verdict per audited shard count.
    pub runs: Vec<ShardRun>,
}

impl ShardedFamilyOutcome {
    /// Whether every shard count passed and k = 1 (if run) matched the
    /// unsharded baseline.
    pub fn passed(&self) -> bool {
        self.k1_matches_baseline != Some(false) && self.runs.iter().all(ShardRun::passed)
    }

    /// Human-readable description of every failure in this outcome.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.k1_matches_baseline == Some(false) {
            out.push(format!(
                "{}: k=1 diverged from the unsharded baseline {:#x}",
                self.family, self.baseline_fingerprint
            ));
        }
        for run in &self.runs {
            if !run.cross_backend_agree {
                out.push(format!(
                    "{} k={}: engines disagree: {:?}",
                    self.family,
                    run.shards,
                    run.engines
                        .iter()
                        .map(|e| (e.engine.as_str(), e.fingerprint))
                        .collect::<Vec<_>>()
                ));
            }
            if !run.engine_matches_pipeline {
                out.push(format!(
                    "{} k={}: StreamEngine diverged from the direct sharded pipeline",
                    self.family, run.shards
                ));
            }
            for r in &run.reports {
                for c in r.violations() {
                    out.push(format!(
                        "{} k={}/{}: {} observed {} > bound {}",
                        self.family, run.shards, r.estimator, c.name, c.observed, c.bound
                    ));
                }
            }
        }
        out
    }
}

/// The three merged answer sets one engine produced for one shard count.
struct MergedAnswers {
    quantiles: Vec<(f64, f32)>,
    hh: Vec<(f32, u64)>,
    hhh: Vec<HhhEntry>,
}

impl MergedAnswers {
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for &(phi, v) in &self.quantiles {
            h.u64(phi.to_bits());
            h.f32(v);
        }
        for &(v, c) in &self.hh {
            h.f32(v);
            h.u64(c);
        }
        for e in &self.hhh {
            h.u64(e.level as u64);
            h.f32(e.prefix);
            h.u64(e.discounted_count);
            h.u64(e.raw_count);
        }
        h.0
    }
}

/// Shared per-family inputs, precomputed once.
struct Ctx<'a> {
    cfg: &'a VerifyConfig,
    ids: &'a [f32],
    probes: &'a [f32],
    hierarchy: &'a BitPrefixHierarchy,
    /// The shared window every engine seals to (the max of the query
    /// minimums, mirroring [`gsm_dsms::StreamEngine::seal`]'s choice).
    window: usize,
    /// Stream-length hint covering the whole stream.
    n_hint: u64,
}

impl Ctx<'_> {
    fn quantile_sketch(&self) -> ExpHistogram {
        ExpHistogram::new(self.cfg.quantile_eps, self.window, self.n_hint)
    }

    fn frequency_sketch(&self) -> LossyCounting {
        LossyCounting::with_window(self.cfg.frequency_eps, self.window)
    }

    fn hhh_sketch(&self) -> HhhSummary {
        HhhSummary::with_window(self.cfg.frequency_eps, self.window, self.hierarchy.clone())
    }
}

/// Runs the full DSMS path at shard count `k` and collects its answers.
fn run_stream_engine(engine: Engine, ctx: &Ctx, k: usize) -> MergedAnswers {
    let mut eng = EngineBuilder::new(engine)
        .n_hint(ctx.ids.len() as u64)
        .shards(k)
        .build()
        .expect("shard counts are positive");
    let q = eng.register_quantile(ctx.cfg.quantile_eps);
    let f = eng.register_frequency(ctx.cfg.frequency_eps);
    let h = eng.register_hhh(ctx.cfg.frequency_eps, ctx.hierarchy.clone());
    eng.push_batch(ctx.ids);
    assert_eq!(
        eng.window(),
        ctx.window,
        "the engine's sealed window must match the audit's assumption"
    );
    let support = ctx.cfg.support;
    MergedAnswers {
        quantiles: ctx
            .cfg
            .phis
            .iter()
            .map(|&phi| {
                let answer = eng.request(q, QueryRequest::Quantile { phi });
                (phi, answer.into_quantile())
            })
            .collect(),
        hh: eng
            .request(f, QueryRequest::HeavyHitters { support })
            .into_heavy_hitters(),
        hhh: eng.request(h, QueryRequest::Hhh { support }).into_hhh(),
    }
}

/// One engine's direct pipeline-level run: the same sharded answers plus
/// the surfaced bounds and entry counts the audits consume (which the DSMS
/// facade intentionally hides).
struct DirectRun {
    answers: MergedAnswers,
    estimates: Vec<(f32, u64)>,
    q_surfaced_eps: f64,
    q_entries: usize,
    f_bound: u64,
    f_entries: usize,
    h_bound: u64,
    h_entries: usize,
}

fn run_direct(engine: Engine, ctx: &Ctx, k: usize) -> DirectRun {
    let mut qp = ShardedPipeline::new(engine, ctx.window, k, |_| ctx.quantile_sketch());
    for &v in ctx.ids {
        qp.push(v);
    }
    let mq = qp.merged_sink();

    let mut fp = ShardedPipeline::new(engine, ctx.window, k, |_| ctx.frequency_sketch());
    for &v in ctx.ids {
        fp.push(v);
    }
    let mf = fp.merged_sink();

    let mut hp = ShardedPipeline::new(engine, ctx.window, k, |_| ctx.hhh_sketch());
    for &v in ctx.ids {
        hp.push(v);
    }
    let mh = hp.merged_sink();

    DirectRun {
        answers: MergedAnswers {
            quantiles: ctx
                .cfg
                .phis
                .iter()
                .map(|&phi| (phi, mq.query(phi)))
                .collect(),
            hh: mf.heavy_hitters(ctx.cfg.support),
            hhh: mh.query(ctx.cfg.support),
        },
        estimates: ctx.probes.iter().map(|&v| (v, mf.estimate(v))).collect(),
        q_surfaced_eps: mq.tracked_eps(),
        q_entries: mq.entry_count(),
        f_bound: mf.undercount_bound(),
        f_entries: mf.entry_count(),
        h_bound: mh.undercount_bound(),
        h_entries: mh.entry_count(),
    }
}

/// Fans one adversarial stream across every configured engine × every
/// shard count in `shard_counts`, cross-checks the merged answers, pins
/// k = 1 to the unsharded baseline, and audits every sharded ε bound.
pub fn verify_family_sharded(
    spec: &StreamSpec,
    cfg: &VerifyConfig,
    shard_counts: &[usize],
) -> ShardedFamilyOutcome {
    assert!(!cfg.engines.is_empty(), "need at least one engine");
    assert!(!shard_counts.is_empty(), "need at least one shard count");
    let ids = spec.integer_ids();
    let oracle = ExactStats::new(&ids);
    let probes = probe_values(&oracle, 16);
    let hierarchy = BitPrefixHierarchy::new(vec![4, 8]);
    // Mirror StreamEngine::seal: quantile queries demand ≥ 1024, the
    // counting queries ≥ ⌈1/ε⌉.
    let window = 1024usize.max((1.0 / cfg.frequency_eps).ceil() as usize);
    let ctx = Ctx {
        cfg,
        ids: &ids,
        probes: &probes,
        hierarchy: &hierarchy,
        window,
        n_hint: (ids.len() as u64).max(window as u64),
    };

    // The unsharded identity baseline: the plain replay pipeline on the
    // first engine, same window and sketch configurations.
    let base_q = replay(cfg.engines[0], window, &ids, ctx.quantile_sketch());
    let base_f = replay(cfg.engines[0], window, &ids, ctx.frequency_sketch());
    let base_h = replay(cfg.engines[0], window, &ids, ctx.hhh_sketch());
    let baseline_fingerprint = MergedAnswers {
        quantiles: cfg
            .phis
            .iter()
            .map(|&phi| (phi, base_q.query(phi)))
            .collect(),
        hh: base_f.heavy_hitters(cfg.support),
        hhh: base_h.query(cfg.support),
    }
    .fingerprint();

    let mut k1_matches_baseline = None;
    let runs = shard_counts
        .iter()
        .map(|&k| {
            let answers: Vec<(Engine, MergedAnswers)> = cfg
                .engines
                .iter()
                .map(|&e| (e, run_stream_engine(e, &ctx, k)))
                .collect();
            let engines: Vec<EngineRun> = answers
                .iter()
                .map(|(e, a)| EngineRun {
                    engine: e.label().to_string(),
                    fingerprint: a.fingerprint(),
                })
                .collect();
            let cross_backend_agree = engines
                .windows(2)
                .all(|w| w[0].fingerprint == w[1].fingerprint);

            let direct = run_direct(cfg.engines[0], &ctx, k);
            let engine_matches_pipeline = engines[0].fingerprint == direct.answers.fingerprint();
            if k == 1 {
                k1_matches_baseline = Some(engines[0].fingerprint == baseline_fingerprint);
            }

            let reports = vec![
                audit_sharded_quantile(
                    &ids,
                    cfg.quantile_eps,
                    window,
                    k,
                    direct.q_surfaced_eps,
                    &direct.answers.quantiles,
                    direct.q_entries,
                ),
                audit_sharded_frequency(
                    &ids,
                    cfg.frequency_eps,
                    cfg.support,
                    k,
                    direct.f_bound,
                    &direct.estimates,
                    &direct.answers.hh,
                    direct.f_entries,
                ),
                audit_sharded_hhh(
                    &ids,
                    cfg.frequency_eps,
                    cfg.support,
                    &hierarchy,
                    k,
                    direct.h_bound,
                    &direct.answers.hhh,
                    direct.h_entries,
                ),
            ];
            ShardRun {
                shards: k,
                engines,
                cross_backend_agree,
                engine_matches_pipeline,
                reports,
            }
        })
        .collect();

    ShardedFamilyOutcome {
        family: spec.family.name().to_string(),
        seed: spec.seed,
        n: ids.len() as u64,
        window: window as u64,
        baseline_fingerprint,
        k1_matches_baseline,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Family;

    #[test]
    fn uniform_family_passes_across_shard_counts() {
        let spec = StreamSpec {
            family: Family::Uniform,
            seed: 7,
            n: 4096,
            window: 1024,
        };
        let cfg = VerifyConfig {
            engines: vec![Engine::Host],
            ..VerifyConfig::default()
        };
        let outcome = verify_family_sharded(&spec, &cfg, &[1, 2, 4]);
        assert!(outcome.passed(), "failures: {:?}", outcome.failures());
        assert_eq!(outcome.k1_matches_baseline, Some(true));
        assert_eq!(outcome.runs.len(), 3);
        for run in &outcome.runs {
            assert!(run.engine_matches_pipeline, "k={}", run.shards);
            assert_eq!(run.reports.len(), 3);
        }
    }

    #[test]
    fn heavy_duplicate_agrees_across_engines_when_sharded() {
        let spec = StreamSpec {
            family: Family::HeavyDuplicate,
            seed: 11,
            n: 4096,
            window: 1024,
        };
        let cfg = VerifyConfig {
            engines: vec![Engine::Host, Engine::GpuSim],
            ..VerifyConfig::default()
        };
        let outcome = verify_family_sharded(&spec, &cfg, &[2]);
        assert!(outcome.passed(), "failures: {:?}", outcome.failures());
        assert!(outcome.runs[0].cross_backend_agree);
    }

    #[test]
    fn divergence_is_described() {
        let spec = StreamSpec {
            family: Family::ZipfSkew,
            seed: 3,
            n: 2048,
            window: 512,
        };
        let cfg = VerifyConfig {
            engines: vec![Engine::Host],
            ..VerifyConfig::default()
        };
        let mut outcome = verify_family_sharded(&spec, &cfg, &[1, 2]);
        assert!(outcome.failures().is_empty(), "{:?}", outcome.failures());
        outcome.k1_matches_baseline = Some(false);
        outcome.runs[1].engine_matches_pipeline = false;
        assert!(!outcome.passed());
        assert_eq!(outcome.failures().len(), 2);
    }
}
