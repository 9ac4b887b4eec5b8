//! The crash-recovery differential driver.
//!
//! Every adversarial family is pushed into a durable
//! [`StreamEngine`] (WAL + incremental checkpoints), killed at a
//! configured crash point, subjected to one fault from the
//! [`gsm_durable::FaultPlan`] taxonomy, and recovered. Two invariants are
//! checked for every cell of the engine × shard × fault grid:
//!
//! 1. **Byte identity** — the recovered engine's answers fingerprint
//!    identically (FNV-1a, same accumulator as [`crate::diff`]) to an
//!    uncrashed durable run over exactly the recovered element count.
//!    Recovery may lose the un-sealed tail; it may never *change* an
//!    answer.
//! 2. **Detection** — every injected corruption (torn final record,
//!    truncated segment, payload bit flip) is surfaced by the recovery
//!    report and the damaged record is never applied; the
//!    crash-between-checkpoint-and-truncate timing fault leaves a clean
//!    log whose stale records are all skipped, never replayed twice.
//!
//! The reference run is itself durable (same checkpoint cadence): the
//! engine flushes shard buffers at every checkpoint, which changes window
//! chunking for `k ≥ 2`, so only a run with the same flush schedule is a
//! valid byte-identity baseline.

use std::path::PathBuf;

use gsm_core::Engine;
use gsm_dsms::{DurableOptions, EngineBuilder, QueryRequest, StreamEngine};
use gsm_durable::{CheckpointPolicy, Fault, FaultPlan, FsyncPolicy};
use gsm_obs::Recorder;

use crate::diff::{Fnv, VerifyConfig};
use crate::gen::StreamSpec;

/// Tuning for the recovery grid; the default matches the CI fault-matrix
/// smoke configuration.
#[derive(Clone, Debug)]
pub struct DurableVerifyConfig {
    /// Shard counts to exercise (merge paths differ from `k = 1`).
    pub shards: Vec<usize>,
    /// Checkpoint cadence in sealed-window records.
    pub checkpoint_every: u64,
    /// WAL records per segment file (small values exercise segment rolls
    /// and whole-segment truncation).
    pub records_per_segment: u64,
    /// Crash points as fractions of the stream, cycled across the grid.
    pub crash_points: Vec<f64>,
    /// Seed for the deterministic [`FaultPlan`].
    pub plan_seed: u64,
}

impl Default for DurableVerifyConfig {
    fn default() -> Self {
        DurableVerifyConfig {
            shards: vec![1, 2],
            checkpoint_every: 2,
            records_per_segment: 3,
            crash_points: vec![0.6, 0.95],
            plan_seed: 0xD07A_B1E5,
        }
    }
}

/// One cell of the recovery grid: engine × shards × fault at one crash
/// point.
#[derive(Clone, Debug, serde::Serialize)]
pub struct RecoveredRun {
    /// The backend's display label.
    pub engine: String,
    /// Ingest shard count.
    pub shards: usize,
    /// [`Fault`] name injected after the kill.
    pub fault: String,
    /// Elements pushed before the kill.
    pub crash_at: u64,
    /// Elements the recovered engine answers over.
    pub recovered_count: u64,
    /// FNV-1a fingerprint of the recovered engine's answers.
    pub fingerprint_recovered: u64,
    /// FNV-1a fingerprint of the uncrashed reference's answers.
    pub fingerprint_reference: u64,
    /// Whether the two fingerprints match.
    pub byte_identical: bool,
    /// Whether the fault was detected (or, for the timing fault, whether
    /// the stale records were all skipped) and never applied.
    pub detection_ok: bool,
    /// The recovery scan reported corruption.
    pub corruption_detected: bool,
    /// The recovery scan reported a torn tail.
    pub torn_tail: bool,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_records: u64,
    /// Stale records skipped below the checkpoint horizon.
    pub skipped_records: u64,
    /// What the injector did, plus any detection detail.
    pub detail: String,
}

impl RecoveredRun {
    /// Whether this cell upholds both recovery invariants.
    pub fn passed(&self) -> bool {
        self.byte_identical && self.detection_ok
    }
}

/// The verdict for one adversarial stream across the whole recovery grid.
#[derive(Clone, Debug, serde::Serialize)]
pub struct DurableFamilyOutcome {
    /// Generator family name.
    pub family: String,
    /// Generator seed.
    pub seed: u64,
    /// Stream length the crash points are fractions of.
    pub n: u64,
    /// Window size the engines sealed at.
    pub window: u64,
    /// Every grid cell's result.
    pub runs: Vec<RecoveredRun>,
}

impl DurableFamilyOutcome {
    /// Whether every cell recovered byte-identically and detected its
    /// fault.
    pub fn passed(&self) -> bool {
        self.runs.iter().all(RecoveredRun::passed)
    }

    /// Human-readable description of every failing cell.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for run in &self.runs {
            if !run.byte_identical {
                out.push(format!(
                    "{}/{}/k={}/{}: recovered fingerprint {:#018x} != reference {:#018x} at count {}",
                    self.family,
                    run.engine,
                    run.shards,
                    run.fault,
                    run.fingerprint_recovered,
                    run.fingerprint_reference,
                    run.recovered_count
                ));
            }
            if !run.detection_ok {
                out.push(format!(
                    "{}/{}/k={}/{}: fault not detected or damage applied ({})",
                    self.family, run.engine, run.shards, run.fault, run.detail
                ));
            }
        }
        out
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "gsm-verify-durable-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The query set every durable engine under test registers.
fn register_queries(
    eng: &mut StreamEngine,
    cfg: &VerifyConfig,
) -> (gsm_dsms::QueryId, gsm_dsms::QueryId, gsm_dsms::QueryId) {
    let q = eng.register_quantile(cfg.quantile_eps);
    let f = eng.register_frequency(cfg.frequency_eps);
    let sq = eng.register_sliding_quantile(cfg.sliding_eps, 2048);
    (q, f, sq)
}

/// Fingerprints one engine's answers: running + sliding quantiles at every
/// φ, heavy hitters at the support threshold, and the element count.
fn fingerprint(
    eng: &mut StreamEngine,
    ids: (gsm_dsms::QueryId, gsm_dsms::QueryId, gsm_dsms::QueryId),
    cfg: &VerifyConfig,
) -> u64 {
    let (q, f, sq) = ids;
    let mut h = Fnv::new();
    h.u64(eng.count());
    for &phi in &cfg.phis {
        h.u64(phi.to_bits());
        h.f32(
            eng.request(q, QueryRequest::Quantile { phi })
                .into_quantile(),
        );
        h.f32(
            eng.request(sq, QueryRequest::SlidingQuantile { phi })
                .into_quantile(),
        );
    }
    let support = cfg.support;
    for (v, c) in eng
        .request(f, QueryRequest::HeavyHitters { support })
        .into_heavy_hitters()
    {
        h.f32(v);
        h.u64(c);
    }
    h.0
}

fn durable_opts(
    dir: &std::path::Path,
    dcfg: &DurableVerifyConfig,
    truncate: bool,
) -> DurableOptions {
    DurableOptions::new(dir)
        // Off models a process kill: appended records survive in the page
        // cache; the injected faults supply the damage. EverySeal would
        // fsync hundreds of times per cell across a 300-cell smoke grid.
        .fsync(FsyncPolicy::Off)
        .checkpoint(CheckpointPolicy::EveryWindows(dcfg.checkpoint_every))
        .records_per_segment(dcfg.records_per_segment)
        .truncate_on_checkpoint(truncate)
}

/// Runs one adversarial stream through the full recovery grid:
/// every configured engine × shard count × [`Fault`], crash points cycled
/// per cell. Each cell ingests to the crash point in a scratch durable
/// directory, drops the engine (the kill), injects its fault, recovers,
/// and compares against an uncrashed durable reference over the recovered
/// prefix. Scratch directories are removed afterwards.
pub fn verify_family_recovered(
    spec: &StreamSpec,
    cfg: &VerifyConfig,
    dcfg: &DurableVerifyConfig,
) -> DurableFamilyOutcome {
    // Frequency queries are registered, so use the canonical integer-id
    // projection (see the crate docs on -0.0 vs 0.0).
    let data = spec.integer_ids();
    let n = data.len();
    let plan = FaultPlan::new(dcfg.plan_seed);
    let mut outcome = DurableFamilyOutcome {
        family: spec.family.name().to_string(),
        seed: spec.seed,
        n: n as u64,
        window: 0,
        runs: Vec::new(),
    };
    let mut cell = 0u64;
    for engine in &cfg.engines {
        for &k in &dcfg.shards {
            for fault in Fault::ALL {
                let crash_frac = dcfg.crash_points[cell as usize % dcfg.crash_points.len()];
                outcome.runs.push(run_cell(
                    *engine,
                    k,
                    fault,
                    crash_frac,
                    &data,
                    spec,
                    cfg,
                    dcfg,
                    plan,
                    cell,
                    &mut outcome.window,
                ));
                cell += 1;
            }
        }
    }
    outcome
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    engine: Engine,
    k: usize,
    fault: Fault,
    crash_frac: f64,
    data: &[f32],
    spec: &StreamSpec,
    cfg: &VerifyConfig,
    dcfg: &DurableVerifyConfig,
    plan: FaultPlan,
    cell: u64,
    window_out: &mut u64,
) -> RecoveredRun {
    let dir = scratch_dir("run");
    let ref_dir = scratch_dir("ref");
    // The timing fault is a runtime configuration, not a disk mutation:
    // checkpoints never truncate, so stale records pile up below every
    // horizon and recovery must skip them.
    let truncate = fault != Fault::CrashBetweenCheckpointAndTruncate;

    let mut eng = EngineBuilder::new(engine)
        .n_hint(data.len() as u64)
        .shards(k)
        .durability(durable_opts(&dir, dcfg, truncate))
        .build()
        .expect("scratch durable dir");
    let ids = register_queries(&mut eng, cfg);
    eng.seal();
    let window = eng.window();
    *window_out = window as u64;
    // Crash late enough that at least two records exist — the injectors
    // need a victim besides the first record.
    let crash_at = ((data.len() as f64 * crash_frac) as usize).clamp(2 * window, data.len());
    eng.push_batch(&data[..crash_at]);
    drop(eng); // the kill: no shutdown hook, the pending tail is lost

    let salt = (spec.seed << 16) ^ cell;
    let injection = plan
        .inject(&dir, fault, salt)
        .expect("injection on scratch dir");

    let (mut recovered, report) = StreamEngine::recover_from(
        engine,
        durable_opts(&dir, dcfg, truncate),
        Recorder::disabled(),
    )
    .expect("recovery");
    let fingerprint_recovered = fingerprint(&mut recovered, ids, cfg);
    let recovered_count = report.recovered_count;

    // Uncrashed reference over exactly the recovered prefix, same
    // checkpoint cadence (same flush schedule), clean directory.
    let mut reference = EngineBuilder::new(engine)
        .n_hint(data.len() as u64)
        .shards(k)
        .durability(durable_opts(&ref_dir, dcfg, true))
        .build()
        .expect("scratch reference dir");
    let ref_ids = register_queries(&mut reference, cfg);
    reference.push_batch(&data[..recovered_count as usize]);
    let fingerprint_reference = fingerprint(&mut reference, ref_ids, cfg);

    let detection_ok = if injection.mutated {
        // The damage must be surfaced, and the damaged record must never
        // have been applied: either it sat at or below the checkpoint
        // horizon (its elements came from the snapshot, not the log), or
        // replay stopped strictly before it.
        let target = injection.target_seq.expect("mutating faults pick a victim");
        report.damaged()
            && (target <= report.checkpoint_wal_seq || report.last_applied_seq < target)
    } else {
        // Timing fault: the log is clean, and every record at or below
        // the restored horizon is present (truncation never ran) and was
        // skipped, not replayed twice.
        !report.damaged() && report.skipped_records == report.checkpoint_wal_seq
    };

    let run = RecoveredRun {
        engine: format!("{engine:?}"),
        shards: k,
        fault: fault.name().to_string(),
        crash_at: crash_at as u64,
        recovered_count,
        fingerprint_recovered,
        fingerprint_reference,
        byte_identical: fingerprint_recovered == fingerprint_reference,
        detection_ok,
        corruption_detected: report.corruption.is_some(),
        torn_tail: report.torn_tail,
        replayed_records: report.replayed_records,
        skipped_records: report.skipped_records,
        detail: format!(
            "{}; recovery: ckpt_seq={} last_applied={} corruption={:?}",
            injection.detail, report.checkpoint_wal_seq, report.last_applied_seq, report.corruption
        ),
    };
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Family;

    fn smoke_cfg() -> (VerifyConfig, DurableVerifyConfig) {
        (
            VerifyConfig {
                engines: vec![Engine::Host],
                ..VerifyConfig::default()
            },
            DurableVerifyConfig::default(),
        )
    }

    #[test]
    fn zipf_family_survives_the_fault_grid() {
        let (cfg, dcfg) = smoke_cfg();
        let spec = StreamSpec {
            family: Family::ZipfSkew,
            seed: 11,
            n: 4096,
            window: 1024,
        };
        let outcome = verify_family_recovered(&spec, &cfg, &dcfg);
        assert_eq!(outcome.runs.len(), 2 * Fault::ALL.len());
        assert!(outcome.passed(), "failures: {:#?}", outcome.failures());
        assert_eq!(outcome.window, 1024);
        // Every fault appears in the grid, and the corruption faults were
        // actually detected (not vacuously passed).
        for fault in Fault::ALL {
            assert!(outcome.runs.iter().any(|r| r.fault == fault.name()));
        }
        for run in &outcome.runs {
            if run.fault != Fault::CrashBetweenCheckpointAndTruncate.name() {
                assert!(
                    run.torn_tail || run.corruption_detected,
                    "{}/{} must surface its damage: {}",
                    run.engine,
                    run.fault,
                    run.detail
                );
            } else {
                assert!(run.skipped_records > 0, "stale records must exist");
            }
        }
    }

    #[test]
    fn sharded_cells_recover_byte_identically() {
        let (cfg, dcfg) = smoke_cfg();
        let spec = StreamSpec {
            family: Family::HeavyDuplicate,
            seed: 5,
            n: 6144,
            window: 1024,
        };
        let outcome = verify_family_recovered(&spec, &cfg, &dcfg);
        assert!(outcome.passed(), "failures: {:#?}", outcome.failures());
        assert!(outcome.runs.iter().any(|r| r.shards == 2));
    }

    #[test]
    fn failures_are_described_per_cell() {
        let (cfg, dcfg) = smoke_cfg();
        let spec = StreamSpec {
            family: Family::Uniform,
            seed: 3,
            n: 4096,
            window: 1024,
        };
        let mut outcome = verify_family_recovered(&spec, &cfg, &dcfg);
        outcome.runs[0].byte_identical = false;
        outcome.runs[1].detection_ok = false;
        let failures = outcome.failures();
        assert_eq!(failures.len(), 2);
        assert!(failures[0].contains("fingerprint"), "{}", failures[0]);
        assert!(failures[1].contains("not detected"), "{}", failures[1]);
        assert!(!outcome.passed());
    }
}
