//! The crash-recovery gate, end to end through the facade: every
//! adversarial family is ingested durably (segmented WAL + incremental
//! checkpoints), killed at configured crash points, damaged by each fault
//! in the seeded plan taxonomy, and recovered — on every engine at shard
//! counts {1, 2}. Recovered answers must fingerprint byte-identically to
//! an uncrashed durable run over the recovered prefix, and every injected
//! corruption must be detected, never silently replayed. This is the same
//! configuration CI's `fault-matrix` job runs.

use gsm::core::Engine;
use gsm::dsms::{DurableOptions, EngineBuilder, QueryRequest, StreamEngine};
use gsm::durable::{CheckpointPolicy, Fault, FsyncPolicy};
use gsm::verify::{verify_family_recovered, DurableVerifyConfig, Family, StreamSpec, VerifyConfig};

/// Every family survives the full engine × shard × fault grid at smoke
/// size.
#[test]
fn all_families_recover_from_every_fault() {
    let cfg = VerifyConfig::default();
    let dcfg = DurableVerifyConfig::default();
    let cells = cfg.engines.len() * dcfg.shards.len() * Fault::ALL.len();
    for family in Family::ALL {
        // The engine derives its real window (1024 at this n_hint); with
        // n = 4096 the late crash point lands mid-checkpoint-interval, so
        // the grid exercises genuine WAL tail replay, not just restores.
        let spec = StreamSpec {
            family,
            seed: 42,
            n: 4096,
            window: 1024,
        };
        let outcome = verify_family_recovered(&spec, &cfg, &dcfg);
        assert!(
            outcome.passed(),
            "{}: {:?}",
            family.name(),
            outcome.failures()
        );
        assert_eq!(outcome.runs.len(), cells);
        // Non-vacuous: the grid must actually replay WAL tails and
        // actually detect damage, not pass because nothing happened.
        assert!(
            outcome.runs.iter().any(|r| r.replayed_records > 0),
            "{}: no cell replayed a WAL tail",
            family.name()
        );
        assert!(
            outcome
                .runs
                .iter()
                .any(|r| r.corruption_detected || r.torn_tail),
            "{}: no cell detected its injected damage",
            family.name()
        );
    }
}

/// The README quickstart, verbatim shape: ingest durably, kill the
/// process (drop), recover in a fresh engine, and keep streaming.
#[test]
fn recover_after_kill_quickstart() {
    let dir = std::env::temp_dir().join(format!("gsm-durability-gate-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let opts = || {
        DurableOptions::new(&dir)
            .fsync(FsyncPolicy::EverySeal)
            .checkpoint(CheckpointPolicy::EveryWindows(2))
    };
    let mut eng = EngineBuilder::new(Engine::Host)
        .durability(opts())
        .build()
        .expect("fresh durable dir");
    let q = eng.register_quantile(0.02);
    let stream: Vec<f32> = (0..5 * 1024).map(|i| (i % 997) as f32).collect();
    eng.push_batch(&stream);
    drop(eng); // kill -9

    let (mut recovered, report) =
        StreamEngine::recover_from(Engine::Host, opts(), gsm::obs::Recorder::disabled())
            .expect("recovery");
    assert_eq!(report.recovered_count, 5 * 1024, "whole windows survive");
    assert!(!report.damaged());

    // The recovered engine answers and keeps ingesting.
    let median = QueryRequest::Quantile { phi: 0.5 };
    assert!(recovered.request(q, median).into_quantile().is_finite());
    recovered.push_batch(&stream[..1024]);
    assert!(recovered.request(q, median).into_quantile().is_finite());

    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint that parses but contradicts itself is rejected, not
/// trusted: with the newest checkpoint's declared shard count doctored,
/// recovery falls back to the next-older one and replays the (untruncated)
/// log from there, ending byte-identical to an uncrashed run.
#[test]
fn recovery_falls_back_past_an_inconsistent_checkpoint() {
    let scratch = |tag: &str| {
        let dir =
            std::env::temp_dir().join(format!("gsm-ckpt-doctor-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    };
    let (dir, ref_dir) = (scratch("run"), scratch("ref"));
    let opts = |dir: &std::path::Path| {
        DurableOptions::new(dir)
            .fsync(FsyncPolicy::Off)
            .checkpoint(CheckpointPolicy::EveryWindows(2))
            .truncate_on_checkpoint(false)
    };
    let durable = |dir: &std::path::Path| {
        let mut eng = EngineBuilder::new(Engine::Host)
            .n_hint(10_000)
            .shards(2)
            .durability(opts(dir))
            .build()
            .expect("fresh durable dir");
        let _ = eng.register_quantile(0.02);
        let _ = eng.register_frequency(0.01);
        eng
    };
    // Six whole windows (checkpoints at horizons 0, 2, 4, 6; the store
    // keeps 4 and 6) plus a partial tail that the kill loses.
    let stream: Vec<f32> = (0..6 * 1024 + 300)
        .map(|i| ((i * 37) % 101) as f32)
        .collect();
    let mut eng = durable(&dir);
    eng.push_batch(&stream);
    drop(eng);

    let newest = dir.join("ckpt-0000000006.json");
    let json = std::fs::read_to_string(&newest).expect("newest checkpoint");
    let doctored = json.replacen("\"shards\":2", "\"shards\":3", 1);
    assert_ne!(doctored, json, "the edit must apply");
    std::fs::write(&newest, doctored).expect("doctor the checkpoint");

    let (mut recovered, report) =
        StreamEngine::recover_from(Engine::Host, opts(&dir), gsm::obs::Recorder::disabled())
            .expect("recovery falls back instead of aborting");
    assert_eq!(
        report.checkpoint_wal_seq, 4,
        "the older checkpoint was used"
    );
    assert_eq!(report.replayed_records, 2, "records 5 and 6 were replayed");
    assert_eq!(report.recovered_count, 6 * 1024);

    let mut reference = durable(&ref_dir);
    reference.push_batch(&stream[..6 * 1024]);
    assert_eq!(recovered.checkpoint(), reference.checkpoint());

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}
