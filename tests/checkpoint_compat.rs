//! Golden-blob checkpoint compatibility: committed schema-1 (legacy flat),
//! schema-2 (sharded envelope) and schema-3 (WAL-aware envelope — the
//! format written today) checkpoints under `tests/data/` must keep
//! restoring on today's engine, byte-identically to a fresh engine fed the
//! same stream — and `recover_from` must accept a durable directory seeded
//! with a golden checkpoint and no WAL segments. The schema-3 blob also
//! pins the write side: today's engine over the same recipe must produce
//! it byte for byte.
//!
//! Each blob was written by an engine version from before the codec that
//! reads it today was refactored, over the recipe below; regenerating
//! them on a newer engine would defeat the point of the test.

use gsm::core::Engine;
use gsm::dsms::{DurableOptions, EngineBuilder, QueryId, QueryRequest, StreamEngine};
use gsm::obs::Recorder;

const PHIS: [f64; 5] = [0.01, 0.25, 0.5, 0.75, 0.99];

/// The golden recipe the committed blobs were captured from (schema 1 at
/// one shard, schemas 2 and 3 at two): 2 500 elements of `(i * 37) % 101`.
fn golden_stream() -> Vec<f32> {
    (0..2500u32).map(|i| ((i * 37) % 101) as f32).collect()
}

/// A fresh engine built exactly like the one the golden blobs came from.
fn golden_reference(shards: usize) -> (StreamEngine, QueryId, QueryId) {
    let mut eng = EngineBuilder::new(Engine::Host)
        .n_hint(5_000)
        .shards(shards)
        .build()
        .expect("valid configuration");
    let q = eng.register_quantile(0.02);
    let f = eng.register_frequency(0.01);
    eng.push_batch(&golden_stream());
    (eng, q, f)
}

fn blob(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn assert_matches_reference(restored: &mut StreamEngine, shards: usize) {
    let (mut reference, q, f) = golden_reference(shards);
    assert_eq!(restored.count(), 2500, "whole golden stream restored");
    assert_eq!(restored.count(), reference.count());
    for phi in PHIS {
        let req = QueryRequest::Quantile { phi };
        assert_eq!(
            restored.request(q, req).into_quantile().to_bits(),
            reference.request(q, req).into_quantile().to_bits(),
            "phi={phi}"
        );
    }
    let req = QueryRequest::HeavyHitters { support: 0.02 };
    assert_eq!(restored.request(f, req), reference.request(f, req));
}

#[test]
fn schema1_legacy_flat_blob_still_restores() {
    let mut restored =
        StreamEngine::restore(Engine::Host, &blob("ckpt_schema1.json")).expect("schema-1 blob");
    assert_matches_reference(&mut restored, 1);
}

#[test]
fn schema2_sharded_blob_still_restores() {
    let mut restored =
        StreamEngine::restore(Engine::Host, &blob("ckpt_schema2.json")).expect("schema-2 blob");
    assert_matches_reference(&mut restored, 2);
}

/// The current write format is pinned like the old ones: the committed
/// schema-3 blob restores, and today's engine over the golden recipe
/// writes exactly those bytes.
#[test]
fn schema3_blob_restores_and_is_what_the_engine_writes() {
    let golden = blob("ckpt_schema3.json");
    let mut restored = StreamEngine::restore(Engine::Host, &golden).expect("schema-3 blob");
    assert_matches_reference(&mut restored, 2);
    let (mut reference, _, _) = golden_reference(2);
    assert_eq!(reference.checkpoint(), golden, "write format drifted");
}

/// Upgrading is lossless: an old blob restored and re-checkpointed comes
/// out as a schema-3 envelope that restores to the same answers.
#[test]
fn old_schemas_recheckpoint_as_schema3() {
    for (name, shards) in [("ckpt_schema1.json", 1), ("ckpt_schema2.json", 2)] {
        let mut old = StreamEngine::restore(Engine::Host, &blob(name)).expect(name);
        let upgraded = old.checkpoint();
        assert!(
            upgraded.starts_with("{\"schema\":3,"),
            "{name}: {upgraded:.40}"
        );
        let mut again = StreamEngine::restore(Engine::Host, &upgraded).expect("upgraded blob");
        assert_eq!(again.shard_count(), shards, "{name}");
        assert_matches_reference(&mut again, shards);
    }
}

/// A durable directory seeded with a golden (pre-WAL) checkpoint and no
/// segments recovers cleanly: old checkpoints carry an implicit WAL
/// horizon of zero, so recovery restores them whole and resumes logging
/// from sequence one.
#[test]
fn recover_from_accepts_golden_checkpoints() {
    for (name, shards) in [("ckpt_schema1.json", 1), ("ckpt_schema2.json", 2)] {
        let dir =
            std::env::temp_dir().join(format!("gsm-ckpt-compat-{}-k{shards}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        std::fs::write(dir.join("ckpt-0000000000.json"), blob(name)).expect("seed checkpoint");

        let (mut recovered, report) = StreamEngine::recover_from(
            Engine::Host,
            DurableOptions::new(&dir),
            Recorder::disabled(),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.recovered_count, 2500, "{name}");
        assert_eq!(report.checkpoint_wal_seq, 0, "{name}: pre-WAL horizon");
        assert_eq!(report.replayed_records, 0, "{name}: no segments to replay");
        assert!(!report.damaged(), "{name}");
        assert_matches_reference(&mut recovered, shards);

        // The recovered engine logs new windows from sequence one.
        let fresh: Vec<f32> = (0..1024).map(|i| i as f32).collect();
        recovered.push_batch(&fresh);
        let segments: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
            .collect();
        assert_eq!(segments.len(), 1, "{name}: WAL resumed after recovery");

        std::fs::remove_dir_all(&dir).ok();
    }
}
