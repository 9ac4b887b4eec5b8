//! Property-based batch-partition ingest identity.
//!
//! `StreamEngine::push_batch` contracts that its result does not depend
//! on how the caller slices the stream — down to one element per call,
//! which is the reference here. The verify
//! gate pins the canonical boundary-adversarial batch lengths; these
//! properties attack the contract with *arbitrary* batch partitions —
//! random chunk-length sequences that wander across window boundaries —
//! and extend the comparison to the durable artifacts on disk: the WAL
//! segment bytes and checkpoint files must be identical too.

use std::path::{Path, PathBuf};

use gsm::core::Engine;
use gsm::dsms::{BuildError, DurableOptions, EngineBuilder, QueryId, QueryRequest, StreamEngine};
use gsm::durable::{CheckpointPolicy, FsyncPolicy};
use proptest::collection::vec;
use proptest::prelude::*;

/// A value pool small enough that heavy hitters exist.
fn id_value() -> impl Strategy<Value = f32> {
    (0u32..64).prop_map(|v| v as f32)
}

/// Sets up a two-query engine (quantile + frequency — window 1024).
fn build(engine: Engine, shards: usize, n: usize) -> (StreamEngine, QueryId, QueryId) {
    let mut eng = EngineBuilder::new(engine)
        .n_hint(n as u64)
        .shards(shards)
        .build()
        .expect("valid configuration");
    let q = eng.register_quantile(0.02);
    let f = eng.register_frequency(0.005);
    (eng, q, f)
}

/// Checkpoint JSON plus the bit-exact answers of both queries.
fn observe(mut eng: StreamEngine, q: QueryId, f: QueryId) -> (String, Vec<u32>, Vec<(u32, u64)>) {
    let cp = eng.checkpoint();
    let quantiles = [0.01, 0.25, 0.5, 0.75, 0.99]
        .iter()
        .map(|&phi| {
            let answer = eng.request(q, QueryRequest::Quantile { phi });
            answer.into_quantile().to_bits()
        })
        .collect();
    let hh = eng
        .request(f, QueryRequest::HeavyHitters { support: 0.02 })
        .into_heavy_hitters()
        .into_iter()
        .map(|(v, c)| (v.to_bits(), c))
        .collect();
    (cp, quantiles, hh)
}

/// Feeds `data` through `push_batch` sliced by cycling through `cuts`.
fn push_partitioned(eng: &mut StreamEngine, data: &[f32], cuts: &[usize]) {
    let mut rest = data;
    let mut i = 0;
    while !rest.is_empty() {
        let take = cuts[i % cuts.len()].min(rest.len());
        let (chunk, tail) = rest.split_at(take);
        eng.push_batch(chunk);
        rest = tail;
        i += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary batch partitions produce the same checkpoint envelope
    /// and bit-exact answers as element-at-a-time ingest, across shard
    /// counts and engines.
    #[test]
    fn batch_partition_is_byte_identical(
        data in vec(id_value(), 1..6000),
        cuts in vec(1usize..2500, 1..6),
        shards in (0usize..3).prop_map(|i| [1usize, 2, 4][i]),
        engine in (0usize..Engine::ALL.len()).prop_map(|i| Engine::ALL[i]),
    ) {
        let (mut single, q, f) = build(engine, shards, data.len());
        push_partitioned(&mut single, &data, &[1]);
        let reference = observe(single, q, f);

        let (mut batched, q, f) = build(engine, shards, data.len());
        push_partitioned(&mut batched, &data, &cuts);
        let result = observe(batched, q, f);
        prop_assert_eq!(reference, result);
    }
}

/// Every file under `dir`, as (relative path, bytes), sorted by path.
fn dir_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(PathBuf, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).expect("read durable dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).expect("under root").to_path_buf();
                out.push((rel, std::fs::read(&path).expect("read durable file")));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn durable_opts(dir: &Path) -> DurableOptions {
    DurableOptions::new(dir)
        .fsync(FsyncPolicy::Off)
        .checkpoint(CheckpointPolicy::EveryWindows(2))
        .records_per_segment(3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With durability attached, arbitrary batch partitions leave the WAL
    /// segments and checkpoint files on disk byte-identical to
    /// element-at-a-time ingest's — same records, same sequence numbers,
    /// same truncations.
    #[test]
    fn durable_batch_partition_writes_identical_wal_bytes(
        data in vec(id_value(), 1..5000),
        cuts in vec(1usize..2500, 1..5),
    ) {
        let base = std::env::temp_dir().join(format!(
            "gsm-batch-prop-{}-{}",
            std::process::id(),
            data.len()
        ));
        let single_dir = base.join("single");
        let batch_dir = base.join("batch");
        let _ = std::fs::remove_dir_all(&base);

        let mut single = EngineBuilder::new(Engine::Host)
            .n_hint(data.len() as u64)
            .durability(durable_opts(&single_dir))
            .build()
            .expect("fresh single dir");
        single.register_quantile(0.02);
        push_partitioned(&mut single, &data, &[1]);
        let single_cp = single.checkpoint();
        drop(single);

        let mut batched = EngineBuilder::new(Engine::Host)
            .n_hint(data.len() as u64)
            .durability(durable_opts(&batch_dir))
            .build()
            .expect("fresh batch dir");
        batched.register_quantile(0.02);
        push_partitioned(&mut batched, &data, &cuts);
        let batched_cp = batched.checkpoint();
        drop(batched);

        prop_assert_eq!(single_cp, batched_cp);
        let single_files = dir_bytes(&single_dir);
        let batch_files = dir_bytes(&batch_dir);
        let single_names: Vec<_> = single_files.iter().map(|(p, _)| p.clone()).collect();
        let batch_names: Vec<_> = batch_files.iter().map(|(p, _)| p.clone()).collect();
        prop_assert_eq!(single_names, batch_names);
        for ((path, a), (_, b)) in single_files.iter().zip(batch_files.iter()) {
            prop_assert_eq!(a, b, "durable file {} diverged", path.display());
        }
        let _ = std::fs::remove_dir_all(&base);
    }
}

/// The builder rejects misuse with typed errors instead of panicking
/// mid-chain, and surfaces durability I/O failures the same way.
#[test]
fn builder_rejects_misuse_with_typed_errors() {
    assert!(matches!(
        EngineBuilder::new(Engine::Host).shards(0).build(),
        Err(BuildError::ZeroShards)
    ));
    assert!(matches!(
        EngineBuilder::new(Engine::Host).publish_every(0).build(),
        Err(BuildError::ZeroPublishCadence)
    ));
    // Both problems present: the first validation failure wins, and no
    // durable directory is created as a side effect of the failed build.
    let dir = std::env::temp_dir().join(format!("gsm-builder-misuse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let err = EngineBuilder::new(Engine::Host)
        .shards(0)
        .durability(DurableOptions::new(&dir))
        .build();
    assert!(matches!(err, Err(BuildError::ZeroShards)));
    assert!(!dir.exists(), "failed build must not touch the filesystem");
}
