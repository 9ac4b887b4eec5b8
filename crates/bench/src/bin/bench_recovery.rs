//! **Durability bench** — WAL ingest overhead and crash-recovery speed →
//! `results/BENCH_recovery.json`.
//!
//! Three ingest runs over the same stream on the host engine: no
//! durability (baseline), WAL with `FsyncPolicy::Off` (log writes and
//! incremental checkpoints, no log fsyncs), and WAL with
//! `FsyncPolicy::EverySeal` (one fsync per sealed window — the
//! bounded-loss configuration). The overhead percentages therefore price
//! the *whole* durable configuration, checkpointing included. The
//! fully-durable run is then killed (dropped) and recovered, timing
//! checkpoint restore + WAL tail replay, and the recovered answers are
//! byte-compared against the baseline run over the same elements.
//!
//! ```text
//! cargo run --release -p gsm-bench --bin bench_recovery [-- --elements 262144
//!     --checkpoint-every 24 --out results/BENCH_recovery.json]
//! ```

use std::time::Instant;

use gsm_bench::{envelope_json, write_result, Args, Table};
use gsm_core::Engine;
use gsm_dsms::{DurableOptions, EngineBuilder, QueryRequest, StreamEngine};
use gsm_durable::{CheckpointPolicy, FsyncPolicy};
use gsm_obs::Recorder;

#[derive(serde::Serialize)]
struct Report {
    elements: u64,
    window: u64,
    checkpoint_every: u64,
    ingest_plain_eps: f64,
    ingest_wal_off_eps: f64,
    ingest_wal_fsync_eps: f64,
    wal_overhead_off_pct: f64,
    wal_overhead_fsync_pct: f64,
    wal_bytes: u64,
    wal_segments: u64,
    wal_appends: u64,
    wal_fsyncs: u64,
    checkpoints: u64,
    recovery_secs: f64,
    recovery_eps: f64,
    recovered_count: u64,
    replayed_records: u64,
    byte_identical: bool,
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("gsm-bench-recovery-{}-{tag}", std::process::id()))
}

fn stream(elements: usize) -> Vec<f32> {
    // Deterministic skewed mix: frequent small ids over a wide tail.
    (0..elements)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
            if h % 5 == 0 {
                (h % 16) as f32
            } else {
                (h % 65_536) as f32
            }
        })
        .collect()
}

fn build(
    durable: Option<DurableOptions>,
    rec: Recorder,
    n_hint: u64,
) -> (StreamEngine, gsm_dsms::QueryId, gsm_dsms::QueryId) {
    let mut builder = EngineBuilder::new(Engine::Host)
        .n_hint(n_hint)
        .recorder(rec);
    if let Some(opts) = durable {
        builder = builder.durability(opts);
    }
    let mut eng = builder.build().expect("scratch durable dir");
    let q = eng.register_quantile(0.02);
    let f = eng.register_frequency(0.005);
    (eng, q, f)
}

fn main() {
    let args = Args::parse();
    let window = 1024usize;
    // Round down to whole windows so the full stream is sealed and logged
    // (recovery then answers over every pushed element).
    let elements: usize = (args.get_num::<usize>("elements", 262_144) / window) * window;
    // 24 does not divide the default 256-window stream, so the crash lands
    // mid-interval and recovery exercises both the checkpoint restore and
    // a genuine WAL tail replay, the way a real crash would.
    let checkpoint_every: u64 = args.get_num("checkpoint-every", 24);
    let out = args
        .get("out")
        .unwrap_or("results/BENCH_recovery.json")
        .to_string();
    let data = stream(elements);
    let opts = |dir: &std::path::Path, fsync| {
        DurableOptions::new(dir)
            .fsync(fsync)
            .checkpoint(CheckpointPolicy::EveryWindows(checkpoint_every))
    };

    println!("# bench_recovery: {elements} elements, window {window}, checkpoint every {checkpoint_every} windows");

    // Baseline: no durability. Kept alive as the byte-identity reference
    // (k = 1, so checkpoint-time flushes in the durable runs are no-ops
    // and the plain run chunks windows identically).
    let (mut plain, q, f) = build(None, Recorder::disabled(), elements as u64);
    let t = Instant::now();
    plain.push_batch(&data);
    let plain_secs = t.elapsed().as_secs_f64();

    // WAL, no fsync: the log-write cost alone.
    let off_dir = scratch_dir("off");
    std::fs::remove_dir_all(&off_dir).ok();
    let (mut wal_off, _, _) = build(
        Some(opts(&off_dir, FsyncPolicy::Off)),
        Recorder::disabled(),
        elements as u64,
    );
    let t = Instant::now();
    wal_off.push_batch(&data);
    let off_secs = t.elapsed().as_secs_f64();
    drop(wal_off);

    // WAL, fsync every seal: the bounded-loss configuration.
    let fsync_dir = scratch_dir("fsync");
    std::fs::remove_dir_all(&fsync_dir).ok();
    let rec = Recorder::enabled();
    let (mut wal_fsync, _, _) = build(
        Some(opts(&fsync_dir, FsyncPolicy::EverySeal)),
        rec.clone(),
        elements as u64,
    );
    let t = Instant::now();
    wal_fsync.push_batch(&data);
    let fsync_secs = t.elapsed().as_secs_f64();
    drop(wal_fsync); // the kill

    let mut wal_bytes = 0u64;
    let mut wal_segments = 0u64;
    for entry in std::fs::read_dir(&fsync_dir).expect("wal dir") {
        let entry = entry.expect("dir entry");
        if entry.file_name().to_string_lossy().ends_with(".seg") {
            wal_segments += 1;
            wal_bytes += entry.metadata().expect("metadata").len();
        }
    }

    let t = Instant::now();
    let (mut recovered, report) = StreamEngine::recover_from(
        Engine::Host,
        opts(&fsync_dir, FsyncPolicy::EverySeal),
        Recorder::disabled(),
    )
    .expect("recovery");
    let recovery_secs = t.elapsed().as_secs_f64();

    assert_eq!(
        report.recovered_count, elements as u64,
        "whole-window stream: nothing may be lost"
    );
    // QueryIds are registration indices, stable across checkpoint/restore,
    // so the plain engine's handles address the recovered engine too.
    let mut byte_identical = true;
    for phi in [0.01, 0.25, 0.5, 0.75, 0.99] {
        let req = QueryRequest::Quantile { phi };
        byte_identical &= recovered.request(q, req).into_quantile().to_bits()
            == plain.request(q, req).into_quantile().to_bits();
    }
    let req = QueryRequest::HeavyHitters { support: 0.01 };
    byte_identical &= recovered.request(f, req) == plain.request(f, req);

    let report = Report {
        elements: elements as u64,
        window: window as u64,
        checkpoint_every,
        ingest_plain_eps: elements as f64 / plain_secs,
        ingest_wal_off_eps: elements as f64 / off_secs,
        ingest_wal_fsync_eps: elements as f64 / fsync_secs,
        wal_overhead_off_pct: 100.0 * (off_secs - plain_secs) / plain_secs,
        wal_overhead_fsync_pct: 100.0 * (fsync_secs - plain_secs) / plain_secs,
        wal_bytes,
        wal_segments,
        wal_appends: rec.counter("wal_appends"),
        wal_fsyncs: rec.counter("wal_fsyncs"),
        checkpoints: rec.counter("wal_checkpoints"),
        recovery_secs,
        recovery_eps: report.recovered_count as f64 / recovery_secs,
        recovered_count: report.recovered_count,
        replayed_records: report.replayed_records,
        byte_identical,
    };
    assert!(
        report.byte_identical,
        "recovered answers must match the live run"
    );

    let mut table = Table::new(["lane", "elements/s", "overhead vs plain"]);
    table.row([
        "ingest plain".to_string(),
        format!("{:.0}", report.ingest_plain_eps),
        "-".to_string(),
    ]);
    table.row([
        "ingest wal(off)".to_string(),
        format!("{:.0}", report.ingest_wal_off_eps),
        format!("{:+.1}%", report.wal_overhead_off_pct),
    ]);
    table.row([
        "ingest wal(fsync)".to_string(),
        format!("{:.0}", report.ingest_wal_fsync_eps),
        format!("{:+.1}%", report.wal_overhead_fsync_pct),
    ]);
    table.row([
        "recovery".to_string(),
        format!("{:.0}", report.recovery_eps),
        format!(
            "{} records replayed in {:.3}s",
            report.replayed_records, report.recovery_secs
        ),
    ]);
    table.print(args.flag("csv"));

    let payload = serde_json::to_string(&report).expect("report serializes infallibly");
    write_result(&out, &envelope_json("gsm-bench/bench_recovery", &payload));
    println!("wrote {out}");

    std::fs::remove_dir_all(&off_dir).ok();
    std::fs::remove_dir_all(&fsync_dir).ok();
}
