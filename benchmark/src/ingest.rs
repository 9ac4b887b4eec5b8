//! The four ingest workloads (`ingest_sort`, `ingest_absorb`,
//! `sharded_publish`, `durable`): timed repeats of `push_batch`…`flush` on
//! fresh engines, the oracle checks on the final state, its query
//! latencies over TCP, and — in the traced run — the per-layer ledger.

use std::path::Path;
use std::time::Instant;

use gsm_core::Engine;
use gsm_dsms::{DurableOptions, StreamEngine};
use gsm_durable::{wal, CheckpointPolicy, FsyncPolicy};
use gsm_obs::Recorder;

use crate::config::{recorder, Built, Config, SETUPS, WALL_CAP};
use crate::input::Input;
use crate::oracle::check_final_state;
use crate::probes::{self, timed};
use crate::report::{Metrics, Ops, Outcome};
use crate::serve::query_end_of_stream;
use crate::stats::{fastest_each, highest_supported_percentile, median, percentile, quartiles};
use crate::sys::{rss_peak_mb, Scratch, Stopwatch};
use crate::trace::Tracer;
use crate::RunArgs;

/// Timed repeats of a throughput workload, after one warm-up repeat.
const REPEATS: usize = 9;
/// Laps a repeat's stream is timed in. Every repeat does the same work in
/// the same lap, so a lap's fastest execution among the repeats is the one
/// the guest's neighbours disturbed least; at 8–20 ms a lap is short
/// enough that some repeat runs it undisturbed.
pub const LAPS: usize = 64;
/// Checkpoint cadence of the durable workload, in sealed windows.
const CHECKPOINT_EVERY: u64 = 24;
/// Repeats behind each side phase's median (no durability, no serving,
/// grouped fsync).
const VARIANT_REPEATS: usize = 3;

fn durable_opts(dir: &Path, fsync: FsyncPolicy, checkpoint: CheckpointPolicy) -> DurableOptions {
    DurableOptions::new(dir)
        .fsync(fsync)
        .checkpoint(checkpoint)
        .records_per_segment(64)
        .truncate_on_checkpoint(true)
}

/// One `push_batch`…`flush` pass over the stream.
struct Repeat {
    /// Wall and process CPU seconds (user + system) of each lap; the last
    /// lap ends after `flush`.
    watch: Stopwatch,
    built: Built,
}

/// Pushes `count` batches, ending a lap of `watch` after every
/// `count / LAPS` (rounded up) of them.
pub fn push_in_laps<'a>(
    eng: &mut StreamEngine,
    batches: impl Iterator<Item = &'a [f32]>,
    count: usize,
    watch: &mut Stopwatch,
    tr: &mut Tracer,
) {
    let per_lap = count.div_ceil(LAPS);
    for (i, batch) in batches.take(count).enumerate() {
        let span = tr.begin("dsms.push_batch");
        eng.push_batch(batch);
        tr.end(span);
        if (i + 1) % per_lap == 0 {
            watch.lap();
        }
    }
}

fn ingest(
    cfg: &Config,
    mut built: Built,
    input: &Input,
    passes: usize,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> Repeat {
    let count = passes * input.values.len().div_ceil(cfg.batch);
    let batches = (0..passes).flat_map(|_| input.values.chunks(cfg.batch));
    let mut watch = Stopwatch::start();
    push_in_laps(&mut built.eng, batches, count, &mut watch, tr);
    let span = tr.begin("core.flush");
    built.eng.flush();
    tr.end(span);
    watch.lap();
    ops.done(count as u64);
    Repeat { watch, built }
}

/// Seconds of one repeat with every lap at its fastest among `repeats`
/// (each a repeat's lap times, wall or CPU).
fn fastest_laps_s(repeats: &[Vec<f64>]) -> f64 {
    fastest_each(repeats).iter().sum()
}

/// Median elements/s of [`VARIANT_REPEATS`] fresh-engine repeats of a
/// variant of the workload (no durability, no serving, another fsync
/// policy): whole repeats, to set against the traced run's one untraced
/// repeat of the workload itself.
fn variant_eps(
    cfg: &Config,
    input: &Input,
    passes: usize,
    ops: &mut Ops,
    mut build: impl FnMut(usize) -> Built,
) -> f64 {
    let total = (input.values.len() * passes) as f64;
    let eps: Vec<f64> = (0..VARIANT_REPEATS)
        .map(|i| {
            let rep = ingest(cfg, build(i), input, passes, &mut Tracer::new(false), ops);
            total / rep.watch.wall_s.iter().sum::<f64>()
        })
        .collect();
    median(&eps)
}

/// Kills a durable engine (drop without flush), recovers its directory and
/// checks the recovered state against the uncrashed reference checkpoint.
/// Returns the recovered engine.
fn crash_and_recover(
    built: Built,
    dir: &Path,
    reference: &str,
    elements: u64,
    ops: &mut Ops,
) -> Built {
    let Built { eng, ids, .. } = built;
    // The checkpoint envelope records whether a recorder was installed, so
    // the recovered engine gets one exactly when the reference had one.
    let fresh = recorder(eng.recorder().is_enabled());
    drop(eng);
    let opts = durable_opts(
        dir,
        FsyncPolicy::Off,
        CheckpointPolicy::EveryWindows(CHECKPOINT_EVERY),
    );
    let (mut eng, report) = StreamEngine::recover_from(Engine::ParallelHost, opts, fresh)
        .expect("recovery of an undamaged directory");
    ops.check(!report.damaged(), || {
        format!("recovery saw damage: {:?}", report.corruption)
    });
    ops.check(report.recovered_count == elements, || {
        format!(
            "recovered {} of {elements} elements",
            report.recovered_count
        )
    });
    ops.check(eng.checkpoint() == reference, || {
        "recovered checkpoint differs from the uncrashed reference".to_string()
    });
    // Query handles are registration indices, stable across recovery.
    Built {
        eng,
        ids,
        registry: None,
    }
}

pub fn run(cfg: &'static Config, args: &RunArgs) -> Outcome {
    let run_started = Instant::now();
    let (n, passes) = cfg.sizing(args.seconds);
    let total = (n * passes) as u64;
    let scratch = Scratch::new(cfg.name);
    let mut tr = Tracer::new(args.traced);
    let mut ops = Ops::default();
    let mut m = Metrics::default();

    let build = |recorder: Recorder, dir: Option<&Path>, serve: bool| {
        let durability = dir.map(|d| {
            durable_opts(
                d,
                FsyncPolicy::Off,
                CheckpointPolicy::EveryWindows(CHECKPOINT_EVERY),
            )
        });
        cfg.build(total, recorder, durability, serve)
    };
    let dir_for = |name: &str| cfg.durable.then(|| scratch.fresh(name));

    // Set-up: input generation, oracle sort, engine build. Repeated so that
    // `setup_s` is a median; the last one's products are used.
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..if args.traced { 1 } else { SETUPS } {
        drop(ready.take());
        let span = tr.begin("setup");
        let (secs, products) = timed(|| {
            let input = Input::generate(cfg.stream, args.seed, n);
            let dir = dir_for("warmup");
            let built = build(Recorder::disabled(), dir.as_deref(), true);
            (input, built)
        });
        tr.end(span);
        setup_s.push(secs);
        ready = Some(products);
    }
    let (input, first) = ready.expect("at least one set-up");

    // Repeat 0 is the untimed warm-up, on the engine the set-up built.
    drop(ingest(
        cfg,
        first,
        &input,
        passes,
        &mut Tracer::new(false),
        &mut ops,
    ));

    // Untraced: REPEATS timed repeats. Traced: one untraced repeat to price
    // the tracing against, then the traced one.
    let repeats = if args.traced { 2 } else { REPEATS };
    let recorder = recorder(args.traced);
    // Lap times of each repeat.
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut reference: Option<String> = None;
    let mut last: Option<(Built, String)> = None;
    for repeat in 1..=repeats {
        drop(last.take());
        let trace_this = args.traced && repeat == repeats;
        let mut untraced = Tracer::new(false);
        let tr = if trace_this { &mut tr } else { &mut untraced };
        tr.repeat = repeat as u32;
        let dir = dir_for("repeat");
        let span = tr.begin("dsms.build_seal");
        let rec = if trace_this {
            recorder.clone()
        } else {
            Recorder::disabled()
        };
        let built = build(rec, dir.as_deref(), true);
        tr.end(span);
        let rep = ingest(cfg, built, &input, passes, tr, &mut ops);
        walls.push(rep.watch.wall_s);
        cpus.push(rep.watch.cpu_s);
        let mut built = rep.built;
        let span = tr.begin("dsms.checkpoint");
        let checkpoint = built.eng.checkpoint();
        tr.end(span);
        if !trace_this {
            // Ingest is deterministic: every repeat must leave the same
            // state (the traced repeat's envelope differs in its
            // recorder flag).
            let same = reference.get_or_insert_with(|| checkpoint.clone()) == &checkpoint;
            ops.check(same, || {
                format!("repeat {repeat} left a different checkpoint")
            });
        }
        if let Some(dir) = &dir {
            let span = tr.begin("dsms.recover_from");
            built = crash_and_recover(built, dir, &checkpoint, total, &mut ops);
            tr.end(span);
        }
        last = Some((built, checkpoint));
    }
    let (mut built, checkpoint) = last.expect("at least one repeat");
    let window = built.eng.window();

    let span = tr.begin("oracle");
    let ratios = check_final_state(cfg, &mut built, &input, passes as u64, &mut ops);
    tr.end(span);
    // The traced run prices the read path with stand-alone probes instead.
    let lat_us = if args.traced {
        Vec::new()
    } else {
        query_end_of_stream(cfg, &mut built, args.seed, run_started + WALL_CAP, &mut ops)
    };
    ops.check(run_started.elapsed() < WALL_CAP, || {
        format!("the workload took {:?}", run_started.elapsed())
    });

    let raw: Vec<f64> = walls.iter().map(|laps| laps.iter().sum()).collect();
    let mut context = vec![
        format!(
            "{}: {n} elements x {passes} passes per repeat, window {window}, batch {}, {} shard(s)",
            cfg.name, cfg.batch, cfg.shards
        ),
        format!("ingest wall per repeat {raw:.3?} s"),
    ];

    if !args.traced {
        let (q1, wall_med, q3) = quartiles(&raw);
        let wall_s = fastest_laps_s(&walls);
        context.push(format!(
            "ingest wall per repeat: median {wall_med:.4} s, q1 {q1:.4} s, q3 {q3:.4} s, n {}; \
             with every one of its {} laps at its fastest: {wall_s:.4} s",
            raw.len(),
            walls[0].len()
        ));
        context.push(format!(
            "{} replies answered (latency sample count) by the end-of-stream state over TCP; \
             highest percentile with ten samples beyond it: {:?}",
            lat_us.len(),
            highest_supported_percentile(lat_us.len())
        ));
        m.set("setup_s", median(&setup_s));
        m.set("ingest_eps", total as f64 / wall_s);
        m.set(
            "ingest_cpu_ns_per_elem",
            fastest_laps_s(&cpus) * 1e9 / total as f64,
        );
        m.set("query_p50_us", percentile(&lat_us, 50.0));
        m.set("query_p95_us", percentile(&lat_us, 95.0));
        m.set("rss_peak_mb", rss_peak_mb());
        return Outcome {
            metrics: m,
            ops,
            context,
        };
    }

    // ---- The traced run's ledger --------------------------------------
    m.set("streams.gen_s", input.gen_s);
    m.set("streams.oracle_sort_s", input.oracle_sort_s);
    m.set("sketches.quantile_err_over_eps", ratios.quantile);
    m.set("sketches.freq_undercount_over_eps", ratios.freq_undercount);
    // `raw` is [untraced, traced].
    let untraced_eps = total as f64 / raw[0];
    let traced_repeat = repeats as u32;
    m.set("obs.trace_overhead_frac", 1.0 - raw[0] / raw[1]);
    m.set("obs.spans_dropped", recorder.dropped_spans() as f64);

    let push_batch_s = tr.total_s("dsms.push_batch", traced_repeat);
    m.set("dsms.push_batch_s", push_batch_s);
    m.set(
        "core.flush_ms",
        tr.total_s("core.flush", traced_repeat) * 1e3,
    );
    m.set(
        "dsms.seal_ms",
        tr.total_s("dsms.build_seal", traced_repeat) * 1e3,
    );
    let checkpoint_ms = tr.total_s("dsms.checkpoint", traced_repeat) * 1e3;
    m.set("dsms.checkpoint_ms", checkpoint_ms);
    m.set("dsms.ckpt_bytes", checkpoint.len() as f64);

    let (window_ingest_s, window_sort_s, window_absorb_s) =
        probes::recorder_ledger(&recorder, cfg.shards, &mut m);
    let publishes = recorder.counter("dsms_snapshots_published");
    let checkpoints = recorder.counter("wal_checkpoints");
    m.set("dsms.publishes", publishes as f64);

    probes::sorting_and_sketches(cfg, &input, window, total, &mut m, &mut tr);
    let route_s = if cfg.shards > 1 {
        probes::route(&input, &mut m, &mut tr) * total as f64 / 1e9
    } else {
        0.0
    };
    probes::dsms_state(cfg, &mut built, &checkpoint, &mut m, &mut tr);
    drop(built);
    let publish_s = m.get("dsms.publish_us").unwrap_or(0.0) * publishes as f64 / 1e6;

    if cfg.publish_every.is_some() {
        let span = tr.begin("variant.no_publish");
        let nopub = variant_eps(cfg, &input, passes, &mut ops, |_| {
            build(Recorder::disabled(), None, false)
        });
        tr.end(span);
        m.set("core.sharded_nopub_eps", nopub);
        m.set("dsms.publish_share", 1.0 - untraced_eps / nopub);
    }

    let mut wal_s = 0.0;
    let mut durable_ckpt_s = 0.0;
    if cfg.durable {
        m.set(
            "durable.wal_appends",
            recorder.counter("wal_appends") as f64,
        );
        m.set("durable.wal_fsyncs", recorder.counter("wal_fsyncs") as f64);
        m.set("durable.checkpoints", checkpoints as f64);
        let costs = probes::wal(
            &input,
            window,
            &checkpoint,
            &scratch.fresh("probe"),
            &mut m,
            &mut tr,
        );
        wal_s = costs.append_ns_per_elem * total as f64 / 1e9;
        durable_ckpt_s = (costs.ckpt_save_ms + checkpoint_ms) * checkpoints as f64 / 1e3;
        durable_phases(
            cfg,
            &input,
            passes,
            untraced_eps,
            &scratch,
            &mut m,
            &mut tr,
            &mut ops,
        );
    }

    // The reconciliation ROADMAP item 1 asks for: what share of the time in
    // `push_batch` no layer's measurement accounts for. Router, WAL,
    // checkpoint and publish have no spans inside the program yet, so their
    // shares are the stand-alone cost times the count of calls — for
    // publish the end-of-stream cost, an upper bound, so the fraction can
    // come out negative. With several shards each shard's `window_ingest`
    // span covers the other shards' work too, so it is left out.
    let fill_s = if cfg.shards == 1 {
        window_ingest_s
    } else {
        0.0
    };
    let attributed =
        fill_s + window_sort_s + window_absorb_s + route_s + wal_s + durable_ckpt_s + publish_s;
    m.set("core.unattributed_frac", 1.0 - attributed / push_batch_s);
    context.push(format!(
        "push_batch {push_batch_s:.3} s = window_ingest {fill_s:.3} + window_sort \
         {window_sort_s:.3} + window_absorb {window_absorb_s:.3} + route {route_s:.3} + wal \
         {wal_s:.3} + checkpoint {durable_ckpt_s:.3} + publish {publish_s:.3} + unattributed"
    ));
    tr.write(&crate::sys::out_dir().join(format!("trace_{}.json", cfg.name)));
    Outcome {
        metrics: m,
        ops,
        context,
    }
}

/// The durable workload's side phases, measured in the traced run: the
/// same stream without durability, with grouped fsync, and the recovery
/// of a long WAL tail.
#[allow(clippy::too_many_arguments)]
fn durable_phases(
    cfg: &Config,
    input: &Input,
    passes: usize,
    fsync_off_eps: f64,
    scratch: &Scratch,
    m: &mut Metrics,
    tr: &mut Tracer,
    ops: &mut Ops,
) {
    let total = (input.values.len() * passes) as u64;
    let span = tr.begin("variant.plain");
    let plain = variant_eps(cfg, input, passes, ops, |_| {
        cfg.build(total, Recorder::disabled(), None, false)
    });
    tr.end(span);
    m.set("durable.plain_eps", plain);
    m.set("durable.overhead_frac", 1.0 - fsync_off_eps / plain);

    // Phase B: one fsync every 8 records. The numbers are this sandbox's
    // file system's, not a device's.
    let span = tr.begin("variant.fsync_every_8");
    let fsync = variant_eps(cfg, input, passes, ops, |i| {
        let opts = durable_opts(
            &scratch.fresh(&format!("fsync{i}")),
            FsyncPolicy::EveryN(8),
            CheckpointPolicy::EveryWindows(CHECKPOINT_EVERY),
        );
        cfg.build(total, Recorder::disabled(), Some(opts), false)
    });
    tr.end(span);
    m.set("durable.fsync_eps", fsync);

    // Phase C: with periodic checkpoints a replay is at most 24 windows,
    // too short to time — so one pass is logged with the base checkpoint
    // only, the engine is killed, and recovery replays the whole log, on
    // five fresh copies of the directory.
    let span = tr.begin("variant.recovery");
    let elements = input.values.len() as u64;
    let source = scratch.fresh("tail");
    let opts = durable_opts(&source, FsyncPolicy::Off, CheckpointPolicy::Manual);
    let built = cfg.build(elements, Recorder::disabled(), Some(opts), false);
    let mut rep = ingest(cfg, built, input, 1, &mut Tracer::new(false), ops);
    let reference = rep.built.eng.checkpoint();
    drop(rep);
    let seg_bytes: u64 = std::fs::read_dir(&source)
        .expect("list log directory")
        .map(|e| e.expect("directory entry"))
        .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
        .map(|e| e.metadata().expect("segment metadata").len())
        .sum();
    m.set(
        "durable.wal_bytes_per_elem",
        seg_bytes as f64 / elements as f64,
    );
    let (scan_s, scan) = timed(|| wal::scan(&source).expect("scan log"));
    m.set("durable.wal_scan_ms", scan_s * 1e3);
    m.set("durable.wal_segments", scan.segments as f64);

    let mut recover_eps = Vec::new();
    let mut replayed = 0;
    for i in 0..5 {
        let copy = scratch.fresh(&format!("tail{i}"));
        for entry in std::fs::read_dir(&source).expect("list log directory") {
            let entry = entry.expect("directory entry");
            std::fs::copy(entry.path(), copy.join(entry.file_name())).expect("copy log file");
        }
        let opts = durable_opts(&copy, FsyncPolicy::Off, CheckpointPolicy::Manual);
        let (secs, recovered) =
            timed(|| StreamEngine::recover_from(Engine::ParallelHost, opts, Recorder::disabled()));
        let (mut eng, report) = recovered.expect("recovery of an undamaged directory");
        ops.check(report.recovered_count == elements, || {
            format!(
                "recovered {} of {elements} elements",
                report.recovered_count
            )
        });
        ops.check(eng.checkpoint() == reference, || {
            "recovered checkpoint differs from the uncrashed reference".to_string()
        });
        recover_eps.push(report.replayed_elements as f64 / secs);
        replayed = report.replayed_records;
        drop(eng);
        let _ = std::fs::remove_dir_all(&copy);
    }
    tr.end(span);
    m.set("durable.recover_eps", median(&recover_eps));
    m.set("dsms.recover_replayed_records", replayed as f64);
}
