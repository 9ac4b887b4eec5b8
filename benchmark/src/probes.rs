//! Stand-alone layer probes for the traced run: the layers' public
//! functions driven directly on the exact inputs the workload feeds them
//! (its windows, its sorted windows, its checkpoint document, its final
//! snapshot), each call under a harness span.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use gsm_core::pipeline::{HashRouter, ShardRouter};
use gsm_core::Engine;
use gsm_dsms::{EngineSnapshot, StreamEngine};
use gsm_durable::wal::{self, Wal, WalOptions};
use gsm_durable::{CheckpointStore, FsyncPolicy};
use gsm_obs::Recorder;
use gsm_sketch::{
    BitPrefixHierarchy, ExpHistogram, HhhSummary, LossyCounting, OpCounter, SlidingFrequency,
    SlidingQuantile,
};
use gsm_sort::layout::split_channels;
use gsm_sort::merge::{merge4_into, MergeScratch};
use gsm_sort::radix::sort_total;

use crate::config::{Built, Config, Query, HHH_SHIFTS};
use crate::input::{probe_request, Input, Kind};
use crate::report::Metrics;
use crate::stats::median;
use crate::trace::Tracer;

/// Elements of the stream the sorting and sketch probes run over.
const PROBE_ELEMENTS: usize = 1 << 20;

/// Largest checkpoint document the restore probe parses back.
const RESTORE_PROBE_MAX_BYTES: usize = 1 << 20;

/// Seconds of `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// Median seconds of `f` over 3 to `max` calls, stopping once `budget_s`
/// is spent — one pathological call (a quadratic query) must not stall
/// the run.
pub fn median_secs(max: usize, budget_s: f64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < 3 || (secs.len() < max && started.elapsed().as_secs_f64() < budget_s) {
        secs.push(timed(&mut f).0);
    }
    median(&secs)
}

/// Sums a span histogram over the unscoped handle and every shard scope.
fn hist_total(rec: &Recorder, name: &'static str, shards: usize) -> (f64, u64) {
    let mut hists: Vec<_> = rec.histogram(name).into_iter().collect();
    for shard in 0..shards {
        hists.extend(rec.histogram_labeled(name, ("shard", &shard.to_string())));
    }
    (
        hists.iter().map(|h| h.sum_ns as f64 / 1e9).sum(),
        hists.iter().map(|h| h.count).sum(),
    )
}

/// `core.window_*`, `core.windows_sorted` and `sorting.pool_*`: the span
/// histograms, counters and gauges the program already exports. Returns
/// the seconds in `(window_ingest, window_sort, window_absorb)`.
pub fn recorder_ledger(rec: &Recorder, shards: usize, m: &mut Metrics) -> (f64, f64, f64) {
    let (ingest_s, _) = hist_total(rec, "window_ingest", shards);
    let (sort_s, _) = hist_total(rec, "window_sort", shards);
    let (absorb_s, _) = hist_total(rec, "window_absorb", shards);
    m.set("core.window_ingest_s", ingest_s);
    m.set("core.window_sort_s", sort_s);
    m.set("core.window_absorb_s", absorb_s);
    m.set(
        "core.windows_sorted",
        rec.counter_total("windows_absorbed") as f64,
    );
    let (pool_wait_s, _) = hist_total(rec, "pool_wait", 0);
    let (pool_service_s, pool_tasks) = hist_total(rec, "pool_service", 0);
    m.set("sorting.pool_wait_s", pool_wait_s);
    m.set("sorting.pool_service_s", pool_service_s);
    m.set("sorting.pool_tasks", pool_tasks as f64);
    m.set(
        "sorting.pool_queue_depth_max",
        rec.gauge("pool_queue_depth")
            .map_or(0.0, |g| g.highwater as f64),
    );
    (ingest_s, sort_s, absorb_s)
}

/// `sorting.*` and `sketches.*`: the window sort and every registered
/// sketch's absorb, on the first [`PROBE_ELEMENTS`] of the stream cut into
/// the workload's own windows.
pub fn sorting_and_sketches(
    cfg: &Config,
    input: &Input,
    window: usize,
    n_hint: u64,
    m: &mut Metrics,
    tr: &mut Tracer,
) {
    let span = tr.begin("probe.sorting");
    let prefix = &input.values[..PROBE_ELEMENTS.min(input.values.len())];
    let mut radix_ns = Vec::new();
    let mut merge_ns = Vec::new();
    let mut passes = Vec::new();
    let mut sorted_windows: Vec<Vec<f32>> = Vec::new();
    let mut scratch = MergeScratch::default();
    for w in prefix.chunks(window) {
        let (mut lanes, _) = split_channels(w);
        let lane_elems: usize = lanes.iter().map(Vec::len).sum();
        let (secs, lane_passes) = timed(|| {
            lanes
                .iter_mut()
                .map(|lane| f64::from(sort_total(lane)))
                .sum::<f64>()
        });
        radix_ns.push(secs * 1e9 / lane_elems as f64);
        passes.push(lane_passes / 4.0);
        let mut out = Vec::with_capacity(w.len());
        let (secs, ()) = timed(|| {
            merge4_into(
                [&lanes[0], &lanes[1], &lanes[2], &lanes[3]],
                &mut scratch,
                &mut out,
                w.len(),
            );
        });
        merge_ns.push(secs * 1e9 / w.len() as f64);
        sorted_windows.push(out);
    }
    tr.end(span);
    m.set("sorting.radix_ns_per_elem", median(&radix_ns));
    m.set("sorting.radix_passes_per_lane", median(&passes));
    m.set("sorting.merge4_ns_per_elem", median(&merge_ns));

    let span = tr.begin("probe.sketches");
    let elems: usize = sorted_windows.iter().map(Vec::len).sum();
    let per_elem = |secs: f64| secs * 1e9 / elems as f64;
    for &query in cfg.queries {
        match query {
            Query::Quantile { eps } => {
                let probe = whole_stream_sketch(
                    &sorted_windows,
                    || ExpHistogram::new(eps, window, n_hint.max(window as u64)),
                    ExpHistogram::push_sorted_window,
                    |a, b| a.merge_from(b, &mut OpCounter::default()),
                );
                m.set(
                    "sketches.absorb_quantile_ns_per_elem",
                    per_elem(probe.absorb_s),
                );
                m.set(
                    "sketches.entries_quantile",
                    probe.sketch.entry_count() as f64,
                );
                m.set("sketches.merge_quantile_us", probe.merge_s * 1e6);
            }
            Query::Frequency { eps } => {
                let probe = whole_stream_sketch(
                    &sorted_windows,
                    || LossyCounting::with_window(eps, window),
                    LossyCounting::push_sorted_window,
                    |a, b| a.merge_from(b, &mut OpCounter::default()),
                );
                m.set(
                    "sketches.absorb_lossy_ns_per_elem",
                    per_elem(probe.absorb_s),
                );
                m.set("sketches.entries_lossy", probe.sketch.entry_count() as f64);
                m.set("sketches.merge_lossy_us", probe.merge_s * 1e6);
            }
            Query::Hhh { eps } => {
                let hierarchy = BitPrefixHierarchy::new(HHH_SHIFTS.to_vec());
                let mut sketch = HhhSummary::with_window(eps, window, hierarchy);
                let (secs, ()) = timed(|| {
                    for w in &sorted_windows {
                        sketch.push_sorted_window(w);
                    }
                });
                m.set("sketches.absorb_hhh_ns_per_elem", per_elem(secs));
            }
            // Sliding summaries take the sorted window re-chunked into
            // their own block size, as the engine feeds them.
            Query::SlidingQuantile { eps, width } => {
                let mut sketch = SlidingQuantile::new(eps, width);
                let block = sketch.block_size();
                let (secs, ()) = timed(|| {
                    for block in sorted_windows.iter().flat_map(|w| w.chunks(block)) {
                        sketch.push_sorted_block(block);
                    }
                });
                m.set("sketches.absorb_squant_ns_per_elem", per_elem(secs));
            }
            Query::SlidingFrequency { eps, width } => {
                let mut sketch = SlidingFrequency::new(eps, width);
                let block = sketch.block_size();
                let (secs, ()) = timed(|| {
                    for block in sorted_windows.iter().flat_map(|w| w.chunks(block)) {
                        sketch.push_sorted_block(block);
                    }
                });
                m.set("sketches.absorb_sfreq_ns_per_elem", per_elem(secs));
            }
        }
    }
    tr.end(span);
}

/// What [`whole_stream_sketch`] measured.
struct SketchProbe<S> {
    /// Seconds to absorb every window.
    absorb_s: f64,
    /// Median seconds of one `merge_from` of two half-stream sketches —
    /// stand-ins for two shards' summaries.
    merge_s: f64,
    /// The sketch after absorbing every window.
    sketch: S,
}

fn whole_stream_sketch<S: Clone>(
    sorted_windows: &[Vec<f32>],
    fresh: impl Fn() -> S,
    push: impl Fn(&mut S, &[f32]),
    merge: impl Fn(&mut S, &S),
) -> SketchProbe<S> {
    let mut sketch = fresh();
    let (absorb_s, ()) = timed(|| sorted_windows.iter().for_each(|w| push(&mut sketch, w)));
    let (mut a, mut b) = (fresh(), fresh());
    for (i, w) in sorted_windows.iter().enumerate() {
        push(if i % 2 == 0 { &mut a } else { &mut b }, w);
    }
    let merge_s = median_secs(5, 0.5, || {
        let mut merged = a.clone();
        merge(&mut merged, &b);
        black_box(&merged);
    });
    SketchProbe {
        absorb_s,
        merge_s,
        sketch,
    }
}

/// `core.route_ns_per_elem`: the hash router's batch pass at the sharded
/// workloads' shape (k = 4, batches of 1024). Returns the value.
pub fn route(input: &Input, m: &mut Metrics, tr: &mut Tracer) -> f64 {
    let span = tr.begin("probe.route");
    let prefix = &input.values[..PROBE_ELEMENTS.min(input.values.len())];
    let mut router = HashRouter;
    let mut staging: Vec<Vec<f32>> = (0..4).map(|_| Vec::with_capacity(1024)).collect();
    let (secs, ()) = timed(|| {
        for batch in prefix.chunks(1024) {
            staging.iter_mut().for_each(Vec::clear);
            router.route_batch(batch, 4, &mut staging);
            black_box(&staging);
        }
    });
    tr.end(span);
    let ns = secs * 1e9 / prefix.len() as f64;
    m.set("core.route_ns_per_elem", ns);
    ns
}

/// `dsms.restore_ms`, `dsms.publish_us` and `dsms.snap_q_*_us` on the
/// engine's end-of-stream state. Returns the final snapshot.
pub fn dsms_state(
    cfg: &Config,
    built: &mut Built,
    checkpoint: &str,
    m: &mut Metrics,
    tr: &mut Tracer,
) -> std::sync::Arc<EngineSnapshot> {
    // `restore` is quadratic in the document's size on this code base
    // (0.6 s at 0.75 MB, 84 s at 6.6 MB), so a large checkpoint is not
    // restored: the metric reads 0 and the size is the reason.
    if checkpoint.len() <= RESTORE_PROBE_MAX_BYTES {
        let span = tr.begin("dsms.restore");
        let (secs, restored) = timed(|| StreamEngine::restore(Engine::ParallelHost, checkpoint));
        tr.end(span);
        drop(restored.expect("own checkpoint restores"));
        m.set("dsms.restore_ms", secs * 1e3);
    }

    // Serving can start at any point of a stream; on a workload that does
    // not serve this only installs the snapshot mailbox.
    let registry = built.eng.serve();
    let span = tr.begin("dsms.publish_now");
    let secs = median_secs(20, 2.0, || built.eng.publish_now());
    tr.end(span);
    m.set("dsms.publish_us", secs * 1e6);

    let snap = registry.latest().expect("published above");
    let span = tr.begin("dsms.snapshot_request");
    for (index, query) in cfg.queries.iter().enumerate() {
        let kind = query.kind();
        let request = probe_request(kind, cfg.hh_support).typed();
        let secs = median_secs(9, 0.5, || {
            black_box(snap.request(index, request).expect("snapshot answers"));
        });
        let name = match kind {
            Kind::Quantile => "dsms.snap_q_quantile_us",
            Kind::Hh => "dsms.snap_q_hh_us",
            Kind::Hhh => "dsms.snap_q_hhh_us",
            Kind::Squant => "dsms.snap_q_squant_us",
            Kind::Shh => "dsms.snap_q_shh_us",
        };
        m.set(name, secs * 1e6);
    }
    tr.end(span);
    snap
}

/// What the WAL probes measured, for the ingest ledger.
pub struct WalCosts {
    pub append_ns_per_elem: f64,
    pub ckpt_save_ms: f64,
}

/// `durable.wal_append_ns_per_elem`, `crc32_ns_per_byte`, `fsync_us` and
/// `ckpt_save_ms`: the log and the checkpoint store driven directly with
/// the workload's windows and its real checkpoint document.
pub fn wal(
    input: &Input,
    window: usize,
    checkpoint: &str,
    dir: &Path,
    m: &mut Metrics,
    tr: &mut Tracer,
) -> WalCosts {
    let span = tr.begin("probe.wal");
    let prefix = &input.values[..PROBE_ELEMENTS.min(input.values.len())];
    let opts = WalOptions {
        fsync: FsyncPolicy::Off,
        records_per_segment: 64,
    };
    let mut log = Wal::create(dir, opts).expect("create probe log");
    let mut seq = 0u64;
    let (secs, ()) = timed(|| {
        for w in prefix.chunks(window) {
            seq += 1;
            log.append(seq, w).expect("append to probe log");
        }
    });
    let append_ns_per_elem = secs * 1e9 / prefix.len() as f64;
    m.set("durable.wal_append_ns_per_elem", append_ns_per_elem);

    // Eight records between syncs: the grouped-fsync cadence.
    let mut sync_us = Vec::new();
    for _ in 0..8 {
        for w in prefix.chunks(window).take(8) {
            seq += 1;
            log.append(seq, w).expect("append to probe log");
        }
        sync_us.push(timed(|| log.sync().expect("sync probe log")).0 * 1e6);
    }
    m.set("durable.fsync_us", median(&sync_us));

    let bytes: Vec<u8> = prefix.iter().flat_map(|v| v.to_le_bytes()).collect();
    let secs = median_secs(5, 0.5, || {
        black_box(wal::crc32(black_box(&bytes)));
    });
    m.set("durable.crc32_ns_per_byte", secs * 1e9 / bytes.len() as f64);

    let store = CheckpointStore::open(dir).expect("open probe store");
    let mut wal_seq = 0;
    let secs = median_secs(5, 1.0, || {
        wal_seq += 1;
        store.save(wal_seq, checkpoint).expect("save checkpoint");
    });
    m.set("durable.ckpt_save_ms", secs * 1e3);
    tr.end(span);
    WalCosts {
        append_ns_per_elem,
        ckpt_save_ms: secs * 1e3,
    }
}
