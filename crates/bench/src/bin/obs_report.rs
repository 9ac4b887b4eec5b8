//! **Observability report** — runs an instrumented workload across every
//! engine and exports the collected metrics.
//!
//! One shared [`gsm_obs::Recorder`] watches the full stack: the window
//! pipeline on all four engines (GpuSim / CpuSim / Host / ParallelHost),
//! the host worker pool behind `ParallelHost`, and a DSMS run answering
//! continuous queries. Two artifacts land under `results/`:
//!
//! * `OBS_metrics.prom` — every counter, gauge, and latency histogram in
//!   the Prometheus text exposition format;
//! * `OBS_trace.json` — the span ring as Chrome `trace_event` JSON (open in
//!   `about:tracing` or Perfetto), wrapped in the shared versioned result
//!   envelope.
//!
//! Before writing anything, the harness reconciles the recorder's
//! simulated-phase counters (`sim_*_ns`) against the pipelines' own
//! [`OpLedger`](gsm_core::OpLedger) breakdowns and aborts on disagreement,
//! so a dumped report is guaranteed to match the ledger the paper's figures
//! are priced from.
//!
//! ```text
//! cargo run --release -p gsm-bench --bin obs_report [-- --elements 65536
//!     --window 4096 --prom-out results/OBS_metrics.prom
//!     --trace-out results/OBS_trace.json]
//! ```

use gsm_bench::{envelope_json, write_result, Args, RESULT_SCHEMA};
use gsm_core::{Engine, TimeBreakdown, WindowedPipeline};
use gsm_dsms::{EngineBuilder, QueryRequest};
use gsm_obs::Recorder;
use gsm_sketch::LossyCounting;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn stream(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random_range(0.0..65_536.0f32)).collect()
}

/// Sums `next` into the running per-phase totals.
fn accumulate(totals: &mut [f64; 4], next: TimeBreakdown) {
    totals[0] += next.sort.as_secs();
    totals[1] += next.transfer.as_secs();
    totals[2] += next.merge.as_secs();
    totals[3] += next.compress.as_secs();
}

fn main() {
    let args = Args::parse();
    let elements: usize = args.get_num("elements", 64 * 1024);
    let window: usize = args.get_num("window", 4096);
    let prom_out = args
        .get("prom-out")
        .unwrap_or("results/OBS_metrics.prom")
        .to_string();
    let trace_out = args
        .get("trace-out")
        .unwrap_or("results/OBS_trace.json")
        .to_string();

    let data = stream(elements, 42);
    let rec = Recorder::enabled();
    // Ledger totals accumulated alongside the recorder, for the
    // reconciliation check: [sort, transfer, merge, compress] in seconds.
    let mut ledger = [0f64; 4];

    println!("# obs report: {elements} elements, window {window}\n");
    for engine in [
        Engine::GpuSim,
        Engine::CpuSim,
        Engine::Host,
        Engine::ParallelHost,
    ] {
        let mut p = WindowedPipeline::new(engine, window, LossyCounting::with_window(0.01, window))
            .with_recorder(rec.clone());
        for &v in &data {
            p.push(v);
        }
        p.flush();
        let b = p.breakdown();
        accumulate(&mut ledger, b);
        println!(
            "{engine:>14?}: {} windows, sim total {:.3} ms",
            p.windows_sorted(),
            b.total().as_millis()
        );
    }

    // A DSMS pass exercises the answer-latency spans and the shared fan-out
    // sink; two shards so the exported series include per-shard labels
    // (`shard="0"` / `shard="1"`), plus a snapshot publish so the epoch
    // gauge and the flight recorder's seal/publish events are live.
    let mut eng = EngineBuilder::new(Engine::Host)
        .n_hint(elements as u64)
        .shards(2)
        .recorder(rec.clone())
        .build()
        .expect("valid configuration");
    let q = eng.register_quantile(0.02);
    let f = eng.register_frequency(0.005);
    let registry = eng.serve();
    eng.push_batch(&data);
    let median = eng
        .request(q, QueryRequest::Quantile { phi: 0.5 })
        .into_quantile();
    let hot = eng
        .request(f, QueryRequest::HeavyHitters { support: 0.01 })
        .into_heavy_hitters()
        .len();
    eng.publish_now();
    accumulate(&mut ledger, eng.breakdown());
    println!(
        "{:>14}: median {median:.1}, {hot} heavy hitters, epoch {}",
        "DSMS",
        registry.epoch()
    );

    // Reconcile: each counter is a sum of per-absorption deltas rounded to
    // whole nanoseconds, so it must match the ledger total to within one
    // nanosecond per absorption (plus float slack). The sharded DSMS run
    // reports under per-shard labels, so totals are summed across labels.
    let absorptions = rec.counter_total("windows_absorbed") as f64;
    let counted = [
        rec.counter_total("sim_sort_ns"),
        rec.counter_total("sim_transfer_ns"),
        rec.counter_total("sim_merge_ns"),
        rec.counter_total("sim_compress_ns"),
    ];
    println!("\n{:>10} {:>14} {:>14}", "phase", "ledger(s)", "counted(s)");
    for (name, (total, ns)) in ["sort", "transfer", "merge", "compress"]
        .into_iter()
        .zip(ledger.into_iter().zip(counted))
    {
        let counted_secs = ns as f64 * 1e-9;
        println!("{name:>10} {total:>14.9} {counted_secs:>14.9}");
        let tolerance = 1e-9 * absorptions + 1e-6 * total.max(1e-3);
        assert!(
            (counted_secs - total).abs() <= tolerance,
            "phase {name} diverged: ledger {total}s vs counters {counted_secs}s"
        );
    }
    println!("\nper-phase counters reconcile with the OpLedger breakdown");

    let prom = format!(
        "# gsm obs_report (schema {RESULT_SCHEMA})\n{}",
        rec.prometheus_text()
    );
    write_result(&prom_out, &prom);
    let trace = envelope_json("gsm-bench/obs_report", &rec.chrome_trace_json());
    write_result(&trace_out, &trace);
    println!(
        "wrote {prom_out} ({} bytes) and {trace_out} ({} spans, {} dropped)",
        prom.len(),
        rec.spans().len(),
        rec.dropped_spans()
    );
}
