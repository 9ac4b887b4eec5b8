//! **Observability overhead benchmark** — the price of the telemetry
//! plane on the hot ingest path.
//!
//! Three passes over the same stream on `Engine::Host`, best-of-repeats:
//!
//! * **off** — recorder disabled: every obs call sites is one untaken
//!   branch, the baseline the byte-identity crosscheck tests pin;
//! * **on** — recorder enabled: window-seal counters, gauges, and
//!   latency histograms are live;
//! * **traced** — recorder enabled *and* every chunk of pushes wrapped
//!   in a request-scoped traced span (`span_traced` with a fresh
//!   [`gsm_obs::TraceCtx`]), the worst-case per-request tracing cost.
//!
//! The enabled-vs-disabled overhead is **asserted** under a configurable
//! bound (`--max-overhead`, percent, default 50): metrics that cost more
//! than that on ingest would push users to run blind. The traced figure
//! is recorded but not gated — tracing is per-request opt-in, not an
//! always-on tax.
//!
//! ```text
//! cargo run --release -p gsm-bench --bin bench_obs_overhead [-- \
//!     --elements 2097152 --repeats 3 --max-overhead 50
//!     --out results/BENCH_obs_overhead.json]
//! ```

use std::time::Instant;

use gsm_bench::Args;
use gsm_core::Engine;
use gsm_dsms::{EngineBuilder, StreamEngine};
use gsm_obs::{Recorder, TraceCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(serde::Serialize)]
struct Report {
    bench: String,
    engine: String,
    elements: u64,
    repeats: usize,
    chunk: usize,
    /// Best-of-repeats ingest throughput, recorder disabled.
    ingest_off_eps: f64,
    /// Best-of-repeats ingest throughput, recorder enabled.
    ingest_on_eps: f64,
    /// Best-of-repeats ingest throughput, enabled + per-chunk traced spans.
    ingest_traced_eps: f64,
    /// `(off - on) / off` in percent (negative = noise).
    enabled_overhead_pct: f64,
    /// `(off - traced) / off` in percent.
    traced_overhead_pct: f64,
    /// The asserted ceiling on `enabled_overhead_pct`.
    max_overhead_pct: f64,
    /// Spans recorded during the best traced run.
    traced_spans: u64,
}

fn stream(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random_range(0.0f32..65_536.0)).collect()
}

fn build(n: u64, rec: Recorder) -> StreamEngine {
    let mut eng = EngineBuilder::new(Engine::Host)
        .n_hint(n)
        .recorder(rec)
        .build()
        .expect("valid configuration");
    let _ = eng.register_quantile(0.01);
    let _ = eng.register_frequency(0.001);
    eng
}

/// One timed ingest pass; `trace_chunks` wraps every chunk in a traced
/// span the way a request-scoped caller would.
fn ingest_once(data: &[f32], rec: &Recorder, chunk: usize, trace_chunks: bool) -> (f64, u64) {
    let mut eng = build(data.len() as u64, rec.clone());
    let start = Instant::now();
    for piece in data.chunks(chunk) {
        let _span = trace_chunks.then(|| rec.span_traced("bench_ingest_chunk", TraceCtx::fresh()));
        eng.push_batch(piece);
    }
    eng.flush();
    let secs = start.elapsed().as_secs_f64();
    (data.len() as f64 / secs, rec.span_ring_len() as u64)
}

/// Best-of-repeats throughput for one recorder mode. A fresh recorder per
/// repeat keeps ring evictions out of the timing comparison.
fn best_of(
    data: &[f32],
    repeats: usize,
    chunk: usize,
    make_rec: impl Fn() -> Recorder,
    trace_chunks: bool,
) -> (f64, u64) {
    let mut best = (0.0f64, 0u64);
    for _ in 0..repeats.max(1) {
        let rec = make_rec();
        let run = ingest_once(data, &rec, chunk, trace_chunks);
        if run.0 > best.0 {
            best = run;
        }
    }
    best
}

fn main() {
    let args = Args::parse();
    let elements: usize = args.get_num("elements", 1 << 21);
    let repeats: usize = args.get_num("repeats", 3);
    let chunk: usize = args.get_num("chunk", 4096);
    let max_overhead: f64 = args.get_num("max-overhead", 50.0);
    let out = args
        .get("out")
        .unwrap_or("results/BENCH_obs_overhead.json")
        .to_string();

    let data = stream(elements, 42);
    println!(
        "# obs overhead benchmark: {elements} elements on Host, chunk {chunk}, \
         best of {repeats}\n"
    );

    let (off_eps, _) = best_of(&data, repeats, chunk, Recorder::disabled, false);
    println!("recorder off:    {off_eps:>12.0} elem/s");
    let (on_eps, _) = best_of(&data, repeats, chunk, Recorder::enabled, false);
    let enabled_overhead_pct = (off_eps - on_eps) / off_eps * 100.0;
    println!("recorder on:     {on_eps:>12.0} elem/s ({enabled_overhead_pct:+.2}%)");
    let (traced_eps, traced_spans) = best_of(&data, repeats, chunk, Recorder::enabled, true);
    let traced_overhead_pct = (off_eps - traced_eps) / off_eps * 100.0;
    println!(
        "on + tracing:    {traced_eps:>12.0} elem/s ({traced_overhead_pct:+.2}%), \
         {traced_spans} spans in ring"
    );

    assert!(
        enabled_overhead_pct <= max_overhead,
        "enabled-recorder ingest overhead {enabled_overhead_pct:.2}% exceeds \
         --max-overhead {max_overhead}%"
    );

    let report = Report {
        bench: "obs_overhead".to_string(),
        engine: "Host".to_string(),
        elements: elements as u64,
        repeats,
        chunk,
        ingest_off_eps: off_eps,
        ingest_on_eps: on_eps,
        ingest_traced_eps: traced_eps,
        enabled_overhead_pct,
        traced_overhead_pct,
        max_overhead_pct: max_overhead,
        traced_spans,
    };
    let payload = serde_json::to_string(&report).expect("report serializes");
    gsm_bench::write_result(
        &out,
        &gsm_bench::envelope_json("gsm-bench/bench_obs_overhead", &payload),
    );
    println!("\nwrote {out}");
}
