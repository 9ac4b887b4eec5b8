//! **Serve benchmark** — concurrent query load against a live ingesting
//! engine, and the ingest-throughput price of serving.
//!
//! Two phases over the same stream on `Engine::ParallelHost`:
//!
//! * **server off** — plain sharded ingestion, the baseline wall clock;
//! * **server on** — the engine publishes snapshots as windows seal while
//!   N paced client threads hammer the `gsm-serve` frontend with the
//!   registered query kinds; ingest wall clock and client latencies are
//!   both recorded.
//!
//! Reported: both ingest rates and their regression percentage, query
//! throughput, p50/p99 client-observed latency, and the full structured
//! reply accounting. Two invariants are **asserted** on every run:
//!
//! * zero requests lost without a structured reply, and
//! * the served answer byte-identical to the direct engine query over the
//!   same sealed windows.
//!
//! The <5% ingest-regression target is asserted only under
//! `--max-regression <pct>`: on a single-core shared runner the client
//! threads and the writer compete for one CPU, so the ratio is recorded
//! (and gated warn-only in CI by `bench_diff.sh`) rather than hard-failed.
//!
//! ```text
//! cargo run --release -p gsm-bench --bin bench_serve [-- --elements 1048576
//!     --shards 2 --clients 4 --publish-every 4 --pace-us 1000
//!     --repeats 2 --out results/BENCH_serve.json]
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use gsm_bench::Args;
use gsm_core::Engine;
use gsm_dsms::{EngineBuilder, QueryId, QueryRequest, StreamEngine};
use gsm_obs::{Log2Histogram, Recorder, SloSpec};
use gsm_serve::{Client, QueryServer, Reply, Request, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Client-side reply tally plus latency samples (nanoseconds, answered
/// requests only).
#[derive(Default)]
struct ClientTally {
    latencies_ns: Vec<u64>,
    answered: u64,
    overloaded: u64,
    expired: u64,
    not_ready: u64,
}

#[derive(serde::Serialize)]
struct SloVerdict {
    slo: String,
    quantile: f64,
    observed_ns: u64,
    bound_ns: u64,
    breached: bool,
}

#[derive(serde::Serialize)]
struct QueryStats {
    submitted: u64,
    answered: u64,
    overloaded: u64,
    expired: u64,
    not_ready: u64,
    bad_query: u64,
    lost: u64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
}

#[derive(serde::Serialize)]
struct Report {
    bench: String,
    engine: String,
    elements: u64,
    shards: usize,
    clients: usize,
    workers: usize,
    publish_every: u64,
    pace_us: u64,
    repeats: usize,
    host_threads: usize,
    /// Best-of-repeats ingest throughput with no server attached.
    ingest_off_eps: f64,
    /// Best-of-repeats ingest throughput while serving N clients.
    ingest_on_eps: f64,
    /// `(off - on) / off`, in percent; negative means serving measured
    /// faster (noise).
    regression_pct: f64,
    /// Snapshot publications during the best serving run.
    epochs_published: u64,
    queries: QueryStats,
    /// Warn-only SLO verdicts over the best run's server-side latency
    /// histograms (breaches never fail the bench).
    slo: Vec<SloVerdict>,
}

/// The same skewed mix the shard harness uses: hot ids + uniform tail.
fn stream(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.random_range(0..5u32) == 0 {
                rng.random_range(0..16u32) as f32
            } else {
                rng.random_range(0..65_536u32) as f32
            }
        })
        .collect()
}

#[derive(Clone, Copy)]
struct Queries {
    quantile: QueryId,
    frequency: QueryId,
    sliding: QueryId,
}

/// Builds the three-query engine every phase uses.
fn build_engine(n: u64, shards: usize, publish_every: u64) -> (StreamEngine, Queries) {
    let mut eng = EngineBuilder::new(Engine::ParallelHost)
        .n_hint(n)
        .shards(shards)
        .publish_every(publish_every)
        .build()
        .expect("valid configuration");
    let quantile = eng.register_quantile(0.01);
    let frequency = eng.register_frequency(0.001);
    let sliding = eng.register_sliding_quantile(0.05, 1 << 14);
    (
        eng,
        Queries {
            quantile,
            frequency,
            sliding,
        },
    )
}

/// Phase A: ingest with no server attached (no registry, so the
/// publication check in push_batch() is a single untaken branch).
fn ingest_off(data: &[f32], shards: usize, publish_every: u64, repeats: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let (mut eng, _ids) = build_engine(data.len() as u64, shards, publish_every);
        let start = Instant::now();
        eng.push_batch(data);
        eng.flush();
        best = best.min(start.elapsed().as_secs_f64());
    }
    data.len() as f64 / best
}

/// One paced client: cycles the query kinds until stopped, tallying every
/// structured reply. The pace sleep models think time and keeps the load
/// generator from starving a single-core writer.
fn client_loop(client: &Client, ids: Queries, stop: &AtomicBool, pace: Duration) -> ClientTally {
    let mut tally = ClientTally::default();
    let mut turn = 0u64;
    while !stop.load(Ordering::Acquire) {
        turn = turn.wrapping_add(1);
        let request = match turn % 3 {
            0 => Request::Quantile {
                query: ids.quantile.index(),
                phi: 0.5,
            },
            1 => Request::HeavyHitters {
                query: ids.frequency.index(),
                support: 0.01,
            },
            _ => Request::SlidingQuantile {
                query: ids.sliding.index(),
                phi: 0.9,
            },
        };
        let start = Instant::now();
        match client.call(request) {
            Reply::Answer { .. } => {
                tally.latencies_ns.push(start.elapsed().as_nanos() as u64);
                tally.answered += 1;
            }
            Reply::Overloaded { .. } => tally.overloaded += 1,
            Reply::Expired => tally.expired += 1,
            Reply::NotReady => tally.not_ready += 1,
            Reply::BadQuery(msg) => panic!("load generator sent a bad query: {msg}"),
        }
        if !pace.is_zero() {
            thread::sleep(pace);
        }
    }
    tally
}

struct ServingRun {
    ingest_eps: f64,
    epochs: u64,
    tallies: Vec<ClientTally>,
    serving_secs: f64,
    submitted: u64,
    bad_query: u64,
    /// The server-side recorder, kept so the SLO gate can read the
    /// `serve_latency{kind=...}` histograms of the winning run.
    recorder: Recorder,
}

/// Phase B: ingest while N clients hammer the frontend, then prove
/// byte-identity (served vs direct) on the final snapshot and balance the
/// reply accounting.
fn ingest_on(
    data: &[f32],
    shards: usize,
    publish_every: u64,
    clients: usize,
    workers: usize,
    pace: Duration,
) -> ServingRun {
    let (mut eng, ids) = build_engine(data.len() as u64, shards, publish_every);
    let registry = eng.serve();
    let recorder = Recorder::enabled();
    let server = QueryServer::with_recorder(
        Arc::clone(&registry),
        ServeConfig {
            workers,
            queue_capacity: 256,
            default_deadline: Duration::from_secs(5),
            ..ServeConfig::default()
        },
        recorder.clone(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let client = server.client();
            let stop = Arc::clone(&stop);
            thread::spawn(move || client_loop(&client, ids, &stop, pace))
        })
        .collect();

    let start = Instant::now();
    eng.push_batch(data);
    let ingest_secs = start.elapsed().as_secs_f64();

    stop.store(true, Ordering::Release);
    let tallies: Vec<ClientTally> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let serving_secs = start.elapsed().as_secs_f64();

    // Seal the tail, publish, and prove byte-identity on the final
    // snapshot: the served reply must equal the direct engine query over
    // the same sealed windows.
    eng.flush();
    eng.publish_now();
    let probe = server.client();
    let direct = eng.request(ids.quantile, QueryRequest::Quantile { phi: 0.5 });
    match probe.call(Request::Quantile {
        query: ids.quantile.index(),
        phi: 0.5,
    }) {
        Reply::Answer { answer, epoch } => {
            assert_eq!(epoch, registry.epoch(), "probe answered the tail epoch");
            assert_eq!(
                answer, direct,
                "served answer diverged from the direct engine query"
            );
        }
        other => panic!("byte-identity probe got {other:?}"),
    }

    let stats = server.stats();
    drop(server);
    assert_eq!(
        stats.lost(),
        0,
        "requests lost without a structured reply: {stats:?}"
    );
    ServingRun {
        ingest_eps: data.len() as f64 / ingest_secs,
        epochs: registry.epoch(),
        tallies,
        serving_secs,
        submitted: stats.submitted,
        bad_query: stats.bad_query,
        recorder,
    }
}

/// Client-observed latency percentile via the same log2-bucket estimator
/// the exporter publishes (`Log2Histogram::approx_quantile`), so bench
/// numbers and scraped `_p50`/`_p99` series agree on methodology.
fn percentile_us(latencies_ns: &[u64], q: f64) -> f64 {
    let mut hist = Log2Histogram::default();
    for &ns in latencies_ns {
        hist.observe(ns);
    }
    hist.approx_quantile(q) as f64 / 1_000.0
}

fn main() {
    let args = Args::parse();
    let elements: usize = args.get_num("elements", 1 << 20);
    let shards: usize = args.get_num("shards", 2);
    let clients: usize = args.get_num("clients", 4);
    let workers: usize = args.get_num("workers", 2);
    let publish_every: u64 = args.get_num("publish-every", 4);
    let pace_us: u64 = args.get_num("pace-us", 1_000);
    let repeats: usize = args.get_num("repeats", 2);
    let max_regression: Option<f64> = args.get("max-regression").map(|s| {
        s.parse()
            .expect("--max-regression must be a percentage number")
    });
    let out = args
        .get("out")
        .unwrap_or("results/BENCH_serve.json")
        .to_string();

    let data = stream(elements, 42);
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let pace = Duration::from_micros(pace_us);

    println!(
        "# serve benchmark: {elements} elements, {shards} shard(s), {clients} client(s), \
         {workers} worker(s), publish every {publish_every} window(s), {threads} host thread(s)\n"
    );

    let off_eps = ingest_off(&data, shards, publish_every, repeats);
    println!("server off: {off_eps:>12.0} elem/s ingest");

    let mut best: Option<ServingRun> = None;
    for _ in 0..repeats.max(1) {
        let run = ingest_on(&data, shards, publish_every, clients, workers, pace);
        if best.as_ref().is_none_or(|b| run.ingest_eps > b.ingest_eps) {
            best = Some(run);
        }
    }
    let run = best.expect("at least one repeat");
    let regression_pct = (off_eps - run.ingest_eps) / off_eps * 100.0;
    println!(
        "server on:  {:>12.0} elem/s ingest ({:+.2}% vs off), {} epochs published",
        run.ingest_eps, regression_pct, run.epochs
    );

    let latencies: Vec<u64> = run
        .tallies
        .iter()
        .flat_map(|t| t.latencies_ns.iter().copied())
        .collect();
    let answered: u64 = run.tallies.iter().map(|t| t.answered).sum();
    let queries = QueryStats {
        submitted: run.submitted,
        answered,
        overloaded: run.tallies.iter().map(|t| t.overloaded).sum(),
        expired: run.tallies.iter().map(|t| t.expired).sum(),
        not_ready: run.tallies.iter().map(|t| t.not_ready).sum(),
        bad_query: run.bad_query,
        lost: 0,
        qps: answered as f64 / run.serving_secs,
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
    };
    println!(
        "queries:    {} answered ({:.0}/s), p50 {:.1}µs p99 {:.1}µs, {} shed, 0 lost",
        queries.answered, queries.qps, queries.p50_us, queries.p99_us, queries.overloaded
    );

    if let Some(limit) = max_regression {
        assert!(
            regression_pct <= limit,
            "ingest regression {regression_pct:.2}% exceeds --max-regression {limit}%"
        );
    }

    // Warn-only SLO gate over the winning run's *server-side* latency
    // histograms: breaches annotate CI logs but never fail the bench —
    // shared runners make tail latency a signal, not a contract.
    let specs = [
        SloSpec {
            name: "serve_quantile_p99",
            metric: "serve_latency",
            label: Some(("kind", "quantile")),
            p50_ns: None,
            p99_ns: 50_000_000,
        },
        SloSpec {
            name: "serve_frequency_p99",
            metric: "serve_latency",
            label: Some(("kind", "frequency")),
            p50_ns: None,
            p99_ns: 50_000_000,
        },
        SloSpec {
            name: "serve_sliding_p99",
            metric: "serve_latency",
            label: Some(("kind", "sliding_quantile")),
            p50_ns: None,
            p99_ns: 50_000_000,
        },
    ];
    let mut slo = Vec::new();
    for outcome in run.recorder.check_slos(&specs) {
        if outcome.p99_breached {
            println!(
                "::warning::SLO {} breached: p99 {:.1}ms over bound {:.1}ms",
                outcome.name,
                outcome.observed_p99_ns as f64 / 1e6,
                50_000_000f64 / 1e6
            );
        }
        slo.push(SloVerdict {
            slo: outcome.name.to_string(),
            quantile: 0.99,
            observed_ns: outcome.observed_p99_ns,
            bound_ns: 50_000_000,
            breached: outcome.p99_breached,
        });
    }

    let report = Report {
        bench: "serve".to_string(),
        engine: "ParallelHost".to_string(),
        elements: elements as u64,
        shards,
        clients,
        workers,
        publish_every,
        pace_us,
        repeats,
        host_threads: threads,
        ingest_off_eps: off_eps,
        ingest_on_eps: run.ingest_eps,
        regression_pct,
        epochs_published: run.epochs,
        queries,
        slo,
    };
    let payload = serde_json::to_string(&report).expect("report serializes");
    gsm_bench::write_result(
        &out,
        &gsm_bench::envelope_json("gsm-bench/bench_serve", &payload),
    );
    println!("\nwrote {out}");
}
