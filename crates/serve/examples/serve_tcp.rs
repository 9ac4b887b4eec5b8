//! A runnable serving demo: ingest a synthetic stream while exposing the
//! query frontend over TCP and the telemetry plane over HTTP.
//!
//! ```text
//! cargo run --release -p gsm-serve --example serve_tcp -- \
//!     [addr] [elements] [admin_addr] [linger_secs]
//! ```
//!
//! Defaults to `127.0.0.1:7878`, 1,048,576 elements, and an admin
//! endpoint on `127.0.0.1:7879`. With no `linger_secs` the demo waits for
//! Enter after ingestion; with it (e.g. in CI) it sleeps that long and
//! exits on its own. While it runs, talk to the query plane with `nc`:
//!
//! ```text
//! $ nc 127.0.0.1 7878
//! quantile 0 0.5
//! answer 17 quantile 32741 trace=5851f42d4c957f2d
//! epoch
//! epoch 17
//! ```
//!
//! and to the telemetry plane with `curl`:
//!
//! ```text
//! $ curl -s localhost:7879/healthz
//! $ curl -s localhost:7879/metrics | head
//! $ curl -s localhost:7879/status
//! ```
//!
//! Query indices: 0 = quantile (ε=0.01), 1 = frequency (ε=0.001),
//! 2 = sliding quantile (ε=0.05, width 65536). At exit the flight
//! recorder is dumped to `results/SERVE_postmortem.json` so the run's
//! last engine events (seals, publishes, any panics) are inspectable.

use gsm_core::Engine;
use gsm_dsms::EngineBuilder;
use gsm_obs::{Recorder, SloSpec};
use gsm_serve::{AdminServer, AdminSources, QueryServer, ServeConfig, TcpFront};

fn main() {
    let mut args = std::env::args().skip(1);
    let addr = args.next().unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let elements: u64 = args
        .next()
        .map(|s| s.parse().expect("elements must be an integer"))
        .unwrap_or(1 << 20);
    let admin_addr = args.next().unwrap_or_else(|| "127.0.0.1:7879".to_string());
    let linger_secs: Option<u64> = args.next().map(|s| s.parse().expect("linger seconds"));

    let shards = 2;
    let rec = Recorder::enabled();
    let mut eng = EngineBuilder::new(Engine::ParallelHost)
        .n_hint(elements)
        .shards(shards)
        .publish_every(4)
        .recorder(rec.clone())
        .build()
        .expect("valid configuration");
    let q = eng.register_quantile(0.01);
    let f = eng.register_frequency(0.001);
    let sq = eng.register_sliding_quantile(0.05, 1 << 16);

    let server = QueryServer::with_recorder(
        eng.serve(),
        ServeConfig {
            postmortem_path: Some("results/SERVE_postmortem.json".into()),
            ..ServeConfig::default()
        },
        rec.clone(),
    );
    let front = TcpFront::bind(server.client(), &addr).expect("bind TCP front");
    let admin = AdminServer::bind(
        &admin_addr,
        AdminSources {
            recorder: rec.clone(),
            registry: Some(std::sync::Arc::clone(server.registry())),
            client: Some(server.client()),
            shards,
            slos: vec![
                SloSpec {
                    name: "serve_quantile",
                    metric: "serve_latency",
                    label: Some(("kind", "quantile")),
                    p50_ns: Some(5_000_000),
                    p99_ns: 50_000_000,
                },
                SloSpec {
                    name: "serve_frequency",
                    metric: "serve_latency",
                    label: Some(("kind", "frequency")),
                    p50_ns: None,
                    p99_ns: 50_000_000,
                },
            ],
        },
    )
    .expect("bind admin endpoint");
    println!(
        "serving on {} (queries: {}=quantile {}=frequency {}=sliding-quantile), \
         admin on http://{}",
        front.local_addr(),
        q.index(),
        f.index(),
        sq.index(),
        admin.local_addr()
    );

    // Ingest on this thread while the server answers concurrently; a
    // value mix of 20% hot keys over a wide uniform range gives both
    // query families something to find.
    println!("ingesting {elements} elements ...");
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut batch = Vec::with_capacity(8192);
    let mut remaining = elements;
    while remaining > 0 {
        batch.clear();
        for _ in 0..remaining.min(8192) {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = if state % 5 == 0 {
                (state >> 32) % 16
            } else {
                (state >> 32) % 65_536
            };
            batch.push(v as f32);
        }
        remaining -= batch.len() as u64;
        eng.push_batch(&batch);
    }
    eng.flush();
    eng.publish_now();
    match linger_secs {
        Some(secs) => {
            println!(
                "ingestion done: {} elements, epoch {} — serving for {secs}s",
                eng.count(),
                server.registry().epoch()
            );
            std::thread::sleep(std::time::Duration::from_secs(secs));
        }
        None => {
            println!(
                "ingestion done: {} elements, epoch {} — press Enter to stop",
                eng.count(),
                server.registry().epoch()
            );
            let mut line = String::new();
            let _ = std::io::stdin().read_line(&mut line);
        }
    }
    drop(admin);
    drop(front);
    let stats = server.stats();
    drop(server);
    if let Err(e) = rec.dump_postmortem("results/SERVE_postmortem.json", "serve_tcp shutdown") {
        eprintln!("postmortem dump failed: {e}");
    } else {
        println!("flight recorder dumped to results/SERVE_postmortem.json");
    }
    println!(
        "served {} requests ({} answered, {} shed, {} expired, {} lost)",
        stats.submitted,
        stats.answered,
        stats.overloaded,
        stats.expired,
        stats.lost()
    );
}
