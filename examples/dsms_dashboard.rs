//! A DSMS "dashboard": several continuous queries sharing one GPU
//! co-processor, under overload with adaptive load shedding — the systems
//! scenario the paper opens with (§1).
//!
//! ```text
//! cargo run --release --example dsms_dashboard
//! ```

use gsm::core::{BitPrefixHierarchy, Engine};
use gsm::dsms::{run_at_rate, EngineBuilder, QueryRequest, StreamEngine};
use gsm::stream::ZipfGen;

fn main() {
    let n = 2_000_000usize;
    // Web-tracking style stream: page ids, Zipf popularity.
    let stream: Vec<f32> = ZipfGen::new(99, 4096, 1.1).take(n).collect();

    // One engine, three standing queries.
    let dashboard = || -> StreamEngine {
        EngineBuilder::new(Engine::GpuSim)
            .n_hint(n as u64)
            .build()
            .expect("valid configuration")
    };
    let mut eng = dashboard();
    let latency_q = eng.register_quantile(0.001);
    let hot_pages = eng.register_frequency(0.0001);
    let hot_sections = eng.register_hhh(0.0001, BitPrefixHierarchy::new(vec![6]));

    // Find the capacity, then drive at twice that.
    let mut probe = dashboard();
    let _ = probe.register_quantile(0.001);
    let _ = probe.register_frequency(0.0001);
    let _ = probe.register_hhh(0.0001, BitPrefixHierarchy::new(vec![6]));
    probe.push_batch(&stream);
    probe.flush();
    let capacity = probe.service_rate();
    println!(
        "engine capacity with 3 standing queries: {:.2} M elements/s (simulated)",
        capacity / 1e6
    );

    let offered = capacity * 2.0;
    println!(
        "offered rate: {:.2} M elements/s (2x overload)\n",
        offered / 1e6
    );
    let report = run_at_rate(&mut eng, stream.iter().copied(), offered);
    println!(
        "shed {:.1}% of {} arrivals; processed {}; backlog {:.0} ms; keep fraction {:.2}",
        100.0 * report.shed_fraction(),
        report.offered,
        report.processed,
        1000.0 * report.lag_seconds.max(0.0),
        report.keep_fraction
    );

    // The dashboard still answers, on the uniformly thinned sub-stream.
    println!("\n-- dashboard --");
    let mut page_id = |phi| {
        eng.request(latency_q, QueryRequest::Quantile { phi })
            .into_quantile()
    };
    println!("median page id: {}", page_id(0.5));
    println!("p99 page id:    {}", page_id(0.99));
    let hot = eng
        .request(hot_pages, QueryRequest::HeavyHitters { support: 0.01 })
        .into_heavy_hitters();
    println!("pages above 1% of (kept) traffic: {}", hot.len());
    for &(page, count) in hot.iter().take(5) {
        // Uniform shedding scales counts by the keep fraction; rescale.
        let estimated_true = (count as f64 / report.keep_fraction) as u64;
        println!("  page {page:>6}  kept-count {count:>8}  est. true {estimated_true:>8}");
    }
    let sections = eng
        .request(hot_sections, QueryRequest::Hhh { support: 0.05 })
        .into_hhh();
    println!("sections above 5%: {}", sections.len());
    println!("\ntime split: {}", eng.breakdown());
}
