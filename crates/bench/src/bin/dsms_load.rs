//! **E11 (extension)** — DSMS load shedding: how much of an overloaded
//! stream each engine can keep (paper §1's motivating scenario).
//!
//! A stream engine with three registered continuous queries (quantiles,
//! heavy hitters, hierarchical heavy hitters) is driven at increasing
//! offered rates. Below capacity nothing is shed; above it the adaptive
//! shedder converges to `keep ≈ capacity / rate`. The GPU co-processor's
//! higher sorting throughput translates directly into a higher shed-free
//! rate — the paper's "hardware-accelerated solutions that can keep up with
//! the update rate".
//!
//! ```text
//! cargo run --release -p gsm-bench --bin dsms_load [-- --n 2097152 --csv]
//! ```

use gsm_bench::{human_n, Args, Table};
use gsm_core::{BitPrefixHierarchy, Engine};
use gsm_dsms::{run_at_rate, EngineBuilder, StreamEngine};
use gsm_stream::UniformGen;

fn make_engine(engine: Engine, n: usize) -> StreamEngine {
    let mut eng = EngineBuilder::new(engine)
        .n_hint(n as u64)
        .build()
        .expect("valid configuration");
    let _ = eng.register_quantile(0.001);
    let _ = eng.register_frequency(1.0 / 16_384.0);
    let _ = eng.register_hhh(1.0 / 16_384.0, BitPrefixHierarchy::new(vec![4, 8]));
    eng
}

fn main() {
    let args = Args::parse();
    let csv = args.flag("csv");
    let n: usize = args.get_num("n", 2 << 20);
    let data: Vec<f32> = UniformGen::new(13, 0.0, 2047.0).take(n).collect();

    println!(
        "# E11: adaptive load shedding, 3 shared continuous queries, {} stream",
        human_n(n)
    );
    println!("# (rates in M elements/second of simulated device time)\n");

    // Measure each engine's capacity.
    let mut capacities = Vec::new();
    for engine in [Engine::GpuSim, Engine::CpuSim] {
        let mut probe = make_engine(engine, n);
        probe.push_batch(&data);
        probe.flush();
        capacities.push((engine, probe.service_rate()));
    }
    let mut cap_table = Table::new(["engine", "capacity M/s"]);
    for &(engine, c) in &capacities {
        cap_table.row([engine.label().to_string(), format!("{:.2}", c / 1e6)]);
    }
    cap_table.print(csv);

    println!("\n# offered-rate sweep (x = multiple of each engine's own capacity):\n");
    let mut table = Table::new([
        "engine",
        "offered x",
        "offered M/s",
        "shed %",
        "keep (ideal)",
        "backlog s",
    ]);
    for &(engine, capacity) in &capacities {
        for mult in [0.5f64, 1.0, 2.0, 4.0, 8.0] {
            let mut eng = make_engine(engine, n);
            let report = run_at_rate(&mut eng, data.iter().copied(), capacity * mult);
            table.row([
                engine.label().to_string(),
                format!("{mult}x"),
                format!("{:.2}", report.offered_rate / 1e6),
                format!("{:.1}", 100.0 * report.shed_fraction()),
                format!("{:.2} ({:.2})", report.keep_fraction, (1.0 / mult).min(1.0)),
                format!("{:.3}", report.lag_seconds.max(0.0)),
            ]);
        }
    }
    table.print(csv);
    println!("\n# below capacity: zero shedding. Above: keep converges to capacity/rate and the");
    println!("# backlog stays bounded. The GPU's higher capacity raises the shed-free ceiling.");
}
