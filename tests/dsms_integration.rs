//! Integration tests for the DSMS layer: shared pipelines, engine
//! equivalence, and shedding behaviour end to end through the facade.

use gsm::core::{BitPrefixHierarchy, Engine};
use gsm::dsms::{run_at_rate, EngineBuilder, QueryRequest, StreamEngine};
use gsm::sketch::exact::ExactStats;
use gsm::stream::ZipfGen;

fn zipf(n: usize, seed: u64) -> Vec<f32> {
    ZipfGen::new(seed, 2048, 1.1).take(n).collect()
}

#[test]
fn full_dashboard_on_every_engine() {
    let data = zipf(80_000, 3);
    let oracle = ExactStats::new(&data);
    for engine in [Engine::GpuSim, Engine::CpuSim, Engine::Host] {
        let mut eng = EngineBuilder::new(engine)
            .n_hint(data.len() as u64)
            .build()
            .expect("valid configuration");
        let q = eng.register_quantile(0.005);
        let f = eng.register_frequency(0.0005);
        let h = eng.register_hhh(0.0005, BitPrefixHierarchy::new(vec![5]));
        eng.push_batch(&data);

        // Quantile within eps.
        let med = eng
            .request(q, QueryRequest::Quantile { phi: 0.5 })
            .into_quantile();
        assert!(
            oracle.quantile_rank_error(0.5, med) <= 0.005,
            "{engine:?}: median {med}"
        );
        // Heavy hitters: rank 0 of the zipf law dominates.
        let hot = eng
            .request(f, QueryRequest::HeavyHitters { support: 0.02 })
            .into_heavy_hitters();
        assert!(hot.iter().any(|&(v, _)| v == 0.0), "{engine:?}: {hot:?}");
        // HHH returns at least the hot leaf or its prefix.
        let hier = eng
            .request(h, QueryRequest::Hhh { support: 0.05 })
            .into_hhh();
        assert!(!hier.is_empty(), "{engine:?}");
    }
}

#[test]
fn dsms_engines_are_bit_identical() {
    let data = zipf(50_000, 4);
    let answers: Vec<_> = [
        Engine::GpuSim,
        Engine::CpuSim,
        Engine::Host,
        Engine::ParallelHost,
    ]
    .into_iter()
    .map(|e| {
        let mut eng = EngineBuilder::new(e)
            .n_hint(50_000)
            .build()
            .expect("valid configuration");
        let q = eng.register_quantile(0.01);
        let f = eng.register_frequency(0.001);
        eng.push_batch(&data);
        (
            eng.request(q, QueryRequest::Quantile { phi: 0.9 })
                .into_quantile(),
            eng.request(f, QueryRequest::HeavyHitters { support: 0.01 })
                .into_heavy_hitters(),
        )
    })
    .collect();
    assert_eq!(answers[0], answers[1]);
    assert_eq!(answers[1], answers[2]);
    assert_eq!(answers[2], answers[3]);
}

#[test]
fn checkpoint_drains_the_overlapped_sort() {
    // Under `ParallelHost` one window is always sorting in the background;
    // a checkpoint taken mid-stream must drain it into the sketches, not
    // silently drop it. Cross-restore onto plain `Host` and compare with an
    // all-`Host` engine that saw the identical stream: any lost window
    // would desync the counts and the answers.
    let data = zipf(30_000, 9);
    let build = |engine: Engine| {
        let mut eng = EngineBuilder::new(engine)
            .n_hint(data.len() as u64)
            .build()
            .expect("valid configuration");
        let q = eng.register_quantile(0.01);
        let f = eng.register_frequency(0.001);
        (eng, q, f)
    };
    let (mut overlapped, q, f) = build(Engine::ParallelHost);
    let (mut reference, rq, rf) = build(Engine::Host);

    // Split mid-window so the checkpoint also carries a partial buffer.
    let window = {
        overlapped.seal();
        overlapped.window()
    };
    let cut = 2 * window + window / 3;
    assert!(
        cut < data.len(),
        "stream long enough to continue after restore"
    );
    overlapped.push_batch(&data[..cut]);
    reference.push_batch(&data[..cut]);

    let json = overlapped.checkpoint();
    let mut restored = StreamEngine::restore(Engine::Host, &json).expect("valid checkpoint");
    assert_eq!(
        restored.count(),
        reference.count(),
        "no window lost in flight"
    );

    restored.push_batch(&data[cut..]);
    reference.push_batch(&data[cut..]);
    assert_eq!(
        restored
            .request(q, QueryRequest::Quantile { phi: 0.5 })
            .into_quantile()
            .to_bits(),
        reference
            .request(rq, QueryRequest::Quantile { phi: 0.5 })
            .into_quantile()
            .to_bits()
    );
    assert_eq!(
        restored
            .request(f, QueryRequest::HeavyHitters { support: 0.01 })
            .into_heavy_hitters(),
        reference
            .request(rf, QueryRequest::HeavyHitters { support: 0.01 })
            .into_heavy_hitters()
    );
}

#[test]
fn gpu_sustains_a_higher_rate_than_cpu() {
    // With a large shared window (fine eps), the GPU engine's service rate
    // exceeds the CPU engine's — the §1 "keep up with the update rate"
    // argument, measured through the DSMS layer.
    let data = zipf(1 << 19, 5);
    let rate_for = |engine: Engine| {
        let mut eng = EngineBuilder::new(engine)
            .n_hint(data.len() as u64)
            .build()
            .expect("valid configuration");
        let _ = eng.register_frequency(1.0 / 32_768.0);
        eng.push_batch(&data);
        eng.flush();
        eng.service_rate()
    };
    let gpu = rate_for(Engine::GpuSim);
    let cpu = rate_for(Engine::CpuSim);
    assert!(
        gpu > cpu,
        "GPU {gpu:.0}/s must beat CPU {cpu:.0}/s at 32K windows"
    );
}

#[test]
fn shedding_keeps_answers_usable_under_overload() {
    let data = zipf(300_000, 6);
    let mut probe = EngineBuilder::new(Engine::CpuSim)
        .n_hint(data.len() as u64)
        .build()
        .expect("valid configuration");
    let pq = probe.register_quantile(0.01);
    probe.push_batch(&data);
    let exact_ish = probe
        .request(pq, QueryRequest::Quantile { phi: 0.5 })
        .into_quantile();
    let capacity = probe.service_rate();

    let mut eng = EngineBuilder::new(Engine::CpuSim)
        .n_hint(data.len() as u64)
        .build()
        .expect("valid configuration");
    let q = eng.register_quantile(0.01);
    let report = run_at_rate(&mut eng, data.iter().copied(), capacity * 3.0);
    assert!(report.shed_fraction() > 0.4, "{report:?}");

    // Uniform shedding keeps quantiles honest: the shed-stream median must
    // sit close to the full-stream one (zipf over 2048 values).
    let shed_median = eng
        .request(q, QueryRequest::Quantile { phi: 0.5 })
        .into_quantile();
    assert!(
        (shed_median - exact_ish).abs() <= 2.0,
        "median drifted under shedding: {shed_median} vs {exact_ish}"
    );
}
