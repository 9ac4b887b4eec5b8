//! Criterion micro-benchmarks of the application layers (host cost of the
//! estimators, selection, and DSMS pipelines end to end).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gsm_core::{BitPrefixHierarchy, Engine, FrequencyEstimator, QuantileEstimator};
use gsm_cpu::{CpuCostModel, Machine};
use gsm_dsms::{EngineBuilder, QueryRequest};
use gsm_gpu::Device;
use gsm_sort::select::{cpu_quickselect, gpu_kth_largest, load_values_as_depth};
use gsm_stream::{UniformGen, ZipfGen};

fn bench_quantile_estimator(c: &mut Criterion) {
    let n = 100_000usize;
    let data: Vec<f32> = UniformGen::unit(1).take(n).collect();
    let mut group = c.benchmark_group("quantile_estimator_e2e");
    group.throughput(Throughput::Elements(n as u64));
    for engine in [Engine::Host, Engine::GpuSim] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{engine:?}")),
            &data,
            |b, data| {
                b.iter(|| {
                    let mut est = QuantileEstimator::builder(0.01)
                        .engine(engine)
                        .n_hint(data.len() as u64)
                        .build();
                    est.push_all(data.iter().copied());
                    est.query(0.5)
                });
            },
        );
    }
    group.finish();
}

fn bench_frequency_estimator(c: &mut Criterion) {
    let n = 100_000usize;
    let data: Vec<f32> = ZipfGen::new(2, 10_000, 1.1).take(n).collect();
    let mut group = c.benchmark_group("frequency_estimator_e2e");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("host_engine", |b| {
        b.iter(|| {
            let mut est = FrequencyEstimator::builder(0.001)
                .engine(Engine::Host)
                .build();
            est.push_all(data.iter().copied());
            est.heavy_hitters(0.01)
        });
    });
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    let n = 65_536usize;
    let data: Vec<f32> = UniformGen::new(3, 0.0, 1.0e6).take(n).collect();
    let mut group = c.benchmark_group("kth_largest");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("gpu_occlusion", |b| {
        b.iter(|| {
            let mut dev = Device::ideal();
            load_values_as_depth(&mut dev, &data);
            gpu_kth_largest(&mut dev, data.len(), 100)
        });
    });
    group.bench_function("cpu_quickselect", |b| {
        b.iter(|| {
            let mut m = Machine::new(CpuCostModel::ideal());
            let mut copy = data.clone();
            cpu_quickselect(&mut copy, 100, &mut m, 0)
        });
    });
    group.finish();
}

fn bench_dsms_shared_pipeline(c: &mut Criterion) {
    let n = 100_000usize;
    let data: Vec<f32> = ZipfGen::new(4, 4096, 1.1).take(n).collect();
    let mut group = c.benchmark_group("dsms_three_queries");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("host_engine", |b| {
        b.iter(|| {
            let mut eng = EngineBuilder::new(Engine::Host)
                .n_hint(n as u64)
                .build()
                .expect("valid configuration");
            let q = eng.register_quantile(0.01);
            let _ = eng.register_frequency(0.001);
            let _ = eng.register_hhh(0.001, BitPrefixHierarchy::new(vec![6]));
            eng.push_batch(&data);
            eng.request(q, QueryRequest::Quantile { phi: 0.5 })
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_quantile_estimator,
    bench_frequency_estimator,
    bench_selection,
    bench_dsms_shared_pipeline
);
criterion_main!(benches);
