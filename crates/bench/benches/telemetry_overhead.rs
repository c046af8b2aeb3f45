//! B7 — telemetry overhead: the same pairwise job over one ingested store
//! with the sink disabled (the default) and enabled. Disabled, every
//! hot-path call must reduce to a `None` check; the sink primitives below
//! pin that per-call cost down.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pmr_core::runner::{comp_fn, Backend, CompFn, ElementStore, PairwiseJob};
use pmr_core::scheme::BlockScheme;
use pmr_obs::Telemetry;

fn comp() -> CompFn<u64, u64> {
    comp_fn(|a: &u64, b: &u64| {
        // Cheap comp: makes per-evaluation bookkeeping overhead visible.
        a.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ b
    })
}

fn bench_local_overhead(c: &mut Criterion) {
    let v = 512u64;
    let data: Vec<u64> = (0..v).map(|i| i * 0x1234_5678 + 7).collect();
    let store = ElementStore::from_slice(&data);
    let scheme = BlockScheme::new(v, 8);
    let pairs = v * (v - 1) / 2;
    let mut g = c.benchmark_group("obs/local_telemetry_overhead");
    g.throughput(Throughput::Elements(pairs));
    g.sample_size(20);
    // Single-threaded: telemetry cost is per-call and independent of the
    // worker count, and one thread keeps scheduler jitter out of a
    // comparison that must resolve a <2% difference.
    for (name, telemetry) in
        [("disabled", Telemetry::disabled()), ("enabled", Telemetry::enabled())]
    {
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                black_box(
                    PairwiseJob::from_store(store.clone(), comp())
                        .scheme(scheme.clone())
                        .backend(Backend::Local { threads: 1 })
                        .telemetry(telemetry.clone())
                        .run()
                        .unwrap(),
                )
            })
        });
    }
    g.finish();
}

fn bench_sink_primitives(c: &mut Criterion) {
    // The end-to-end numbers above sit inside run-to-run allocator noise;
    // these pin down the absolute cost of the calls the engine makes on
    // its hot paths. Disabled, each must collapse to a `None` check.
    let mut g = c.benchmark_group("obs/sink_primitives");
    g.sample_size(50);
    for (name, telemetry) in
        [("disabled", Telemetry::disabled()), ("enabled", Telemetry::enabled())]
    {
        g.bench_function(BenchmarkId::new("record_value", name), |b| {
            b.iter(|| telemetry.record_value("bench.histogram", black_box(42)))
        });
        g.bench_function(BenchmarkId::new("span_lifecycle", name), |b| {
            b.iter(|| {
                let mut span = telemetry.span("bench", pmr_obs::SpanKind::Task, black_box(7), 0, 3);
                span.add_bytes_in(black_box(1024));
                span.add_records_in(black_box(8));
                span
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_local_overhead, bench_sink_primitives);
criterion_main!(benches);
