//! B4/B5 — end-to-end pairwise throughput on the local backend: scheme
//! comparison at fixed parallelism, worker scaling, and cheap-vs-expensive
//! `comp` (the broadcast approach's motivating regime: "dataset size is
//! moderate but the function to evaluate is expensive").

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pmr_apps::generate::{gene_expression, opaque_elements};
use pmr_apps::mutualinfo::mi_comp;
use pmr_apps::DenseVector;
use pmr_cluster::{Cluster, ClusterConfig};
use pmr_core::runner::{comp_fn, Backend, CompFn, ElementStore, PairwiseJob, PairwiseOutput};
use pmr_core::scheme::{BlockScheme, BroadcastScheme, DesignScheme, DistributionScheme};
use pmr_obs::Telemetry;

fn cheap_comp() -> CompFn<DenseVector, f64> {
    comp_fn(|a: &DenseVector, b: &DenseVector| a.0[0] - b.0[0])
}

/// One local-backend run over an already-ingested store.
fn run_local(
    store: &Arc<ElementStore<DenseVector>>,
    scheme: &Arc<dyn DistributionScheme>,
    comp: CompFn<DenseVector, f64>,
    threads: usize,
) -> PairwiseOutput<f64> {
    PairwiseJob::from_store(Arc::clone(store), comp)
        .scheme_arc(Arc::clone(scheme))
        .backend(Backend::Local { threads })
        .run()
        .expect("local run")
        .output
}

fn bench_scheme_comparison(c: &mut Criterion) {
    let v = 384u64;
    let data = gene_expression(v as usize, 32, 8, 0.3, 5);
    let pairs = v * (v - 1) / 2;
    let mut g = c.benchmark_group("local/scheme_comparison_cheap_comp");
    g.throughput(Throughput::Elements(pairs));
    g.sample_size(20);
    let store = ElementStore::from_slice(&data);
    let schemes: Vec<(&str, Arc<dyn DistributionScheme>)> = vec![
        ("broadcast", Arc::new(BroadcastScheme::new(v, 16))),
        ("block", Arc::new(BlockScheme::new(v, 8))),
        ("design", Arc::new(DesignScheme::new(v))),
    ];
    for (name, scheme) in &schemes {
        g.bench_function(BenchmarkId::from_parameter(*name), |b| {
            b.iter(|| black_box(run_local(&store, scheme, cheap_comp(), 4)))
        });
    }
    g.finish();
}

fn bench_expensive_comp(c: &mut Criterion) {
    // Mutual information over 200 samples: an expensive comp where the
    // evaluation dominates and all schemes should converge in throughput.
    let v = 96u64;
    let data = gene_expression(v as usize, 200, 8, 0.3, 5);
    let pairs = v * (v - 1) / 2;
    let mut g = c.benchmark_group("local/scheme_comparison_expensive_comp");
    g.throughput(Throughput::Elements(pairs));
    g.sample_size(10);
    let store = ElementStore::from_slice(&data);
    let schemes: Vec<(&str, Arc<dyn DistributionScheme>)> = vec![
        ("broadcast", Arc::new(BroadcastScheme::new(v, 16))),
        ("block", Arc::new(BlockScheme::new(v, 8))),
        ("design", Arc::new(DesignScheme::new(v))),
    ];
    for (name, scheme) in &schemes {
        g.bench_function(BenchmarkId::from_parameter(*name), |b| {
            b.iter(|| black_box(run_local(&store, scheme, mi_comp(6), 4)))
        });
    }
    g.finish();
}

fn bench_worker_scaling(c: &mut Criterion) {
    let v = 128u64;
    let data = gene_expression(v as usize, 200, 8, 0.3, 9);
    let store = ElementStore::from_slice(&data);
    let scheme: Arc<dyn DistributionScheme> = Arc::new(BlockScheme::new(v, 8));
    let mut g = c.benchmark_group("local/worker_scaling_mi");
    g.sample_size(10);
    for &threads in &[1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &threads| {
            b.iter(|| black_box(run_local(&store, &scheme, mi_comp(6), threads)))
        });
    }
    g.finish();
}

fn bench_fat_payload_shuffle(c: &mut Criterion) {
    // The id-indexed store's motivating regime: fat elements (4 KiB each)
    // whose replication the paper's model charges in full, while the
    // shuffle physically moves only 16-byte id records. The charged/moved
    // ratio in the persisted report shows the ≥ payload/id-size win.
    let v = 96u64;
    let element_size = 4096usize;
    let payloads = opaque_elements(v as usize, element_size, 7);
    let comp: CompFn<bytes::Bytes, u64> =
        comp_fn(|a: &bytes::Bytes, b: &bytes::Bytes| (a[0] ^ b[0]) as u64);

    // One instrumented run outside the timing loop: persist the report so
    // the charged-vs-moved series land next to the criterion output.
    let cluster = Cluster::new(ClusterConfig::with_nodes(4)).with_telemetry(Telemetry::enabled());
    let run = PairwiseJob::new(&payloads, Arc::clone(&comp))
        .scheme(BlockScheme::new(v, 8))
        .backend(Backend::Mr(&cluster))
        .run()
        .expect("fat-payload run failed");
    let report = &run.mr[0];
    assert!(report.shuffle_moved_bytes < report.shuffle_bytes);
    // Job 1 is the replication shuffle: every moved record is a 24-byte
    // framed (working set, id) pair standing in for a ≥4 KiB payload copy,
    // so its charged series exceeds its moved series by at least the
    // payload/id-record size ratio. (Job 2 also physically moves the
    // result lists, so the whole-pipeline ratio is smaller.)
    let j1_charged = report.job1.counters[pmr_mapreduce::builtin::SHUFFLE_BYTES];
    let j1_moved = report.job1.counters[pmr_mapreduce::builtin::SHUFFLE_MOVED_BYTES];
    assert!(
        j1_charged >= j1_moved * (element_size as u64 / 24),
        "job-1 charged {j1_charged} must exceed moved {j1_moved} by the payload/id ratio"
    );
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/reports");
    let out_dir = out_dir.as_path();
    std::fs::create_dir_all(out_dir).expect("create target/reports");
    run.report
        .write_json_file(out_dir.join("fat_payload_shuffle.json").to_str().unwrap())
        .expect("persist fat-payload run report");
    println!(
        "fat payload ({element_size} B/element): charged {} B, moved {} B ({}x reduction)",
        report.shuffle_bytes,
        report.shuffle_moved_bytes,
        report.shuffle_bytes / report.shuffle_moved_bytes.max(1)
    );

    let mut g = c.benchmark_group("mr/fat_payload_shuffle");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(v * element_size as u64));
    g.bench_function(BenchmarkId::from_parameter("block_h8_4KiB"), |b| {
        b.iter(|| {
            let cluster = Cluster::new(ClusterConfig::with_nodes(4));
            black_box(
                PairwiseJob::new(&payloads, Arc::clone(&comp))
                    .scheme(BlockScheme::new(v, 8))
                    .backend(Backend::Mr(&cluster))
                    .run()
                    .unwrap(),
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_scheme_comparison,
    bench_expensive_comp,
    bench_worker_scaling,
    bench_fat_payload_shuffle
);
criterion_main!(benches);
