//! End-to-end tests of the MapReduce pairwise pipeline (Algorithms 1–2)
//! against the sequential reference, driven through the `PairwiseJob`
//! builder.

use std::sync::Arc;

use pmr_cluster::{Cluster, ClusterConfig, ClusterError};
use pmr_core::runner::mr::MrPairwiseOptions;
use pmr_core::runner::{
    comp_fn, Backend, CompFn, FilterAggregator, PairwiseJob, PairwiseOutput, Symmetry,
};
use pmr_core::scheme::{BlockScheme, BroadcastScheme, DesignScheme, DistributionScheme};
use pmr_mapreduce::MrError;

fn payloads(v: usize) -> Vec<u64> {
    (0..v as u64).map(|i| (i * 37 + 11) % 101).collect()
}

fn comp() -> CompFn<u64, u64> {
    comp_fn(|a: &u64, b: &u64| a.abs_diff(*b))
}

fn sequential(data: &[u64]) -> PairwiseOutput<u64> {
    PairwiseJob::new(data, comp()).run().unwrap().output
}

#[test]
fn two_job_pipeline_matches_sequential_for_all_schemes() {
    let v = 30usize;
    let data = payloads(v);
    let reference = sequential(&data);

    let schemes: Vec<Arc<dyn DistributionScheme>> = vec![
        Arc::new(BroadcastScheme::new(v as u64, 4)),
        Arc::new(BlockScheme::new(v as u64, 3)),
        Arc::new(DesignScheme::new(v as u64)),
    ];
    for scheme in schemes {
        let cluster = Cluster::new(ClusterConfig::with_nodes(4));
        let name = scheme.name();
        let run = PairwiseJob::new(&data, comp())
            .scheme_arc(Arc::clone(&scheme))
            .backend(Backend::Mr(&cluster))
            .fuse(false) // force the paper's literal two-job pipeline
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(run.output, reference, "scheme {name}");
        let report = &run.mr[0];
        assert_eq!(report.evaluations, (v * (v - 1) / 2) as u64, "scheme {name}");
        assert!(report.shuffle_bytes > 0);
        assert!(!report.fused);
        assert!(report.job2.is_some());
    }
}

#[test]
fn broadcast_single_job_matches_sequential() {
    let v = 25usize;
    let data = payloads(v);
    let reference = sequential(&data);
    let cluster = Cluster::new(ClusterConfig::with_nodes(3));
    let run = PairwiseJob::new(&data, comp())
        .broadcast(BroadcastScheme::new(v as u64, 6))
        .backend(Backend::Mr(&cluster))
        .run()
        .unwrap();
    assert_eq!(run.output, reference);
    let report = &run.mr[0];
    assert_eq!(report.evaluations, (v * (v - 1) / 2) as u64);
    assert!(report.job2.is_none(), "broadcast path is a single job");
    // The distributed cache carried the dataset to every node.
    assert!(
        report.job1.counters[pmr_mapreduce::builtin::DISTRIBUTED_CACHE_BYTES] > 0,
        "dataset must go through the distributed cache"
    );
}

#[test]
fn non_symmetric_mr_matches_sequential() {
    let v = 18usize;
    let data = payloads(v);
    let comp: CompFn<u64, u64> = comp_fn(|a: &u64, b: &u64| a.wrapping_mul(3).wrapping_sub(*b));
    let reference = PairwiseJob::new(&data, comp.clone())
        .symmetry(Symmetry::NonSymmetric)
        .run()
        .unwrap()
        .output;
    let cluster = Cluster::new(ClusterConfig::with_nodes(3));
    let run = PairwiseJob::new(&data, comp)
        .scheme(BlockScheme::new(v as u64, 3))
        .backend(Backend::Mr(&cluster))
        .symmetry(Symmetry::NonSymmetric)
        .run()
        .unwrap();
    assert_eq!(run.output, reference);
    assert_eq!(run.mr[0].evaluations, (v * (v - 1)) as u64); // both directions
}

#[test]
fn filter_aggregator_prunes_in_job2() {
    let v = 20usize;
    let data = payloads(v);
    let cluster = Cluster::new(ClusterConfig::with_nodes(3));
    let out = PairwiseJob::new(&data, comp())
        .scheme(DesignScheme::new(v as u64))
        .backend(Backend::Mr(&cluster))
        .aggregator(FilterAggregator::new(|r: &u64| *r < 10))
        .run()
        .unwrap()
        .output;
    let reference = PairwiseJob::new(&data, comp())
        .aggregator(FilterAggregator::new(|r: &u64| *r < 10))
        .run()
        .unwrap()
        .output;
    assert_eq!(out, reference);
    assert!(out.total_results() < v * (v - 1));
}

#[test]
fn replication_counts_match_scheme_theory() {
    let v = 40u64;
    let data = payloads(v as usize);
    // Block scheme with h = 5: every element is replicated h times, so job
    // 1's map phase emits exactly v·h records (paper Table 1).
    let cluster = Cluster::new(ClusterConfig::with_nodes(4));
    let run = PairwiseJob::new(&data, comp())
        .scheme(BlockScheme::new(v, 5))
        .backend(Backend::Mr(&cluster))
        .run()
        .unwrap();
    assert_eq!(run.mr[0].replicated_records, v * 5);

    // Design scheme: Σ replication = Σ block sizes.
    let scheme = DesignScheme::new(v);
    let expected: u64 = pmr_core::scheme::measure(&scheme).total_copies;
    let cluster = Cluster::new(ClusterConfig::with_nodes(4));
    let run = PairwiseJob::new(&data, comp())
        .scheme(scheme)
        .backend(Backend::Mr(&cluster))
        .run()
        .unwrap();
    assert_eq!(run.mr[0].replicated_records, expected);
}

#[test]
fn working_set_budget_fails_broadcast_first() {
    // maxws small enough that the broadcast working set (all v elements)
    // busts it but a design working set (≈ √v elements) does not — the
    // mechanism behind Figures 8(a)/9(b).
    let v = 64u64;
    let data = payloads(v as usize);
    // Each job-1 record is 32 framed bytes, so the broadcast working set is
    // 64·32 = 2048 B; design working sets are ≤ 9·32 B in job 1 and
    // ≈ 1260 B in job 2's aggregation groups. 1600 separates them.
    let budget = 1600u64;
    let mk = || Cluster::new(ClusterConfig::with_nodes(4).task_memory_budget(budget));

    let c1 = mk();
    let err = PairwiseJob::new(&data, comp())
        .scheme(BroadcastScheme::new(v, 4))
        .backend(Backend::Mr(&c1))
        .run()
        .unwrap_err();
    assert!(
        matches!(err, MrError::Cluster(ClusterError::MemoryExceeded { .. })),
        "broadcast should bust maxws: {err}"
    );

    let c2 = mk();
    PairwiseJob::new(&data, comp())
        .scheme(DesignScheme::new(v))
        .backend(Backend::Mr(&c2))
        .run()
        .expect("design working sets must fit the same budget");
}

#[test]
fn intermediate_storage_cap_fails_design_first() {
    // maxis small enough that the design scheme's √v replication busts it
    // but the block scheme's h = 2 replication does not — Figure 8(b)/9(b).
    // Elements must dwarf results for the paper's model to apply (its
    // example: 500 KB elements vs 16 B results), so use 600-byte payloads:
    // design intermediate ≈ 1200 copies · 620 B ≈ 744 KB, block h=2 peaks
    // at ≈ 286 KB (job 2, elements + result lists).
    let v = 100u64;
    let data: Vec<bytes::Bytes> = (0..v).map(|i| bytes::Bytes::from(vec![i as u8; 600])).collect();
    let comp: CompFn<bytes::Bytes, u64> =
        comp_fn(|a: &bytes::Bytes, b: &bytes::Bytes| (a[0] as u64).abs_diff(b[0] as u64));
    let cap = 400_000u64;
    let mk = || Cluster::new(ClusterConfig::with_nodes(4).intermediate_storage(cap));

    let c1 = mk();
    let err = PairwiseJob::new(&data, Arc::clone(&comp))
        .scheme(DesignScheme::new(v)) // replication ≈ 12
        .backend(Backend::Mr(&c1))
        .run()
        .unwrap_err();
    assert!(
        matches!(err, MrError::Cluster(ClusterError::IntermediateStorageExceeded { .. })),
        "design should bust maxis: {err}"
    );

    let c2 = mk();
    PairwiseJob::new(&data, comp)
        .scheme(BlockScheme::new(v, 2)) // replication 2
        .backend(Backend::Mr(&c2))
        .run()
        .expect("block h=2 must fit the same cap");
}

#[test]
fn memory_overhead_factor_tightens_budget() {
    // The §6 observation: "the working set size limit was hit a little
    // earlier than expected". A run that barely fits with no overhead must
    // fail with a 30% overhead factor.
    let v = 48u64;
    let data = payloads(v as usize);
    let cluster = Cluster::new(ClusterConfig::with_nodes(2));
    let run = PairwiseJob::new(&data, comp())
        .scheme(BroadcastScheme::new(v, 2))
        .backend(Backend::Mr(&cluster))
        .run()
        .unwrap();
    let peak = run.mr[0].max_working_set_bytes;

    // Budget exactly at the observed peak: fits without overhead…
    let tight = Cluster::new(ClusterConfig::with_nodes(2).task_memory_budget(peak));
    PairwiseJob::new(&data, comp())
        .scheme(BroadcastScheme::new(v, 2))
        .backend(Backend::Mr(&tight))
        .run()
        .expect("must fit at the exact peak");

    // …but not with 30% accounting overhead.
    let tight = Cluster::new(ClusterConfig::with_nodes(2).task_memory_budget(peak));
    let err = PairwiseJob::new(&data, comp())
        .scheme(BroadcastScheme::new(v, 2))
        .backend(Backend::Mr(&tight))
        .mr_options(MrPairwiseOptions { memory_overhead: (13, 10), ..Default::default() })
        .run()
        .unwrap_err();
    assert!(matches!(err, MrError::Cluster(ClusterError::MemoryExceeded { .. })), "{err}");
}

#[test]
fn mr_under_injected_failures_still_correct() {
    let v = 24usize;
    let data = payloads(v);
    let reference = sequential(&data);
    let cluster = Cluster::new(ClusterConfig::with_nodes(3).failure_probability(0.25).seed(99));
    let run = PairwiseJob::new(&data, comp())
        .scheme(BlockScheme::new(v as u64, 4))
        .backend(Backend::Mr(&cluster))
        .run()
        .unwrap();
    assert_eq!(run.output, reference);
    let report = &run.mr[0];
    let failed =
        report.job1.counters.get(pmr_mapreduce::builtin::FAILED_ATTEMPTS).copied().unwrap_or(0)
            + report
                .job2
                .as_ref()
                .and_then(|j| j.counters.get(pmr_mapreduce::builtin::FAILED_ATTEMPTS))
                .copied()
                .unwrap_or(0);
    assert!(failed > 0, "seed should produce at least one injected failure");
}

#[test]
fn payload_count_mismatch_rejected() {
    let cluster = Cluster::new(ClusterConfig::with_nodes(2));
    let err = PairwiseJob::new(&payloads(9), comp())
        .scheme(BlockScheme::new(10, 2))
        .backend(Backend::Mr(&cluster))
        .run()
        .unwrap_err();
    assert!(matches!(err, MrError::InvalidJob(_)));
}

/// The id-indexed store is the only payload copy: charged shuffle bytes
/// (the paper's cost model) strictly dominate physically moved bytes, and
/// a store built once can be shared across runs without re-ingesting.
#[test]
fn store_moves_ids_but_charges_payloads() {
    let v = 30usize;
    let data = payloads(v);
    let store = pmr_core::runner::ElementStore::from_slice(&data);
    let reference = sequential(&data);

    let cluster = Cluster::new(ClusterConfig::with_nodes(3));
    let run = PairwiseJob::from_store(Arc::clone(&store), comp())
        .scheme(BlockScheme::new(v as u64, 3))
        .backend(Backend::Mr(&cluster))
        .run()
        .unwrap();
    assert_eq!(run.output, reference);
    let report = &run.mr[0];
    assert!(report.shuffle_moved_bytes > 0);
    assert!(
        report.shuffle_moved_bytes < report.shuffle_bytes,
        "moved {} must be strictly below charged {}",
        report.shuffle_moved_bytes,
        report.shuffle_bytes
    );

    // The same store powers a second run (a different scheme) untouched.
    let cluster2 = Cluster::new(ClusterConfig::with_nodes(3));
    let run2 = PairwiseJob::from_store(store, comp())
        .scheme(DesignScheme::new(v as u64))
        .backend(Backend::Mr(&cluster2))
        .run()
        .unwrap();
    assert_eq!(run2.output, reference);
}
