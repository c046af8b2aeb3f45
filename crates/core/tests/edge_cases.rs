//! Edge cases and cross-crate integrations: minimal datasets, alternate
//! design constructions feeding the scheme, and degenerate parameters.

use std::sync::Arc;

use pmr_cluster::{Cluster, ClusterConfig};
use pmr_core::runner::{comp_fn, Backend, CompFn, PairwiseJob, PairwiseOutput, PairwiseRun};
use pmr_core::scheme::{
    measure, verify_exactly_once, BlockScheme, BroadcastScheme, DesignScheme, DistributionScheme,
    PairedBlockScheme,
};
use pmr_designs::plane::pg2;
use pmr_designs::singer::singer;

fn comp() -> CompFn<u64, u64> {
    comp_fn(|a: &u64, b: &u64| a + b)
}

fn sequential(data: &[u64]) -> PairwiseOutput<u64> {
    PairwiseJob::new(data, comp()).run().unwrap().output
}

fn local(
    data: &[u64],
    scheme: Arc<dyn DistributionScheme>,
    comp: CompFn<u64, u64>,
    threads: usize,
) -> PairwiseRun<u64> {
    PairwiseJob::new(data, comp)
        .scheme_arc(scheme)
        .backend(Backend::Local { threads })
        .run()
        .unwrap()
}

#[test]
fn v_equals_2_all_schemes_and_backends() {
    let data = vec![10u64, 20];
    let reference = sequential(&data);
    assert_eq!(reference.results_of(0).unwrap(), &[(1, 30)]);

    let schemes: Vec<Arc<dyn DistributionScheme>> = vec![
        Arc::new(BroadcastScheme::new(2, 1)),
        Arc::new(BroadcastScheme::new(2, 5)),
        Arc::new(BlockScheme::new(2, 1)),
        Arc::new(BlockScheme::new(2, 2)),
        Arc::new(PairedBlockScheme::new(2, 2)),
        Arc::new(DesignScheme::new(2)),
    ];
    for scheme in schemes {
        verify_exactly_once(scheme.as_ref()).unwrap();
        let out = local(&data, Arc::clone(&scheme), comp(), 2).output;
        assert_eq!(out, reference, "local/{}", scheme.name());
        let cluster = Cluster::new(ClusterConfig::with_nodes(2));
        let mr = PairwiseJob::new(&data, comp())
            .scheme_arc(Arc::clone(&scheme))
            .backend(Backend::Mr(&cluster))
            .run()
            .unwrap()
            .output;
        assert_eq!(mr, reference, "mr/{}", scheme.name());
    }
}

#[test]
fn singer_plane_drives_the_design_scheme() {
    // The Singer difference-set construction (a third, independent plane
    // construction) plugs straight into the scheme and the runners.
    let q = 5u64;
    let plane = singer(q);
    let v = plane.v(); // 31
    let scheme = DesignScheme::from_design(plane, q);
    verify_exactly_once(&scheme).unwrap();
    let m = measure(&scheme);
    assert_eq!(m.max_working_set as u64, q + 1);
    assert!((m.replication_factor - (q + 1) as f64).abs() < 1e-9);

    let data: Vec<u64> = (0..v).map(|i| i * 3 % 17).collect();
    let reference = sequential(&data);
    let run = local(&data, Arc::new(scheme), comp(), 4);
    assert_eq!(run.output, reference);
    assert_eq!(run.evaluations(), v * (v - 1) / 2);
}

#[test]
fn pg2_prime_power_plane_drives_the_design_scheme() {
    // PG(2, 8): a prime-power order the paper's Theorem-2 construction
    // cannot produce (8 = 2³), exercised through the whole stack.
    let plane = pg2(8);
    let v = plane.v(); // 73
    let scheme = DesignScheme::from_design(plane, 8);
    verify_exactly_once(&scheme).unwrap();
    let data: Vec<u64> = (0..v).collect();
    let out = local(&data, Arc::new(scheme), comp(), 4).output;
    let reference = sequential(&data);
    assert_eq!(out, reference);
}

#[test]
fn single_node_cluster_works() {
    let data: Vec<u64> = (0..20).collect();
    let reference = sequential(&data);
    let cluster = Cluster::new(ClusterConfig::with_nodes(1));
    let run = PairwiseJob::new(&data, comp())
        .scheme(BlockScheme::new(20, 3))
        .backend(Backend::Mr(&cluster))
        .run()
        .unwrap();
    assert_eq!(run.output, reference);
    // One node: the shuffle still happens, but nothing crosses the network.
    assert_eq!(run.mr[0].network_bytes, 0);
    assert!(run.mr[0].shuffle_bytes > 0);
}

#[test]
fn many_more_nodes_than_elements() {
    let data: Vec<u64> = (0..6).collect();
    let reference = sequential(&data);
    let cluster = Cluster::new(ClusterConfig::with_nodes(16));
    let out = PairwiseJob::new(&data, comp())
        .scheme(DesignScheme::new(6))
        .backend(Backend::Mr(&cluster))
        .run()
        .unwrap()
        .output;
    assert_eq!(out, reference);
}

#[test]
fn constant_payloads_and_zero_results() {
    // All-equal payloads: every result is 0; aggregation must still keep
    // every (other, 0) entry.
    let data = vec![5u64; 12];
    let c: CompFn<u64, u64> = comp_fn(|a: &u64, b: &u64| a.abs_diff(*b));
    let out = local(&data, Arc::new(DesignScheme::new(12)), c, 2).output;
    assert_eq!(out.total_results(), 12 * 11);
    assert!(out.per_element.iter().all(|(_, rs)| rs.iter().all(|(_, r)| *r == 0)));
}

#[test]
fn broadcast_task_count_one_is_the_trivial_solution() {
    // b = 1, D₁ = S, P₁ = the full triangle (the paper's trivial solution).
    let s = BroadcastScheme::new(30, 1);
    assert_eq!(s.num_tasks(), 1);
    assert_eq!(s.num_pairs(0), 30 * 29 / 2);
    verify_exactly_once(&s).unwrap();
}
