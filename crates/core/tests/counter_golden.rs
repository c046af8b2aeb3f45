//! Counter golden: pins every report counter and the deterministic
//! `MrRunReport` fields of small in-process runs, so a refactor of the
//! runners shows up as a reviewed diff of `tests/golden/counters.txt`.
//!
//! The MR matrix is {scheme, broadcast, rounds} × fuse {on, off} ×
//! {no filter, a filter}; the Local and Sequential backends add their
//! evaluation and pruning counters. `network_bytes` and
//! `peak_intermediate_bytes` are left out: they depend on which node a
//! work-stealing task lands on.
//!
//! To regenerate after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test -p pmr-core --test counter_golden`

use std::fmt::Write as _;
use std::sync::Arc;

use pmr_cluster::{Cluster, ClusterConfig};
use pmr_core::hierarchical::TwoLevelBlock;
use pmr_core::runner::mr::MrPairwiseOptions;
use pmr_core::runner::{
    comp_fn, Backend, CompFn, ConcatSort, PairFilter, PairwiseJob, PairwiseRun,
};
use pmr_core::scheme::{BlockScheme, BroadcastScheme};

const V: u64 = 24;

fn payloads() -> Vec<u64> {
    (0..V).map(|i| (i * 37 + 11) % 101).collect()
}

fn comp() -> CompFn<u64, u64> {
    comp_fn(|a: &u64, b: &u64| a.wrapping_mul(31) ^ b)
}

/// Rejects every pair of element 3 (so one row is pruned empty) and a
/// third of the rest.
struct Sieve;

impl PairFilter for Sieve {
    fn name(&self) -> &'static str {
        "sieve"
    }

    fn is_candidate(&self, a: u64, b: u64) -> bool {
        a != 3 && b != 3 && !(a + 2 * b).is_multiple_of(3)
    }
}

#[derive(Clone, Copy)]
enum Plan {
    Scheme,
    Broadcast,
    Rounds,
}

impl Plan {
    fn name(self) -> &'static str {
        match self {
            Plan::Scheme => "scheme",
            Plan::Broadcast => "broadcast",
            Plan::Rounds => "rounds",
        }
    }

    fn apply<'a>(self, job: PairwiseJob<'a, u64, u64>) -> PairwiseJob<'a, u64, u64> {
        match self {
            Plan::Scheme => job.scheme(BlockScheme::new(V, 4)),
            Plan::Broadcast => job.broadcast(BroadcastScheme::new(V, 5)),
            Plan::Rounds => job
                .rounds(TwoLevelBlock::new(V, 2, 2).rounds().into_iter().map(Arc::from).collect()),
        }
    }
}

/// Appends one cell's report counters, output shape and MR fields.
fn record(out: &mut String, cell: &str, run: &PairwiseRun<u64>) {
    for (name, value) in &run.report.counters {
        writeln!(out, "{cell} counter {name} = {value}").unwrap();
    }
    writeln!(out, "{cell} rows = {}", run.output.per_element.len()).unwrap();
    writeln!(out, "{cell} results = {}", run.output.total_results()).unwrap();
    for (i, mr) in run.mr.iter().enumerate() {
        let fields = [
            ("evaluations", mr.evaluations),
            ("replicated_records", mr.replicated_records),
            ("shuffle_bytes", mr.shuffle_bytes),
            ("shuffle_moved_bytes", mr.shuffle_moved_bytes),
            ("max_working_set_bytes", mr.max_working_set_bytes),
        ];
        for (name, value) in fields {
            writeln!(out, "{cell} mr[{i}].{name} = {value}").unwrap();
        }
        writeln!(out, "{cell} mr[{i}].fused = {}", mr.fused).unwrap();
        writeln!(out, "{cell} mr[{i}].job2 = {}", mr.job2.is_some()).unwrap();
    }
    if let Some(local) = &run.local {
        writeln!(out, "{cell} local.tasks = {}", local.tasks).unwrap();
        writeln!(out, "{cell} local.evaluations = {}", local.evaluations).unwrap();
        writeln!(out, "{cell} local.max_working_set = {}", local.max_working_set).unwrap();
        writeln!(out, "{cell} local.pruning = {:?}", local.pruning).unwrap();
    }
}

fn job(data: &[u64], filtered: bool) -> PairwiseJob<'_, u64, u64> {
    let job = PairwiseJob::new(data, comp()).aggregator(ConcatSort);
    if filtered {
        job.pair_filter(Sieve)
    } else {
        job
    }
}

fn snapshot() -> String {
    let data = payloads();
    let mut out = String::new();
    for plan in [Plan::Scheme, Plan::Broadcast, Plan::Rounds] {
        for fuse in [true, false] {
            for filtered in [false, true] {
                let cell = format!(
                    "mr/{}/{}/{}",
                    plan.name(),
                    if fuse { "fused" } else { "unfused" },
                    if filtered { "filtered" } else { "exact" }
                );
                let cluster = Cluster::new(ClusterConfig::with_nodes(3));
                let opts = MrPairwiseOptions { dfs_dir: "golden".into(), ..Default::default() };
                let run = plan
                    .apply(job(&data, filtered))
                    .backend(Backend::Mr(&cluster))
                    .mr_options(opts)
                    .fuse(fuse)
                    .run()
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                record(&mut out, &cell, &run);
            }
        }
    }
    for plan in [Plan::Scheme, Plan::Broadcast, Plan::Rounds] {
        for filtered in [false, true] {
            let cell =
                format!("local/{}/{}", plan.name(), if filtered { "filtered" } else { "exact" });
            let run = plan
                .apply(job(&data, filtered))
                .backend(Backend::Local { threads: 2 })
                .run()
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            record(&mut out, &cell, &run);
        }
    }
    for filtered in [false, true] {
        let cell = format!("sequential/{}", if filtered { "filtered" } else { "exact" });
        let run = job(&data, filtered).run().unwrap_or_else(|e| panic!("{cell}: {e}"));
        record(&mut out, &cell, &run);
    }
    out
}

#[test]
fn run_counters_match_golden() {
    let snapshot = snapshot();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/counters.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).unwrap();
        std::fs::write(golden_path, &snapshot).unwrap();
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        snapshot, golden,
        "run counters drifted from the golden file; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn run_counters_are_repeatable() {
    assert_eq!(snapshot(), snapshot(), "a counter depends on scheduling");
}
