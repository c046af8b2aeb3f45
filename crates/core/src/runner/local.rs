//! Multi-threaded shared-memory execution of a distribution scheme.
//!
//! This is the backend a downstream user runs on one machine: the scheme's
//! tasks are the units of parallelism (exactly the paper's step 2, "perform
//! pairwise element computation on all subsets in parallel"); the
//! per-element partial results are merged and aggregated afterwards
//! (step 3).
//!
//! ## Scheduling
//!
//! Tasks are seeded **longest-first** (by `num_pairs`, descending — in the
//! block scheme diagonal blocks carry ~half the pairs of off-diagonal
//! ones) round-robin into per-worker deques. A worker pops from the front
//! of its own deque and, when empty, steals from the *back* of the other
//! deques — the victim keeps its large front tasks, the thief drains the
//! small tail, and tail latency stays bounded by one task instead of one
//! queue. No task is ever spawned mid-phase, so a failed steal scan means
//! the phase is draining and the worker exits immediately: surplus workers
//! (`threads > tasks` never even spawn — the pool is clamped) neither spin
//! nor sleep.
//!
//! ## Evaluation
//!
//! Each task runs the shared `evaluate_task`: pairs are streamed via
//! `DistributionScheme::for_each_pair` (no per-task pair vector) into
//! L1-sized tiles evaluated by a [`BatchComp`] kernel, and every result
//! folds into the worker's dense per-element accumulators. The workers'
//! accumulators then merge and finish per element — with the aggregator
//! itself when the run is fused, or collected and aggregated with
//! `aggregate_all` when it is not.

use std::collections::VecDeque;
use std::time::Instant;

use parking_lot::Mutex;
use pmr_obs::{hist, SpanKind, Telemetry};

use crate::runner::filter::{PairFilter, PruneStats};
use crate::runner::kernel::{evaluate_task, BatchComp};
use crate::runner::{merge_copies, Accumulator, Aggregator, Merge, PairwiseOutput, Symmetry};
use crate::scheme::DistributionScheme;

/// Statistics from a local run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocalRunStats {
    /// Tasks executed.
    pub tasks: u64,
    /// Function evaluations performed (per direction for non-symmetric).
    pub evaluations: u64,
    /// Largest working set (elements) seen by any task.
    pub max_working_set: u64,
    /// Enumerated/pruned pair tallies — `Some` only when a
    /// [`PairFilter`] was active, mirroring the counter-hygiene rule.
    pub pruning: Option<PruneStats>,
}

impl LocalRunStats {
    /// Folds another run's (a worker's, a round's) statistics into these.
    pub(crate) fn absorb(&mut self, other: LocalRunStats) {
        self.tasks += other.tasks;
        self.evaluations += other.evaluations;
        self.max_working_set = self.max_working_set.max(other.max_working_set);
        if let Some(p) = other.pruning {
            self.pruning.get_or_insert_with(Default::default).absorb(p);
        }
    }
}

/// Seeds per-worker deques longest-task-first, round-robin: sorting by
/// descending `num_pairs` (stable, so ties keep ascending task order)
/// starts the heavy tasks everywhere at once.
fn seed_deques(scheme: &dyn DistributionScheme, workers: usize) -> Vec<Mutex<VecDeque<u64>>> {
    let mut order: Vec<u64> = (0..scheme.num_tasks()).collect();
    order.sort_by_key(|&t| std::cmp::Reverse(scheme.num_pairs(t)));
    let deques: Vec<Mutex<VecDeque<u64>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, &t) in order.iter().enumerate() {
        deques[i % workers].lock().push_back(t);
    }
    deques
}

/// The heart of the runner, behind [`PairwiseJob`](crate::runner::job):
/// each task becomes a [`SpanKind::Task`] span (node = worker index), and
/// the run's evaluate/aggregate windows are emitted as job phases of job
/// `"local"`. Every worker folds its tasks' results into its own dense
/// per-element accumulators — with the aggregator itself when `fuse` is
/// set and it is decomposable, with [`ConcatSort`](crate::runner::ConcatSort)'s
/// collecting fold otherwise — and [`merge_copies`] merges the workers'
/// accumulators and finishes every element. A [`PairFilter`] gates the
/// pair stream below enumeration; its tallies land in
/// [`LocalRunStats::pruning`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_local<T, R>(
    payloads: &[T],
    scheme: &dyn DistributionScheme,
    kernel: &dyn BatchComp<T, R>,
    symmetry: Symmetry,
    aggregator: &dyn Aggregator<R>,
    threads: usize,
    fuse: bool,
    filter: Option<&dyn PairFilter>,
    telemetry: &Telemetry,
) -> (PairwiseOutput<R>, LocalRunStats)
where
    T: Sync,
    R: Clone + Send,
{
    assert_eq!(payloads.len() as u64, scheme.v(), "payload count must match the scheme's v");
    let v = payloads.len() as u64;
    let merge = Merge::new(aggregator, fuse);
    let folder = merge.folder();
    // Never spawn more workers than tasks: a surplus worker would only
    // scan empty deques and exit, so don't pay its spawn either.
    let workers = threads.max(1).min(scheme.num_tasks().max(1) as usize);
    let deques = seed_deques(scheme, workers);

    // Each worker accumulates privately; merge after the scope ends.
    let eval_phase = telemetry.job_phase("local", "evaluate");
    let results: Vec<(Vec<Accumulator<R>>, LocalRunStats)> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let deques = &deques;
                scope.spawn(move |_| {
                    let mut accs: Vec<Accumulator<R>> = (0..v).map(|id| folder.init(id)).collect();
                    let mut stats = LocalRunStats::default();
                    let mut prune = PruneStats::default();
                    loop {
                        // Pop-then-steal as separate statements: the own-
                        // deque guard must drop before any victim is
                        // locked, or two stealing workers can hold their
                        // own (empty) deques while waiting on each other.
                        let own = deques[w].lock().pop_front();
                        let t = own.or_else(|| {
                            (1..workers)
                                .find_map(|off| deques[(w + off) % workers].lock().pop_back())
                        });
                        // All deques empty: tasks still in flight elsewhere
                        // spawn no new work, so this worker is done.
                        let Some(t) = t else { break };
                        let mut span =
                            telemetry.span("local", SpanKind::Task, t as u32, 0, w as u32);
                        let mut lap_at = Instant::now();
                        let ws = scheme.working_set(t);
                        stats.max_working_set = stats.max_working_set.max(ws.len() as u64);
                        span.add_records_in(ws.len() as u64);
                        let (task_evals, task_prune) = evaluate_task(
                            |f| scheme.for_each_pair(t, f),
                            filter,
                            kernel,
                            symmetry,
                            |id| &payloads[id as usize],
                            |element, other, result| {
                                folder.fold(&mut accs[element as usize], other, result)
                            },
                        );
                        stats.tasks += 1;
                        stats.evaluations += task_evals;
                        prune.absorb(task_prune);
                        span.lap("evaluate", &mut lap_at);
                        telemetry.record_value(hist::EVALUATIONS_PER_TASK, task_evals);
                    }
                    // Counter hygiene: only a filtered run reports pruning
                    // tallies, so an unfiltered run's stats are unchanged.
                    stats.pruning = filter.map(|_| prune);
                    (accs, stats)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    })
    .expect("thread scope failed");
    drop(eval_phase);
    let agg_phase = telemetry.job_phase("local", "aggregate");
    let mut stats = LocalRunStats::default();
    let mut copies = Vec::with_capacity(results.len());
    for (accs, worker) in results {
        stats.absorb(worker);
        copies.push(accs);
    }
    debug_assert_eq!(stats.tasks, scheme.num_tasks(), "every task runs exactly once");
    let out = merge_copies(v, copies.into_iter().flatten(), &merge, threads);
    drop(agg_phase);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::runner::{comp_fn, Backend, CompFn, PairwiseJob};
    use crate::scheme::{BlockScheme, BroadcastScheme, DesignScheme};

    fn payloads(v: usize) -> Vec<i64> {
        (0..v as i64).map(|i| i * i % 97).collect()
    }

    fn comp() -> CompFn<i64, i64> {
        comp_fn(|a: &i64, b: &i64| (a - b).abs())
    }

    /// A local run of `scheme` on `threads` workers through the builder.
    fn job(
        data: &[i64],
        scheme: Arc<dyn DistributionScheme>,
        threads: usize,
    ) -> PairwiseJob<'_, i64, i64> {
        PairwiseJob::new(data, comp()).scheme_arc(scheme).backend(Backend::Local { threads })
    }

    fn sequential(data: &[i64]) -> PairwiseOutput<i64> {
        PairwiseJob::new(data, comp()).run().unwrap().output
    }

    #[test]
    fn matches_sequential_for_all_schemes() {
        let data = payloads(40);
        let reference = sequential(&data);
        let schemes: Vec<Arc<dyn DistributionScheme>> = vec![
            Arc::new(BroadcastScheme::new(40, 6)),
            Arc::new(BlockScheme::new(40, 5)),
            Arc::new(DesignScheme::new(40)),
        ];
        for s in &schemes {
            for threads in [1usize, 4] {
                let run = job(&data, Arc::clone(s), threads).run().unwrap();
                assert_eq!(run.output, reference, "{} threads={threads}", s.name());
                assert_eq!(run.evaluations(), 40 * 39 / 2, "{}", s.name());
            }
        }
    }

    #[test]
    fn non_symmetric_matches_sequential() {
        let data = payloads(20);
        let comp: CompFn<i64, i64> = comp_fn(|a: &i64, b: &i64| a * 2 - b);
        let reference =
            PairwiseJob::new(&data, comp.clone()).symmetry(Symmetry::NonSymmetric).run().unwrap();
        let run = PairwiseJob::new(&data, comp)
            .scheme(BlockScheme::new(20, 4))
            .backend(Backend::Local { threads: 3 })
            .symmetry(Symmetry::NonSymmetric)
            .run()
            .unwrap();
        assert_eq!(run.output, reference.output);
        assert_eq!(run.evaluations(), 20 * 19);
    }

    #[test]
    fn stats_report_working_set() {
        let data = payloads(30);
        let s = Arc::new(BlockScheme::new(30, 5)); // e = 6, ws ≤ 12
        let stats = job(&data, s, 2).run().unwrap().local.unwrap();
        assert!(stats.max_working_set <= 12);
        assert_eq!(stats.tasks, 15);
    }

    #[test]
    fn more_threads_than_tasks() {
        // BlockScheme(10, 2) has 3 tasks; 16 requested workers must neither
        // spin nor break coverage — the pool clamps to the task count.
        let data = payloads(10);
        let run = job(&data, Arc::new(BlockScheme::new(10, 2)), 16).run().unwrap();
        assert_eq!(run.output, sequential(&data));
        assert_eq!(run.local.unwrap().tasks, 3);
    }

    #[test]
    fn kernel_path_matches_scalar_path() {
        struct AbsDiff;
        impl BatchComp<i64, i64> for AbsDiff {
            fn eval(&self, a: &i64, b: &i64) -> i64 {
                (a - b).abs()
            }
            fn name(&self) -> &'static str {
                "absdiff"
            }
        }
        let data = payloads(50);
        let s: Arc<dyn DistributionScheme> = Arc::new(BlockScheme::new(50, 4));
        let scalar = job(&data, Arc::clone(&s), 4).run().unwrap();
        let batched = job(&data, s, 4).kernel(AbsDiff).run().unwrap();
        assert_eq!(batched.output, scalar.output);
        assert_eq!(batched.evaluations(), 50 * 49 / 2);
    }

    #[test]
    fn longest_first_seeding_orders_by_pairs() {
        let s = BlockScheme::new(40, 4); // off-diag 100 pairs, diag 45
        let deques = seed_deques(&s, 2);
        let first_of_0 = *deques[0].lock().front().unwrap();
        let first_of_1 = *deques[1].lock().front().unwrap();
        assert_eq!(s.num_pairs(first_of_0), 100);
        assert_eq!(s.num_pairs(first_of_1), 100);
        // Every task seeded exactly once.
        let mut all: Vec<u64> =
            deques.iter().flat_map(|d| d.lock().iter().copied().collect::<Vec<_>>()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..s.num_tasks()).collect::<Vec<_>>());
    }

    #[test]
    fn fused_path_matches_unfused_and_sequential() {
        use crate::runner::{FilterAggregator, TopKAggregator};
        let data = payloads(40);
        let s: Arc<dyn DistributionScheme> = Arc::new(BlockScheme::new(40, 5));
        let reference = sequential(&data);
        for threads in [1usize, 4] {
            for fuse in [true, false] {
                let run = job(&data, Arc::clone(&s), threads).fuse(fuse).run().unwrap();
                assert_eq!(run.output, reference, "fuse={fuse} threads={threads}");
            }
        }
        // Filter and top-k fuse too, and match the sequential and unfused
        // paths.
        let filter: Arc<dyn Aggregator<i64>> = Arc::new(FilterAggregator::new(|r: &i64| *r < 10));
        let topk: Arc<dyn Aggregator<i64>> = Arc::new(TopKAggregator::new(3, |r: &i64| *r as f64));
        for agg in [filter, topk] {
            let want = PairwiseJob::new(&data, comp()).aggregator_arc(Arc::clone(&agg)).run();
            for fuse in [true, false] {
                let run = job(&data, Arc::clone(&s), 4).aggregator_arc(Arc::clone(&agg)).fuse(fuse);
                assert_eq!(run.run().unwrap().output, want.as_ref().unwrap().output, "fuse={fuse}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn wrong_payload_count_rejected() {
        let _ = job(&payloads(9), Arc::new(BlockScheme::new(10, 2)), 1).run();
    }
}
