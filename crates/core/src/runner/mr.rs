//! MapReduce execution of the pairwise algorithm — the paper's Algorithms
//! 1 and 2, plus the single-job distributed-cache variant for the broadcast
//! scheme (§5.1).
//!
//! The pipeline moves **element ids, not payloads**. The dataset lives in
//! an id-indexed [`ElementStore`] attached to each job as the node-local
//! resolver; every place the paper's algorithm would shuffle an element
//! copy, we shuffle its `u64` id and *charge* the copy's encoded payload
//! bytes to the cost model (`emit_charged`), so the measured communication
//! cost, working-set pressure, and intermediate-storage pressure stay
//! exactly the paper's while the physically moved bytes collapse to
//! O(ids).
//!
//! Job 1 (*distribution and pairwise comparison*): `map` replicates each
//! element id to the working sets `getSubsets` names; the sort/shuffle
//! phase routes every working set to one reducer; `reduce` resolves ids
//! through the store, evaluates `getPairs`, and emits each element id with
//! its partial `(other, result)` list.
//!
//! Job 2 (*aggregation*): `map` groups by element id (charging the payload
//! copy the paper's identity map would carry); `reduce` merges the partial
//! lists with the application's `aggregateResults`.
//!
//! **Fused path.** When the aggregator advertises
//! [`DecomposableAggregator`](crate::runner::DecomposableAggregator) (and
//! [`MrPairwiseOptions::fuse`] is set — the default), aggregation is fused
//! into job 1's reduce tasks and **job 2 is skipped entirely**: pair
//! results fold into per-element accumulators at the tile flush, each
//! emitted copy carries folded partials, and the driver merges the copies'
//! accumulators. Charged bytes stay byte-identical to the two-job model —
//! the shuffle job 2 would have charged accrues under
//! [`FUSED_CHARGED_SHUFFLE_COUNTER`] — while the physically moved shuffle
//! bytes of job 2 disappear.
//!
//! **One driver.** `run_mr` runs every plan: a scheme as the jobs above,
//! the broadcast scheme as the §5.1 single job, and §7 rounds as one
//! pipeline per round. It seeds the worker stores once, builds every job
//! from the same settings, evaluates every task — a job-1 reduce group or
//! a broadcast label range — through the shared `evaluate_task`, and
//! merges every job's output rows into the dense, id-indexed result
//! through the runner's one merge-then-finish helper.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pmr_cluster::{Cluster, WireSnapshot};
use pmr_mapreduce::{
    read_output, write_sharded, Counters, Engine, JobOutput, JobSpec, MapContext, Mapper,
    ModuloPartitioner, MrError, ReduceContext, Reducer, Values, Wire,
};
use pmr_obs::{hist, Telemetry};

use crate::runner::filter::PairFilter;
use crate::runner::job::Plan;
use crate::runner::kernel::{evaluate_task, BatchComp};
use crate::runner::store::ElementStore;
use crate::runner::{
    merge_copies, merge_rounds, Accumulator, Aggregator, ConcatSort, Merge, PairwiseOutput,
    Symmetry,
};
use crate::scheme::{BroadcastScheme, DistributionScheme};

/// User counter: pairwise function evaluations performed inside tasks.
pub const EVALUATIONS_COUNTER: &str = "pairwise.evaluations";

/// User counter (fused path only): the shuffle bytes job 2 *would have
/// charged* for the records a fused reduce task emitted — frame, key,
/// length prefix, every pre-fold `(other, result)` entry, and the
/// payload-copy charge. Accrued through the task's scratch counters, so
/// the total is exactly-once under crashes and speculation, and adding it
/// to job 1's charged shuffle reproduces the unfused two-job total
/// byte-for-byte.
pub const FUSED_CHARGED_SHUFFLE_COUNTER: &str = "pairwise.fused.charged.shuffle.bytes";

/// One aggregated output row as stored on the DFS: element id with its
/// merged `(other, result)` list. Payloads never round-trip through the
/// output — callers resolve ids against the store.
type OutputRow<R> = (u64, Vec<(u64, R)>);

/// Options for an MR pairwise run.
#[derive(Debug, Clone)]
pub struct MrPairwiseOptions {
    /// Input shards written to the DFS (models the output of a preceding
    /// job). 0 = twice the node count.
    pub input_shards: usize,
    /// Reduce tasks for job 1 (working-set evaluation). 0 = auto:
    /// `min(num_tasks, 4n)`.
    pub reducers_job1: usize,
    /// Reduce tasks for job 2 (aggregation). 0 = auto: `min(v, 4n)`.
    pub reducers_job2: usize,
    /// Memory-accounting overhead factor for working sets (paper §6 saw
    /// limits hit "a little earlier than expected"; `(1, 1)` = none).
    pub memory_overhead: (u64, u64),
    /// Base DFS directory for this run's files (must be unused).
    pub dfs_dir: String,
    /// Fuse aggregation into job-1 reduce tasks when the aggregator is
    /// decomposable, skipping job 2 and its shuffle entirely (charged
    /// bytes are unchanged; only physically moved bytes collapse). Ignored
    /// — the two-job pipeline runs — when the aggregator does not
    /// advertise [`DecomposableAggregator`](crate::runner::DecomposableAggregator).
    pub fuse: bool,
}

impl Default for MrPairwiseOptions {
    fn default() -> Self {
        static RUN_SEQ: AtomicU64 = AtomicU64::new(0);
        MrPairwiseOptions {
            input_shards: 0,
            reducers_job1: 0,
            reducers_job2: 0,
            memory_overhead: (1, 1),
            dfs_dir: format!("pairwise-run-{}", RUN_SEQ.fetch_add(1, Ordering::Relaxed)),
            fuse: true,
        }
    }
}

/// Metrics of a completed MR pairwise run.
#[derive(Debug, Clone)]
pub struct MrRunReport {
    /// Job 1 (or the single broadcast job) output.
    pub job1: JobOutput,
    /// Job 2 output (absent for the single-job broadcast path and for
    /// fused runs, which skip it).
    pub job2: Option<JobOutput>,
    /// True when aggregation was fused into job 1's reduce tasks and job 2
    /// was skipped (decomposable aggregator + `MrPairwiseOptions::fuse`).
    pub fused: bool,
    /// Pairwise function evaluations performed.
    pub evaluations: u64,
    /// Element copies materialized by job 1's map phase — `v ×` the
    /// measured replication factor.
    pub replicated_records: u64,
    /// Total *charged* shuffle bytes across jobs (the measured
    /// communication cost of the paper's model, payload copies included).
    pub shuffle_bytes: u64,
    /// Total bytes the shuffle physically moved across jobs — id records
    /// only, the engineering win of the id-indexed store.
    pub shuffle_moved_bytes: u64,
    /// Peak per-group working-set bytes (measured `maxws` pressure).
    pub max_working_set_bytes: u64,
    /// Total network bytes across jobs (shuffle + remote reads + cache).
    pub network_bytes: u64,
    /// Peak cluster-wide intermediate storage (measured `maxis` pressure).
    pub peak_intermediate_bytes: u64,
    /// Node crashes observed while the run's jobs executed (chaos
    /// injection; 0 on healthy runs).
    pub node_crashes: u64,
    /// Completed map tasks re-executed because their output died with a
    /// node (Dean–Ghemawat recovery).
    pub map_reruns: u64,
    /// Speculative backup attempts launched for straggling tasks.
    pub speculative_launched: u64,
    /// Speculative backup attempts that beat the original and won commit.
    pub speculative_won: u64,
    /// Transport the run executed on (`"in-process"` or `"process"`).
    pub transport: &'static str,
    /// Bytes this run *physically* put on the transport's sockets, by wire
    /// class (the delta over the run; all-zero on the in-process
    /// transport). On a healthy multi-process run `wire.shuffle_bytes`
    /// equals [`shuffle_moved_bytes`](MrRunReport::shuffle_moved_bytes)
    /// exactly — the measured proof behind the reported counter.
    pub wire: WireSnapshot,
}

// ---------------------------------------------------------------------------
// Job 1: distribution + pairwise comparison (paper Algorithm 1)
// ---------------------------------------------------------------------------

/// Job-1 mapper: `getSubsets` replication, ids only. Each emitted copy is
/// charged the element's encoded payload bytes so the replication cost the
/// paper measures is unchanged.
struct DistributeMapper<T> {
    scheme: Arc<dyn DistributionScheme>,
    _pd: std::marker::PhantomData<fn() -> T>,
}

impl<T: Wire + Sync> Mapper for DistributeMapper<T> {
    type KIn = u64;
    type VIn = T;
    type KOut = u64;
    type VOut = u64;

    fn map(
        &self,
        id: u64,
        payload: T,
        ctx: &mut MapContext<'_, u64, u64>,
    ) -> pmr_mapreduce::Result<()> {
        let charge = payload.to_bytes().len() as u64;
        for ws in self.scheme.subsets_of(id) {
            ctx.emit_charged(ws, id, charge);
        }
        Ok(())
    }
}

/// Validates that a job-1 reduce group received exactly the scheme's
/// working set and that every id resolves in the store. Returns the sorted
/// ids and the working set's charged payload bytes — what the task memory
/// budget constrains (paper §6): the engine reserved the id records'
/// physical bytes, this charges the payload bytes they stand for.
fn validate_working_set<T: Wire + Sync>(
    scheme: &dyn DistributionScheme,
    ws: u64,
    values: Values<'_, u64>,
    store: &ElementStore<T>,
) -> pmr_mapreduce::Result<(Vec<u64>, u64)> {
    let mut ids: Vec<u64> = values.collect();
    ids.sort_unstable();
    let mut expected = scheme.working_set(ws);
    expected.sort_unstable();
    if ids.len() != expected.len() {
        return Err(MrError::User(format!(
            "working set {ws}: received {} elements, scheme expects {}",
            ids.len(),
            expected.len()
        )));
    }
    if ids != expected {
        return Err(MrError::User(format!(
            "working set {ws}: received ids differ from the scheme's working set"
        )));
    }
    let payload_bytes: u64 = ids
        .iter()
        .map(|&id| {
            store.get(id).map(|_| store.encoded_len(id)).ok_or_else(|| {
                MrError::User(format!("working set {ws}: element id {id} not in store"))
            })
        })
        .sum::<pmr_mapreduce::Result<u64>>()?;
    Ok((ids, payload_bytes))
}

/// What a job-1 reduce task or a broadcast map task needs to evaluate its
/// pairs against the node-local element store.
struct TaskEvaluator<T, R> {
    scheme: Arc<dyn DistributionScheme>,
    kernel: Arc<dyn BatchComp<T, R>>,
    symmetry: Symmetry,
    filter: Option<Arc<dyn PairFilter>>,
    telemetry: Telemetry,
}

impl<T: Sync, R: Clone> TaskEvaluator<T, R> {
    /// Runs task `task`'s pairs through [`evaluate_task`], folding every
    /// result into `accs` (one accumulator per element) with `folder`;
    /// `observe` sees each result before its fold. The evaluation count —
    /// and, on filtered runs only, the pruning tallies — accrue through the
    /// task's scratch counters, so they stay exactly-once under crashes and
    /// speculation like every other user counter.
    fn evaluate<F: Aggregator<R> + ?Sized>(
        &self,
        task: u64,
        store: &ElementStore<T>,
        folder: &F,
        accs: &mut HashMap<u64, Accumulator<R>>,
        counters: &Counters,
        mut observe: impl FnMut(u64, &R),
    ) {
        // The caller checked that every id the task can name resolves.
        let (evals, prune) = evaluate_task(
            |f| self.scheme.for_each_pair(task, f),
            self.filter.as_deref(),
            self.kernel.as_ref(),
            self.symmetry,
            |id| store.get(id).expect("task ids validated against the store"),
            |element, other, result| {
                observe(element, &result);
                let acc = accs.entry(element).or_insert_with(|| folder.init(element));
                folder.fold(acc, other, result);
            },
        );
        counters.add(EVALUATIONS_COUNTER, evals);
        if self.filter.is_some() {
            for (name, value) in prune.counters() {
                counters.add(name, value);
            }
        }
        self.telemetry.record_value(hist::EVALUATIONS_PER_TASK, evals);
    }
}

/// Job-1 reducer: `getPairs` + `evaluate` + `addResult` (both directions)
/// over one working set, emitting every element copy with its partial
/// results (paper: "The output of the reduce phase contains each element
/// (including all copies)") — as ids, not payloads.
///
/// Unfused, partials are collected with [`ConcatSort`]'s fold for job 2.
/// Fused, they are folded — filtered, compacted — by the run's
/// decomposable aggregator, the driver merges the copies and job 2 never
/// runs; to keep the charged-byte model identical, every pre-fold entry
/// is measured and the shuffle bytes job 2 would have charged for this
/// task's records accrue under [`FUSED_CHARGED_SHUFFLE_COUNTER`].
struct EvaluateReducer<T, R> {
    eval: TaskEvaluator<T, R>,
    /// The run's decomposable aggregator on fused runs.
    fused: Option<Arc<dyn Aggregator<R>>>,
}

impl<T: Wire + Sync, R: Wire + Clone + Sync> Reducer for EvaluateReducer<T, R> {
    type KIn = u64;
    type VIn = u64;
    type KOut = u64;
    type VOut = Vec<(u64, R)>;

    fn reduce(
        &self,
        ws: u64,
        values: Values<'_, u64>,
        ctx: &mut ReduceContext<'_, u64, Vec<(u64, R)>>,
    ) -> pmr_mapreduce::Result<()> {
        let store = ctx
            .store::<ElementStore<T>>()
            .ok_or_else(|| MrError::InvalidJob("element store not attached to job 1".into()))?;
        let (ids, payload_bytes) =
            validate_working_set(self.eval.scheme.as_ref(), ws, values, store)?;
        ctx.memory().try_reserve(payload_bytes)?;
        let mut accs = HashMap::with_capacity(ids.len());
        let mut folded_bytes: HashMap<u64, u64> = HashMap::new();
        match self.fused.as_deref() {
            Some(aggregator) => {
                self.eval.evaluate(ws, store, aggregator, &mut accs, ctx.counters(), |id, r| {
                    // Wire size of the `(other, result)` entry the unfused
                    // partial list would carry for `id`: 8-byte other id
                    // plus the result's canonical encoding.
                    *folded_bytes.entry(id).or_insert(0) += 8 + r.to_bytes().len() as u64;
                })
            }
            None => {
                self.eval.evaluate(ws, store, &ConcatSort, &mut accs, ctx.counters(), |_, _| {})
            }
        }
        let fused = self.fused.is_some();
        // What job 2's map would have shuffled for each unfused record:
        // frame header (8) + u64 key (8) + Vec length prefix (4) + the
        // pre-fold entries + the element's payload-copy charge.
        let mut fused_charge = 0u64;
        for id in ids {
            let partial = accs.remove(&id).map(Accumulator::into_partials).unwrap_or_default();
            if fused {
                fused_charge +=
                    20 + folded_bytes.get(&id).copied().unwrap_or(0) + store.encoded_len(id);
            }
            ctx.emit(id, partial);
        }
        if fused {
            ctx.counters().add(FUSED_CHARGED_SHUFFLE_COUNTER, fused_charge);
        }
        ctx.memory().release(payload_bytes);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Job 2: aggregation (paper Algorithm 2)
// ---------------------------------------------------------------------------

/// Job-2 mapper: groups partial lists by element id. The paper's identity
/// map would re-ship each copy's payload; this ships the id and charges
/// the payload bytes instead.
struct GroupByElementMapper<T, R> {
    _pd: std::marker::PhantomData<fn() -> (T, R)>,
}

impl<T: Wire + Sync, R: Wire + Sync> Mapper for GroupByElementMapper<T, R> {
    type KIn = u64;
    type VIn = Vec<(u64, R)>;
    type KOut = u64;
    type VOut = Vec<(u64, R)>;

    fn map(
        &self,
        id: u64,
        partial: Vec<(u64, R)>,
        ctx: &mut MapContext<'_, u64, Vec<(u64, R)>>,
    ) -> pmr_mapreduce::Result<()> {
        let store = ctx
            .store::<ElementStore<T>>()
            .ok_or_else(|| MrError::InvalidJob("element store not attached to job 2".into()))?;
        if store.get(id).is_none() {
            return Err(MrError::User(format!(
                "aggregate: element id {id} in intermediate record is not in the store"
            )));
        }
        let charge = store.encoded_len(id);
        ctx.emit_charged(id, partial, charge);
        Ok(())
    }
}

/// Job-2 reducer: merges an element's copies with `aggregateResults`.
struct AggregateReducer<T, R> {
    aggregator: Arc<dyn Aggregator<R>>,
    _pd: std::marker::PhantomData<fn() -> T>,
}

impl<T: Wire + Sync, R: Wire + Sync> Reducer for AggregateReducer<T, R> {
    type KIn = u64;
    type VIn = Vec<(u64, R)>;
    type KOut = u64;
    type VOut = Vec<(u64, R)>;

    fn reduce(
        &self,
        id: u64,
        values: Values<'_, Vec<(u64, R)>>,
        ctx: &mut ReduceContext<'_, u64, Vec<(u64, R)>>,
    ) -> pmr_mapreduce::Result<()> {
        let store = ctx
            .store::<ElementStore<T>>()
            .ok_or_else(|| MrError::InvalidJob("element store not attached to job 2".into()))?;
        // A corrupt or foreign intermediate record surfaces as an error,
        // not a worker panic.
        if store.get(id).is_none() {
            return Err(MrError::User(format!(
                "aggregate: element id {id} in intermediate record is not in the store"
            )));
        }
        // Charge the payload copy each grouped record used to carry, so
        // the measured `maxws` pressure matches the paper's model.
        let payload_bytes = store.encoded_len(id) * values.len() as u64;
        ctx.memory().try_reserve(payload_bytes)?;
        // Stream each copy's entries through the accumulator API; for the
        // default fold this is exactly the old concatenate-then-aggregate.
        let mut acc = self.aggregator.init(id);
        for rs in values {
            for (other, r) in rs {
                self.aggregator.fold(&mut acc, other, r);
            }
        }
        let merged = self.aggregator.finish(acc);
        ctx.emit(id, merged);
        ctx.memory().release(payload_bytes);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Broadcast single-job variant (paper §5.1)
// ---------------------------------------------------------------------------

/// Broadcast mapper: evaluates one task's label range against the
/// node-local store ("the evaluation of pairs can then be done in the map
/// function") and emits each touched element's collected partials. The
/// dataset is still shipped to every node through the distributed cache —
/// that is the paper's §5.1 seeding cost and it is recorded unchanged —
/// but payload resolution goes through the store.
struct BroadcastMapper<T, R> {
    eval: TaskEvaluator<T, R>,
}

impl<T: Wire + Sync, R: Wire + Clone + Sync> Mapper for BroadcastMapper<T, R> {
    type KIn = u64;
    type VIn = ();
    type KOut = u64;
    type VOut = Vec<(u64, R)>;

    fn map(
        &self,
        task: u64,
        _unit: (),
        ctx: &mut MapContext<'_, u64, Vec<(u64, R)>>,
    ) -> pmr_mapreduce::Result<()> {
        let store = ctx.store::<ElementStore<T>>().ok_or_else(|| {
            MrError::InvalidJob("element store not attached to broadcast job".into())
        })?;
        // The scheme's label ranges only name ids below `v`; one bound
        // check makes the tiled resolution infallible.
        if (store.len() as u64) < self.eval.scheme.v() {
            return Err(MrError::User(format!(
                "broadcast: element id {} not in store",
                store.len()
            )));
        }
        let mut accs = HashMap::new();
        self.eval.evaluate(task, store, &ConcatSort, &mut accs, ctx.counters(), |_, _| {});
        let mut rows: Vec<(u64, Accumulator<R>)> = accs.into_iter().collect();
        rows.sort_by_key(|(id, _)| *id);
        for (id, acc) in rows {
            ctx.emit_charged(id, acc.into_partials(), store.encoded_len(id));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

fn auto(n: usize, cap: u64, requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        (4 * n).min(cap.max(1) as usize)
    }
}

/// The store handle as attached to a [`JobSpec`] (type-erased; tasks get
/// it back typed via `ctx.store::<ElementStore<T>>()`).
fn store_handle<T: Wire + Sync>(
    store: &Arc<ElementStore<T>>,
) -> Arc<dyn std::any::Any + Send + Sync> {
    Arc::clone(store) as Arc<dyn std::any::Any + Send + Sync>
}

impl MrRunReport {
    /// Sums the run's jobs — job 1, plus job 2 when it ran — into one
    /// report. A fused run's charged shuffle includes what job 2 would
    /// have charged; `wire` is the transport traffic since `wire_start`.
    fn new(
        cluster: &Cluster,
        job1: JobOutput,
        job2: Option<JobOutput>,
        fused: bool,
        wire_start: &WireSnapshot,
    ) -> MrRunReport {
        let jobs: Vec<&JobOutput> = std::iter::once(&job1).chain(&job2).collect();
        // Counters absent from a job (recovery counters on healthy runs,
        // the fused charge on unfused ones) count as zero.
        let sum = |name: &str| -> u64 {
            jobs.iter().map(|j| j.counters.get(name).copied().unwrap_or(0)).sum()
        };
        use pmr_mapreduce::builtin;
        MrRunReport {
            evaluations: sum(EVALUATIONS_COUNTER),
            replicated_records: job1.counters[builtin::MAP_OUTPUT_RECORDS],
            shuffle_bytes: sum(builtin::SHUFFLE_BYTES) + sum(FUSED_CHARGED_SHUFFLE_COUNTER),
            shuffle_moved_bytes: sum(builtin::SHUFFLE_MOVED_BYTES),
            max_working_set_bytes: job1.stats.max_working_set_bytes,
            network_bytes: jobs.iter().map(|j| j.stats.network_bytes).sum(),
            peak_intermediate_bytes: jobs
                .iter()
                .map(|j| j.stats.peak_intermediate_bytes)
                .max()
                .unwrap_or(0),
            node_crashes: sum(builtin::NODE_CRASHES),
            map_reruns: sum(builtin::MAP_RERUNS),
            speculative_launched: sum(builtin::SPECULATIVE_LAUNCHED),
            speculative_won: sum(builtin::SPECULATIVE_WON),
            transport: cluster.transport().name(),
            wire: cluster.wire_snapshot().delta(wire_start),
            job1,
            job2,
            fused,
        }
    }
}

/// The one MR driver: runs a [`Plan`] — one scheme as the two-job
/// pipeline, the §5.1 single broadcast job, or §7 rounds as one two-job
/// pipeline each — and returns the output with one [`MrRunReport`] per
/// pipeline. Telemetry (I/O phases, per-task histograms) goes to
/// `telemetry`, the run's effective sink; run meta is the caller's.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_mr<T, R>(
    cluster: &Cluster,
    plan: &Plan,
    store: &Arc<ElementStore<T>>,
    kernel: Arc<dyn BatchComp<T, R>>,
    symmetry: Symmetry,
    aggregator: Arc<dyn Aggregator<R>>,
    filter: Option<Arc<dyn PairFilter>>,
    options: &MrPairwiseOptions,
    telemetry: &Telemetry,
) -> pmr_mapreduce::Result<(PairwiseOutput<R>, Vec<MrRunReport>)>
where
    T: Wire + Clone + Sync,
    R: Wire + Clone + Sync,
{
    for scheme in plan.schemes() {
        if store.len() as u64 != scheme.v() {
            return Err(MrError::InvalidJob(format!(
                "payload count {} != scheme v {}",
                store.len(),
                scheme.v()
            )));
        }
    }
    let dir = &options.dfs_dir;
    let wire_start = cluster.wire_snapshot();
    // Distributed runs ship the encoded element store to every worker once
    // up front — the id-indexed resolver a real deployment would hold
    // node-locally. Measured on the wire (`seed` class), never charged.
    if cluster.is_distributed() {
        let io = telemetry.job_phase(&format!("{dir}-io"), "seed-store");
        cluster.seed_workers(&format!("seed/{dir}/store"), &store.dataset_bytes())?;
        drop(io);
    }
    let driver = Driver {
        cluster,
        engine: Engine::new(cluster),
        store,
        kernel,
        symmetry,
        filter,
        options,
        telemetry,
    };
    match plan {
        Plan::None => unreachable!("the builder rejects scheme-less MR runs"),
        Plan::Scheme(scheme) => {
            let (out, report) = driver.two_jobs(scheme, dir, &aggregator, &wire_start)?;
            Ok((out, vec![report]))
        }
        Plan::Broadcast(scheme) => {
            let (out, report) = driver.broadcast(scheme, &aggregator, &wire_start)?;
            Ok((out, vec![report]))
        }
        Plan::Rounds(rounds) => {
            // Paper §7: rounds run one after another, each collected with
            // ConcatSort ("each block is aggregated before the next one is
            // processed"), and merge once at the end. Per-round reports
            // show peak intermediate storage bounded by the largest round.
            let concat: Arc<dyn Aggregator<R>> = Arc::new(ConcatSort);
            let mut outputs = Vec::with_capacity(rounds.len());
            let mut reports = Vec::with_capacity(rounds.len());
            let mut round_start = wire_start;
            for (i, round) in rounds.iter().enumerate() {
                let round_dir = format!("{dir}/round-{i}");
                let (out, report) = driver.two_jobs(round, &round_dir, &concat, &round_start)?;
                // The round's DFS files are no longer needed once merged.
                for path in cluster.dfs().list(&format!("{round_dir}/")) {
                    cluster.dfs().delete(&path);
                }
                round_start = cluster.wire_snapshot();
                outputs.push(out);
                reports.push(report);
            }
            Ok((merge_rounds(store.len() as u64, outputs, aggregator.as_ref(), 1), reports))
        }
    }
}

/// One MR run's shared state: what every job of the run is built from.
struct Driver<'a, T, R> {
    cluster: &'a Cluster,
    engine: Engine<'a>,
    store: &'a Arc<ElementStore<T>>,
    kernel: Arc<dyn BatchComp<T, R>>,
    symmetry: Symmetry,
    filter: Option<Arc<dyn PairFilter>>,
    options: &'a MrPairwiseOptions,
    telemetry: &'a Telemetry,
}

impl<T, R> Driver<'_, T, R>
where
    T: Wire + Clone + Sync,
    R: Wire + Clone + Sync,
{
    fn evaluator(&self, scheme: Arc<dyn DistributionScheme>) -> TaskEvaluator<T, R> {
        TaskEvaluator {
            scheme,
            kernel: Arc::clone(&self.kernel),
            symmetry: self.symmetry,
            filter: self.filter.clone(),
            telemetry: self.telemetry.clone(),
        }
    }

    /// Runs `spec` with the settings every job of the run shares.
    fn run<M, Rd>(&self, spec: JobSpec<M, Rd>) -> pmr_mapreduce::Result<JobOutput>
    where
        M: Mapper,
        Rd: Reducer<KIn = M::KOut, VIn = M::VOut>,
    {
        let (num, den) = self.options.memory_overhead;
        self.engine.run(
            spec.partitioner(Arc::new(ModuloPartitioner))
                .memory_overhead(num, den)
                .store(store_handle(self.store)),
        )
    }

    /// Reads a job's output rows (written under `dfs`) inside the I/O
    /// phase `phase` and merges them into the run's dense output.
    fn collect(
        &self,
        dir: &str,
        phase: &str,
        dfs: &str,
        merge: &Merge<'_, R>,
    ) -> pmr_mapreduce::Result<PairwiseOutput<R>> {
        let _io = self.telemetry.job_phase(&format!("{dir}-io"), phase);
        let rows: Vec<OutputRow<R>> = read_output(self.cluster, dfs)?;
        let copies = rows.into_iter().map(|(id, partial)| Accumulator::from_parts(id, partial));
        Ok(merge_copies(self.store.len() as u64, copies, merge, 1))
    }

    /// Algorithms 1 and 2: job 1 distributes and evaluates; job 2
    /// aggregates — or, fused, is skipped outright while the driver merges
    /// job 1's per-copy accumulators. The shuffle job 2 would have charged
    /// was accrued (exactly-once) by the fused reduce tasks, so the charged
    /// bytes still equal the unfused two-job total while nothing extra
    /// moved.
    fn two_jobs(
        &self,
        scheme: &Arc<dyn DistributionScheme>,
        dir: &str,
        aggregator: &Arc<dyn Aggregator<R>>,
        wire_start: &WireSnapshot,
    ) -> pmr_mapreduce::Result<(PairwiseOutput<R>, MrRunReport)> {
        let n = self.cluster.num_nodes();
        let merge = Merge::new(aggregator.as_ref(), self.options.fuse);
        let fused = matches!(merge, Merge::Fused(_));
        let shards = if self.options.input_shards == 0 { 2 * n } else { self.options.input_shards };
        // Runner-level I/O gets its own phase track (job `{dir}-io`) so the
        // report's phases tile the whole run, not just the engine jobs.
        let io = self.telemetry.job_phase(&format!("{dir}-io"), "distribute-input");
        let elements = self.store.elements().iter().cloned().enumerate();
        let inputs = write_sharded(
            self.cluster,
            &format!("{dir}/input"),
            shards,
            elements.map(|(i, p)| (i as u64, p)),
        )?;
        drop(io);
        let job1 = self.run(JobSpec::new(
            format!("{dir}-j1-distribute-evaluate"),
            inputs,
            format!("{dir}/mid"),
            DistributeMapper::<T> { scheme: Arc::clone(scheme), _pd: std::marker::PhantomData },
            EvaluateReducer::<T, R> {
                eval: self.evaluator(Arc::clone(scheme)),
                fused: fused.then(|| Arc::clone(aggregator)),
            },
            auto(n, scheme.num_tasks(), self.options.reducers_job1),
        ))?;
        if fused {
            let out = self.collect(dir, "merge-aggregate", &format!("{dir}/mid"), &merge)?;
            return Ok((out, MrRunReport::new(self.cluster, job1, None, true, wire_start)));
        }
        let job2 = self.run(JobSpec::new(
            format!("{dir}-j2-aggregate"),
            job1.output_paths.clone(),
            format!("{dir}/out"),
            GroupByElementMapper::<T, R> { _pd: std::marker::PhantomData },
            AggregateReducer::<T, R> {
                aggregator: Arc::clone(aggregator),
                _pd: std::marker::PhantomData,
            },
            auto(n, scheme.v(), self.options.reducers_job2),
        ))?;
        let out = self.collect(dir, "collect-output", &format!("{dir}/out"), &Merge::Final)?;
        Ok((out, MrRunReport::new(self.cluster, job1, Some(job2), false, wire_start)))
    }

    /// The §5.1 single job: the dataset travels once to every node through
    /// the distributed cache, map tasks evaluate label ranges, and reduce
    /// tasks aggregate. Inherently single-job, so its emission stays
    /// unfused and the charged seeding/shuffle costs are the paper's. An
    /// element whose pairs were all pruned reaches no reducer and gets
    /// the empty row.
    fn broadcast(
        &self,
        scheme: &BroadcastScheme,
        aggregator: &Arc<dyn Aggregator<R>>,
        wire_start: &WireSnapshot,
    ) -> pmr_mapreduce::Result<(PairwiseOutput<R>, MrRunReport)> {
        let n = self.cluster.num_nodes();
        let dir = &self.options.dfs_dir;
        // Input = one record per (nonempty) task: the unit of map-side work.
        let tasks: Vec<(u64, ())> =
            (0..scheme.num_tasks()).filter(|&t| scheme.num_pairs(t) > 0).map(|t| (t, ())).collect();
        let shards = if self.options.input_shards == 0 { n } else { self.options.input_shards };
        let io = self.telemetry.job_phase(&format!("{dir}-io"), "distribute-input");
        let shards = shards.min(tasks.len().max(1));
        let inputs = write_sharded(self.cluster, &format!("{dir}/tasks"), shards, tasks)?;
        drop(io);
        let job = self.run(
            JobSpec::new(
                format!("{dir}-broadcast-evaluate-aggregate"),
                inputs,
                format!("{dir}/out"),
                BroadcastMapper::<T, R> { eval: self.evaluator(Arc::new(scheme.clone())) },
                AggregateReducer::<T, R> {
                    aggregator: Arc::clone(aggregator),
                    _pd: std::marker::PhantomData,
                },
                auto(n, scheme.v(), self.options.reducers_job2),
            )
            .cache_file("dataset", self.store.dataset_bytes()),
        )?;
        let out = self.collect(dir, "collect-output", &format!("{dir}/out"), &Merge::Final)?;
        Ok((out, MrRunReport::new(self.cluster, job, None, false, wire_start)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_cluster::{Cluster, ClusterConfig};
    use pmr_mapreduce::IdentityMapper;

    fn job2_with_record(record: (u64, Vec<(u64, u64)>)) -> pmr_mapreduce::Result<JobOutput> {
        let cluster = Cluster::new(ClusterConfig::with_nodes(2));
        let store: Arc<ElementStore<u64>> = ElementStore::from_slice(&[10u64, 20, 30]);
        let inputs = write_sharded(&cluster, "corrupt/in", 1, [record])?;
        Engine::new(&cluster).run(
            JobSpec::new(
                "corrupt-j2",
                inputs,
                "corrupt/out",
                GroupByElementMapper::<u64, u64> { _pd: std::marker::PhantomData },
                AggregateReducer::<u64, u64> {
                    aggregator: Arc::new(crate::runner::ConcatSort),
                    _pd: std::marker::PhantomData,
                },
                2,
            )
            .partitioner(Arc::new(ModuloPartitioner))
            .store(store_handle(&store)),
        )
    }

    /// A corrupt intermediate record (an element id outside the store)
    /// surfaces as an `MrError`, not a worker panic.
    #[test]
    fn corrupt_intermediate_id_is_an_error_not_a_panic() {
        let err = job2_with_record((999, vec![(1, 7)])).unwrap_err();
        assert!(
            matches!(&err, MrError::User(msg) if msg.contains("not in the store")),
            "expected the corrupt-record error, got: {err}"
        );
        // A well-formed record on the same pipeline succeeds.
        let out = job2_with_record((1, vec![(0, 7)])).unwrap();
        assert_eq!(out.counters[pmr_mapreduce::builtin::REDUCE_OUTPUT_RECORDS], 1);
    }

    /// The aggregation reducer itself (not just the grouping mapper)
    /// rejects unknown ids — exercised by bypassing the mapper's check
    /// with an identity map.
    #[test]
    fn aggregate_reducer_rejects_unknown_id() {
        let cluster = Cluster::new(ClusterConfig::with_nodes(2));
        let store: Arc<ElementStore<u64>> = ElementStore::from_slice(&[10u64, 20, 30]);
        let inputs =
            write_sharded(&cluster, "corrupt-r/in", 1, [(999u64, vec![(1u64, 7u64)])]).unwrap();
        let err = Engine::new(&cluster)
            .run(
                JobSpec::new(
                    "corrupt-r-j2",
                    inputs,
                    "corrupt-r/out",
                    IdentityMapper::<u64, Vec<(u64, u64)>>::new(),
                    AggregateReducer::<u64, u64> {
                        aggregator: Arc::new(crate::runner::ConcatSort),
                        _pd: std::marker::PhantomData,
                    },
                    2,
                )
                .partitioner(Arc::new(ModuloPartitioner))
                .store(store_handle(&store)),
            )
            .unwrap_err();
        assert!(
            matches!(&err, MrError::User(msg) if msg.contains("not in the store")),
            "expected the corrupt-record error, got: {err}"
        );
    }

    /// Job 2 without a store attached fails cleanly.
    #[test]
    fn missing_store_is_invalid_job() {
        let cluster = Cluster::new(ClusterConfig::with_nodes(2));
        let inputs =
            write_sharded(&cluster, "nostore/in", 1, [(1u64, vec![(0u64, 7u64)])]).unwrap();
        let err = Engine::new(&cluster)
            .run(JobSpec::new(
                "nostore-j2",
                inputs,
                "nostore/out",
                GroupByElementMapper::<u64, u64> { _pd: std::marker::PhantomData },
                AggregateReducer::<u64, u64> {
                    aggregator: Arc::new(crate::runner::ConcatSort),
                    _pd: std::marker::PhantomData,
                },
                1,
            ))
            .unwrap_err();
        assert!(matches!(&err, MrError::InvalidJob(msg) if msg.contains("store")), "{err}");
    }
}
