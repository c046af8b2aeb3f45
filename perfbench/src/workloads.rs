//! The three benchmark workloads: inputs generated from a seed, the
//! one-time set-up (ingest, kernel, filter, workers, reference run,
//! warm-up) and one closed-loop job checked bit-for-bit against the
//! reference.

use std::sync::Arc;
use std::time::Instant;

use pmr_apps::docsim::tfidf;
use pmr_apps::generate::{gene_expression, zipf_documents};
use pmr_apps::kernels::{DenseSqDistKernel, SparseDotKernel};
use pmr_apps::prune::PrefixFilter;
use pmr_apps::{DenseVector, SparseVector};
use pmr_cluster::{Cluster, ClusterConfig, NodeConfig, NodeId, SocketMode, TransportKind};
use pmr_core::runner::mr::{MrPairwiseOptions, MrRunReport};
use pmr_core::runner::{
    comp_fn, Aggregator, Backend, BatchComp, ConcatSort, ElementStore, FilterAggregator,
    PairFilter, PairwiseJob, PairwiseOutput, PairwiseRun, TopKAggregator,
};
use pmr_core::scheme::{BlockScheme, DesignScheme, DistributionScheme};
use pmr_obs::{RunReport, Telemetry};

use crate::layers::{self, Metrics, Spans};

/// Elements of the two `v ≈ 4096` workloads.
const V_LOCAL: usize = 4096;
/// Elements of the process workload (a truncated PG(2,23)).
const V_DESIGN: usize = 512;
/// Dimension of the dense gene-expression profiles.
const DIM: usize = 64;
/// Blocking factor of the block scheme on the local workloads.
const BLOCK_H: u64 = 16;
/// Neighbours kept per element by the dense workload's top-k fold.
const TOP_K: usize = 16;
/// Cosine threshold of the similarity join.
const JOIN_T: f64 = 0.8;

/// A benchmark workload, by its command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Dense squared distances, fused top-k, local threads.
    DenseTopkLocal,
    /// Prefix-filtered thresholded cosine join, local threads.
    SparsePrefixJoin,
    /// Unfused two-job MR pipeline on the design scheme over worker processes.
    DesignMrProcess,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] =
        [Kind::DenseTopkLocal, Kind::SparsePrefixJoin, Kind::DesignMrProcess];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DenseTopkLocal => "dense-topk-local",
            Kind::SparsePrefixJoin => "sparse-prefix-join",
            Kind::DesignMrProcess => "design-mr-process",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Seconds spent in each step of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCost {
    /// `ElementStore` ingest.
    pub ingest_s: f64,
    /// `PrefixFilter::build` (0 without a filter).
    pub filter_build_s: f64,
    /// Everything: ingest, kernel, filter, workers, reference and warm-up.
    pub total_s: f64,
}

/// One finished job.
pub struct JobRun {
    /// Wall time of `PairwiseJob::run`, seconds.
    pub wall_s: f64,
    /// The run report (empty unless the job was traced).
    pub report: RunReport,
    /// The MR run metrics, on the process workload.
    pub mr: Option<MrRunReport>,
}

/// A set-up workload, ready to run timed jobs.
pub trait Workload {
    /// Which workload this is.
    fn kind(&self) -> Kind;
    /// Pairs in the full relation, `v(v−1)/2`, pruned ones included.
    fn pairs(&self) -> u64;
    /// Threads (local) or worker processes (process) a job uses.
    fn concurrency(&self) -> usize;
    /// Encoded bytes of the input dataset.
    fn input_bytes(&self) -> u64;
    /// Runs one job and checks its output against the reference. A traced
    /// job records into a fresh enabled telemetry sink; on the process
    /// workload `fresh` runs it on newly spawned workers.
    fn job(&self, traced: bool, fresh: bool) -> Result<JobRun, String>;
    /// PIDs of worker processes whose memory counts towards the run.
    fn worker_pids(&self) -> Vec<u32>;
    /// Calls each layer's public functions on this workload's inputs and
    /// records the per-layer metrics. `untraced_s` and `traced` are the
    /// median untraced job wall time and the median traced job of the run.
    fn probe_layers(&self, untraced_s: f64, traced: &JobRun, m: &mut Metrics, spans: &mut Spans);
}

/// Compares two outputs bit for bit: same elements, neighbours and
/// `f64::to_bits` of every result.
pub fn check_bits(got: &PairwiseOutput<f64>, want: &PairwiseOutput<f64>) -> Result<(), String> {
    if got.per_element.len() != want.per_element.len() {
        return Err(format!(
            "output has {} elements, reference {}",
            got.per_element.len(),
            want.per_element.len()
        ));
    }
    for ((ga, rows_a), (gb, rows_b)) in got.per_element.iter().zip(&want.per_element) {
        if ga != gb || rows_a.len() != rows_b.len() {
            return Err(format!("element {ga}: row differs from the reference"));
        }
        for ((oa, ra), (ob, rb)) in rows_a.iter().zip(rows_b) {
            if oa != ob || ra.to_bits() != rb.to_bits() {
                return Err(format!("result ({ga}, {oa}) differs from the reference"));
            }
        }
    }
    Ok(())
}

/// A workload's generated inputs.
pub enum Inputs {
    /// Dense gene-expression profiles.
    Dense(Vec<DenseVector>),
    /// The sparse join corpus.
    Sparse(Vec<SparseVector>),
}

/// Generates the workload's inputs from `seed`.
pub fn generate(kind: Kind, seed: u64) -> Inputs {
    match kind {
        Kind::DenseTopkLocal => Inputs::Dense(gene_expression(V_LOCAL, DIM, 8, 0.3, seed)),
        Kind::SparsePrefixJoin => Inputs::Sparse(join_corpus(seed)),
        Kind::DesignMrProcess => Inputs::Dense(gene_expression(V_DESIGN, DIM, 8, 0.3, seed)),
    }
}

/// Sets the workload up once on `inputs`, timing every step. Errors (a
/// worker that cannot be spawned, a reference that does not match) are
/// set-up failures.
pub fn setup(
    kind: Kind,
    inputs: &Inputs,
    threads: usize,
) -> Result<(Box<dyn Workload>, SetupCost), String> {
    let start = Instant::now();
    let mut cost = SetupCost::default();
    let workload: Box<dyn Workload> = match (kind, inputs) {
        (Kind::DenseTopkLocal, Inputs::Dense(data)) => {
            let (ingest_s, store) = ingest(data);
            cost.ingest_s = ingest_s;
            let kernel = DenseSqDistKernel::for_dataset(store.elements())?;
            let aggregator: Arc<dyn Aggregator<f64>> =
                Arc::new(TopKAggregator::new(TOP_K, |r: &f64| *r));
            let mut w = LocalWorkload {
                kind,
                scheme: Arc::new(BlockScheme::new(V_LOCAL as u64, BLOCK_H)),
                kernel: Arc::new(kernel),
                aggregator,
                filter: None,
                threads,
                reference: PairwiseOutput { per_element: Vec::new() },
                store,
                cost: layers::dense_cost,
            };
            // Reference: the single-threaded sequential backend.
            w.reference = w.job_for(Backend::Sequential).run().map_err(|e| e.to_string())?.output;
            Box::new(w)
        }
        (Kind::SparsePrefixJoin, Inputs::Sparse(corpus)) => {
            let (ingest_s, store) = ingest(corpus);
            cost.ingest_s = ingest_s;
            let build = Instant::now();
            let filter: Arc<dyn PairFilter> =
                Arc::new(PrefixFilter::build(store.elements(), JOIN_T));
            cost.filter_build_s = build.elapsed().as_secs_f64();
            let aggregator: Arc<dyn Aggregator<f64>> =
                Arc::new(FilterAggregator::new(|r: &f64| *r >= JOIN_T));
            let mut w = LocalWorkload {
                kind,
                scheme: Arc::new(BlockScheme::new(V_LOCAL as u64, BLOCK_H)),
                kernel: Arc::new(SparseDotKernel),
                aggregator,
                filter: None,
                threads,
                reference: PairwiseOutput { per_element: Vec::new() },
                store,
                cost: layers::sparse_cost,
            };
            // Reference: the exact join, every pair evaluated, no filter.
            w.reference =
                w.job_for(Backend::Local { threads }).run().map_err(|e| e.to_string())?.output;
            w.filter = Some(filter);
            Box::new(w)
        }
        (Kind::DesignMrProcess, Inputs::Dense(data)) => {
            let (ingest_s, store) = ingest(data);
            cost.ingest_s = ingest_s;
            let kernel = DenseSqDistKernel::for_dataset(store.elements())?;
            let cluster = spawn_cluster(threads, false)?;
            let mut w = ProcessWorkload {
                scheme: Arc::new(DesignScheme::new(V_DESIGN as u64)),
                kernel: Arc::new(kernel),
                workers: threads,
                reference: PairwiseOutput { per_element: Vec::new() },
                store,
                cluster,
            };
            // Reference: the same pipeline on the in-process transport.
            let inproc = Cluster::new(cluster_config(threads));
            w.reference = w.run_on(&inproc)?.1.output;
            Box::new(w)
        }
        _ => return Err(format!("inputs do not belong to {}", kind.name())),
    };
    // Warm-up: one untraced job, checked like every timed one.
    workload.job(false, false)?;
    cost.total_s = start.elapsed().as_secs_f64();
    Ok((workload, cost))
}

/// Ingests the dataset into an `ElementStore` (the copy `PairwiseJob::new`
/// makes), timed.
fn ingest<T: Clone>(data: &[T]) -> (f64, Arc<ElementStore<T>>) {
    let start = Instant::now();
    let store = ElementStore::from_slice(data);
    (start.elapsed().as_secs_f64(), store)
}

/// The join corpus: a skewed Zipf corpus with planted near-duplicates
/// (every 64th document copied with its last term dropped), tf-idf
/// weighted and unit-normalised so the dot product is the cosine.
fn join_corpus(seed: u64) -> Vec<SparseVector> {
    let mut raw = zipf_documents(V_LOCAL, 8192, 64, 1.2, seed);
    for i in (0..V_LOCAL - 1).step_by(64) {
        let mut twin = raw[i].clone();
        twin.0.pop();
        raw[i + 1] = twin;
    }
    tfidf(&raw)
        .into_iter()
        .map(|vec| {
            let n = vec.norm();
            if n == 0.0 {
                vec
            } else {
                SparseVector(vec.0.into_iter().map(|(i, w)| (i, w / n)).collect())
            }
        })
        .collect()
}

/// The process workload's cluster shape: one node per worker process,
/// one map and one reduce slot each, so a job never runs more tasks than
/// there are workers.
fn cluster_config(workers: usize) -> ClusterConfig {
    ClusterConfig {
        node: NodeConfig { map_slots: 1, reduce_slots: 1, ..NodeConfig::default() },
        ..ClusterConfig::with_nodes(workers)
    }
}

/// Spawns `workers` worker processes on unix-domain sockets.
fn spawn_cluster(workers: usize, traced: bool) -> Result<Cluster, String> {
    let cluster = Cluster::try_new(
        cluster_config(workers).transport(TransportKind::Process { socket: SocketMode::Uds }),
    )
    .map_err(|e| format!("spawning {workers} worker processes: {e}"))?;
    Ok(if traced { cluster.with_telemetry(Telemetry::enabled()) } else { cluster })
}

/// The two in-process workloads: one scheme, kernel, fused aggregator
/// and optional filter on `Backend::Local`.
struct LocalWorkload<T: 'static> {
    kind: Kind,
    store: Arc<ElementStore<T>>,
    scheme: Arc<dyn DistributionScheme>,
    kernel: Arc<dyn BatchComp<T, f64>>,
    aggregator: Arc<dyn Aggregator<f64>>,
    filter: Option<Arc<dyn PairFilter>>,
    threads: usize,
    reference: PairwiseOutput<f64>,
    /// Computed floating-point operations and operand bytes of one pair.
    cost: fn(&T, &T) -> (f64, f64),
}

impl<T> LocalWorkload<T>
where
    T: pmr_mapreduce::Wire + Clone + Sync + Send + 'static,
{
    fn job_for(&self, backend: Backend<'static>) -> PairwiseJob<'static, T, f64> {
        let kernel = Arc::clone(&self.kernel);
        let mut job = PairwiseJob::from_store(
            Arc::clone(&self.store),
            comp_fn(move |a: &T, b: &T| kernel.eval(a, b)),
        )
        .kernel_arc(Arc::clone(&self.kernel))
        .scheme_arc(Arc::clone(&self.scheme))
        .aggregator_arc(Arc::clone(&self.aggregator))
        .backend(backend);
        if let Some(f) = &self.filter {
            job = job.pair_filter_arc(Arc::clone(f));
        }
        job
    }

    /// Runs `job`, timing `run()` only, and checks the output.
    fn timed(&self, job: PairwiseJob<'static, T, f64>) -> Result<(f64, PairwiseRun<f64>), String> {
        let start = Instant::now();
        let run = job.run().map_err(|e| e.to_string())?;
        let wall_s = start.elapsed().as_secs_f64();
        check_bits(&run.output, &self.reference)?;
        Ok((wall_s, run))
    }
}

impl<T> Workload for LocalWorkload<T>
where
    T: pmr_mapreduce::Wire + Clone + Sync + Send + 'static,
{
    fn kind(&self) -> Kind {
        self.kind
    }

    fn pairs(&self) -> u64 {
        let v = self.store.len() as u64;
        v * (v - 1) / 2
    }

    fn concurrency(&self) -> usize {
        self.threads
    }

    fn input_bytes(&self) -> u64 {
        self.store.dataset_bytes().len() as u64
    }

    fn job(&self, traced: bool, _fresh: bool) -> Result<JobRun, String> {
        let mut job = self.job_for(Backend::Local { threads: self.threads });
        if traced {
            job = job.telemetry(Telemetry::enabled());
        }
        let (wall_s, run) = self.timed(job)?;
        Ok(JobRun { wall_s, report: run.report, mr: None })
    }

    fn worker_pids(&self) -> Vec<u32> {
        Vec::new()
    }

    fn probe_layers(&self, untraced_s: f64, traced: &JobRun, m: &mut Metrics, spans: &mut Spans) {
        let (probe, output) = layers::probe_pipeline(
            spans,
            self.store.elements(),
            self.scheme.as_ref(),
            self.kernel.as_ref(),
            self.filter.as_deref(),
            self.aggregator.as_ref(),
            self.threads,
            self.cost,
        );
        let probe_ok = check_bits(&output, &self.reference);
        // Single-threaded baseline: the same job on the sequential backend.
        let mut seq = Vec::new();
        for _ in 0..3 {
            spans.next_run();
            let id = spans.begin("baseline.sequential");
            let result = self.timed(self.job_for(Backend::Sequential));
            spans.end(id);
            m.check("sequential baseline", result.map(|(wall_s, _)| seq.push(wall_s)));
        }
        m.check("layer probe output", probe_ok);
        let survivors = self.reference.total_results() as f64 / 2.0;
        layers::record_pipeline(m, &probe, survivors, untraced_s, self.threads);
        let capacity_s = self.threads as f64 * untraced_s;
        m.put("ledger.unattributed_frac", 1.0 - probe.attributed_s() / capacity_s, "ratio");
        layers::record_scheme(m, spans, self.scheme.as_ref());
        layers::record_local(m, &traced.report, self.pairs(), untraced_s, &seq, self.threads);
        layers::record_absent_mr(m);
    }
}

/// The process workload: the paper's unfused two-job pipeline on the
/// design scheme over real worker processes.
struct ProcessWorkload {
    store: Arc<ElementStore<DenseVector>>,
    scheme: Arc<dyn DistributionScheme>,
    kernel: Arc<dyn BatchComp<DenseVector, f64>>,
    workers: usize,
    cluster: Cluster,
    reference: PairwiseOutput<f64>,
}

impl ProcessWorkload {
    /// Runs one job on `cluster`, timing `run()` only, then deletes the
    /// job's DFS files and seeded store so worker memory stays flat across
    /// jobs.
    fn run_on(&self, cluster: &Cluster) -> Result<(f64, PairwiseRun<f64>), String> {
        let options = MrPairwiseOptions::default();
        let dir = options.dfs_dir.clone();
        let kernel = Arc::clone(&self.kernel);
        let job = PairwiseJob::from_store(
            Arc::clone(&self.store),
            comp_fn(move |a: &DenseVector, b: &DenseVector| kernel.eval(a, b)),
        )
        .kernel_arc(Arc::clone(&self.kernel))
        .scheme_arc(Arc::clone(&self.scheme))
        .aggregator(ConcatSort)
        .mr_options(options)
        .fuse(false)
        .backend(Backend::Mr(cluster));
        let start = Instant::now();
        let result = job.run();
        let wall_s = start.elapsed().as_secs_f64();
        for path in cluster.dfs().list(&format!("{dir}/")) {
            cluster.dfs().delete(&path);
        }
        for node in 0..cluster.num_nodes() {
            let _ = cluster
                .transport()
                .store(NodeId(node as u32))
                .remove_prefix(&format!("seed/{dir}/"));
        }
        let run = result.map_err(|e| e.to_string())?;
        Ok((wall_s, run))
    }
}

impl Workload for ProcessWorkload {
    fn kind(&self) -> Kind {
        Kind::DesignMrProcess
    }

    fn pairs(&self) -> u64 {
        let v = self.store.len() as u64;
        v * (v - 1) / 2
    }

    fn concurrency(&self) -> usize {
        self.workers
    }

    fn input_bytes(&self) -> u64 {
        self.store.dataset_bytes().len() as u64
    }

    fn job(&self, traced: bool, fresh: bool) -> Result<JobRun, String> {
        let spawned =
            if traced || fresh { Some(spawn_cluster(self.workers, traced)?) } else { None };
        let cluster = spawned.as_ref().unwrap_or(&self.cluster);
        let (wall_s, run) = self.run_on(cluster)?;
        check_bits(&run.output, &self.reference)?;
        let mr = run.mr.into_iter().next().ok_or("MR run returned no run metrics")?;
        // On a healthy process run the bytes measured on the shuffle
        // sockets equal the engine's moved-shuffle counter exactly.
        if mr.wire.shuffle_bytes != mr.shuffle_moved_bytes {
            return Err(format!(
                "wire shuffle bytes {} != shuffle moved bytes {}",
                mr.wire.shuffle_bytes, mr.shuffle_moved_bytes
            ));
        }
        Ok(JobRun { wall_s, report: run.report, mr: Some(mr) })
    }

    fn worker_pids(&self) -> Vec<u32> {
        self.cluster.workers().iter().map(|w| w.pid).collect()
    }

    fn probe_layers(&self, untraced_s: f64, traced: &JobRun, m: &mut Metrics, spans: &mut Spans) {
        let (probe, output) = layers::probe_pipeline(
            spans,
            self.store.elements(),
            self.scheme.as_ref(),
            self.kernel.as_ref(),
            None,
            &ConcatSort,
            self.workers,
            layers::dense_cost,
        );
        m.check("layer probe output", check_bits(&output, &self.reference));
        let survivors = self.reference.total_results() as f64 / 2.0;
        layers::record_pipeline(m, &probe, survivors, untraced_s, self.workers);
        layers::record_scheme(m, spans, self.scheme.as_ref());
        layers::record_absent_local(m);
        layers::record_mr(m, traced, self.workers);
        layers::record_codec(
            m,
            spans,
            self.store.elements(),
            self.scheme.as_ref(),
            self.kernel.as_ref(),
        );
        layers::record_transport(m, spans, &self.cluster);
    }
}
