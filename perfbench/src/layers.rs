//! Per-layer measurements for the traced run.
//!
//! Every probe times the benchmark's own calls into one layer's public
//! functions on the workload's actual inputs, inside a [`Spans`] span.
//! The program's own records (task spans, laps, job phases, `JobStats`,
//! `WireSnapshot`) are read from the traced job's report. A layer that
//! does not run on a workload reports 0 for each of its metrics.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use pmr_apps::{DenseVector, SparseVector};
use pmr_cluster::codec::{decode_record_stream, encode_record_stream};
use pmr_cluster::{Cluster, NodeId, WireSnapshot};
use pmr_core::runner::kernel::TILE_PAIRS;
use pmr_core::runner::{Accumulator, Aggregator, BatchComp, PairFilter, PairwiseOutput};
use pmr_core::scheme::{measure, DistributionScheme};
use pmr_obs::RunReport;

use crate::stats::median;
use crate::workloads::JobRun;

/// Bytes per MB in every `_mb` metric.
pub const MB: f64 = 1e6;

/// Metrics recorded in order, plus the outcome of every in-run check.
#[derive(Default)]
pub struct Metrics {
    /// `(name, value, unit)` in recording order.
    pub values: Vec<(String, f64, &'static str)>,
    /// Checks made (layer-probe outputs, baseline jobs).
    pub checks: u64,
    /// Messages of the checks that failed.
    pub failures: Vec<String>,
}

impl Metrics {
    /// Records one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.push((name.into(), value, unit));
    }

    /// Counts one check and remembers it when it failed.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.checks += 1;
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

/// One recorded span: a named interval, the span it ran inside, and the
/// run (job or probe pass) it belongs to.
struct SpanRec {
    name: &'static str,
    run: u64,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// In-memory span recorder for the benchmark's calls into each layer,
/// written out once when the run ends. A span's parent is the innermost
/// span open when it began.
pub struct Spans {
    epoch: Instant,
    run: u64,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder; times count from now.
    pub fn new() -> Spans {
        Spans { epoch: Instant::now(), run: 0, recs: Vec::new(), open: Vec::new() }
    }

    /// Starts a new run id; spans begun afterwards carry it.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Opens a span and returns its handle.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.recs.len();
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.recs.push(SpanRec {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span still open inside it); returns its
    /// duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.epoch.elapsed().as_secs_f64() * 1e6;
        while let Some(top) = self.open.pop() {
            self.recs[top].end_us = now;
            if top == id {
                break;
            }
        }
        (now - self.recs[id].start_us) / 1e6
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.recs.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_us\":{:.3},\
                 \"end_us\":{:.3}}}\n",
                s.name, s.run, s.start_us, s.end_us
            ));
        }
        std::fs::write(path, out)
    }
}

/// Computed cost of one dense squared-distance pair: a subtract, a
/// multiply and an add per dimension, and both operand vectors read.
pub fn dense_cost(a: &DenseVector, b: &DenseVector) -> (f64, f64) {
    let dim = a.0.len().min(b.0.len()) as f64;
    (3.0 * dim, 16.0 * dim)
}

/// Computed cost of one sparse dot product: a multiply and an add per
/// shared term, and both `(u32, f64)` entry lists read.
pub fn sparse_cost(a: &SparseVector, b: &SparseVector) -> (f64, f64) {
    let (x, y) = (&a.0, &b.0);
    let (mut i, mut j, mut shared) = (0, 0, 0u64);
    while i < x.len() && j < y.len() {
        match x[i].0.cmp(&y[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    (2.0 * shared as f64, 12.0 * (x.len() + y.len()) as f64)
}

/// Layer times and counts of one single-threaded pass over a job's work.
#[derive(Default)]
pub struct Pipeline {
    /// `for_each_pair` into a buffer, seconds.
    pub enum_s: f64,
    /// `PairFilter::is_candidate`, seconds.
    pub filter_s: f64,
    /// Gathering tile operands, seconds.
    pub gather_s: f64,
    /// `BatchComp::eval_batch` on 1024-pair tiles, seconds.
    pub kernel_s: f64,
    /// `Aggregator::fold`, seconds.
    pub fold_s: f64,
    /// `DecomposableAggregator::merge` of the per-worker accumulators, seconds.
    pub merge_s: f64,
    /// `Aggregator::finish`, seconds.
    pub finish_s: f64,
    /// Pairs the scheme enumerated.
    pub candidates: u64,
    /// Pairs the filter admitted (all of them without a filter).
    pub admitted: u64,
    /// Fold calls.
    pub folds: u64,
    /// Computed floating-point operations over the admitted pairs.
    pub flops: f64,
    /// Computed operand bytes over the admitted pairs.
    pub bytes: f64,
    /// Whether a filter ran.
    pub filtered: bool,
}

impl Pipeline {
    /// Seconds covered by the layer spans.
    pub fn attributed_s(&self) -> f64 {
        self.enum_s
            + self.filter_s
            + self.gather_s
            + self.kernel_s
            + self.fold_s
            + self.merge_s
            + self.finish_s
    }
}

/// Walks every task of `scheme` on one thread, layer by layer: enumerate
/// the pairs, filter them, then per 1024-pair tile gather operands,
/// evaluate and fold the results into `parts` accumulator sets (task `t` goes
/// to set `t % parts`, as tasks spread over workers), then merge the sets
/// and finish every element. Returns the layer tallies and the finished
/// output, which must equal the workload's reference.
#[allow(clippy::too_many_arguments)]
pub fn probe_pipeline<T>(
    spans: &mut Spans,
    payloads: &[T],
    scheme: &dyn DistributionScheme,
    kernel: &dyn BatchComp<T, f64>,
    filter: Option<&dyn PairFilter>,
    aggregator: &dyn Aggregator<f64>,
    parts: usize,
    cost: fn(&T, &T) -> (f64, f64),
) -> (Pipeline, PairwiseOutput<f64>) {
    spans.next_run();
    let root = spans.begin("probe.pipeline");
    let decomposable = aggregator.decomposable();
    let parts = if decomposable.is_some() { parts.max(1) } else { 1 };
    let v = payloads.len() as u64;
    let mut accs: Vec<Vec<Accumulator<f64>>> =
        (0..parts).map(|_| (0..v).map(|id| aggregator.init(id)).collect()).collect();
    let mut p = Pipeline { filtered: filter.is_some(), ..Pipeline::default() };
    let (mut buf, mut admitted) = (Vec::new(), Vec::new());
    let (mut xs, mut ys): (Vec<&T>, Vec<&T>) = (Vec::new(), Vec::new());
    let mut out = Vec::with_capacity(TILE_PAIRS);
    for t in 0..scheme.num_tasks() {
        let task = spans.begin("task");
        buf.clear();
        let s = spans.begin("scheme.enumerate");
        scheme.for_each_pair(t, &mut |a, b| buf.push((a, b)));
        p.enum_s += spans.end(s);
        p.candidates += buf.len() as u64;
        let pairs: &[(u64, u64)] = match filter {
            Some(f) => {
                admitted.clear();
                let s = spans.begin("filter");
                for &(a, b) in &buf {
                    if f.is_candidate(a, b) {
                        admitted.push((a, b));
                    }
                }
                p.filter_s += spans.end(s);
                &admitted
            }
            None => &buf,
        };
        p.admitted += pairs.len() as u64;
        let set = &mut accs[t as usize % parts];
        // Tile by tile, as the runners flush: gather operands, evaluate,
        // fold the results while they are cache-hot.
        for tile in pairs.chunks(TILE_PAIRS) {
            let s = spans.begin("tile.gather");
            xs.clear();
            ys.clear();
            for &(a, b) in tile {
                xs.push(&payloads[a as usize]);
                ys.push(&payloads[b as usize]);
            }
            p.gather_s += spans.end(s);
            let s = spans.begin("kernel");
            out.clear();
            kernel.eval_batch(&xs, &ys, &mut out);
            p.kernel_s += spans.end(s);
            let s = spans.begin("agg.fold");
            for (&(a, b), &r) in tile.iter().zip(&out) {
                aggregator.fold(&mut set[a as usize], b, r);
                aggregator.fold(&mut set[b as usize], a, r);
            }
            p.fold_s += spans.end(s);
            p.folds += 2 * tile.len() as u64;
            for (x, y) in xs.iter().zip(&ys) {
                let (f, b) = cost(x, y);
                p.flops += f;
                p.bytes += b;
            }
        }
        spans.end(task);
    }
    let s = spans.begin("agg.merge");
    let mut sets = accs.into_iter();
    let mut merged = sets.next().expect("at least one accumulator set");
    if let Some(dec) = decomposable {
        for set in sets {
            for (acc, other) in merged.iter_mut().zip(set) {
                dec.merge(acc, other);
            }
        }
    }
    p.merge_s = spans.end(s);
    let s = spans.begin("agg.finish");
    let per_element =
        merged.into_iter().map(|acc| (acc.element(), aggregator.finish(acc))).collect();
    p.finish_s = spans.end(s);
    spans.end(root);
    (p, PairwiseOutput { per_element })
}

/// Filter, kernel and aggregator metrics of a pipeline probe. `survivors`
/// are the pairs in the reference output; `untraced_s` is the median
/// untraced job wall time at `concurrency` threads or workers.
pub fn record_pipeline(
    m: &mut Metrics,
    p: &Pipeline,
    survivors: f64,
    untraced_s: f64,
    concurrency: usize,
) {
    let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
    if p.filtered {
        m.put("filter.ns_per_candidate", per(p.filter_s * 1e9, p.candidates), "ns");
        m.put("filter.candidates", p.candidates as f64, "count");
        m.put("filter.admitted", p.admitted as f64, "count");
        m.put("filter.admit_ratio", per(p.admitted as f64, p.candidates), "ratio");
        m.put("filter.precision", per(survivors, p.admitted), "ratio");
    } else {
        for (name, unit) in [
            ("filter.ns_per_candidate", "ns"),
            ("filter.candidates", "count"),
            ("filter.admitted", "count"),
            ("filter.admit_ratio", "ratio"),
            ("filter.precision", "ratio"),
        ] {
            m.put(name, 0.0, unit);
        }
    }
    let ceiling = if p.kernel_s > 0.0 { p.admitted as f64 / p.kernel_s } else { 0.0 };
    m.put("kernel.ns_per_pair", per(p.kernel_s * 1e9, p.admitted), "ns");
    m.put("kernel.pairs", p.admitted as f64, "count");
    m.put("kernel.flops_per_pair", per(p.flops, p.admitted), "flop");
    m.put("kernel.bytes_per_pair", per(p.bytes, p.admitted), "B");
    m.put("kernel.ceiling_pairs_per_s", ceiling, "pairs/s");
    m.put(
        "kernel.ceiling_frac",
        p.admitted as f64 / untraced_s / (concurrency as f64 * ceiling),
        "ratio",
    );
    m.put("agg.ns_per_fold", per(p.fold_s * 1e9, p.folds), "ns");
    m.put("agg.folds", p.folds as f64, "count");
    m.put("agg.merge_s", p.merge_s, "s");
    m.put("agg.finish_s", p.finish_s, "s");
}

/// Scheme enumeration into a counting sink (median of three passes on
/// one thread) and the scheme's measured shape.
pub fn record_scheme(m: &mut Metrics, spans: &mut Spans, scheme: &dyn DistributionScheme) {
    spans.next_run();
    let root = spans.begin("probe.scheme");
    let mut times = Vec::new();
    let mut pairs = 0u64;
    for _ in 0..3 {
        let s = spans.begin("scheme.count");
        let mut n = 0u64;
        for t in 0..scheme.num_tasks() {
            scheme.for_each_pair(t, &mut |a, b| {
                black_box((a, b));
                n += 1;
            });
        }
        times.push(spans.end(s));
        pairs = n;
    }
    let s = spans.begin("scheme.measure");
    let shape = measure(scheme);
    spans.end(s);
    spans.end(root);
    m.put("scheme.enum_ns_per_pair", median(&times) * 1e9 / pairs.max(1) as f64, "ns");
    m.put("scheme.pairs", shape.total_pairs as f64, "count");
    m.put("scheme.tasks", scheme.num_tasks() as f64, "count");
    m.put("scheme.replication", shape.replication_factor, "x");
    m.put("scheme.max_ws", shape.max_working_set as f64, "count");
}

/// Local-runner metrics from the traced job's task spans and phases, and
/// the single-threaded sequential baseline (`seq_s`: its wall times).
pub fn record_local(
    m: &mut Metrics,
    report: &RunReport,
    pairs: u64,
    untraced_s: f64,
    seq_s: &[f64],
    threads: usize,
) {
    let spans: Vec<_> = report.task_spans.iter().filter(|s| s.job == "local").collect();
    let workers = spans.iter().map(|s| s.node).max().map_or(0, |n| n as usize + 1);
    let mut busy = vec![0u64; workers];
    for s in &spans {
        busy[s.node as usize] += s.end_us.saturating_sub(s.start_us);
    }
    let total_us: u64 = busy.iter().sum();
    let evaluate_us: u64 = report
        .job_phases
        .iter()
        .filter(|p| p.job == "local" && p.phase == "evaluate")
        .map(|p| p.end_us.saturating_sub(p.start_us))
        .sum();
    let capacity = (workers as u64 * evaluate_us) as f64;
    let mean = total_us as f64 / workers.max(1) as f64;
    let max = busy.iter().copied().max().unwrap_or(0) as f64;
    let seq_pps = if seq_s.is_empty() { 0.0 } else { pairs as f64 / median(seq_s) };
    m.put("local.busy_s", total_us as f64 / 1e6, "s");
    m.put(
        "local.idle_frac",
        if capacity > 0.0 { 1.0 - total_us as f64 / capacity } else { 0.0 },
        "ratio",
    );
    m.put("local.straggler_ratio", if mean > 0.0 { max / mean } else { 0.0 }, "ratio");
    m.put("local.tasks", spans.len() as f64, "count");
    m.put("local.sequential_pairs_per_s", seq_pps, "pairs/s");
    m.put(
        "local.scaling_eff",
        if seq_pps > 0.0 { pairs as f64 / untraced_s / (threads as f64 * seq_pps) } else { 0.0 },
        "ratio",
    );
}

/// Local-runner metrics on a workload that does not run it.
pub fn record_absent_local(m: &mut Metrics) {
    for (name, unit) in [
        ("local.busy_s", "s"),
        ("local.idle_frac", "ratio"),
        ("local.straggler_ratio", "ratio"),
        ("local.tasks", "count"),
        ("local.sequential_pairs_per_s", "pairs/s"),
        ("local.scaling_eff", "ratio"),
    ] {
        m.put(name, 0.0, unit);
    }
}

/// The MR phase laps the engine records on its task spans.
const MR_LAPS: [&str; 4] = ["map", "sort", "shuffle", "reduce"];

/// Engine metrics of the traced MR job, and its ledger: the share of job
/// wall time not covered by the task laps (spread over `workers` slots)
/// plus the coordinator's I/O phases.
pub fn record_mr(m: &mut Metrics, traced: &JobRun, workers: usize) {
    let Some(mr) = &traced.mr else {
        record_absent_mr(m);
        return;
    };
    let report = &traced.report;
    m.put("mr.j1.wall_s", mr.job1.stats.wall_time_us as f64 / 1e6, "s");
    m.put("mr.j2.wall_s", mr.job2.as_ref().map_or(0.0, |j| j.stats.wall_time_us as f64 / 1e6), "s");
    let mut all_laps_us = 0u64;
    for (job, tag) in [("j1", "-j1-"), ("j2", "-j2-")] {
        let mut sums = [0u64; MR_LAPS.len()];
        for span in report.task_spans.iter().filter(|s| s.job.contains(tag)) {
            for &(phase, us) in &span.phases {
                all_laps_us += us;
                if let Some(i) = MR_LAPS.iter().position(|&l| l == phase) {
                    sums[i] += us;
                }
            }
        }
        for (lap, us) in MR_LAPS.iter().zip(sums) {
            m.put(format!("mr.{job}.{lap}_s"), us as f64 / 1e6, "s");
        }
    }
    m.put("mr.shuffle_moved_mb", mr.shuffle_moved_bytes as f64 / MB, "MB");
    m.put("mr.shuffle_charged_mb", mr.shuffle_bytes as f64 / MB, "MB");
    m.put("mr.replicated_records", mr.replicated_records as f64, "count");
    let io_us: u64 = report
        .job_phases
        .iter()
        .filter(|p| p.job.ends_with("-io"))
        .map(|p| p.end_us.saturating_sub(p.start_us))
        .sum();
    let attributed_s = (all_laps_us as f64 / workers.max(1) as f64 + io_us as f64) / 1e6;
    m.put("ledger.unattributed_frac", 1.0 - attributed_s / traced.wall_s, "ratio");
}

/// Engine, codec and transport-probe metrics on a workload without MR.
pub fn record_absent_mr(m: &mut Metrics) {
    m.put("mr.j1.wall_s", 0.0, "s");
    m.put("mr.j2.wall_s", 0.0, "s");
    for job in ["j1", "j2"] {
        for lap in MR_LAPS {
            m.put(format!("mr.{job}.{lap}_s"), 0.0, "s");
        }
    }
    for (name, unit) in [
        ("mr.shuffle_moved_mb", "MB"),
        ("mr.shuffle_charged_mb", "MB"),
        ("mr.replicated_records", "count"),
        ("codec.encode_mb_per_s", "MB/s"),
        ("codec.decode_mb_per_s", "MB/s"),
    ] {
        m.put(name, 0.0, unit);
    }
    for (_, suffix) in FRAME_SIZES {
        m.put(format!("transport.put_us_p50{suffix}"), 0.0, "us");
        m.put(format!("transport.get_us_p50{suffix}"), 0.0, "us");
    }
}

/// Record streams of the two MR jobs, as `encode_record_stream` sees
/// them: job 1 maps `(working set, element id)`; job 2 maps each element
/// copy's `(element id, [(other, result)])` partial list.
type Job2Record = (u64, Vec<(u64, f64)>);

/// Codec throughput on the job-1 and job-2 record shapes of this
/// workload: median of five encode and decode passes over both streams.
pub fn record_codec(
    m: &mut Metrics,
    spans: &mut Spans,
    payloads: &[DenseVector],
    scheme: &dyn DistributionScheme,
    kernel: &dyn BatchComp<DenseVector, f64>,
) {
    let v = payloads.len() as u64;
    let job1: Vec<(u64, u64)> =
        (0..v).flat_map(|id| scheme.subsets_of(id).into_iter().map(move |ws| (ws, id))).collect();
    let mut job2: Vec<Job2Record> = Vec::new();
    for t in 0..scheme.num_tasks() {
        let ws = scheme.working_set(t);
        let mut partial: Vec<Vec<(u64, f64)>> = vec![Vec::new(); ws.len()];
        let pos = |id: u64| ws.binary_search(&id).expect("pair inside its working set");
        scheme.for_each_pair(t, &mut |a, b| {
            let r = kernel.eval(&payloads[a as usize], &payloads[b as usize]);
            partial[pos(a)].push((b, r));
            partial[pos(b)].push((a, r));
        });
        job2.extend(ws.iter().copied().zip(partial));
    }
    spans.next_run();
    let root = spans.begin("probe.codec");
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut bytes = 0usize;
    for _ in 0..5 {
        let (j1, j2) = (job1.clone(), job2.clone());
        let s = spans.begin("codec.encode");
        let (b1, _) = encode_record_stream(j1);
        let (b2, _) = encode_record_stream(j2);
        enc.push(spans.end(s));
        bytes = b1.len() + b2.len();
        let s = spans.begin("codec.decode");
        let d1 = decode_record_stream::<u64, u64>(b1).map(|r| r.len());
        let d2 = decode_record_stream::<u64, Vec<(u64, f64)>>(b2).map(|r| r.len());
        dec.push(spans.end(s));
        let decoded = d1.and_then(|n1| d2.map(|n2| (n1, n2)));
        m.check(
            "codec round trip",
            match decoded {
                Ok((n1, n2)) if n1 == job1.len() && n2 == job2.len() => Ok(()),
                Ok(_) => Err("record count changed".to_string()),
                Err(e) => Err(e.to_string()),
            },
        );
    }
    spans.end(root);
    m.put("codec.encode_mb_per_s", bytes as f64 / MB / median(&enc), "MB/s");
    m.put("codec.decode_mb_per_s", bytes as f64 / MB / median(&dec), "MB/s");
}

/// Frame sizes of the transport probe, with their metric-name suffix; the
/// unsuffixed pair is the 64 KiB frame.
const FRAME_SIZES: [(usize, &str); 3] = [(4 << 10, ".4k"), (64 << 10, ""), (1 << 20, ".1m")];

/// `NodeStore::put` and `get` round trips to one worker process at each
/// frame size: median over 31 of each.
pub fn record_transport(m: &mut Metrics, spans: &mut Spans, cluster: &Cluster) {
    spans.next_run();
    let root = spans.begin("probe.transport");
    let store = cluster.transport().store(NodeId(0));
    let name = "perfbench/probe";
    for (size, suffix) in FRAME_SIZES {
        let data = Bytes::from(vec![0xA5u8; size]);
        let (mut puts, mut gets) = (Vec::new(), Vec::new());
        for _ in 0..31 {
            let s = spans.begin("transport.put");
            let put = store.put(name, data.clone());
            puts.push(spans.end(s));
            let s = spans.begin("transport.get");
            let got = store.get(name);
            gets.push(spans.end(s));
            m.check(
                "transport round trip",
                match (put, got) {
                    (Ok(()), Ok(b)) if b.len() == size => Ok(()),
                    (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
                    _ => Err("frame length changed".to_string()),
                },
            );
        }
        m.put(format!("transport.put_us_p50{suffix}"), median(&puts) * 1e6, "us");
        m.put(format!("transport.get_us_p50{suffix}"), median(&gets) * 1e6, "us");
    }
    let _ = store.remove(name);
    spans.end(root);
}

/// Physically moved bytes per job, by wire class (all 0 in-process).
pub fn record_wire(m: &mut Metrics, wire: &WireSnapshot) {
    m.put("wire_mb_per_job", wire.total_bytes() as f64 / MB, "MB");
    m.put("transport.frames", wire.frames as f64, "count");
    for (class, bytes) in wire.series() {
        m.put(format!("transport.wire_mb.{class}"), bytes as f64 / MB, "MB");
    }
}
