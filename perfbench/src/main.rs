//! `perfbench` — the repository benchmark.
//!
//! ```sh
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from `--seed` once, sets the workload
//! up several times on them (reporting the median set-up time), then runs
//! jobs in a closed loop — one client, the next job starting when the
//! previous one has finished — for `--seconds`, checking every output
//! bit-for-bit against a reference built in set-up. With `--trace 0` the
//! jobs are untraced and the end-to-end metrics are printed, timed from
//! the jobs the hypervisor stole no CPU time from; with `--trace 1`
//! untraced and traced jobs alternate and the per-layer metrics are
//! printed. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! The process workload needs the `pmr-worker` binary, found through
//! `PMR_WORKER_BIN`; `run.py` builds both binaries and sets it.

mod layers;
mod stats;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use layers::{Metrics, Spans, MB};
use stats::{median, peak_rss_bytes, reset_peak_rss, stolen_s, tail};
use workloads::{generate, setup, JobRun, Kind, SetupCost, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Samples that must lie beyond the reported tail percentile.
const TAIL_BEYOND: u64 = 10;
/// A job during which the hypervisor stole more than this share of the
/// machine's CPU time (`nproc` × its wall time) is left out of the timing
/// metrics: on a shared host such spells slowed whole runs by up to 2.5×.
const STEAL_MAX_FRAC: f64 = 0.02;
/// Jobs a run must keep to time from the unstolen ones only; with fewer,
/// every job is timed.
const MIN_CLEAN_JOBS: usize = 2 * TAIL_BEYOND as usize;
/// Untraced/traced job pairs a traced run attempts at least.
const MIN_TRACE_PAIRS: u64 = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Tally of attempted and failed jobs and checks.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Runs one job, counting it; a job fails when `run()` errs, panics,
    /// or its output differs from the reference.
    fn job(&mut self, w: &dyn Workload, traced: bool, fresh: bool) -> Option<JobRun> {
        self.attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(|| w.job(traced, fresh)))
            .unwrap_or_else(|_| Err("job panicked".to_string()));
        match result {
            Ok(run) => Some(run),
            Err(e) => {
                eprintln!("perfbench: {} job failed: {e}", w.kind().name());
                self.failed += 1;
                None
            }
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.kind == Kind::DesignMrProcess {
        let bin = std::env::var("PMR_WORKER_BIN").map_err(|_| "PMR_WORKER_BIN is not set")?;
        if !std::path::Path::new(&bin).is_file() {
            return Err(format!("PMR_WORKER_BIN names no file: {bin}"));
        }
    }

    let inputs = generate(args.kind, args.seed);
    // Peak memory counts from here: set-up and jobs, not input generation.
    reset_peak_rss(std::process::id());
    let mut costs: Vec<SetupCost> = Vec::new();
    let mut current: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous set-up down (workers included) before the next.
        drop(current.take());
        let (w, cost) =
            setup(args.kind, &inputs, threads).map_err(|e| format!("set-up failed: {e}"))?;
        costs.push(cost);
        current = Some(w);
    }
    let w = current.expect("at least one set-up");
    let setup_of = |f: fn(&SetupCost) -> f64| median(&costs.iter().map(f).collect::<Vec<_>>());

    println!(
        "machine: {{\"nproc\": {threads}, \"concurrency\": {}, \"rustc\": \"{}\", \"cpu\": \"{}\", \
         \"llc_bytes\": {}, \"input_bytes\": {}}}",
        w.concurrency(),
        std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        cpu_model(),
        llc_bytes(),
        w.input_bytes(),
    );

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    if args.trace {
        let mut spans = Spans::new();
        let (mut untraced, mut traced): (Vec<JobRun>, Vec<JobRun>) = (Vec::new(), Vec::new());
        // Alternate untraced and traced jobs (fresh workers for both on the
        // process workload) so the overhead ratio compares like with like.
        while Instant::now() < deadline || tally.attempted < 2 * MIN_TRACE_PAIRS {
            for is_traced in [false, true] {
                spans.next_run();
                let id = spans.begin(if is_traced { "job.traced" } else { "job.untraced" });
                let run = tally.job(w.as_ref(), is_traced, true);
                spans.end(id);
                if let Some(run) = run {
                    if is_traced { &mut traced } else { &mut untraced }.push(run);
                }
            }
        }
        if untraced.is_empty() || traced.is_empty() {
            return Err("no traced or untraced job succeeded".into());
        }
        let walls = |runs: &[JobRun]| runs.iter().map(|r| r.wall_s).collect::<Vec<_>>();
        let (untraced_s, traced_s) = (median(&walls(&untraced)), median(&walls(&traced)));
        traced.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        let median_traced = &traced[traced.len() / 2];
        w.probe_layers(untraced_s, median_traced, &mut metrics, &mut spans);
        metrics.put("filter.build_s", setup_of(|c| c.filter_build_s), "s");
        metrics.put("store.ingest_s", setup_of(|c| c.ingest_s), "s");
        metrics.put("store.dataset_mb", w.input_bytes() as f64 / MB, "MB");
        let wire = untraced[0].mr.as_ref().map(|mr| mr.wire).unwrap_or_default();
        layers::record_wire(&mut metrics, &wire);
        metrics.put("obs.trace_overhead_frac", traced_s / untraced_s - 1.0, "ratio");
        std::fs::create_dir_all(".bench_out").map_err(|e| e.to_string())?;
        let path = format!(".bench_out/{}-seed{}.spans.jsonl", args.kind.name(), args.seed);
        spans.write_jsonl(std::path::Path::new(&path)).map_err(|e| e.to_string())?;
        println!(
            "{}: {} untraced and {} traced jobs, spans in {path}",
            args.kind.name(),
            untraced.len(),
            traced.len()
        );
    } else {
        let mut walls = Vec::new();
        let mut wire_bytes = Vec::new();
        let mut pids = w.worker_pids();
        pids.push(std::process::id());
        let peak_rss = || pids.iter().map(|&pid| peak_rss_bytes(pid).unwrap_or(0)).sum::<u64>();
        let setup_rss = peak_rss() as f64;
        // Peak memory per job: the high-water marks are reset before each
        // job, so the set-up's peak is left out of it.
        let mut job_rss = Vec::new();
        let mut stolen = Vec::new();
        while Instant::now() < deadline || tally.attempted < TAIL_BEYOND + 1 {
            pids.iter().for_each(|&pid| reset_peak_rss(pid));
            let stolen_before = stolen_s();
            if let Some(run) = tally.job(w.as_ref(), false, false) {
                walls.push(run.wall_s);
                stolen.push(stolen_s() - stolen_before);
                wire_bytes.push(run.mr.map_or(0, |mr| mr.wire.total_bytes()) as f64);
                job_rss.push(peak_rss() as f64);
            }
        }
        // Every job's wall time and the CPU time stolen during it, in run
        // order.
        std::fs::create_dir_all(".bench_out").map_err(|e| e.to_string())?;
        let path = format!(".bench_out/{}-seed{}.jobs.txt", args.kind.name(), args.seed);
        let lines: String =
            walls.iter().zip(&stolen).map(|(s, st)| format!("{s} {st}\n")).collect();
        std::fs::write(&path, lines).map_err(|e| e.to_string())?;
        // The timing metrics come from the jobs the hypervisor left alone,
        // when a run has enough of them (see `STEAL_MAX_FRAC`).
        let clean: Vec<f64> = walls
            .iter()
            .zip(&stolen)
            .filter(|(wall, st)| **st <= STEAL_MAX_FRAC * threads as f64 * **wall)
            .map(|(wall, _)| *wall)
            .collect();
        let all_jobs = walls.len();
        if clean.len() >= MIN_CLEAN_JOBS {
            walls = clean;
        }
        let rss = median(&job_rss);
        let max_job_rss = job_rss.iter().copied().fold(0.0, f64::max);
        let (tail_s, tail_pct) = tail(&walls, TAIL_BEYOND as usize);
        let pairs_per_s = if walls.is_empty() { 0.0 } else { w.pairs() as f64 / median(&walls) };
        let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
        let mut sorted = walls.clone();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| sorted.get(((sorted.len() as f64 - 1.0) * q).round() as usize);
        if let (Some(lo), Some(q1), Some(q3), Some(hi)) = (at(0.0), at(0.25), at(0.75), at(1.0)) {
            println!(
                "job_s: min={lo:.6} q1={q1:.6} median={:.6} q3={q3:.6} max={hi:.6}",
                median(&walls)
            );
        }
        println!(
            "{}: {} jobs ({} failed, {} timed of {all_jobs} with {:.2} s stolen); \
             pairs_per_s={pairs_per_s:.0} job_s_tail={tail_s:.6} (p{tail_pct:.1}) setup_s={:.6} \
             peak_rss_mb={:.3} (max job {:.3}, set-up {:.3}) wire_mb_per_job={:.6} \
             error_rate={error_rate}",
            args.kind.name(),
            tally.attempted,
            tally.failed,
            walls.len(),
            stolen.iter().sum::<f64>(),
            setup_of(|c| c.total_s),
            rss / MB,
            max_job_rss / MB,
            setup_rss / MB,
            median(&wire_bytes) / MB,
        );
        metrics.put("pairs_per_s", pairs_per_s, "pairs/s");
        metrics.put("job_s_tail", tail_s, "s");
        metrics.put("setup_s", setup_of(|c| c.total_s), "s");
        metrics.put("peak_rss_mb", rss / MB, "MB");
    }
    drop(w);

    for failure in &metrics.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let attempted = tally.attempted + metrics.checks;
    let failed = tally.failed + metrics.failures.len() as u64;
    let body: Vec<String> = metrics
        .values
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}

/// The CPU model name, from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the highest-level cache of CPU 0, in bytes (0 when unknown).
fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().unwrap_or(0) * 1024,
            None => size.strip_suffix('M').and_then(|m| m.parse::<u64>().ok()).unwrap_or(0) << 20,
        };
        if level > best.0 {
            best = (level, bytes);
        }
    }
    best.1
}
