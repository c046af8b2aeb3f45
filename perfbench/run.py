#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` binary and the
`pmr-worker` binary it spawns from source (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs one closed-loop measurement. Everything the
build and run write stays inside the repository directory. Build output
goes to stderr; standard output carries the benchmark's report, whose
last line is the JSON result. The result is printed only when its metric
names are exactly the ones `BENCHMARK.json` declares for the mode.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# Headroom under the 180 s limit for one run, build excluded.
RUN_TIMEOUT_S = 170


def build(env):
    """Builds both binaries; returns False when cargo fails."""
    for extra in (["--bin", "perfbench"], ["-p", "pmr-cluster", "--bin", "pmr-worker"]):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_bench(cmd, env):
    """Runs the benchmark in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, preexec_fn=os.setsid)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(out.decode(errors="replace"))
        print(f"perfbench: exited with code {proc.returncode}", file=sys.stderr)
        return None
    return out.decode()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    env["PERFBENCH_RUSTC"] = rustc.stdout.strip() or "unknown"
    env["PMR_WORKER_BIN"] = os.path.join(target, "release", "pmr-worker")
    # Worker sockets go under a short relative directory: unix socket paths
    # are limited to about 100 bytes, and the checkout path may be long.
    os.makedirs(".bench_tmp", exist_ok=True)
    env["TMPDIR"] = ".bench_tmp"
    # The in-process workloads spawn fresh worker threads for every job.
    # With glibc's one malloc arena per thread, the arenas those threads
    # land in decide what stays resident, and peak_rss_mb on
    # dense-topk-local read about 20 MB or about 24.4 MB from run to run.
    # One arena removes that at no measured throughput cost. The process
    # workload keeps the default: on one arena it loses half its throughput.
    if args.workload != "design-mr-process":
        env["MALLOC_ARENA_MAX"] = "1"

    cmd = [os.path.join(target, "release", "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = run_bench(cmd, env)
    if out is None:
        return 1
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        names = set(result["metrics"])
    except (ValueError, KeyError, TypeError):
        print("perfbench: last line is not a result", file=sys.stderr)
        return 1
    want = expected_metrics(args.trace)
    if names != want:
        print(f"perfbench: metrics differ from BENCHMARK.json: missing {sorted(want - names)}, "
              f"extra {sorted(names - want)}", file=sys.stderr)
        return 1
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
