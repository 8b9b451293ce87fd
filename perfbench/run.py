"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Runs from the root of a source checkout; the library is imported from
src/.  Set-up is timed several times, each in a fresh process from
process start to the first timed operation, and its median is reported.
The last of those processes goes on to run the timed phase and the
oracles.  Worker processes get BLAS pinned to one thread.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; with --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones.  The lines before it
name each metric with its unit.  `--workload all` runs every workload in
turn and ends with one JSON object per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-defaults", "series-warm", "ball-cold")
# Set-up is repeated in fresh processes: at least SETUP_MIN_RUNS times, and
# up to SETUP_MAX_RUNS while the set-ups so far took under SETUP_BUDGET_S.
SETUP_MIN_RUNS = 3
SETUP_MAX_RUNS = 7
SETUP_BUDGET_S = 10.0
RUN_DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def _worker_env():
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def _spawn(args, setup_only, deadline):
    """Start one worker; return (set-up seconds, parsed result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans-out",
                str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, text=True)
    # Kill the worker if it outlives the run's deadline.
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}"
                         + (" at the deadline" if proc.returncode < 0 else ""))
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def run_workload(args):
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = []
    while not args.trace and len(setups) < SETUP_MAX_RUNS - 1 and (
            len(setups) < SETUP_MIN_RUNS - 1 or sum(setups) < SETUP_BUDGET_S):
        setups.append(_spawn(args, True, deadline)[0])
    setup_s, res = _spawn(args, False, deadline)
    setups.append(setup_s)
    metrics = dict(res["metrics"])
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups),
                               "unit": "s"}, **metrics}
    for line in res["failures"]:
        print(f"failed operation: {line}", file=sys.stderr)
    for line in res["problems"]:
        print(f"oracle: {line}", file=sys.stderr)
    result = {"correct": res["n_problems"] == 0,
              "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": metrics}
    return result, res["tail"]


def _print_table(name, seed, result, tail):
    error_rate = result["failed"] / result["attempted"]
    print(f"== {name} (seed {seed}): {result['attempted']} operations, "
          f"{result['failed']} failed, error_rate {error_rate:.4f}, "
          f"oracle {'ok' if result['correct'] else 'MISMATCH'}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:36s} {m['value']:>16.6g} {m['unit']}")
    if tail is None:
        return
    if tail["above"] >= 10:
        print(f"  {'op_p90_s (not gated)':36s} {tail['op_p90_s']:>16.6g} s"
              f"   {tail['samples']} samples, {tail['above']} above")
    else:
        print(f"  op_p90_s not reported: {tail['samples']} samples, "
              f"{tail['above']} above p90 (fewer than 10)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "discforms" / "__init__.py").is_file():
        print(f"error: no discforms sources under {ROOT / 'src'}; run from "
              f"a source checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, tail = run_workload(
                argparse.Namespace(**{**vars(args), "workload": name}))
            _print_table(name, args.seed, result, tail)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all"
                     else results[args.workload]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
