"""Run one workload of the modhilb benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark measures that checkout's
src/modhilb.  Every sample runs in a fresh worker process (worker.py).
With --trace 0, SETUP_SAMPLES - 1 workers only set up, then one worker
sets up and runs the timed ops; the end-to-end metrics are printed.
With --trace 1, one worker runs every round untraced and traced, and
the per-layer metrics are printed.  The line before the last holds the
environment and the run's details; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from statistics import median

from checkout import ROOT, use_checkout_source

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


def tail_latency(latencies, percentile: int) -> float:
    """Nearest-rank latency at the given whole percentile."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile * len(ordered) / 100))
    if len(ordered) - rank < 10:
        raise ValueError(f"fewer than ten ops beyond p{percentile} "
                         f"in a run of {len(ordered)}")
    return ordered[rank - 1]


def end_to_end(report: dict, setup_samples) -> dict:
    lat = report["latencies"]
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_ms.p50": (median(lat) * 1e3, "ms"),
        "op_ms.tail": (tail_latency(lat, report["tail_percentile"]) * 1e3, "ms"),
        "setup_s": (median(setup_samples), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def git_sha():
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != str(ROOT):
        return None
    return lines[1]


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one worker to completion; add its set-up time to its report."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {mode} worker ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        sys.exit(f"perfbench: {mode} worker exited with {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["ready_monotonic"] - start
    return report


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    use_checkout_source()
    deadline = time.monotonic() + DEADLINE_S

    setups = []
    if args.trace:
        report = spawn(args, "traced", deadline)
        metrics = report["per_layer"]
    else:
        setups = [spawn(args, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        report = spawn(args, "timed", deadline)
        setups.append(report["setup_s"])
        metrics = end_to_end(report, setups)

    failed = len(report["errors"])
    correct = (failed == 0 and report["oracle_ok"]
               and report.get("identical", True))
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": dict(report["env"], git_sha=git_sha()),
        "ops": report["attempted"], "tail_percentile": report["tail_percentile"],
        "fail_ratio": failed / report["attempted"], "errors": report["errors"][:5],
        "oracle_max_diff": report["oracle_diff"],
        "traced_equals_untraced": report.get("identical"),
        "setup_samples_s": setups, "per_kind": report["per_kind"],
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": bool(correct), "attempted": report["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
