"""One workload process: set up, warm up, run the ops, print one JSON line.

run.py starts this script in a fresh interpreter for every sample:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|timed|traced

Every mode imports modhilb, generates the workload's op list, asserts
that no FFT op aliases, and runs the first op once untimed; the moment
that ends is reported as ready_monotonic, from which run.py derives the
set-up time.  "setup" stops there.  "timed" then runs whole rounds of
ops until S seconds have passed and the workload's minimum round count
is reached.  "traced" runs every round twice, untraced and under the
Tracer, for S seconds in all, and reports per-layer metrics.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from collections import defaultdict
from statistics import median

from checkout import use_checkout_source


def peak_rss_mb():
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return rss / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name,
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", nproc)),
            "longdouble_precision": int(np.finfo(np.longdouble).precision),
            "platform": platform.platform(), "nproc": nproc}


def per_kind(ops, records):
    lat = defaultdict(list)
    for op, (latency, _, _) in zip(ops, records):
        lat[op.label].append(latency)
    return {label: {"ops": len(v), "median_ms": median(v) * 1e3}
            for label, v in lat.items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = ap.parse_args()

    use_checkout_source()
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    ops = wl.make_ops(args.seed, wl.max_rounds)
    workloads.check_rings(ops)
    workloads.run_one(ops[0])
    report = {"ready_monotonic": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(report))
        return

    if args.mode == "timed":
        records = workloads.run_rounds(ops, wl.round_size, args.seconds,
                                       wl.min_rounds)
        report["peak_rss_mb"] = peak_rss_mb()
        report["latencies"] = [r[0] for r in records]
        report["per_kind"] = per_kind(ops, records)
    else:
        from spans import Tracer

        plain, traced = [], []
        tracer = Tracer()
        start = time.perf_counter()
        for r in range(wl.max_rounds):
            if r and time.perf_counter() - start >= args.seconds:
                break
            batch = ops[r * wl.round_size:(r + 1) * wl.round_size]
            # each round runs untraced and traced, alternating which goes
            # first, so that warm caches and drift cancel out of the overhead
            for traced_turn in ((False, True) if r % 2 == 0 else (True, False)):
                if traced_turn:
                    with tracer:
                        traced.extend(workloads.run_one(op) for op in batch)
                else:
                    plain.extend(workloads.run_one(op) for op in batch)
        n = len(plain)
        plain_s = sum(r[0] for r in plain)
        traced_s = sum(r[0] for r in traced)
        layers = tracer.metrics(n)
        layers["trace.overhead_s"] = ((traced_s - plain_s) / n, "s/op")
        layers["trace.coverage"] = (tracer.top_s / traced_s, "ratio")
        report["per_layer"] = layers
        report["identical"] = [r[1] for r in plain] == [r[1] for r in traced]
        report["per_kind"] = per_kind(ops, plain)
        records = plain + traced
    report["tail_percentile"] = wl.tail_percentile
    report["errors"] = [r[2] for r in records if r[2] is not None]
    report["attempted"] = len(records)
    report["oracle_diff"] = workloads.carleson_oracle_diff(args.seed)
    report["oracle_ok"] = report["oracle_diff"] < workloads.ORACLE_TOL
    report["env"] = environment(np)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
