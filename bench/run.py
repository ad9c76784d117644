"""Benchmark for nmsse: three workloads, each in its own process.

    python3 bench/run.py                          all workloads, one table
    python3 bench/run.py --workload diagnostics --seed 3 --seconds 30 --trace 0

With ``--trace 0`` a run reports the end-to-end metrics of BENCHMARK.json
(set-up time, median wall time of one repetition, peak resident memory);
with ``--trace 1`` it reports the per-layer metrics from a traced run.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")
# Set-up is timed in this many processes per run and the median reported.
SETUP_RUNS = 5
DEADLINE_S = 170.0
# Single-threaded BLAS/OpenMP: the benchmark does not measure scale-out, and
# one thread per process keeps BLAS threads from contending for the shared
# cores.
THREADS_ONE = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class WorkerFailed(RuntimeError):
    pass


def _worker(workload, seed, seconds, trace, deadline, setup_only=False) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed(f"{workload}: out of time before starting a process")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env={**os.environ, **THREADS_ONE},
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload}: worker exceeded the deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{workload}: worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(spec, workload, seed, seconds, trace) -> tuple[dict, dict]:
    """Return (result, detail) for one workload."""
    deadline = time.monotonic() + DEADLINE_S
    setups = [] if trace else [
        _worker(workload, seed, seconds, trace, deadline, setup_only=True)["setup_s"]
        for _ in range(SETUP_RUNS - 1)]
    res = _worker(workload, seed, seconds, trace, deadline)
    detail = res["detail"]
    raw = res["metrics"]
    if not trace and "setup_s" in raw:
        setups.append(raw["setup_s"])
        raw["setup_s"] = statistics.median(setups)
        detail["setup_s"] = setups
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    if set(raw) == {m["name"] for m in wanted}:
        metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in wanted}
    elif res["correct"]:
        raise WorkerFailed(f"{workload}: metrics {sorted(raw)} do not match BENCHMARK.json")
    detail["checks"] = res["checks"]
    return ({"correct": res["correct"], "attempted": res["attempted"],
             "failed": res["failed"], "metrics": metrics}, detail)


def main(argv=None) -> int:
    with open(SPEC) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names, default=None,
                    help="one workload (default: every workload in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        ap.error("--seed must fit in 64 bits")

    results = {}
    try:
        for workload in [args.workload] if args.workload else names:
            result, detail = run_workload(spec, workload, args.seed, args.seconds,
                                          args.trace)
            results[workload] = result
            summary = {k: v for k, v in detail.items() if k != "checks"}
            print(f"{workload} detail {json.dumps(summary)}")
            for c in detail["checks"]:
                print(f"{workload} check {c['name']}: {'PASS' if c['pass'] else 'FAIL'} "
                      f"({c['value']:.4g} <= {c['bound']:.4g})")
            for name, m in result["metrics"].items():
                print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
            print(f"{workload} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
    except WorkerFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
