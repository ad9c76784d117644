"""One workload in one process: set-up, timed repetitions, then checks.

run.py starts this script with the BLAS/OpenMP thread count fixed to one
and passes ``--spawned-at``, its CLOCK_MONOTONIC reading just before the
start, so set-up time counts from process start.  The last line of standard
output is a JSON object with the raw metric values and the check records.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
MIN_REPS = 3
MB = float(2 ** 20)


def layer_metrics(spans: list[dict], rep_ids: list[int]) -> dict:
    """Per-layer metrics of one repetition, from a traced run.

    Times are the median over repetitions; every other value must repeat
    exactly from one repetition to the next.
    """
    from tracer import descendants, duration, self_time
    from workloads import Incorrect

    per_rep = []
    for rid in rep_ids:
        by_name = defaultdict(list)
        children = defaultdict(list)
        for s in descendants(spans, rid):
            by_name[s["name"]].append(s)
            children[s["parent"]].append(s)

        def total(name):
            return sum(duration(s) for s in by_name[name])

        def count(name, key):
            return sum(s["counts"][key] for s in by_name[name])

        runs = by_name["ensemble.run"]
        per_rep.append({
            "noise.sample_s": total("noise.sample"),
            "noise.cells": count("noise.sample", "cells"),
            "kernels.h_batch_s": total("kernels.h_batch"),
            "kernels.h_batch_calls": len(by_name["kernels.h_batch"]),
            "kernels.h_batch_cells": count("kernels.h_batch", "cells"),
            "kernels.h_batch_mb": max((s["counts"]["bytes"] for s in by_name["kernels.h_batch"]),
                                      default=0) / MB,
            "kernels.f_s": total("kernels.f"),
            "kernels.f_calls": len(by_name["kernels.f"]),
            "kernels.collocation_s": total("kernels.collocation"),
            "kernels.collocation_calls": len(by_name["kernels.collocation"]),
            "kernels.residual_s": total("kernels.residual"),
            "ensemble.run_s": total("ensemble.run"),
            "ensemble.self_s": sum(self_time(s, children[s["id"]]) for s in runs),
            "ensemble.traj_horizons": count("ensemble.run", "traj_horizons"),
            "ensemble.ess_fraction_min": min((s["counts"]["ess_fraction_min"] for s in runs),
                                             default=0.0),
            "propagator.spread_s": total("propagator.spread"),
            "propagator.spread_horizons": count("propagator.spread", "horizons"),
            "propagator.greens_s": total("propagator.greens"),
            "oracle.convergence_s": total("oracle.convergence"),
            "oracle.fit_s": total("oracle.fit"),
            "oracle.fits": len(by_name["oracle.fit"]),
            "cli.ensemble_s": total("cli.ensemble"),
            "cli.kernels_s": total("cli.kernels"),
            "cli.oracle_check_s": total("cli.oracle_check"),
            "cli.spread_s": total("cli.spread"),
            "cli.figure1_s": total("cli.figure1"),
            "svg.plot_s": total("svg.plot"),
            "cli.bytes_written": sum(count(n, "bytes") for n in by_name if n.startswith("cli.")),
        })
    out = {}
    for key in per_rep[0]:
        values = [m[key] for m in per_rep]
        if key.endswith("_s"):
            out[key] = statistics.median(values)
        elif len(set(values)) == 1:
            out[key] = values[0]
        else:
            raise Incorrect(f"{key} differs between repetitions: {values}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import nmsse
    if not os.path.abspath(nmsse.__file__).startswith(src + os.sep):
        raise SystemExit(f"nmsse was imported from {nmsse.__file__}, not from {src}")
    from tracer import Tracer
    from workloads import WORKLOADS, Incorrect

    name = args.workload + ("-setup" if args.setup_only else "")
    wl = WORKLOADS[args.workload](args.seed, os.path.join(BENCH, "out", name))
    wl.warmup()
    tracer = None
    if args.trace:
        tracer = Tracer()
        wl.trace(tracer)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    walls, cpus, digests, rep_ids = [], [], [], []
    attempted = failed = 0
    error = None
    start = time.monotonic()
    try:
        while len(walls) < MIN_REPS or time.monotonic() - start < args.seconds:
            rep_ids.append(len(tracer.spans) if tracer else -1)
            with tracer.span("rep") if tracer else contextlib.nullcontext():
                t0, c0 = time.perf_counter(), time.process_time()
                outcome = wl.run_round()
                walls.append(time.perf_counter() - t0)
                cpus.append(time.process_time() - c0)
            attempted += wl.ops_per_round
            failed += wl.account(outcome)
            digests.append(wl.digest())
    except Incorrect as e:
        error = str(e)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.restore()

    found, perturbed = [], []
    if error is None:
        found = wl.checks(digests)
        perturbed = wl.perturbed(digests)
    metrics = {"setup_s": setup_s, "wall_s": statistics.median(walls),
               "peak_rss_mb": peak_rss_mb}
    if tracer:
        try:
            metrics = layer_metrics(tracer.spans, rep_ids)
        except Incorrect as e:
            error = error or str(e)
            metrics = {}
        tracer.dump(os.path.join(BENCH, "out", f"trace-{args.workload}-{args.seed}.json"),
                    walls=walls, cpus=cpus)
    correct = (error is None and all(c["pass"] for c in found)
               and not any(c["pass"] for c in perturbed))
    detail = {
        "reps": len(walls),
        "wall_s": walls,
        "cpu_s": cpus,
        "traced_wall_s": statistics.median(walls) if tracer else None,
        "error": error,
        "failed_checks": [c for c in found if not c["pass"]],
        "perturbations_accepted": [c for c in perturbed if c["pass"]],
        "embedded_check_false_alarm": getattr(wl, "embedded_false_alarm", False),
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics, "detail": detail, "checks": found}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
