"""Time the baseline rows of ROADMAP.md with the benchmark's settings.

    python3 bench/baselines.py

Single-threaded BLAS/OpenMP as in run.py, everything in one process after
the imports, each row timed once (wall and CPU seconds).  Physics as in the
benchmark: lambda = 0.1, gamma = 1, t_max = 1, N = 2001, 50 sample times.
"""

import contextlib
import io
import os
import sys
import time

from run import BENCH, THREADS_ONE

os.environ.update(THREADS_ONE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import numpy as np  # noqa: E402

import nmsse  # noqa: E402
from nmsse import cli  # noqa: E402


def timed(label, fn):
    t0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        fn()
    print(f"{label:44s} wall {time.perf_counter() - t0:7.3f} s  "
          f"cpu {time.process_time() - c0:7.3f} s", flush=True)


def main():
    out = os.path.join(BENCH, "out", "baselines")
    os.makedirs(out, exist_ok=True)
    cfg = os.path.join(out, "run.ini")
    with open(cfg, "w") as fh:
        fh.write("m = 1.0\nlambda = 0.1\ngamma = 1.0\nt_max = 1.0\nsigma0 = 1.0\n"
                 "x0 = 1.0\np0 = 0.5\nn_traj = 1000\n")
    params = nmsse.make_params(m=1.0, hbar=1.0, lam=0.1)
    grid = nmsse.make_grid(1.0, 2001)
    state0 = nmsse.gaussian_from_moments(1.0, 0.5, 1.0, params)
    times = grid.nodes()[np.unique(np.rint(np.linspace(grid.dt, 1.0, 50) / grid.dt)
                                   .astype(int))]
    si = nmsse.make_params(m=1.0, hbar=nmsse.HBAR_SI, lam=1e-2, unit_mode="SI")
    horizons = np.geomspace(1.0, 4e18, 2000)

    timed("run_ensemble, 1000 trajectories", lambda: nmsse.run_ensemble(
        params, 1.0, state0, times, 1000, 42, grid=grid))
    for command in ("ensemble", "kernels", "spread", "oracle-check"):
        timed(f"CLI {command}" + (", 1000 trajectories" if command == "ensemble" else ""),
              lambda: cli.main([command, "--config", cfg, "--out", out]))
    timed("CLI figure1", lambda: cli.main(["figure1", "--out", out]))
    timed("spread_curve, 2000 SI horizons", lambda: nmsse.spread_curve(
        horizons, si, 10.0, 1.0))


if __name__ == "__main__":
    main()
