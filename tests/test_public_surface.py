"""The public surface: every exported name resolves, and every binding that
the benchmark's traced run (bench/workloads.py, Workload.trace) wraps still
exists in the module where it is wrapped."""

import os
import types

import nmsse

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_every_exported_name_resolves():
    assert [name for name in nmsse.__all__ if not hasattr(nmsse, name)] == []


class _Recorder:
    """Stands in for the benchmark's Tracer and only records what it is
    asked to wrap."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, module, attr, name, count=None):
        self.wrapped.append((module.__name__, attr, hasattr(module, attr)))


def test_traced_bindings_exist(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import workloads

    rec = _Recorder()
    workloads.Workload.trace(types.SimpleNamespace(), rec)
    assert [(m, a) for m, a, found in rec.wrapped if not found] == []
    # the ensemble binds these only for the traced run; a pruning pass that
    # drops them must fail here, not in bench/run.py --trace 1
    assert {("nmsse.ensemble", "sample_exponential_noise_batch"),
            ("nmsse.ensemble", "h_exponential_batch"),
            ("nmsse.ensemble", "f_exponential"),
            ("nmsse", "run_ensemble")} <= {(m, a) for m, a, _ in rec.wrapped}
