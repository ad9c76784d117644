"""The public surface: every exported name resolves, neither importing the
package nor solving the collocation arbiter loads scipy, the CLI drives the
library through public names only and alone writes file formats, and every
binding that the benchmark's
traced run (bench/workloads.py, Workload.trace) wraps still exists in the
module where it is wrapped."""

import ast
import inspect
import os
import subprocess
import sys
import types

import nmsse
import nmsse.cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_every_exported_name_resolves():
    assert [name for name in nmsse.__all__ if not hasattr(nmsse, name)] == []


def test_import_does_not_load_scipy():
    # the package depends on numpy only: neither the import nor the
    # collocation arbiter, with or without coupling, may pull scipy in
    code = "\n".join([
        "import sys, numpy as np, nmsse, nmsse.cli",
        "grid = nmsse.make_grid(1.0, 33)",
        "noise = nmsse.NoisePath(grid, np.ones(grid.n), 0, 0)",
        "for lam in (0.0, 0.1):",
        "    params = nmsse.make_params(m=1.0, hbar=1.0, lam=lam)",
        "    kern = nmsse.exponential_kernel(1.0)",
        "    nmsse.solve_f_numeric(1.0, params, kern, grid)",
        "    nmsse.solve_h_numeric(1.0, params, kern, noise)",
        "print('scipy' in sys.modules)",
    ])
    src = os.path.dirname(os.path.dirname(nmsse.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_imports_no_private_names():
    tree = ast.parse(inspect.getsource(nmsse.cli))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("nmsse"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_only_the_cli_writes_file_formats():
    # the library returns records of arrays; cli.py alone turns them into
    # CSV and JSON, so no other module imports json and no class serializes
    pkg = os.path.dirname(nmsse.__file__)
    json_importers, serializers = set(), []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Import) and any(a.name == "json" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "json"):
                json_importers.add(name)
            if isinstance(node, ast.ClassDef):
                serializers += [f"{name}:{node.name}.{f.name}" for f in node.body
                                if isinstance(f, ast.FunctionDef)
                                and f.name in ("to_csv", "to_json")]
    assert json_importers == {"cli.py"}
    assert serializers == []


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
