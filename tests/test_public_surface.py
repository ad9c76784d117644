"""The public surface: nmsse.__all__ is pinned and is the only __all__ of the
package, as are the options of run_ensemble, oracle_convergence,
greens_coefficients and line_plot and the fields of every public record;
every exported name resolves, neither importing the package nor solving the
collocation arbiter or the path-sum oracle loads scipy, the CLI drives the
library through public names only and alone writes file formats, the
ensemble takes C, D and E from the single pass in kernels.py, the oracle
solves the collocation arbiter's block system rather than its own, and every
binding that the benchmark's traced run (bench/workloads.py,
Workload.trace) wraps still exists in the module where it is wrapped, the
benchmark's checks that call the library still run and pass, and core alone
tests the type of a scalar input."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
import types

import numpy as np

import nmsse
import nmsse._svg
import nmsse.cli
import nmsse.ensemble

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


# The whole public surface; a new public name needs a deliberate edit here.
PUBLIC = {
    "__version__",
    # core
    "HBAR_SI", "InvalidGridError", "InvalidParameterError", "PhysicalParams", "TimeGrid",
    "make_grid", "make_params",
    # noise
    "NoisePath", "exponential_kernel", "sample_exponential_noise",
    "sample_exponential_noise_batch",
    # kernels
    "CharacteristicRoots", "KernelSolution", "characteristic_roots", "f_exponential",
    "f_markovian", "f_ratio_form", "h_exponential", "kernel_residual", "solve_f_numeric",
    "solve_h_numeric",
    # propagator
    "FunctionalDerivativeCoeffs", "GaussianState", "GreensCoefficients", "asymptotic_spread",
    "functional_derivative_coeffs", "gaussian_from_moments", "greens_coefficients",
    "mean_momentum", "mean_position", "normalize", "propagate_gaussian", "spread_curve",
    "spread_momentum", "spread_position",
    # oracle
    "OracleReport", "oracle_coefficients", "oracle_convergence",
    # ensemble
    "EnsembleStats", "run_ensemble",
}


# The parameters of the functions that used to carry single-valued options,
# and the stored fields of every public record; a new option or field needs
# a deliberate edit here.
PARAMETERS = {
    "run_ensemble": ["params", "gamma", "state0", "t_samples", "n_traj", "master_seed",
                     "grid"],
    "oracle_convergence": ["t", "params", "gamma", "noise"],
    "greens_coefficients": ["t", "params", "gamma", "noise"],
    "line_plot": ["series", "title", "xlabel", "ylabel", "log_x", "log_y", "hlines",
                  "data_comment"],
}
FIELDS = {
    "PhysicalParams": ["m", "hbar", "lam", "unit_mode"],
    "TimeGrid": ["t_max", "n"],
    "NoisePath": ["grid", "values"],
    "CharacteristicRoots": ["zeta", "upsilon1", "upsilon2"],
    "KernelSolution": ["grid", "values", "d_start", "d_end", "kind"],
    "FunctionalDerivativeCoeffs": ["a", "b", "c"],
    "GaussianState": ["alpha", "beta", "g"],
    "GreensCoefficients": ["t", "A", "B", "C", "D", "E", "det"],
    "OracleReport": ["n_segments", "coefficients", "diag_asymmetry"],
    "EnsembleStats": ["times", "mean_q", "se_q", "mean_p", "se_p", "v_q", "se_vq",
                      "sigma_q", "ess", "n_traj"],
}


def test_the_public_surface_is_pinned():
    assert len(nmsse.__all__) == len(set(nmsse.__all__))
    assert set(nmsse.__all__) == PUBLIC


def test_the_options_are_pinned():
    funcs = {"run_ensemble": nmsse.run_ensemble,
             "oracle_convergence": nmsse.oracle_convergence,
             "greens_coefficients": nmsse.greens_coefficients,
             "line_plot": nmsse._svg.line_plot}
    assert {name: list(inspect.signature(f).parameters) for name, f in funcs.items()} \
        == PARAMETERS


def test_the_record_fields_are_pinned():
    records = {name: getattr(nmsse, name) for name in nmsse.__all__
               if dataclasses.is_dataclass(getattr(nmsse, name))}
    assert {name: [f.name for f in dataclasses.fields(rec)]
            for name, rec in records.items()} == FIELDS


def test_only_the_package_declares_all():
    pkg = os.path.dirname(nmsse.__file__)
    declaring = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read())
            declaring += [name for node in ast.walk(tree)
                          if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                          for target in (node.targets if isinstance(node, ast.Assign)
                                         else [node.target])
                          if isinstance(target, ast.Name) and target.id == "__all__"]
    assert declaring == []


def test_every_exported_name_resolves():
    assert [name for name in nmsse.__all__ if not hasattr(nmsse, name)] == []


def test_import_does_not_load_scipy():
    # the package depends on numpy only: neither the import nor the
    # collocation arbiter and the path-sum oracle, with or without coupling,
    # may pull scipy in; nor may the import load what the ensemble imports
    # lazily, the thread pool's modules
    code = "\n".join([
        "import sys, numpy as np, nmsse, nmsse.cli",
        "assert not sys.modules.keys() & {'concurrent.futures', 'queue', 'logging'}",
        "grid = nmsse.make_grid(1.0, 33)",
        "noise = nmsse.NoisePath(grid, np.ones(grid.n))",
        "for lam in (0.0, 0.1):",
        "    params = nmsse.make_params(m=1.0, hbar=1.0, lam=lam)",
        "    kern = nmsse.exponential_kernel(1.0)",
        "    nmsse.solve_f_numeric(1.0, params, kern, grid)",
        "    nmsse.solve_h_numeric(1.0, params, kern, noise)",
        "    nmsse.oracle_coefficients(1.0, params, 1.0, noise)",
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


def test_the_ensemble_takes_its_noise_coefficients_from_the_single_pass():
    # C, D and E are formed in kernels._HorizonKernels alone; the ensemble
    # imports nothing else of the kernel machinery but the two names the
    # benchmark's traced run wraps there
    tree = ast.parse(inspect.getsource(nmsse.ensemble))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module == "kernels" for alias in node.names}
    assert imported == {"_HorizonKernels", "f_exponential", "h_exponential_batch"}


def test_one_module_assembles_the_discrete_kernel_equation():
    # the collocation arbiter and the path-sum oracle solve one block system,
    # built in kernels._collocation_solve alone: the oracle takes its interior
    # solves from there, so no second assembly calls the block solver
    pkg = os.path.dirname(nmsse.__file__)
    callers, oracle_imports = set(), set()
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "attr", getattr(func, "id", None)) == "_block_tridiag_solve":
                    callers.add(name)
            if (name == "oracle.py" and isinstance(node, ast.ImportFrom)
                    and node.level == 1 and node.module == "kernels"):
                oracle_imports |= {alias.name for alias in node.names}
    assert callers == {"kernels.py"}
    assert "_collocation_solve" in oracle_imports


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


def test_core_alone_tests_the_type_of_a_scalar_input():
    # core._as_real and core._as_int are the one rule for each kind of scalar
    # input; a route with its own type test can let a bool or a fractional
    # count through again, so no other module imports numbers or asks for bool
    pkg = os.path.dirname(nmsse.__file__)
    found = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py") or name == "core.py":
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "numbers"):
                found.append(f"{name}: imports numbers")
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2
                    and any(isinstance(n, ast.Name) and n.id == "bool"
                            for n in ast.walk(node.args[1]))):
                found.append(f"{name}:{node.lineno}: isinstance(..., bool)")
    assert found == []


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


def test_the_benchmark_checks_run_on_the_library(monkeypatch, tmp_path):
    # the library calls the benchmark's checks make, run on small inputs:
    # the collocation widths against spread_curve, and the SI asymptotes
    # against the late widths of the Diagnostics spread
    monkeypatch.syspath_prepend(BENCH)
    import checks
    import workloads

    params = nmsse.make_params(m=1.0, hbar=1.0, lam=0.1)
    grid = nmsse.make_grid(1.0, 129)
    state0 = nmsse.gaussian_from_moments(1.0, 0.5, 1.0, params)
    times = np.array([0.5, 1.0])
    widths = workloads._arbiter_widths(params, 1.0, grid, state0, times)
    record = checks.width_vs_arbiter(nmsse.spread_curve(times, params, 1.0, 1.0), widths,
                                     grid.dt)
    assert record["pass"], record

    diag = workloads.Diagnostics
    t = np.geomspace(1.0, 4e18, 200)
    si = nmsse.make_params(m=1.0, hbar=nmsse.HBAR_SI, lam=0.01, unit_mode="SI")
    header = ",".join(["t"] + [f"sigma[g={g:g}]" for g in diag.SI_GAMMAS])
    cols = [t] + [nmsse.spread_curve(t, si, g, 1.0) for g in diag.SI_GAMMAS]
    np.savetxt(tmp_path / "spread.csv", np.column_stack(cols), delimiter=",",
               header=header, comments="")
    records = diag._spread_checks(types.SimpleNamespace(out=str(tmp_path),
                                                        SI_GAMMAS=diag.SI_GAMMAS),
                                  "spread", "spread.csv")
    assert len(records) == 1 + len(diag.SI_GAMMAS)
    assert [r for r in records if not r["pass"]] == []
