"""Module imports: every mixedmg module imports the others at module level.

A module that imports another inside a function does so to get round an
import cycle; the layering is then hidden from the import graph.  The scan
reads ``src/mixedmg/*.py`` with ``ast``, without importing the package.
Third-party imports inside functions stay allowed, though none is left:
``scipy.fft``, which every direct solve runs on, is a module-level import
of ``linops``.  No run loads ``scipy.linalg``: nothing is factored.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mixedmg"
MODULES = sorted(SRC.glob("*.py"))


def _is_mixedmg(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "mixedmg"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "mixedmg" for alias in node.names)
    return False


def _imports_in_functions(tree: ast.Module) -> list[int]:
    """Line numbers of mixedmg imports inside a function or lambda body."""
    lines = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            lines.extend(node.lineno for node in ast.walk(func) if _is_mixedmg(node))
    return sorted(set(lines))


def test_the_scan_sees_an_import_in_a_function():
    tree = ast.parse("def f():\n    from .hierarchy import g\n    import scipy.fft\n")
    assert _imports_in_functions(tree) == [2]


def test_no_module_imports_another_at_call_time():
    found = {path.name: _imports_in_functions(ast.parse(path.read_text()))
             for path in MODULES}
    assert MODULES
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize("name", ["precision.py", "fourier.py"])
def test_lowest_layers_import_nothing_from_mixedmg(name):
    tree = ast.parse((SRC / name).read_text())
    assert not [node.lineno for node in ast.walk(tree) if _is_mixedmg(node)]


def test_no_run_loads_scipy_linalg():
    # a fresh interpreter: the test session itself has imported scipy.linalg
    code = """
import sys
import mixedmg
from mixedmg.harness import ExperimentConfig, run_experiment
for kind, extra in (("exact", {}), ("perturbed", {"sigma": 0.3}),
                    ("recursive", {"levels": 3})):
    for problem in ("poisson1d", "poisson2d"):
        config = ExperimentConfig(problem=problem, size=7, coarse=kind, bits=(12,),
                                  trials=2, **extra)
        assert all(r.passed for r in run_experiment(config))
print(sorted(m for m in sys.modules if m.startswith("scipy.linalg")))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# the public names of the package, so that any change to them shows in a diff;
# the submodules are not among them, so ``from mixedmg import *`` binds none
PUBLIC_NAMES = [
    "BoundInputs", "BoundReport", "CARRIER", "CARRIER_BITS", "CoarseSolver",
    "ContractionError", "CycleTrace", "ExperimentConfig", "GridLevel",
    "PROOF_LINES", "PrecisionFormat", "PrecisionTooLowError",
    "PrecisionUnachievableError", "RelaxationOp", "RoundedResult", "SparseSpd",
    "SpdError", "StructureError", "TrialRecord", "build_multilevel",
    "compute_constants", "condition_number", "energy_norm", "gamma_constants",
    "load_config", "make_exact_coarse", "make_jacobi", "make_perturbed_coarse",
    "make_recursive_coarse", "make_richardson", "mdot_plus_eps", "per_line_bounds",
    "progressive_epsilon", "progressive_study", "quantize_vector", "rho_star",
    "rounded_add_sub", "rounded_matvec", "rounded_residual", "run_experiment",
    "solve_spd", "tg_cycle", "v_cycle", "validate_csv", "write_csv",
]


def test_public_names_are_the_committed_list():
    import mixedmg

    assert sorted(mixedmg.__all__) == PUBLIC_NAMES


def test_star_import_binds_the_public_names_only():
    namespace = {}
    exec("from mixedmg import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC_NAMES


def test_every_public_name_is_read_by_the_package():
    # a public name that only the tests call is a second path beside the one
    # the program runs: each is read, as a name or an attribute, by some
    # module other than the one that exports them all
    import mixedmg

    read = set()
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(set(mixedmg.__all__) - read) == []
