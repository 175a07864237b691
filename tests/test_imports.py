"""Module imports: every mixedmg module imports the others at module level.

A module that imports another inside a function does so to get round an
import cycle; the layering is then hidden from the import graph.  The scan
reads ``src/mixedmg/*.py`` with ``ast``, without importing the package.
Third-party imports inside functions stay allowed (the perturbed coarse
solve loads ``scipy.fft`` on its first apply, so that a run without one
never pays for it).
"""

import ast
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
