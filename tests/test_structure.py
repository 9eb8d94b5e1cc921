"""Source structure: finite differences live in ``igk._oracles`` alone.

An AST scan of ``src/igk/*.py``: no other module defines, imports or reaches
the FD helpers, and no library module exports an FD oracle or a deleted name.
Every exported name resolves.
"""

import ast
import importlib
from pathlib import Path

import pytest

import igk

SOURCES = sorted(Path(igk.__file__).parent.glob("*.py"))
FD_HELPERS = {"stencil", "central_difference", "relative_steps"}
# the oracles that live in igk._oracles alone; the two wrappers deleted with their
# move there, the tilt-curve differential that the lift's Jacobian replaced, and the
# two lift oracles that ``lift_defects`` replaced
MOVED = {"cross_duality_residual", "omega_closedness_residual", "metric_gradient_fd",
         "flow_isometry_residual", "fd_chart_gradient", "fd_poisson_bracket",
         "lie_morphism_residual", "lift_jacobian", "lift_defects", "sphere_bracket_fd",
         "hat_scaling_residual", "plane_bracket_fd"}
DELETED = {"duality_residual", "skew_duality_residual", "tau_differential",
           "pullback_scaling_check", "holomorphic_residual", "kahler_gradient_field",
           "poisson_bracket_linear", "base_value",
           # a base point is a real theta array; the Fisher metric has one name
           "NaturalPoint", "ExpectationPoint", "_ChartPoint", "natural_coords",
           "log_partition_hessian",
           # a ray is compared by fubini_study_distance alone
           "equal"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree):
    """The strings listed in a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return set()


def _defined(tree):
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def test_the_scan_sees_the_package():
    names = {path.name for path in SOURCES}
    assert {"_oracles.py", "geometry.py", "numerics.py", "verify.py"} <= names


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "_oracles.py"],
                         ids=lambda p: p.name)
def test_only_the_oracles_know_finite_differences(path):
    tree = _tree(path)
    assert not _defined(tree) & FD_HELPERS
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not imported & FD_HELPERS
    reached = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not reached & FD_HELPERS
    assert not _exported(tree) & (MOVED | DELETED)
    assert not _defined(tree) & (MOVED | DELETED)


def test_the_oracles_define_what_moved():
    tree = _tree(next(p for p in SOURCES if p.name == "_oracles.py"))
    assert FD_HELPERS | MOVED <= _defined(tree)
    assert not _defined(tree) & DELETED


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    name = "igk" if path.stem == "__init__" else f"igk.{path.stem}"
    module = importlib.import_module(name)
    assert not [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]


def test_every_lazy_export_resolves_in_its_module():
    assert not [name for name, module in igk._LAZY.items()
                if not hasattr(importlib.import_module(f"igk.{module}"), name)]
