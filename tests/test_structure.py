"""Source structure: finite differences and defects live in ``igk._oracles`` alone.

An AST scan of ``src/igk/*.py``: no other module defines, imports or reaches
the FD helpers, and no library module exports an oracle, a residual (one
bench-pinned name aside) or a deleted name.  Every exported name resolves, and
no module reads the environment.
"""

import ast
import importlib
from pathlib import Path

import pytest

import igk

SOURCES = sorted(Path(igk.__file__).parent.glob("*.py"))
FD_HELPERS = {"stencil", "central_difference", "relative_steps"}
# the oracles that live in igk._oracles alone, the closed-form defects of spin and the
# oscillator and the Wigner law of the Stern-Gerlach transition among them; the two
# wrappers deleted with their move there, the tilt-curve differential that the lift's
# Jacobian replaced, and the two lift oracles that ``lift_defects`` replaced
MOVED = {"cross_duality_residual", "omega_closedness_residual", "metric_gradient_fd",
         "flow_isometry_residual", "fd_chart_gradient", "lie_morphism_residual",
         "lift_jacobian", "lift_defects", "sphere_bracket_fd", "hat_scaling_residual",
         "plane_bracket_fd", "commutator_residual", "expectation_identity_residual",
         "su2_closure_residual", "oscillator_expectation_residual", "wigner_law"}
DELETED = {"duality_residual", "skew_duality_residual", "tau_differential",
           "pullback_scaling_check", "holomorphic_residual", "kahler_gradient_field",
           "poisson_bracket_linear", "base_value",
           # a base point is a real theta array; the Fisher metric has one name
           "NaturalPoint", "ExpectationPoint", "_ChartPoint", "natural_coords",
           "log_partition_hessian",
           # a ray is compared by fubini_study_distance alone
           "equal",
           # operator-hermitian measures max |M - M^H| itself
           "hermiticity_defect",
           # each check has one threshold: no tolerance profile, no variable selecting one
           "PROFILES", "resolve_profile",
           # metric_gradient_fd differences its base function itself
           "_metric_gradient",
           # one Kahler form reads every bracket; no public chart basis
           "fd_poisson_bracket", "_poisson_bracket", "chart_basis"}
# the one defect exported beside the objects it measures: bench/sweep.py calls it there
PINNED_RESIDUALS = {"cramer_rao_residual"}


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
    """The functions and classes of a module, and the names its top level assigns."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))} | {
        target.id for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)}


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


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "_oracles.py"],
                         ids=lambda p: p.name)
def test_only_the_oracles_export_residuals(path):
    exported = _exported(_tree(path))
    assert not {name for name in exported if name.endswith("_residual")} - PINNED_RESIDUALS


def test_the_oracles_define_what_moved():
    tree = _tree(next(p for p in SOURCES if p.name == "_oracles.py"))
    assert FD_HELPERS | MOVED <= _defined(tree)
    assert not _defined(tree) & DELETED


def test_no_oracle_branches_on_the_kahler_criterion():
    # an oracle measures every observable by one route: none imports or catches
    # NotKahlerError to classify an observable first
    tree = _tree(next(p for p in SOURCES if p.name == "_oracles.py"))
    named = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "NotKahlerError" not in named


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    name = "igk" if path.stem == "__init__" else f"igk.{path.stem}"
    module = importlib.import_module(name)
    assert not [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]


def test_every_lazy_export_resolves_in_its_module():
    assert not [name for name, module in igk._LAZY.items()
                if not hasattr(importlib.import_module(f"igk.{module}"), name)]


def _functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_only_the_ray_reader_scales_rays():
    tree = _tree(next(p for p in SOURCES if p.name == "projective.py"))
    scaling = {"_SQUARES_FLOOR", "_binary_scaled"}
    readers = {fun.name for fun in _functions(tree) for node in ast.walk(fun)
               if isinstance(node, ast.Name) and node.id in scaling}
    assert readers == {"_rays"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_public_function_takes_a_check_knob(path):
    assert not [fun.name for fun in _functions(_tree(path)) if not fun.name.startswith("_")
                and "check" in {a.arg for a in ast.walk(fun.args) if isinstance(a, ast.arg)}]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    # a report is a function of argv alone
    tree = _tree(path)
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module and not node.level}
    assert "os" not in imported
    reached = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    reached |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not reached & {"environ", "environb", "getenv", "getenvb"}
