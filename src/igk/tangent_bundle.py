"""Almost-Kähler structure on the tangent bundle of an exponential family.

In the natural chart the flat exponential connection splits T(TM) into
horizontal + vertical copies of R^n, and the Sasaki-type lift of the Fisher
metric h becomes

    G = [[h, 0], [0, h]],   J = [[0, -I], [I, 0]],   Omega = J^T G,

so omega(a, b) = h(a_hor, b_ver) - h(a_ver, b_hor).  The two-form is closed
iff d_i h_jk is symmetric in (i, j), which holds because h is a Hessian.

Observables affine in the statistics ("linear observables") induce
Hamiltonian flows that translate the fiber by a constant vector: for
f = a0 + sum_i a_i F_i the symplectic gradient of f∘pi is (0, -a), the flow
is an exact isometry, and any two such observables Poisson-commute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotKahlerError
from .geometry import _metric_derivative, fisher_metric
from .numerics import central_difference, relative_steps, stencil

__all__ = [
    "TangentBundlePoint",
    "TangentKahlerStructure",
    "LinearObservable",
    "kahler_structure_at",
    "omega_closedness_residual",
    "linear_observable",
    "kahler_gradient_field",
    "metric_gradient_fd",
    "hamiltonian_flow_step",
    "flow_isometry_residual",
    "poisson_bracket_linear",
]

_SPAN_TOL = 1e-9
_JACOBIAN_STEP = 1e-4
_GRADIENT_STEP = 1e-5


@dataclass(frozen=True)
class TangentBundlePoint:
    """A point of TM: natural coordinates of the base plus fiber components."""

    base: tuple
    fiber: tuple

    def __post_init__(self):
        base = tuple(float(c) for c in self.base)
        fiber = tuple(float(c) for c in self.fiber)
        if len(base) != len(fiber):
            raise DomainError("base and fiber must have the same dimension")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fiber", fiber)

    @property
    def base_array(self):
        return np.asarray(self.base)

    @property
    def fiber_array(self):
        return np.asarray(self.fiber)


@dataclass(frozen=True)
class TangentKahlerStructure:
    """Structure matrices of TM at a point, in the natural-chart frame."""

    base_metric: np.ndarray  # h, (n, n) or (k, n, n) for a stack of points
    metric: np.ndarray  # G, (2n, 2n) or (k, 2n, 2n)
    omega: np.ndarray  # Omega with omega(a, b) = a^T Omega b, shaped as G
    complex_structure: np.ndarray  # J, (2n, 2n)


def _base_theta(fam, point):
    if isinstance(point, TangentBundlePoint):
        return fam.natural_coords(point.base_array)
    return fam.natural_coords(point)


def kahler_structure_at(fam, point):
    """Metric, symplectic form, and complex structure of TM at a point.

    A stack of natural parameters, shape (k, n), gives ``base_metric``,
    ``metric`` and ``omega`` a leading k axis; J is the same at every point.
    """
    if isinstance(point, TangentBundlePoint):
        point = point.base_array
    h = fisher_metric(fam, point, "natural")
    n = fam.dim
    G = np.zeros(h.shape[:-2] + (2 * n, 2 * n))
    G[..., :n, :n] = h
    G[..., n:, n:] = h
    J = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    return TangentKahlerStructure(base_metric=h, metric=G, omega=J.T @ G,
                                  complex_structure=J)


def omega_closedness_residual(fam, point):
    """max_{i<j,k} |d_i h_jk - d_j h_ik|, the obstruction to d omega = 0."""
    theta = _base_theta(fam, point)
    if theta.size == 1:
        return 0.0
    dh = _metric_derivative(fam, theta)
    return float(np.max(np.abs(dh - np.transpose(dh, (1, 0, 2)))))


@dataclass(frozen=True)
class LinearObservable:
    """An observable a0 + sum_i a_i F_i, affine in the statistics."""

    a0: float
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "a0", float(self.a0))
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def base_value(self, fam, theta):
        """The induced function of the base point, a0 + <a, eta(theta)>."""
        return self.a0 + np.asarray(self.coeffs) @ fam.natural_to_expectation(theta)


def linear_observable(fam, observable):
    """Express an observable in span{1, F_1..F_n}, or refuse.

    ``observable`` is a ``LinearObservable`` (passed through), or a value
    table / vectorized callable over a finite space, fitted by least squares.
    A fit residual above 1e-9 raises ``NotKahlerError``: the observable does
    not generate a Kähler-compatible flow.
    """
    if isinstance(observable, LinearObservable):
        if len(observable.coeffs) != fam.dim:
            raise DomainError(f"{fam.name}: observable has wrong dimension")
        return observable
    if not fam.is_finite:
        raise NotKahlerError(
            f"{fam.name}: on a continuous space, pass explicit affine "
            "coefficients in the statistics"
        )
    x = fam.space.values()
    vals = np.broadcast_to(
        np.asarray(observable(x) if callable(observable) else observable,
                   dtype=float),
        x.shape,
    ).astype(float)
    design = np.vstack([np.ones_like(x), fam.statistic_matrix(x)]).T
    sol, *_ = np.linalg.lstsq(design, vals, rcond=None)
    resid = float(np.max(np.abs(design @ sol - vals)))
    if not resid <= _SPAN_TOL:
        raise NotKahlerError(
            f"{fam.name}: observable is not affine in the statistics "
            f"(fit residual {resid:.3e})"
        )
    return LinearObservable(sol[0], tuple(sol[1:]))


def kahler_gradient_field(fam, observable, point=None):
    """Fisher gradient of the induced base function of a linear observable.

    For f = a0 + <a, eta> the differential in the natural chart is h a, so
    the gradient h^{-1} (h a) = a is constant; the point argument only
    validates domain membership.
    """
    obs = linear_observable(fam, observable)
    if point is not None:
        _base_theta(fam, point)
    return np.asarray(obs.coeffs)


def metric_gradient_fd(fam, base_function, theta):
    """Fisher gradient h^{-1} grad_theta of a generic base function.

    ``base_function`` maps natural coordinates to a float; the differential
    is taken by central finite differences.  For observables on the sample
    space use ``lambda th: fam.mean_and_variance(th, X)[0]``.
    """
    theta = fam.natural_coords(theta)
    step = relative_steps(theta, _GRADIENT_STEP)
    df = central_difference([base_function(th) for th in stencil(theta, step)], step)
    h = fisher_metric(fam, theta, "natural")
    return np.linalg.solve(h, df)


def hamiltonian_flow_step(fam, observable, point, t):
    """Time-t Hamiltonian flow of a linear observable's base lift.

    The symplectic gradient of f∘pi is vertical with constant component -a,
    so the flow fixes the base and translates the fiber: exact for any t,
    and additive in t.
    """
    if not isinstance(point, TangentBundlePoint):
        raise DomainError("hamiltonian_flow_step needs a TangentBundlePoint")
    grad = kahler_gradient_field(fam, observable, point)
    return TangentBundlePoint(
        base=point.base,
        fiber=tuple(point.fiber_array - float(t) * grad),
    )


def flow_isometry_residual(fam, observable, point, t):
    """max |Dphi^T G Dphi - G| for the time-t flow of an observable.

    Linear observables have constant gradient, hence Dphi is exactly the
    identity plus a nilpotent zero block and the flow is an exact isometry.
    Any other observable of the sample point (a vectorized callable, or a
    value table over a finite space) gets the finite-difference Jacobian of
    its Fisher gradient, exposing the failure of the isometry property: one
    support table of 4n^2 rows and one Fisher metric call serve the 2n
    gradients, on a finite space and on the real line alike.
    """
    theta = _base_theta(fam, point)
    n = theta.size
    try:
        linear_observable(fam, observable)
        dgrad = np.zeros((n, n))
    except NotKahlerError:
        step = relative_steps(theta, _JACOBIAN_STEP)
        outer = stencil(theta, step)
        inner_step = relative_steps(outer, _GRADIENT_STEP)
        x, w = fam.weighted_support(stencil(outer, inner_step))
        values = fam._observable_values(x, observable)
        df = central_difference(np.vecdot(w, values), inner_step)
        grads = np.linalg.solve(fisher_metric(fam, outer), df.T[..., None])[..., 0]
        dgrad = central_difference(grads, step).T
    struct = kahler_structure_at(fam, theta)
    G = struct.metric
    dphi = np.eye(2 * n)
    dphi[n:, :n] = -float(t) * dgrad
    return float(np.max(np.abs(dphi.T @ G @ dphi - G)))


def poisson_bracket_linear(fam, obs_a, obs_b, point):
    """Poisson bracket of two linear observables' base lifts at a point.

    Both symplectic gradients are vertical, so the bracket
    omega(X_f, X_g) = h(0, -b) - h(-a, 0) pairing vanishes identically;
    the computation goes through the structure matrices regardless.
    """
    theta = _base_theta(fam, point)
    n = theta.size
    struct = kahler_structure_at(fam, theta)
    ga = kahler_gradient_field(fam, obs_a, theta)
    gb = kahler_gradient_field(fam, obs_b, theta)
    xa = np.concatenate([np.zeros(n), -ga])
    xb = np.concatenate([np.zeros(n), -gb])
    return float(xa @ struct.omega @ xb)
