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

Every public function validates its base point, or a stack (k, n) of them,
once and reads h from one table: of 2n rows per point for
``omega_closedness_residual``, of 1 + 2n for a non-linear ``flow_isometry_residual``.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NotKahlerError
from .geometry import _at_points, _fd_stencil, _inverse, _metric_derivative
from .numerics import Record, central_difference

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


class TangentBundlePoint(Record):
    """A point of TM: natural coordinates of the base plus fiber components."""

    __slots__ = _fields = ("base", "fiber")

    def __init__(self, base, fiber):
        base = tuple(float(c) for c in base)
        fiber = tuple(float(c) for c in fiber)
        if len(base) != len(fiber):
            raise DomainError("base and fiber must have the same dimension")
        super().__init__(base, fiber)

    @property
    def base_array(self):
        return np.asarray(self.base)

    @property
    def fiber_array(self):
        return np.asarray(self.fiber)


class TangentKahlerStructure(Record):
    """Structure matrices of TM at a point, in the natural-chart frame: the
    Fisher metric h ``base_metric``, (n, n) or (k, n, n) for a stack of points;
    G ``metric``, (2n, 2n) or (k, 2n, 2n); ``omega`` the matrix Omega of
    omega(a, b) = a^T Omega b, shaped as G; and J ``complex_structure``, (2n, 2n).
    """

    __slots__ = _fields = ("base_metric", "metric", "omega", "complex_structure")


def _base_theta(fam, point):
    return fam.natural_coords(
        point.base_array if isinstance(point, TangentBundlePoint) else point)


def _structure(h):
    """The structure matrices of TM over the Fisher metrics h ((k,) n, n)."""
    n = h.shape[-1]
    G = np.zeros(h.shape[:-2] + (2 * n, 2 * n))
    G[..., :n, :n] = h
    G[..., n:, n:] = h
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:], J[n:, :n] = -np.eye(n), np.eye(n)
    return TangentKahlerStructure(base_metric=h, metric=G, omega=J.T @ G,
                                  complex_structure=J)


def kahler_structure_at(fam, point):
    """Metric, symplectic form, and complex structure of TM at a point.

    A stack of natural parameters, shape (k, n), gives ``base_metric``,
    ``metric`` and ``omega`` a leading k axis; J is the same at every point.
    """
    return _structure(fam._cumulants(_base_theta(fam, point), 2)[1])


def omega_closedness_residual(fam, point):
    """max_{i<j,k} |d_i h_jk - d_j h_ik|, the obstruction to d omega = 0; one
    per point of a theta stack (k, n), from one metric stencil."""
    theta = _base_theta(fam, point)
    dh = _metric_derivative(fam, theta)
    res = np.max(np.abs(dh - np.swapaxes(dh, -3, -2)), axis=(-3, -2, -1))
    return float(res) if theta.ndim == 1 else res


class LinearObservable(Record):
    """An observable a0 + sum_i a_i F_i, affine in the statistics."""

    __slots__ = _fields = ("a0", "coeffs")

    def __init__(self, a0, coeffs):
        super().__init__(float(a0), tuple(float(c) for c in coeffs))

    def base_value(self, fam, theta):
        """The induced function a0 + <a, eta(theta)>, one per row of a stack."""
        coeffs = linear_observable(fam, self).coeffs
        return self.a0 + np.vecdot(fam.natural_to_expectation(theta), coeffs)


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
    vals = fam._observable(observable)(x)
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

    ``base_function`` maps a theta stack (p, n) to p floats; it is called
    once, on the central-difference stencil of the validated theta (refused
    within one step of the domain edge).  A stack (k, n) gives k gradients.
    """
    theta = fam.natural_coords(theta)
    step, rows = _fd_stencil(fam, theta, _GRADIENT_STEP)
    return _metric_gradient(fam, step, base_function(rows), fam._cumulants(theta, 2)[1], theta)


def _metric_gradient(fam, step, values, h, caller):
    """h^{-1} grad f from the values of f on a stencil of steps ``step`` ((k,) n)
    and h at its points; a singular h names the caller's validated theta."""
    df = central_difference(values, step)
    return _inverse(fam, caller, h, df.T[..., None])[..., 0]


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
    value table over a finite space) gets the FD Jacobian of its Fisher
    gradient, exposing the failure of the isometry property: its mean on the
    4n^2 inner stencil rows is one support table, h at the point and its 2n
    outer rows one more.  A value table on the real line is refused first.
    A stack of k base points (k, n) gives k residuals.
    """
    theta = _base_theta(fam, point)
    n = theta.shape[-1]
    try:
        linear_observable(fam, observable)
    except NotKahlerError:
        values = fam._observable(observable)
        step, outer = _fd_stencil(fam, theta, _JACOBIAN_STEP)
        inner_step, inner = _fd_stencil(fam, outer, _GRADIENT_STEP, caller=theta)
        with fam._naming(theta):
            means = fam._mean_and_variance(inner, values)[0]
            _, h = fam._cumulants(np.concatenate([theta.reshape(-1, n), outer]), 2)
        grads = _metric_gradient(fam, inner_step, means, h[-len(outer):], theta)
        h, dgrad = _at_points(theta, h), np.moveaxis(central_difference(grads, step), 0, -1)
    else:
        h, dgrad = fam._cumulants(theta, 2)[1], 0.0
    G = _structure(h).metric
    dphi = np.broadcast_to(np.eye(2 * n), G.shape).copy()
    dphi[..., n:, :n] = -float(t) * dgrad
    res = np.max(np.abs(dphi.mT @ G @ dphi - G), axis=(-2, -1))
    return float(res) if theta.ndim == 1 else res


def poisson_bracket_linear(fam, obs_a, obs_b, point):
    """Poisson bracket of two linear observables' base lifts at a point.

    Both symplectic gradients are vertical, so the bracket
    omega(X_f, X_g) = h(0, -b) - h(-a, 0) pairing vanishes identically;
    the computation goes through the structure matrices regardless.  A
    stack of k base points (k, n) gives k brackets.
    """
    theta = _base_theta(fam, point)
    n = theta.shape[-1]
    omega = _structure(fam._cumulants(theta, 2)[1]).omega
    xa, xb = (np.concatenate([np.zeros(n), -kahler_gradient_field(fam, obs)])
              for obs in (obs_a, obs_b))
    res = xa @ omega @ xb
    return float(res) if theta.ndim == 1 else res
