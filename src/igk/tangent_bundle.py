"""Kähler structure on the tangent bundle of an exponential family.

In the natural chart the flat exponential connection splits T(TM) into
horizontal + vertical copies of R^n, and the Sasaki-type lift of the Fisher
metric h becomes

    G = [[h, 0], [0, h]],   J = [[0, -I], [I, 0]],   Omega = J^T G,

so omega(a, b) = h(a_hor, b_ver) - h(a_ver, b_hor).  The two-form is closed
iff d_i h_jk is symmetric in (i, j), which holds because h is a Hessian.

An observable affine in the statistics, f = a0 + sum_i a_i F_i, has the
symplectic gradient (0, -a) on f∘pi, so its Hamiltonian flow is the one closed
form ``hamiltonian_flow_step``: (theta, v) -> (theta, v - t a), an exact isometry.
``dombrowski/gradient-cross-check`` checks the flow against Hamilton's equation
(v - v_1 against the FD Fisher gradient of a0 + <a, eta>), and
``dombrowski/poisson-commute`` pairs two flows' velocities through Omega.

J is integrable: for a finite family the ``lift`` of TM into CP^(m-1) is
holomorphic and pulls the Fubini-Study metric and form back to (G, Omega) / 4, so TM
is Kähler: ``dombrowski/lift-{holomorphic,pullback}`` check both on every finite builtin
from one Jacobian (``_oracles.lift_defects``), ``projective/pullback-*`` on tangent pairs.

A point of TM is a pair of arrays (theta, v), each (n,), or stacks (k, n) of
both; the functions of the base alone take theta.  Every public function
validates its points once and reads h from one table.  The finite-difference
oracles of these claims (closedness of omega, the Fisher gradient, the flow
isometry of any observable, the lift's Jacobian) live in ``igk._oracles``.
"""

from __future__ import annotations

import numpy as np

from . import projective
from .errors import DomainError, NotKahlerError
from .numerics import Record, _finite_floats, _real_array

__all__ = [
    "TangentKahlerStructure",
    "LinearObservable",
    "kahler_structure_at",
    "lift",
    "linear_observable",
    "hamiltonian_flow_step",
]

_SPAN_TOL = 1e-9


class TangentKahlerStructure(Record):
    """Structure matrices of TM at a point, in the natural-chart frame: the
    Fisher metric h ``base_metric``, (n, n) or (k, n, n) for a stack of points;
    G ``metric``, (2n, 2n) or (k, 2n, 2n); ``omega`` the matrix Omega of
    omega(a, b) = a^T Omega b, shaped as G; and J ``complex_structure``, (2n, 2n).
    """

    __slots__ = _fields = ("base_metric", "metric", "omega", "complex_structure")


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


def _tangent(fam, theta, v):
    """The validated point (theta, v) of TM, or stack of points: v real and finite, of
    theta's shape; a refusal names the row of a stack."""
    theta = fam._check_theta(theta)
    v = _real_array(v, f"{fam.name}: the fiber must be real numbers")
    if v.shape != theta.shape:
        raise DomainError(f"{fam.name}: the fiber needs shape {theta.shape}, got {v.shape}")
    return theta, fam._finite(theta, v, "the fiber", DomainError)


def kahler_structure_at(fam, theta):
    """Metric, symplectic form, and complex structure of TM at a point.

    A stack of natural parameters, shape (k, n), gives ``base_metric``,
    ``metric`` and ``omega`` a leading k axis; J is the same at every point.
    """
    return _structure(fam._cumulants(fam._check_theta(theta), 2)[1])


def lift(fam, theta, v):
    """sqrt(p_k) exp(i u_k / 2), u_k = v . (F_k - E_theta F), at (theta, v) in TM of a finite
    family (``projective._lift``); stacks (k, n) give rows (k, m), each its single call's.
    A refusal names the family, and the row of a stack (``fam._naming``)."""
    if not fam.is_finite:
        raise DomainError(f"{fam.name}: the lift needs a finite space")
    theta, v = _tangent(fam, theta, v)
    _, p, F = fam._support(theta)
    p = p.reshape(theta.shape[:-1] + p.shape[-1:])
    s = np.vecdot(v[..., None, :], F.T)  # v . F_k
    with fam._naming(theta):  # a refusal, e.g. of a p_k that underflows to 0
        return projective._lift(p, s - np.vecdot(p, s)[..., None])


class LinearObservable(Record):
    """An observable a0 + sum_i a_i F_i, affine in the statistics; finite coefficients."""

    __slots__ = _fields = ("a0", "coeffs")

    def __init__(self, a0, coeffs):
        try:
            values = (a0, *coeffs)
        except TypeError:  # coeffs is not a sequence
            raise DomainError(
                f"observable coefficients must be a sequence, got {coeffs!r}") from None
        a0, *coeffs = _finite_floats("observable coefficients", *values)
        super().__init__(a0, tuple(coeffs))


def linear_observable(fam, observable):
    """Express an observable in span{1, F_1..F_n}, or refuse.

    ``observable`` is a ``LinearObservable`` (passed through), or a value
    table / vectorized callable over a finite space, fitted by least squares.
    A non-finite value raises ``DomainError``; a fit residual above 1e-9 of the
    largest |value| raises ``NotKahlerError``: the observable does not generate
    a Kähler-compatible flow.
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
    vals = fam._observable(observable)(x)  # real and finite
    design = fam.statistic_matrix(x).base.T  # G = [1; F]
    sol, *_ = np.linalg.lstsq(design, vals, rcond=None)
    resid = float(np.max(np.abs(design @ sol - vals)))
    if not resid <= _SPAN_TOL * np.max(np.abs(vals)):
        raise NotKahlerError(
            f"{fam.name}: observable is not affine in the statistics "
            f"(fit residual {resid:.3e})"
        )
    return LinearObservable(sol[0], tuple(sol[1:]))


def hamiltonian_flow_step(fam, observable, theta, v, t):
    """Time-t Hamiltonian flow of a linear observable's base lift: (theta, v - t a)
    at a point (theta, v) of TM, or at each point of a stack (k, n).

    The symplectic gradient of f∘pi is vertical with constant component -a,
    so the flow fixes the base and translates the fiber: exact for any t,
    and additive in t.  A t that is not one finite real number raises
    ``DomainError``, as does a fiber past the float range, naming the row.
    """
    theta, v = _tangent(fam, theta, v)
    (t,) = _finite_floats("the flow time", t)
    with np.errstate(over="ignore"):  # refused below
        moved = v - t * np.asarray(linear_observable(fam, observable).coeffs)
    return theta, fam._finite(theta, moved, f"the fiber at flow time {t}", DomainError)
