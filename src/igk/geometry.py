"""Dually flat geometry of an exponential family.

A point is its natural parameter theta, a real array.  Every public function
validates it once, with ``fam._check_theta`` (anything but real numbers in the
domain raises ``DomainError``), and then reads one moment table
``(eta, h, T) = fam._cumulants(rows)`` per row (closed-form cumulants, finite
summation or quadrature, the last two behind a normalization gate): h is the
covariance of the statistics and T their third cumulant, the second and third
derivatives of the log-partition.  The Fisher metric is h in the natural chart
and phi'' = h^-1 in the expectation chart, phi(eta) the Legendre dual of psi, from a
builtin family's ``dual`` hook (``_dual``), else inverted; a singular h, or an
expectation-chart metric or connection past the float range, raises ``NumericalError``.
Every function of a point also takes a stack of theta, shape (k, n), as one table with a
leading k axis.  The alpha-connections and their curvature, flat at alpha = +-1, are the
closed forms (Amari & Nagaoka, Methods of Information Geometry, ch. 2-3)

    natural chart:      Gamma^(alpha)_{ij,k} = (1-alpha)/2 T_ijk
    expectation chart:  Gamma^(alpha)_{ab,c} = (1+alpha)/2 phi'''_abc
                        = -(1+alpha)/2 B_ai B_bj B_ck T_ijk, with B = h^-1,
    curvature:          R^(alpha)_ijkl = (1-alpha^2)/4 h^mn (T_ikm T_jln - T_ilm T_jkn).

Their independent oracles by central finite differences in the natural chart
(duality defects, an FD curvature, cross-duality) live in ``igk._oracles``.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "fisher_metric",
    "christoffel_alpha",
    "curvature_tensor",
    "theta_grid",
]

CHARTS = ("natural", "expectation")

_GRID_SEED = 0


def _check_chart(chart):
    if chart not in CHARTS:
        raise DomainError(f"chart must be one of {CHARTS}, got {chart!r}")


def _inverse(fam, theta, a, b=None, what="Fisher metric"):
    """``inv(a)``, or ``solve(a, b)``, for a table whose row j belongs to point
    j % k of theta (n,) or (k, n); a singular matrix raises ``NumericalError``
    naming that point (``fam._row_error``)."""
    try:
        return np.linalg.inv(a) if b is None else np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        j = int(np.argmin(np.abs(np.linalg.slogdet(a)[0]).ravel()))  # a zero LU pivot
        raise fam._row_error(theta, j, f"{what} is singular") from None


def _dual(fam, theta, order):
    """phi'' (order 2) or phi''' (order 3) at a validated theta (n,) or (k, n) from the
    family's ``dual`` hook; None without one or past the float range, where reading h
    tells a singular metric from an overflowing inverse."""
    with np.errstate(all="ignore"):  # a zero or overflowing probability: h is read instead
        table = None if fam.dual is None else fam.dual(theta.reshape(-1, fam.dim), order)
    if table is not None and np.isfinite(table).all():
        return table if theta.ndim == 2 else table[0]


def _christoffel(T, alpha, B=None):
    """Closed-form Gamma^(alpha)_{ij,k} of an exponential family from T, in the
    natural chart, or given B = h^-1 in the expectation chart."""
    if B is None:
        return 0.5 * (1.0 - float(alpha)) * T
    return -0.5 * (1.0 + float(alpha)) * np.einsum(
        "...ai,...bj,...ck,...ijk->...abc", B, B, B, T)


def fisher_metric(fam, theta, chart="natural"):
    """Fisher metric components at a point, in the requested chart.

    The covariance h of the statistics, with no T built; a table that fails
    its normalization gate raises ``NumericalError``.  In the expectation
    chart the components are phi'' = h^-1 (``_dual``, else the matrix inverse of
    h); an inverse past the float range raises ``NumericalError`` too.
    A stack of theta, shape (k, n), gives a stack of metrics, shape (k, n, n).
    """
    _check_chart(chart)
    theta = fam._check_theta(theta)
    if chart == "expectation" and (phi2 := _dual(fam, theta, 2)) is not None:
        return phi2
    h = fam._cumulants(theta, 2)[1]
    if chart == "natural":
        return h
    return fam._finite(theta, _inverse(fam, theta, h), "inverse Fisher metric")


def christoffel_alpha(fam, theta, alpha, chart="natural"):
    """First-kind alpha-connection components Gamma[i, j, k] = Gamma_{ij,k}.

    Read from one (eta, h, T) table, or in the expectation chart from phi'''
    (``_dual``); a stack of theta gives a leading axis.  An expectation-chart table
    that leaves the float range raises ``NumericalError`` naming the row of a stack.
    """
    _check_chart(chart)
    theta = fam._check_theta(theta)
    phi3 = _dual(fam, theta, 3) if chart == "expectation" else None
    if phi3 is None:
        _, h, T = fam._cumulants(theta, 3)
        if chart == "natural":
            return _christoffel(T, alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by row
        gamma = (_christoffel(T, alpha, _inverse(fam, theta, h)) if phi3 is None
                 else 0.5 * (1.0 + float(alpha)) * phi3)
    return fam._finite(theta, gamma, "expectation-chart Christoffel table")


def _amari_curvature(hinv, T, alpha):
    """Closed-form lowered R^(alpha)_ijkl from hinv = h^-1 and T, one per point:
    A - A^(ij) with A_ijkl = h^mn T_ikm T_jln, since h^mn T_ilm T_jkn = A_jikl."""
    A = np.einsum("...mn,...ikm,...jln->...ijkl", hinv, T, T)
    return 0.25 * (1.0 - alpha * alpha) * (A - A.swapaxes(-4, -3))


def curvature_tensor(fam, theta, alpha):
    """Riemann tensor R[i, j, k, l] of the alpha-connection (last index up).

    The closed form, from one (eta, h, T) table row per point; a singular h,
    or a tensor past the float range, raises ``NumericalError`` naming the row.
    """
    theta = fam._check_theta(theta)
    _, h, T = fam._cumulants(theta, 3)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by row
        B = _inverse(fam, theta, h)
        R = np.einsum("...ijkm,...ml->...ijkl", _amari_curvature(B, T, float(alpha)), B)
    return fam._finite(theta, R, "curvature table")


def theta_grid(fam, count=20):
    """A deterministic grid of natural parameters inside the sample box.

    One- and two-dimensional families get regular meshes; higher dimensions
    fall back to a uniform sample seeded with ``_GRID_SEED``.  At least
    ``count`` points.
    """
    lo = np.asarray(fam.sample_box.lo)
    hi = np.asarray(fam.sample_box.hi)
    n = fam.dim
    if n == 1:
        m = max(count, 2)
        return np.linspace(lo[0], hi[0], m)[:, None]
    if n == 2:
        m = int(np.ceil(np.sqrt(count)))
        a = np.linspace(lo[0], hi[0], m)
        b = np.linspace(lo[1], hi[1], m)
        A, B = np.meshgrid(a, b, indexing="ij")
        return np.column_stack([A.ravel(), B.ravel()])
    rng = np.random.default_rng(np.random.PCG64(_GRID_SEED))
    return rng.uniform(lo, hi, size=(count, n))
