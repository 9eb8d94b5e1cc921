"""Dually flat geometry of an exponential family.

Every public function validates its point once, with ``natural_coords``, and
then reads one moment table ``(eta, h, T) = fam._cumulants(rows)`` per row
(closed-form cumulants, finite summation or quadrature, the last two behind a
normalization gate): h is the covariance of the statistics and T their third
cumulant, the second and third derivatives of the log-partition.  The Fisher
metric is h in the natural chart and h^-1 in the expectation chart; a
singular h, or an expectation-chart metric or connection past the float
range, raises ``NumericalError``.  Every function of a point also takes a
stack of theta, shape (k, n), as one table with a leading k axis.  The
alpha-connections and their curvature, flat at alpha = +-1, are the closed
forms (Amari & Nagaoka, Methods of Information Geometry, ch. 2-3)

    natural chart:      Gamma^(alpha)_{ij,k} = (1-alpha)/2 T_ijk
    expectation chart:  Gamma^(alpha)_{ab,c} = -(1+alpha)/2 B_ai B_bj B_ck T_ijk,
                        with B = h^-1,
    curvature:          R^(alpha)_ijkl = (1-alpha^2)/4 h^mn (T_ikm T_jln - T_ilm T_jkn).

The duality defects, and curvature again for skew-duality and ``igk verify``
(``_curvatures``), are independent oracles by central finite differences in
the natural chart, on the stencils of ``igk.numerics``.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .numerics import central_difference, relative_steps, stencil

__all__ = [
    "fisher_metric",
    "christoffel_alpha",
    "curvature_tensor",
    "duality_residual",
    "skew_duality_residual",
    "cross_duality_residual",
    "theta_grid",
]

CHARTS = ("natural", "expectation")

_CURVATURE_STEP = 1e-4
_DUALITY_STEP = 1e-5
_SATURATION = 1e-8  # largest FD rounding floor of cross-duality, relative to min eig h
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


def _christoffel(T, alpha, B=None):
    """Closed-form Gamma^(alpha)_{ij,k} of an exponential family from T, in the
    natural chart, or given B = h^-1 in the expectation chart."""
    if B is None:
        return 0.5 * (1.0 - float(alpha)) * T
    return -0.5 * (1.0 + float(alpha)) * np.einsum(
        "...ai,...bj,...ck,...ijk->...abc", B, B, B, T)


def _at_points(theta, table):
    """The rows of theta's points (n,) or (k, n) at the head of a table."""
    return table[:theta.size // theta.shape[-1]].reshape(theta.shape[:-1] + table.shape[1:])


def fisher_metric(fam, point, chart="natural"):
    """Fisher metric components at a point, in the requested chart.

    The covariance h of the statistics, with no T built; a table that fails
    its normalization gate raises ``NumericalError``.  In the expectation
    chart the components are the matrix inverse of the natural-chart ones;
    an inverse past the float range raises ``NumericalError`` too.
    A stack of theta, shape (k, n), gives a stack of metrics, shape (k, n, n).
    """
    _check_chart(chart)
    theta = fam.natural_coords(point)
    h = fam._cumulants(theta, 2)[1]
    if chart == "natural":
        return h
    return fam._finite(theta, _inverse(fam, theta, h), "inverse Fisher metric")


def christoffel_alpha(fam, point, alpha, chart="natural"):
    """First-kind alpha-connection components Gamma[i, j, k] = Gamma_{ij,k}.

    Read from one (eta, h, T) table; a stack of theta gives a leading axis.
    An expectation-chart table that leaves the float range raises
    ``NumericalError`` naming the row of a stack.
    """
    _check_chart(chart)
    theta = fam.natural_coords(point)
    _, h, T = fam._cumulants(theta, 3)
    if chart == "natural":
        return _christoffel(T, alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by row
        gamma = _christoffel(T, alpha, _inverse(fam, theta, h))
    return fam._finite(theta, gamma, "expectation-chart Christoffel table")


def _fd_stencil(fam, theta, scale, richardson=False, caller=None):
    """Relative steps and ``stencil`` rows of theta (n,) or (k, n); a row outside the
    domain refuses the caller's theta (``caller`` if theta is its stencil) at once."""
    step = relative_steps(theta, scale)
    rows = stencil(theta, step, richardson)
    inside = fam.domain.contains(rows)
    if not inside.all():
        named = theta if caller is None else caller
        points = named.reshape(-1, fam.dim)
        i = int(np.argmin(inside)) % len(points)  # row j of point i: j k + i
        raise fam._row_error(named, i, f"{points[i].tolist()} lies within one difference "
                             "step of the domain edge", DomainError)
    return step, rows


def _amari_curvature(hinv, T, alpha):
    """Closed-form lowered R^(alpha)_ijkl from hinv = h^-1 and T, one per point:
    A - A^(ij) with A_ijkl = h^mn T_ikm T_jln, since h^mn T_ilm T_jkn = A_jikl."""
    A = np.einsum("...mn,...ikm,...jln->...ijkl", hinv, T, T)
    return 0.25 * (1.0 - alpha * alpha) * (A - A.swapaxes(-4, -3))


def _curvatures(fam, theta, alphas):
    """FD oracle: Riemann tensors R^(alpha)[a, i, j, k, l] (last index up) for
    alphas[a] at a validated theta, from one stencil, and (h, T) at theta.

    R(e_i, e_j) e_k = d_i Gamma2[j,k,:] - d_j Gamma2[i,k,:]
                      + Gamma2[i,m,:] Gamma2[j,k,m] - Gamma2[j,m,:] Gamma2[i,k,m],
    with Gamma2 differenced centrally (step 1e-4, scaled by coordinate size)
    and Richardson-extrapolated once: O(step^4).  The point and its 4n stencil
    points are one moment table; a stack of k points gives R[a, p, i, j, k, l]
    from k (1 + 4n) rows.  Tensors past the float range raise ``NumericalError``.
    """
    step, rows = _fd_stencil(fam, theta, _CURVATURE_STEP, richardson=True)
    centers = theta.reshape(-1, fam.dim)
    with fam._naming(theta):
        _, h, T = fam._cumulants(np.concatenate([centers, rows]), 3)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by row
        gamma2 = np.stack([_christoffel(T, a) for a in alphas], axis=1) \
            @ _inverse(fam, theta, h)[:, None, None]
        g2 = _at_points(theta, gamma2)
        # dg[i, ..., j, k, l] = d_i Gamma2[j, k, l]; R is built with i first
        dg = central_difference(gamma2[len(centers):], step, richardson=True)
        R = np.swapaxes(dg - np.swapaxes(dg, 0, -3)
                        + np.einsum("...jkm,...iml->i...jkl", g2, g2)
                        - np.einsum("...ikm,...jml->i...jkl", g2, g2), 0, -4)
    fam._finite(theta, np.swapaxes(R, 0, -5), "curvature table")
    return R, _at_points(theta, h), _at_points(theta, T)


def curvature_tensor(fam, point, alpha):
    """Riemann tensor R[i, j, k, l] of the alpha-connection (last index up).

    The closed form, from one (eta, h, T) table row per point; a singular h,
    or a tensor past the float range, raises ``NumericalError`` naming the row.
    """
    theta = fam.natural_coords(point)
    _, h, T = fam._cumulants(theta, 3)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by row
        B = _inverse(fam, theta, h)
        R = np.einsum("...ijkm,...ml->...ijkl", _amari_curvature(B, T, float(alpha)), B)
    return fam._finite(theta, R, "curvature table")


def _metric_derivative(fam, theta):
    """dh[d, j, k] = d_d h_jk at a validated theta by central differences of the
    Fisher metric, all 2n stencil points in one table; a stack (k, n) gives
    (k, n, n, n)."""
    step, rows = _fd_stencil(fam, theta, _DUALITY_STEP)
    with fam._naming(theta):
        dh = central_difference(fam._cumulants(rows, 2)[1], step)
    return np.swapaxes(dh, 0, dh.ndim - 3)


def _duality_residuals(fam, theta, h, T, alphas):
    """Duality defects at a validated theta, whose moments are h and T, from one
    metric stencil: row a for alphas[a], columns the natural and the
    expectation chart.  A stack of k thetas gives a leading k axis; a point
    whose defects leave the float range raises ``NumericalError``."""
    dh = _metric_derivative(fam, theta)
    out = np.empty(h.shape[:-2] + (len(alphas), 2))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by row
        B = _inverse(fam, theta, h)
        # d/d eta_a = B_ad d/d theta_d and d(h^-1) = -B dh B give d_a g in eta
        dg = -np.einsum("...ad,...bi,...cj,...dij->...abc", B, B, B, dh)
        for a, alpha in enumerate(alphas):
            for c, (deriv, chart) in enumerate(((dh, None), (dg, B))):
                ga = _christoffel(T, alpha, chart)
                gm = _christoffel(T, -alpha, chart)
                out[..., a, c] = np.max(np.abs(deriv - ga - np.swapaxes(gm, -1, -2)),
                                        axis=(-3, -2, -1))
    return fam._finite(theta, out, "duality defect table")


def duality_residual(fam, point, alpha):
    """Defect of metric duality between the alpha- and (-alpha)-connections.

    Returns max |d_i h_jk - Gamma^(alpha)_{ij,k} - Gamma^(-alpha)_{ik,j}| in
    the natural chart, with the metric derivative taken by central finite
    differences.
    """
    theta = fam.natural_coords(point)
    _, h, T = fam._cumulants(theta, 3)
    res = _duality_residuals(fam, theta, h, T, (alpha,))[..., 0, 0]
    return float(res) if theta.ndim == 1 else res


def _skew_residual(ra, rm, h):
    """max |R^(alpha)_{ijkl} + R^(-alpha)_{ijlk}| with both lowered by h, one
    per point of a stack."""
    ra = np.einsum("...ijkm,...ml->...ijkl", ra, h)
    rm = np.einsum("...ijkm,...ml->...ijkl", rm, h)
    return np.max(np.abs(ra + np.swapaxes(rm, -1, -2)), axis=(-4, -3, -2, -1))


def skew_duality_residual(fam, point, alpha):
    """Defect of the curvature skew-duality R^(alpha)_{ijkl} = -R^(-alpha)_{ijlk}.

    Indices are fully lowered with the Fisher metric at the point, read from
    the curvature table.
    """
    theta = fam.natural_coords(point)
    R, h, _ = _curvatures(fam, theta, (alpha, -alpha))
    res = _skew_residual(*R, h)
    return float(res) if theta.ndim == 1 else res


def cross_duality_residual(fam, point):
    """Defect of h . (d eta / d theta)^-1 = Id with the Jacobian from FD.

    The Jacobian of the mean map is differenced independently of the
    expectation-formula metric, so this really crosses two routes.  One
    Richardson step keeps the Jacobian truncation below the 1e-7 gate even
    where the mean map bends fast.  A stack of points gives one each.  Where
    the mean map saturates, so that the Jacobian's rounding floor
    eps max|eta| / step exceeds 1e-8 min eig h, ``NumericalError`` is raised
    with that ratio as its residual.
    """
    theta = fam.natural_coords(point)
    # h at the points and eta on all 4n stencil points (both step sizes): one table
    step, rows = _fd_stencil(fam, theta, _DUALITY_STEP, richardson=True)
    centers = theta.reshape(-1, fam.dim)
    with fam._naming(theta):
        eta, h = fam._cumulants(np.concatenate([centers, rows]), 2)
    J = np.moveaxis(central_difference(eta[len(centers):], step, richardson=True), 0, -1)
    J_inv = _inverse(fam, theta, J, what="mean-map Jacobian")
    # past the floor the defect measures eta's rounding, not the duality
    floor = np.finfo(float).eps * np.abs(eta[:len(centers)]).max(axis=1) \
        / step.reshape(centers.shape).min(axis=1)
    with np.errstate(divide="ignore"):  # an h with a zero eigenvalue is refused
        ratio = floor / np.linalg.eigvalsh(h[:len(centers)])[:, 0]
    if not (ratio <= _SATURATION).all():
        i = int(np.argmin(ratio <= _SATURATION))
        raise fam._row_error(theta, i, "the mean map saturates past the reach of its FD "
                             "Jacobian", residual=float(ratio[i]))
    res = np.max(np.abs(_at_points(theta, h) @ J_inv - np.eye(fam.dim)), axis=(-2, -1))
    return float(res) if theta.ndim == 1 else res


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
