"""Dually flat geometry of an exponential family.

The Fisher metric is computed from the expectation formula

    h_ij = E[ d_i log p . d_j log p ]

and cross-checked against the Hessian of the log-partition on every call.
The alpha-connections come from the expectation formula

    Gamma^(alpha)_{ij,k} = E[ (d_i d_j log p + (1-alpha)/2 d_i log p d_j log p)
                              d_k log p ]

evaluated exactly (finite summation or gated quadrature), in either the
natural or the expectation chart.  Scores in the natural chart are
d_i log p = F_i - eta_i and d_i d_j log p = -h_ij; the expectation-chart
scores follow by pushing through the inverse Fisher matrix and the third
cumulant tensor.  Curvature uses central finite differences of the
second-kind Christoffel field (step 1e-4, scaled by coordinate size).

Neither the score tables nor the metric depend on alpha: Gamma^(alpha) is
``first + (1-alpha)/2 third`` with both parts from one weighted support.  So
one FD stencil of score tables (one gated quadrature per stencil point)
serves every alpha of a curvature or skew-duality evaluation, and one
stencil of metrics serves every alpha of a duality evaluation.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericalError
from .numerics import fd_jacobian

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

_METRIC_AGREEMENT_TOL = 1e-7
_CURVATURE_STEP = 1e-4
_DUALITY_STEP = 1e-5


def _check_chart(chart):
    if chart not in CHARTS:
        raise DomainError(f"chart must be one of {CHARTS}, got {chart!r}")


def _score_tables(fam, theta):
    """Weights and natural-chart score arrays at theta.

    Returns (w, s1, s2) with s1[i, m] = F_i(x_m) - eta_i and s2[i, j] the
    (constant in x) second log-derivative.  All three come from the same
    weighted support, so the exact-cancellation identities (flatness of the
    exponential and mixture connections) survive in floating point.
    """
    x, w = fam.weighted_support(theta)
    F = fam.statistic_matrix(x)
    eta = F @ w
    s1 = F - eta[:, None]
    s2 = -(s1 * w) @ s1.T
    return w, s1, s2


def _check_metric(fam, theta, h):
    """Raise unless the expectation-formula metric h matches the psi Hessian."""
    href = fam.log_partition_hessian(theta)
    mismatch = float(np.max(np.abs(h - href)))
    if mismatch > _METRIC_AGREEMENT_TOL:
        raise NumericalError(
            f"{fam.name}: expectation-formula metric disagrees with the "
            f"log-partition Hessian",
            residual=mismatch,
        )


def fisher_metric(fam, point, chart="natural"):
    """Fisher metric components at a point, in the requested chart.

    The expectation formula is used; if it disagrees with the Hessian of the
    log-partition beyond 1e-7 a ``NumericalError`` is raised.  In the
    expectation chart the components are the matrix inverse of the
    natural-chart ones.
    """
    _check_chart(chart)
    theta = fam.natural_coords(point)
    w, s1, _ = _score_tables(fam, theta)
    h = (s1 * w) @ s1.T
    _check_metric(fam, theta, h)
    if chart == "natural":
        return h
    return np.linalg.inv(h)


def _connection_tables(fam, theta, chart):
    """(first, third, h) with Gamma^(alpha) = first + (1-alpha)/2 third.

    ``h`` is the natural-chart expectation-formula metric (not gated here);
    all three come from one weighted support.
    """
    w, s1, s2 = _score_tables(fam, theta)
    h = (s1 * w) @ s1.T
    if chart == "natural":
        # E[ s2_ij s1_k ] and E[ s1_i s1_j s1_k ]; s2 is constant in x.
        first = np.einsum("ij,m,km->ijk", s2, w, s1)
        third = np.einsum("im,jm,km,m->ijk", s1, s1, s1, w)
        return first, third, h
    # The metric must come from the same weighted support as the cumulant
    # tensors below; otherwise the mixture-connection components pick up the
    # discrepancy between the two metric routes instead of cancelling exactly.
    B = np.linalg.inv(h)
    T = np.einsum("im,jm,km,m->ijk", s1, s1, s1, w)  # third cumulant tensor
    s1p = B @ s1  # scores in the expectation chart
    # d h / d eta_a = sum_d T[., ., d] B[d, a]; then
    # s2'_ab = -(B dH_a B)_bc s1_c - B_ab pointwise.
    dH = np.einsum("uvd,da->uva", T, B)
    coeff = -np.einsum("bu,uva,vc->abc", B, dH, B)
    s2p = np.einsum("abc,cm->abm", coeff, s1) - B[:, :, None]
    first = np.einsum("abm,cm,m->abc", s2p, s1p, w)
    third = np.einsum("am,bm,cm,m->abc", s1p, s1p, s1p, w)
    return first, third, h


def christoffel_alpha(fam, point, alpha, chart="natural"):
    """First-kind alpha-connection components Gamma[i, j, k] = Gamma_{ij,k}."""
    _check_chart(chart)
    theta = fam.natural_coords(point)
    first, third, _ = _connection_tables(fam, theta, chart)
    return first + 0.5 * (1.0 - float(alpha)) * third


def _coords_of(fam, point, chart):
    theta = fam.natural_coords(point)
    if chart == "natural":
        return theta
    return fam.natural_to_expectation(theta)


def _theta_from_coords(fam, coords, chart):
    if chart == "natural":
        return coords
    return fam.expectation_to_natural(coords)


def _christoffel_second_kind(fam, coords, alphas, chart):
    """Gamma2[a] = Gamma^(alphas[a]) . metric^-1 at one stencil point.

    One weighted support serves every alpha, and the metric passes the same
    gate as ``fisher_metric``.
    """
    theta = fam.natural_coords(_theta_from_coords(fam, coords, chart))
    first, third, h = _connection_tables(fam, theta, chart)
    _check_metric(fam, theta, h)
    metric = h if chart == "natural" else np.linalg.inv(h)
    # inv(inv(h)) rather than h in the expectation chart: the FD residuals
    # that verify reports are pinned to these last bits.
    inverse = np.linalg.inv(metric)
    return np.stack([
        np.einsum("ijl,lk->ijk", first + 0.5 * (1.0 - float(a)) * third, inverse)
        for a in alphas
    ])


def _curvatures(fam, point, alphas, chart="natural", step=_CURVATURE_STEP):
    """Riemann tensors R^(alpha)[i, j, k, l] for each alpha, from one stencil."""
    _check_chart(chart)
    coords0 = _coords_of(fam, point, chart)
    n = coords0.size
    gamma2 = _christoffel_second_kind(fam, coords0, alphas, chart)

    def central(d, h):
        cp = coords0.copy()
        cm = coords0.copy()
        cp[d] += h
        cm[d] -= h
        return (
            _christoffel_second_kind(fam, cp, alphas, chart)
            - _christoffel_second_kind(fam, cm, alphas, chart)
        ) / (2.0 * h)

    dgamma = np.empty((len(alphas), n, n, n, n))
    for d in range(n):
        h = step * max(1.0, abs(coords0[d]))
        dgamma[:, d] = (4.0 * central(d, 0.5 * h) - central(d, h)) / 3.0
    out = []
    for dg, g2 in zip(dgamma, gamma2):
        R = np.empty((n, n, n, n))
        for i in range(n):
            for j in range(n):
                R[i, j] = (
                    dg[i, j] - dg[j, i]
                    + np.einsum("km,ml->kl", g2[j], g2[i])
                    - np.einsum("km,ml->kl", g2[i], g2[j])
                )
        out.append(R)
    return out


def curvature_tensor(fam, point, alpha, chart="natural", step=_CURVATURE_STEP):
    """Riemann tensor R[i, j, k, l] of the alpha-connection (last index up).

    R(e_i, e_j) e_k = d_i Gamma2[j,k,:] - d_j Gamma2[i,k,:]
                      + Gamma2[i,m,:] Gamma2[j,k,m] - Gamma2[j,m,:] Gamma2[i,k,m],
    with the Christoffel field differentiated centrally in the chart coords
    and Richardson-extrapolated once, so the truncation error is O(step^4);
    plain central differences leave ~1e-5 residuals where the Christoffels
    vary quickly (e.g. near the low-precision edge of the normal family box).
    """
    return _curvatures(fam, point, (alpha,), chart, step)[0]


def _duality_residuals(fam, point, alphas, chart="natural", step=_DUALITY_STEP):
    """``duality_residual`` for each alpha, from one metric stencil."""
    _check_chart(chart)
    coords0 = _coords_of(fam, point, chart)
    n = coords0.size
    dh = np.empty((n, n, n))
    for d in range(n):
        h = step * max(1.0, abs(coords0[d]))
        cp = coords0.copy()
        cm = coords0.copy()
        cp[d] += h
        cm[d] -= h
        dh[d] = (
            fisher_metric(fam, _theta_from_coords(fam, cp, chart), chart)
            - fisher_metric(fam, _theta_from_coords(fam, cm, chart), chart)
        ) / (2.0 * h)
    theta = fam.natural_coords(_theta_from_coords(fam, coords0, chart))
    first, third, _ = _connection_tables(fam, theta, chart)
    out = []
    for a in alphas:
        ga = first + 0.5 * (1.0 - float(a)) * third
        gm = first + 0.5 * (1.0 - float(-a)) * third
        resid = dh - ga - np.transpose(gm, (0, 2, 1))
        out.append(float(np.max(np.abs(resid))))
    return out


def duality_residual(fam, point, alpha, chart="natural", step=_DUALITY_STEP):
    """Defect of metric duality between the alpha- and (-alpha)-connections.

    Returns max |d_i h_jk - Gamma^(alpha)_{ij,k} - Gamma^(-alpha)_{ik,j}|
    with the metric derivative taken by central finite differences.
    """
    return _duality_residuals(fam, point, (alpha,), chart, step)[0]


def _skew_residual(ra, rm, h):
    """max |R^(alpha)_{ijkl} + R^(-alpha)_{ijlk}| with both lowered by h."""
    ra = np.einsum("ijkm,ml->ijkl", ra, h)
    rm = np.einsum("ijkm,ml->ijkl", rm, h)
    return float(np.max(np.abs(ra + np.transpose(rm, (0, 1, 3, 2)))))


def skew_duality_residual(fam, point, alpha, chart="natural", step=_CURVATURE_STEP):
    """Defect of the curvature skew-duality R^(alpha)_{ijkl} = -R^(-alpha)_{ijlk}.

    Indices are fully lowered with the Fisher metric at the point.
    """
    theta = fam.natural_coords(point)
    h = fisher_metric(fam, theta, chart)
    ra, rm = _curvatures(fam, theta, (alpha, -alpha), chart, step)
    return _skew_residual(ra, rm, h)


def cross_duality_residual(fam, point, step=_DUALITY_STEP):
    """Defect of h . (d eta / d theta)^-1 = Id with the Jacobian from FD.

    The Jacobian of the mean map is differenced independently of the
    expectation-formula metric, so this really crosses two routes.  One
    Richardson step keeps the Jacobian truncation below the 1e-7 gate even
    where the mean map bends fast.
    """
    theta = fam.natural_coords(point)
    h = fisher_metric(fam, theta, "natural")
    J_h = fd_jacobian(fam.natural_to_expectation, theta, scale=step)
    J_half = fd_jacobian(fam.natural_to_expectation, theta, scale=0.5 * step)
    J = (4.0 * J_half - J_h) / 3.0
    return float(np.max(np.abs(h @ np.linalg.inv(J) - np.eye(theta.size))))


def theta_grid(fam, count=20, seed=0):
    """A deterministic grid of natural parameters inside the sample box.

    One- and two-dimensional families get regular meshes; higher dimensions
    fall back to a seeded uniform sample.  At least ``count`` points.
    """
    box = fam.sample_box or _box_fallback(fam)
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
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
    rng = np.random.default_rng(np.random.PCG64(seed))
    return rng.uniform(lo, hi, size=(count, n))


def _box_fallback(fam):
    from .families import Box

    lo = tuple(max(a, -1.0) + 0.05 for a in fam.domain.lo)
    hi = tuple(min(b, 1.0) - 0.05 for b in fam.domain.hi)
    return Box(lo, hi)
