"""Dually flat geometry of an exponential family.

Every production formula reads one moment table per point,
``(eta, h, T) = fam.moment_tensors(theta)`` (finite summation or gated
quadrature): h is the covariance of the statistics and T their third
cumulant, the second and third derivatives of the log-partition.  The Fisher
metric is h in the natural chart, checked against the Hessian of the
log-partition on every call, and h^-1 in the expectation chart.  The
alpha-connections are the closed forms (Amari & Nagaoka, Methods of
Information Geometry, ch. 2-3)

    natural chart:      Gamma^(alpha)_{ij,k} = (1-alpha)/2 T_ijk
    expectation chart:  Gamma^(alpha)_{ab,c} = -(1+alpha)/2 B_ai B_bj B_ck T_ijk,
                        with B = h^-1.

Curvature and the duality defects are independent oracles by central finite
differences in the natural chart: of the second-kind Christoffel field
(step 1e-4, scaled by coordinate size) for curvature, of the metric (step
1e-5) for duality.  h and T do not depend on alpha, so one stencil serves
every alpha of an evaluation.
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


def _gated_moments(fam, theta):
    """(h, T) from one moment table, with h passed through the metric gate."""
    _, h, T = fam.moment_tensors(theta)
    _check_metric(fam, theta, h)
    return h, T


def _christoffel(h, T, alpha, chart):
    """Closed-form Gamma^(alpha)_{ij,k} of an exponential family from (h, T)."""
    if chart == "natural":
        return 0.5 * (1.0 - float(alpha)) * T
    B = np.linalg.inv(h)
    return -0.5 * (1.0 + float(alpha)) * np.einsum("ai,bj,ck,ijk->abc", B, B, B, T)


def fisher_metric(fam, point, chart="natural"):
    """Fisher metric components at a point, in the requested chart.

    The expectation formula is used; if it disagrees with the Hessian of the
    log-partition beyond 1e-7 a ``NumericalError`` is raised.  In the
    expectation chart the components are the matrix inverse of the
    natural-chart ones.
    """
    _check_chart(chart)
    h, _ = _gated_moments(fam, fam.natural_coords(point))
    return h if chart == "natural" else np.linalg.inv(h)


def christoffel_alpha(fam, point, alpha, chart="natural"):
    """First-kind alpha-connection components Gamma[i, j, k] = Gamma_{ij,k}."""
    _check_chart(chart)
    _, h, T = fam.moment_tensors(fam.natural_coords(point))
    return _christoffel(h, T, alpha, chart)


def _christoffel_second_kind(fam, theta, alphas):
    """Gamma2[a] = Gamma^(alphas[a]) . h^-1 in the natural chart at one point."""
    h, T = _gated_moments(fam, theta)
    inverse = np.linalg.inv(h)
    return np.stack([_christoffel(h, T, a, "natural") @ inverse for a in alphas])


def _curvatures(fam, point, alphas):
    """Riemann tensors R^(alpha)[i, j, k, l] for each alpha, from one stencil."""
    theta0 = fam.natural_coords(point)
    n = theta0.size
    gamma2 = _christoffel_second_kind(fam, theta0, alphas)

    def central(d, h):
        tp = theta0.copy()
        tm = theta0.copy()
        tp[d] += h
        tm[d] -= h
        return (
            _christoffel_second_kind(fam, tp, alphas)
            - _christoffel_second_kind(fam, tm, alphas)
        ) / (2.0 * h)

    dgamma = np.empty((len(alphas), n, n, n, n))
    for d in range(n):
        h = _CURVATURE_STEP * max(1.0, abs(theta0[d]))
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


def curvature_tensor(fam, point, alpha):
    """Riemann tensor R[i, j, k, l] of the alpha-connection (last index up).

    R(e_i, e_j) e_k = d_i Gamma2[j,k,:] - d_j Gamma2[i,k,:]
                      + Gamma2[i,m,:] Gamma2[j,k,m] - Gamma2[j,m,:] Gamma2[i,k,m],
    in the natural chart, with the Christoffel field differentiated centrally
    and Richardson-extrapolated once, so the truncation error is O(step^4);
    plain central differences leave ~1e-5 residuals where the Christoffels
    vary quickly (e.g. near the low-precision edge of the normal family box).
    """
    return _curvatures(fam, point, (alpha,))[0]


def _metric_derivative(fam, theta):
    """dh[d, j, k] = d_d h_jk by central differences of ``fisher_metric``."""
    n = theta.size
    dh = np.empty((n, n, n))
    for d in range(n):
        h = _DUALITY_STEP * max(1.0, abs(theta[d]))
        tp = theta.copy()
        tm = theta.copy()
        tp[d] += h
        tm[d] -= h
        dh[d] = (fisher_metric(fam, tp) - fisher_metric(fam, tm)) / (2.0 * h)
    return dh


def _duality_residuals(fam, point, alphas):
    """``duality_residual`` for each alpha, from one metric stencil."""
    theta = fam.natural_coords(point)
    dh = _metric_derivative(fam, theta)
    _, h, T = fam.moment_tensors(theta)
    out = []
    for a in alphas:
        ga = _christoffel(h, T, a, "natural")
        gm = _christoffel(h, T, -a, "natural")
        resid = dh - ga - np.transpose(gm, (0, 2, 1))
        out.append(float(np.max(np.abs(resid))))
    return out


def duality_residual(fam, point, alpha):
    """Defect of metric duality between the alpha- and (-alpha)-connections.

    Returns max |d_i h_jk - Gamma^(alpha)_{ij,k} - Gamma^(-alpha)_{ik,j}| in
    the natural chart, with the metric derivative taken by central finite
    differences.
    """
    return _duality_residuals(fam, point, (alpha,))[0]


def _skew_residual(ra, rm, h):
    """max |R^(alpha)_{ijkl} + R^(-alpha)_{ijlk}| with both lowered by h."""
    ra = np.einsum("ijkm,ml->ijkl", ra, h)
    rm = np.einsum("ijkm,ml->ijkl", rm, h)
    return float(np.max(np.abs(ra + np.transpose(rm, (0, 1, 3, 2)))))


def skew_duality_residual(fam, point, alpha):
    """Defect of the curvature skew-duality R^(alpha)_{ijkl} = -R^(-alpha)_{ijlk}.

    Indices are fully lowered with the Fisher metric at the point.
    """
    theta = fam.natural_coords(point)
    h = fisher_metric(fam, theta)
    ra, rm = _curvatures(fam, theta, (alpha, -alpha))
    return _skew_residual(ra, rm, h)


def cross_duality_residual(fam, point):
    """Defect of h . (d eta / d theta)^-1 = Id with the Jacobian from FD.

    The Jacobian of the mean map is differenced independently of the
    expectation-formula metric, so this really crosses two routes.  One
    Richardson step keeps the Jacobian truncation below the 1e-7 gate even
    where the mean map bends fast.
    """
    theta = fam.natural_coords(point)
    h = fisher_metric(fam, theta, "natural")
    J_h = fd_jacobian(fam.natural_to_expectation, theta, scale=_DUALITY_STEP)
    J_half = fd_jacobian(fam.natural_to_expectation, theta, scale=0.5 * _DUALITY_STEP)
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
