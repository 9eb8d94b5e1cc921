"""Complex projective space as a Kähler quotient for statistical models.

States are rays [z] in C^m with the Fubini-Study metric; in the affine chart
centered at a unit vector u, phi_u([z]) = z / <u, z> - u, the metric and
symplectic form at the chart center are g = Re<.,.> and omega = Im<.,.> on
u-perp.  Inner products are conjugate-linear in the first slot.

The lift of a positive probability vector with a centered fiber angle is

    tau(p, u) = [ sqrt(p_k) exp(i u_k / 2) ],

invariant under the deck shifts u -> u + 4 pi (m - E_p(m)) for integer m,
and pi([z])_k = |z_k|^2 projects back.  tau scales the simplex tangent-bundle
metric and symplectic form by 1/4 into the Fubini-Study ones.

Skew-Hermitian matrices act as Hamiltonians through the comomentum map
xi_A([z]) = (i/2) <z, A z> / <z, z>, a Lie-algebra morphism onto the Poisson
algebra.  Hermitian matrices H correspond to xi_{-2iH}; their spectral data
give point spectra, transition probabilities |(Uz)_k|^2, eigenmanifold
projections with the cos^2 law, and an exact quantum Cramér-Rao identity
Var = |grad f|^2 / 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, UndefinedProjectionError

__all__ = [
    "ProjectivePoint",
    "KahlerObservableCP",
    "SpectralReport",
    "tau",
    "deck_shift",
    "pi_projection",
    "fubini_study_distance",
    "xi_value",
    "observable_from_hermitian",
    "spectrum_and_probabilities",
    "eigenmanifold_projection",
    "cramer_rao_residual",
    "chart_basis",
    "fd_chart_gradient",
    "fd_poisson_bracket",
    "lie_morphism_residual",
    "tau_differential",
    "pullback_scaling_check",
]

_UNITARY_TOL = 1e-10
_SKEW_TOL = 1e-10
_GROUP_TOL = 1e-9
_PROJECTION_TOL = 1e-8
_TAU_TOL = 1e-10  # |sum p - 1| and |E_p u| accepted by tau
_CHART_STEP = 1e-5  # FD step in the normal chart of a ray
_TAU_STEP = 1e-6  # FD step along a curve of the simplex tangent bundle


@dataclass(frozen=True)
class ProjectivePoint:
    """A ray in C^m, stored as a unit homogeneous representative."""

    homogeneous: np.ndarray

    def __init__(self, homogeneous):
        z = np.asarray(homogeneous, dtype=complex).reshape(-1)
        if z.size < 2:
            raise DomainError("projective points need an ambient dimension >= 2")
        norm = float(np.linalg.norm(z))
        if not np.isfinite(norm) or norm <= 0.0:
            raise DomainError("homogeneous coordinates must be a nonzero vector")
        object.__setattr__(self, "homogeneous", z / norm)

    @property
    def dim(self):
        """Complex dimension of the projective space."""
        return self.homogeneous.size - 1

    def equal(self, other, tol=1e-12):
        """Same ray up to phase: |<z, w>| >= 1 - tol."""
        return abs(np.vdot(self.homogeneous, other.homogeneous)) >= 1.0 - tol


def _as_homogeneous(point):
    if isinstance(point, ProjectivePoint):
        return point.homogeneous
    return ProjectivePoint(point).homogeneous


def fubini_study_distance(a, b):
    """Geodesic distance arccos |<z, w>| between two rays."""
    za, zb = _as_homogeneous(a), _as_homogeneous(b)
    return float(np.arccos(np.clip(abs(np.vdot(za, zb)), -1.0, 1.0)))


def pi_projection(point):
    """Coordinate probabilities |z_k|^2 of a ray."""
    z = _as_homogeneous(point)
    return np.abs(z) ** 2


def tau(p, u):
    """Lift a positive probability vector and centered fiber angle to a ray.

    Requires p > 0, sum p = 1 and the centering sum p_k u_k = 0, all within
    ``_TAU_TOL``; the representative sqrt(p_k) exp(i u_k / 2) is automatically
    unit.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    if p.shape != u.shape or p.ndim != 1:
        raise DomainError("tau needs matching 1-d probability and angle vectors")
    if np.any(p <= 0.0):
        raise DomainError("tau needs strictly positive probabilities")
    if abs(p.sum() - 1.0) > _TAU_TOL:
        raise DomainError(f"probabilities must sum to 1 (off by {p.sum() - 1.0:.2e})")
    if abs(p @ u) > _TAU_TOL:
        raise DomainError(f"fiber angles must be p-centered (E_p u = {p @ u:.2e})")
    return ProjectivePoint(np.sqrt(p) * np.exp(0.5j * u))


def deck_shift(p, u, m):
    """The deck transformation u -> u + 4 pi (m - E_p(m)) for integer m."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    m = np.asarray(m, dtype=float)
    if np.any(np.abs(m - np.round(m)) > 0):
        raise DomainError("deck shifts need an integer vector")
    return u + 4.0 * np.pi * (m - p @ m)


# ----- charts and finite-difference calculus --------------------------------


def chart_basis(z):
    """A complex-orthonormal basis of z-perp (deterministic via SVD)."""
    z = _as_homogeneous(z)
    m = z.size
    proj = np.eye(m, dtype=complex) - np.outer(z, z.conj())
    U, s, _ = np.linalg.svd(proj)
    return U[:, : m - 1]


def _chart_point(z, basis, s, t):
    xi = basis @ (np.asarray(s) + 1j * np.asarray(t))
    return z + xi


def _chart_coords(z, basis, w):
    """Chart coordinates of a ray w near the chart center z."""
    denom = np.vdot(z, w)
    if abs(denom) == 0.0:
        raise DomainError("point lies on the chart's hyperplane at infinity")
    xi = w / denom - z
    return basis.conj().T @ xi


def fd_chart_gradient(fun, z):
    """Real gradient of a ray function in the normal chart at z.

    ``fun`` takes a homogeneous vector (not necessarily normalized); the
    gradient is with respect to the 2(m-1) real coordinates (s_j, t_j) over
    a complex-orthonormal basis of z-perp, in which the Fubini-Study metric
    at the center is the identity.
    """
    z = _as_homogeneous(z)
    basis = chart_basis(z)
    k = basis.shape[1]
    grad = np.empty(2 * k)
    for j in range(k):
        for part in (0, 1):
            e = np.zeros(k)
            e[j] = _CHART_STEP
            s = e if part == 0 else np.zeros(k)
            t = e if part == 1 else np.zeros(k)
            fp = fun(_chart_point(z, basis, s, t))
            fm = fun(_chart_point(z, basis, -s, -t))
            grad[part * k + j] = (fp - fm) / (2.0 * _CHART_STEP)
    return grad


def fd_poisson_bracket(fun_a, fun_b, z):
    """Fubini-Study Poisson bracket of two ray functions at z, by FD.

    With omega = Im<.,.> the chart coordinates are canonical and
    {f, g} = sum_j (df/ds_j dg/dt_j - df/dt_j dg/ds_j).
    """
    ga = fd_chart_gradient(fun_a, z)
    gb = fd_chart_gradient(fun_b, z)
    k = ga.size // 2
    return float(ga[:k] @ gb[k:] - ga[k:] @ gb[:k])


# ----- comomentum map --------------------------------------------------------


def xi_value(A, point, check=True):
    """The comomentum observable xi_A([z]) = (i/2) <z, A z> / <z, z>."""
    A = np.asarray(A, dtype=complex)
    if check:
        skew = float(np.max(np.abs(A + A.conj().T)))
        if skew > _SKEW_TOL:
            raise DomainError(f"matrix is not skew-Hermitian (defect {skew:.2e})")
    z = np.asarray(
        point.homogeneous if isinstance(point, ProjectivePoint) else point,
        dtype=complex,
    ).reshape(-1)
    return float((0.5j * np.vdot(z, A @ z)).real / np.vdot(z, z).real)


def lie_morphism_residual(A, B, z):
    """|xi_[A,B](z) - {xi_A, xi_B}(z)| with the bracket evaluated by FD."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    comm = A @ B - B @ A
    lhs = xi_value(comm, z)
    rhs = fd_poisson_bracket(
        lambda w: xi_value(A, w, check=False),
        lambda w: xi_value(B, w, check=False),
        z,
    )
    return abs(lhs - rhs)


# ----- spectral theory --------------------------------------------------------


@dataclass(frozen=True)
class KahlerObservableCP:
    """Spectral data (eigenvalues X, unitary U) with f([z]) = sum X_k |(Uz)_k|^2."""

    eigenvalues: np.ndarray
    frame: np.ndarray

    def __init__(self, eigenvalues, frame):
        X = np.asarray(eigenvalues, dtype=float).reshape(-1)
        U = np.asarray(frame, dtype=complex)
        if U.shape != (X.size, X.size):
            raise DomainError("frame must be square and match the eigenvalues")
        defect = float(np.max(np.abs(U @ U.conj().T - np.eye(X.size))))
        if defect > _UNITARY_TOL:
            raise DomainError(f"frame is not unitary (defect {defect:.2e})")
        object.__setattr__(self, "eigenvalues", X)
        object.__setattr__(self, "frame", U)

    def value(self, point):
        z = _as_homogeneous(point)
        return float(self.eigenvalues @ (np.abs(self.frame @ z) ** 2))

    def hermitian_matrix(self):
        return self.frame.conj().T @ np.diag(self.eigenvalues) @ self.frame


def observable_from_hermitian(H):
    """Spectral form of the ray function [z] -> <z, H z> / <z, z>."""
    H = np.asarray(H, dtype=complex)
    defect = float(np.max(np.abs(H - H.conj().T)))
    if defect > _SKEW_TOL:
        raise DomainError(f"matrix is not Hermitian (defect {defect:.2e})")
    w, V = np.linalg.eigh(H)
    return KahlerObservableCP(w, V.conj().T)


@dataclass(frozen=True)
class SpectralReport:
    """Distinct levels of an observable with their transition probabilities."""

    levels: np.ndarray
    probabilities: np.ndarray


def spectrum_and_probabilities(obs, point):
    """Distinct eigenvalues (grouped within ``_GROUP_TOL``) and their weights.

    Levels come out ascending regardless of how the frame rows are ordered.
    """
    z = _as_homogeneous(point)
    weights = np.abs(obs.frame @ z) ** 2
    order = np.argsort(obs.eigenvalues, kind="stable")
    levels = []
    probs = []
    for idx in order:
        lam, wk = obs.eigenvalues[idx], weights[idx]
        if levels and abs(lam - levels[-1]) <= _GROUP_TOL:
            probs[-1] += wk
        else:
            levels.append(lam)
            probs.append(wk)
    return SpectralReport(np.asarray(levels), np.asarray(probs))


def eigenmanifold_projection(obs, level, point):
    """Project a ray onto the eigenmanifold of a level.

    Returns (projected point, Fubini-Study distance).  The squared cosine of
    the distance equals the transition probability of the level; a state
    orthogonal to the eigenspace (probability below 1e-8) has no projection
    and raises ``UndefinedProjectionError``.
    """
    z = _as_homogeneous(point)
    mask = np.abs(obs.eigenvalues - float(level)) <= _GROUP_TOL
    if not np.any(mask):
        raise DomainError(f"{level!r} is not in the spectrum")
    c = obs.frame @ z
    c_masked = np.where(mask, c, 0.0)
    weight = float(np.vdot(c_masked, c_masked).real)
    if weight < _PROJECTION_TOL:
        raise UndefinedProjectionError(
            f"state is orthogonal to the eigenmanifold of level {level!r}"
        )
    z_proj = obs.frame.conj().T @ c_masked
    proj_point = ProjectivePoint(z_proj)
    dist = fubini_study_distance(proj_point, point)
    return proj_point, dist


def cramer_rao_residual(obs, point):
    """Defect of Var_z(obs) = |grad_FS f|^2 / 4 at a ray, gradient by FD."""
    z = _as_homogeneous(point)
    p = np.abs(obs.frame @ z) ** 2
    mean = float(obs.eigenvalues @ p)
    var = float((obs.eigenvalues - mean) ** 2 @ p)
    H = obs.hermitian_matrix()

    def fun(w):
        return float(np.vdot(w, H @ w).real / np.vdot(w, w).real)

    grad = fd_chart_gradient(fun, z)
    return abs(var - 0.25 * float(grad @ grad))


# ----- the statistical lift ---------------------------------------------------


def tau_differential(p, u, v, w):
    """Pushforward of a simplex tangent-bundle vector through tau, by FD.

    The tangent vector at (p, u) is given in the exponential representation:
    the base curve is p(t) = p e^{tv} / Z(t) and the fiber curve keeps the
    centering, u(t) = u + t w - E_{p(t)}(u + t w).  Returns the chart
    velocity (complex coordinates over a basis of tau(p,u)-perp).
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    z0 = tau(p, u).homogeneous
    basis = chart_basis(z0)

    def coords(t):
        pt = p * np.exp(t * v)
        pt = pt / pt.sum()
        ut = u + t * w
        ut = ut - (pt @ ut)
        zt = tau(pt, ut).homogeneous
        return _chart_coords(z0, basis, zt)

    return (coords(_TAU_STEP) - coords(-_TAU_STEP)) / (2.0 * _TAU_STEP)


def pullback_scaling_check(fam, p, u, pair_a, pair_b):
    """Residuals of tau* g_FS = (1/4) g and tau* omega_FS = (1/4) omega.

    ``pair_a`` and ``pair_b`` are (v, w) tangent vectors in the exponential
    representation.  The right-hand sides are evaluated through the
    tangent-bundle structure matrices of the given categorical family, with
    base/fiber components theta_dot_i = v_i - v_n (last point is the chart
    reference).  Returns (metric residual, symplectic residual).
    """
    from .tangent_bundle import kahler_structure_at

    p = np.asarray(p, dtype=float)
    va, wa = (np.asarray(x, dtype=float) for x in pair_a)
    vb, wb = (np.asarray(x, dtype=float) for x in pair_b)
    da = tau_differential(p, u, va, wa)
    db = tau_differential(p, u, vb, wb)
    ip = np.vdot(da, db)
    g_fs = float(ip.real)
    o_fs = float(ip.imag)

    theta = np.log(p[:-1]) - np.log(p[-1])
    struct = kahler_structure_at(fam, theta)
    ta = np.concatenate([va[:-1] - va[-1], wa[:-1] - wa[-1]])
    tb = np.concatenate([vb[:-1] - vb[-1], wb[:-1] - wb[-1]])
    g_base = float(ta @ struct.metric @ tb)
    o_base = float(ta @ struct.omega @ tb)
    return abs(g_fs - 0.25 * g_base), abs(o_fs - 0.25 * o_base)
