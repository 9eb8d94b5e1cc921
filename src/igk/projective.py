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

The finite-difference oracles take ray functions on stacks, (p, m) -> p
reals, so a whole chart stencil of 4(m-1) points is one call; the
differences are taken by ``igk.numerics.central_difference``.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, UndefinedProjectionError
from .numerics import Record, central_difference, stencil

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


class ProjectivePoint(Record):
    """A ray in C^m, stored as a unit homogeneous representative."""

    __slots__ = _fields = ("homogeneous",)

    def __init__(self, homogeneous):
        super().__init__(_rays(np.asarray(homogeneous, dtype=complex).reshape(-1)))

    @property
    def dim(self):
        """Complex dimension of the projective space."""
        return self.homogeneous.size - 1

    def equal(self, other, tol=1e-12):
        """Same ray up to phase: |<z, w>| >= 1 - tol."""
        return abs(np.vdot(self.homogeneous, other.homogeneous)) >= 1.0 - tol


def _rays(point):
    """Unit vectors of a ray, a vector (m,) or each row of a stack (k, m); each
    norm is summed as ``np.linalg.norm`` sums one vector."""
    if isinstance(point, ProjectivePoint):
        return point.homogeneous
    z = np.asarray(point, dtype=complex)
    z = z if z.ndim == 2 else z.reshape(-1)
    if z.shape[-1] < 2:
        raise DomainError("projective points need an ambient dimension >= 2")
    norm = np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))[..., None]
    if not ((norm > 0.0) & (norm < np.inf)).all():
        raise DomainError("homogeneous coordinates must be a nonzero vector")
    return z / norm


def _apply(M, z):
    """M z for a matrix and a vector, or row by row for stacks (k, m, m), (k, m)."""
    return (M @ z[..., None])[..., 0]


def _scalar(x):
    """A 0-d result as a float; a stack's results as they are."""
    return float(x) if np.ndim(x) == 0 else x


def fubini_study_distance(a, b):
    """Geodesic distance arccos |<z, w>| between two rays (row by row for two
    stacks)."""
    return _scalar(np.arccos(np.minimum(np.abs(np.vecdot(_rays(a), _rays(b))), 1.0)))


def pi_projection(point):
    """Coordinate probabilities |z_k|^2 of a ray."""
    return np.abs(_rays(point)) ** 2


def _lift(p, u):
    """sqrt(p_k) exp(i u_k / 2) for rows (..., m) of p and u, checked as in ``tau``."""
    if p.shape != u.shape:
        raise DomainError("tau needs matching probability and angle vectors")
    if np.any(p <= 0.0):
        raise DomainError("tau needs strictly positive probabilities")
    mass = float(np.max(np.abs(p.sum(axis=-1) - 1.0)))
    center = float(np.max(np.abs(np.sum(p * u, axis=-1))))
    if not mass <= _TAU_TOL:
        raise DomainError(f"probabilities must sum to 1 (off by {mass:.2e})")
    if not center <= _TAU_TOL:
        raise DomainError(f"fiber angles must be p-centered (|E_p u| = {center:.2e})")
    return np.sqrt(p) * np.exp(0.5j * u)


def tau(p, u):
    """Lift a positive probability vector and centered fiber angle to a ray.

    Requires p > 0, sum p = 1 and the centering sum p_k u_k = 0, all within
    ``_TAU_TOL``; the representative sqrt(p_k) exp(i u_k / 2) is automatically
    unit.  Stacks (k, m) of p and u give k unit rays as rows (k, m).
    """
    p, u = (np.asarray(x, dtype=float) for x in (p, u))
    if p.ndim not in (1, 2):
        raise DomainError("tau needs probability vectors (m,) or stacks of them (k, m)")
    z = _lift(p, u)
    return ProjectivePoint(z) if z.ndim == 1 else _rays(z)


def deck_shift(p, u, m):
    """The deck transformation u -> u + 4 pi (m - E_p(m)) for integer m; row by
    row for stacks (k, m)."""
    p, u, m = (np.asarray(x, dtype=float) for x in (p, u, m))
    if np.any(np.abs(m - np.round(m)) > 0):
        raise DomainError("deck shifts need an integer vector")
    return u + 4.0 * np.pi * (m - np.vecdot(p, m)[..., None])


# ----- charts and finite-difference calculus --------------------------------


def chart_basis(z):
    """A complex-orthonormal basis of z-perp: columns 1..m-1 of the Householder
    reflection taking z to a multiple of e_0; unit rows (k, m) give (k, m, m-1)."""
    z = _rays(z) if np.ndim(z) < 2 else z
    v = z.copy()
    v[..., 0] += np.exp(1j * np.angle(z[..., 0]))  # |v_0| >= 1: no cancellation
    scale = 2.0 / np.sum(np.abs(v) ** 2, axis=-1)[..., None, None]
    reflection = np.eye(z.shape[-1]) - scale * v[..., :, None] * v.conj()[..., None, :]
    return reflection[..., :, 1:]


def fd_chart_gradient(fun, z):
    """Real gradient of a ray function in the normal chart at z.

    ``fun`` maps a stack of homogeneous vectors (p, m), not necessarily
    normalized, to p reals (or to p rows of reals, giving one gradient
    column each); it is called once, on the whole stencil.  The gradient is
    with respect to the 2(m-1) real coordinates (s_j, t_j) over a
    complex-orthonormal basis of z-perp, in which the Fubini-Study metric at
    the center is the identity.  k rays (k, m) give ``fun`` all k stencils
    as one stack (k, 4(m-1), m), and k gradients.
    """
    z = _rays(z)
    rows = z.reshape(-1, z.shape[-1])
    # the 4(m-1) points [z + d; z - d]: the rows of d are the basis of z-perp
    # (s_j), then i times it (t_j)
    basis = chart_basis(rows).mT
    d = _CHART_STEP * np.concatenate([basis, 1j * basis], axis=1)
    w = np.concatenate([rows[:, None] + d, rows[:, None] - d], axis=1)
    vals = np.swapaxes(fun(w.reshape(z.shape[:-1] + w.shape[1:])), 0, z.ndim - 1)
    grad = central_difference(vals.reshape((-1,) + vals.shape[z.ndim:]),
                              np.full(z.shape[:-1] + d.shape[1:2], _CHART_STEP))
    # contiguous rows: a dot product over strided rows sums in another order
    return np.ascontiguousarray(np.swapaxes(grad, 0, z.ndim - 1))


def fd_poisson_bracket(fun_a, fun_b, z):
    """Fubini-Study Poisson bracket of two ray functions at z, by FD.

    With omega = Im<.,.> the chart coordinates are canonical and
    {f, g} = sum_j (df/ds_j dg/dt_j - df/dt_j dg/ds_j).  Both functions take
    a stack as in ``fd_chart_gradient`` and share one stencil (per ray).
    """
    ga, gb = np.moveaxis(
        fd_chart_gradient(lambda w: np.stack([fun_a(w), fun_b(w)], axis=-1), z), -1, 0)
    k = ga.shape[-1] // 2
    return _scalar(np.vecdot(ga[..., :k], gb[..., k:])
                   - np.vecdot(ga[..., k:], gb[..., :k]))


# ----- comomentum map --------------------------------------------------------


def xi_value(A, point, check=True):
    """The comomentum observable xi_A([z]) = (i/2) <z, A z> / <z, z>.

    ``point`` is a ray, a homogeneous vector (m,) or a stack of them (p, m);
    a stack gives p values, and k matrices (k, m, m) take (k, p, m).
    ``check`` refuses non-skew A and non-finite z.
    """
    A = np.asarray(A, dtype=complex)
    if check:
        skew = float(np.max(np.abs(A + A.conj().mT)))
        if not skew <= _SKEW_TOL:
            raise DomainError(f"matrix is not skew-Hermitian (defect {skew:.2e})")
    z = (point.homogeneous if isinstance(point, ProjectivePoint)
         else np.asarray(point, dtype=complex))
    if check and not np.isfinite(z).all():
        raise DomainError("homogeneous coordinates must be finite")
    zc = z.conj()
    val = np.sum(zc * (z @ A.mT), axis=-1).imag * -0.5 / np.sum(zc * z, axis=-1).real
    return float(val) if z.ndim == 1 else val


def lie_morphism_residual(A, B, z):
    """|xi_[A,B](z) - {xi_A, xi_B}(z)| with the bracket evaluated by FD; stacks
    of k matrices (k, m, m) and k rays (k, m) give k residuals."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    lhs = xi_value(A @ B - B @ A, _rays(z)[..., None, :])[..., 0]
    rhs = fd_poisson_bracket(
        lambda w: xi_value(A, w, check=False),
        lambda w: xi_value(B, w, check=False),
        z,
    )
    return _scalar(np.abs(lhs - rhs))


# ----- spectral theory --------------------------------------------------------


class KahlerObservableCP(Record):
    """Spectral data (eigenvalues X, unitary U) with f([z]) = sum X_k |(Uz)_k|^2;
    X (k, m) and U (k, m, m) are k observables, taking k rays (k, m)."""

    __slots__ = _fields = ("eigenvalues", "frame")

    def __init__(self, eigenvalues, frame):
        X = np.asarray(eigenvalues, dtype=float)
        U = np.asarray(frame, dtype=complex)
        if X.ndim not in (1, 2) or U.shape != X.shape + X.shape[-1:]:
            raise DomainError("frame must be square and match the eigenvalues")
        if not np.isfinite(X).all():
            raise DomainError("eigenvalues must be finite")
        defect = float(np.abs(U @ U.conj().mT - np.eye(X.shape[-1])).max())
        if not defect <= _UNITARY_TOL:
            raise DomainError(f"frame is not unitary (defect {defect:.2e})")
        super().__init__(X, U)

    def value(self, point):
        return _scalar(np.vecdot(self.eigenvalues,
                                 np.abs(_apply(self.frame, _rays(point))) ** 2))

    def hermitian_matrix(self):
        return (self.frame.conj().mT * self.eigenvalues[..., None, :]) @ self.frame


def observable_from_hermitian(H):
    """Spectral form of the ray function [z] -> <z, H z> / <z, z>."""
    H = np.asarray(H, dtype=complex)
    defect = float(np.abs(H - H.conj().T).max())
    if not defect <= _SKEW_TOL:
        raise DomainError(f"matrix is not Hermitian (defect {defect:.2e})")
    w, V = np.linalg.eigh(H)
    return KahlerObservableCP(w, V.conj().T)


class SpectralReport(Record):
    """Distinct levels of an observable with their transition probabilities."""

    __slots__ = _fields = ("levels", "probabilities")


def _level_starts(eigenvalues):
    """Ascending order of eigenvalue rows (..., m), the sorted rows, and where
    each level starts: at a gap above ``_GROUP_TOL`` to the eigenvalue below."""
    order = np.argsort(eigenvalues, axis=-1, kind="stable")
    lam = np.sort(eigenvalues, axis=-1)
    starts = np.ones(lam.shape, dtype=bool)
    starts[..., 1:] = lam[..., 1:] - lam[..., :-1] > _GROUP_TOL
    return order, lam, starts


def spectrum_and_probabilities(obs, point):
    """Distinct eigenvalues (grouped within ``_GROUP_TOL``) and their weights.

    Levels come out ascending regardless of how the frame rows are ordered;
    an eigenvalue within ``_GROUP_TOL`` of the one below joins its level.  k
    observables give (k, L), L the most levels of a row; a row with fewer
    levels is padded with its top eigenvalue at probability 0.
    """
    order, lam, starts = _level_starts(obs.eigenvalues)
    w = np.abs(_apply(obs.frame, _rays(point))) ** 2
    weights = w[order] if w.ndim == 1 else np.take_along_axis(w, order, -1)
    if starts.all():  # every eigenvalue is a level of its own
        return SpectralReport(lam, weights)
    probs = np.zeros(lam.shape)
    probs[starts] = np.add.reduceat(weights.reshape(-1), np.flatnonzero(starts))
    # each row's levels first, in order, then its padding
    keep = (~starts).argsort(axis=-1, kind="stable")[..., :starts.sum(-1).max()]
    levels = np.where(starts, lam, lam[..., -1:])
    return SpectralReport(*(np.take_along_axis(a, keep, -1) for a in (levels, probs)))


def eigenmanifold_projection(obs, level, point):
    """Project a ray onto the eigenmanifold of a level.

    Returns (projected point, Fubini-Study distance).  The squared cosine of
    the distance equals the transition probability of the level; a state
    orthogonal to the eigenspace (probability below 1e-8) has no projection
    and raises ``UndefinedProjectionError``.  k observables with k levels
    and k rays give k unit rays (k, m) and k distances.
    """
    z = _rays(point)
    lam = np.asarray(level, dtype=float)[..., None]
    mask = np.abs(obs.eigenvalues - lam) <= _GROUP_TOL
    if not mask.any(axis=-1).all():
        raise DomainError(f"{level!r} is not in the spectrum")
    c_masked = np.where(mask, _apply(obs.frame, z), 0.0)
    if (np.vecdot(c_masked, c_masked).real < _PROJECTION_TOL).any():
        raise UndefinedProjectionError(
            f"state is orthogonal to the eigenmanifold of level {level!r}"
        )
    z_proj = _apply(obs.frame.conj().mT, c_masked)
    proj = ProjectivePoint(z_proj) if z.ndim == 1 else _rays(z_proj)
    return proj, fubini_study_distance(proj if z.ndim == 1 else z_proj, point)


def cramer_rao_residual(obs, point):
    """Defect of Var_z(obs) = |grad_FS f|^2 / 4 at a ray, gradient by FD; a
    stack of k observables with k rays gives k defects from one stencil."""
    z = _rays(point)
    p = np.abs(_apply(obs.frame, z)) ** 2
    mean = np.vecdot(obs.eigenvalues, p)
    var = np.vecdot((obs.eigenvalues - mean[..., None]) ** 2, p)
    A = -2.0j * obs.hermitian_matrix()  # xi_{-2iH} = <z, H z> / <z, z>
    grad = fd_chart_gradient(lambda w: xi_value(A, w, check=False), z)
    return _scalar(np.abs(var - 0.25 * np.vecdot(grad, grad)))


# ----- the statistical lift ---------------------------------------------------


def tau_differential(p, u, v, w):
    """Pushforward of a simplex tangent-bundle vector through tau, by FD.

    The tangent vector at (p, u) is given in the exponential representation:
    the base curve is p(t) = p e^{tv} / Z(t) and the fiber curve keeps the
    centering, u(t) = u + t w - E_{p(t)}(u + t w).  Returns the chart
    velocity (complex coordinates over a basis of tau(p,u)-perp).  Stacks
    (k, m) of p, u, v and w give k velocities (k, m - 1); the curve points
    at both steps are lifted in one call.
    """
    p, u, v, w = (np.asarray(x, dtype=float) for x in (p, u, v, w))
    z0 = _lift(p, u)
    z0 = z0 / np.linalg.norm(z0, axis=-1, keepdims=True)
    basis = chart_basis(z0)
    step = np.array([_TAU_STEP])
    t = stencil(np.zeros(1), step).reshape((2,) + (1,) * p.ndim)
    pt = p * np.exp(t * v)
    pt = pt / pt.sum(axis=-1, keepdims=True)
    ut = u + t * w
    ut = ut - np.sum(pt * ut, axis=-1, keepdims=True)
    zt = _lift(pt, ut)
    # chart coordinates w / <z0, w> - z0 over the basis of z0-perp
    xi = zt / np.sum(z0.conj() * zt, axis=-1, keepdims=True) - z0
    coords = np.einsum("...mj,...m->...j", basis.conj(), xi)
    return central_difference(coords, step)[0]


def pullback_scaling_check(fam, p, u, pair_a, pair_b):
    """Residuals of tau* g_FS = (1/4) g and tau* omega_FS = (1/4) omega.

    ``pair_a`` and ``pair_b`` are (v, w) tangent vectors in the exponential
    representation.  The right-hand sides are evaluated through the
    tangent-bundle structure matrices of the given categorical family, with
    base/fiber components theta_dot_i = v_i - v_n (last point is the chart
    reference).  Returns (metric residual, symplectic residual).  A stack of
    k samples, with p, u, v and w of shape (k, m), gives two arrays (k,)
    from one ``kahler_structure_at`` call.
    """
    from .tangent_bundle import kahler_structure_at

    p = np.asarray(p, dtype=float)
    (va, wa), (vb, wb) = (np.asarray(pair, dtype=float) for pair in (pair_a, pair_b))
    ip = np.sum(tau_differential(p, u, va, wa).conj()
                * tau_differential(p, u, vb, wb), axis=-1)

    struct = kahler_structure_at(fam, np.log(p[..., :-1]) - np.log(p[..., -1:]))
    ta, tb = (np.concatenate([v[..., :-1] - v[..., -1:], w[..., :-1] - w[..., -1:]],
                             axis=-1) for v, w in ((va, wa), (vb, wb)))
    g_base = np.einsum("...i,...ij,...j->...", ta, struct.metric, tb)
    o_base = np.einsum("...i,...ij,...j->...", ta, struct.omega, tb)
    res = np.abs(ip.real - 0.25 * g_base), np.abs(ip.imag - 0.25 * o_base)
    return tuple(float(r) for r in res) if p.ndim == 1 else res
