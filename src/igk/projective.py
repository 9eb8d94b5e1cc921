"""Complex projective space as a Kähler quotient for statistical models.

States are rays [z] in C^m with the Fubini-Study metric; in the affine chart
centered at a unit vector u, phi_u([z]) = z / <u, z> - u, the metric and
symplectic form at the chart center are g = Re<.,.> and omega = Im<.,.> on
u-perp.  Inner products are conjugate-linear in the first slot.  A public function reads
each ray input once, by ``_rays`` (unit rows, leading axes kept), and each matrix once, by
``_matrices``; its kernels (``_chart_basis``, ``_distance``, ``_oracles._chart_gradient``)
take read values.  A matrix acts only on rays of its own length, and paired stacks have
equal leading axes, or one side has none (``_paired``).

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

The finite-difference oracles of these claims (chart gradient and bracket,
the Jacobian of the lift and its holomorphy and pullback defects) live in ``igk._oracles``;
``cramer_rao_residual`` takes its gradient from there.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, UndefinedProjectionError
from .numerics import _COMPLEX, _SQUARES_FLOOR, Record, _binary_scaled, _real_array

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
]

_UNITARY_TOL = 1e-10
_SKEW_TOL = 1e-10
_GROUP_TOL = 1e-9
_PROJECTION_TOL = 1e-8
_TAU_TOL = 1e-10  # |sum p - 1| and |E_p u| / max(1, max |u|) accepted by tau


class ProjectivePoint(Record):
    """A ray in C^m, stored as a unit homogeneous representative: an input only, read as
    its vector (m,) is; igk returns a ray as its unit vector, an array (m,)."""

    __slots__ = _fields = ("homogeneous",)

    def __init__(self, homogeneous):
        if (z := _rays(homogeneous)).ndim != 1:
            raise DomainError("a ProjectivePoint is one ray (m,)")
        super().__init__(z)


def _rays(point):
    """Unit vectors of rays (..., m), row by row; each norm is summed as ``np.linalg.norm``
    sums one vector, after an exact power-of-two scaling (``numerics._binary_scaled``) where
    its squares would underflow or overflow.  Anything but complex numbers (a string, a
    ragged sequence, an object) raises ``DomainError``.  The one reader of a ray in igk."""
    if isinstance(point, ProjectivePoint):
        return point.homogeneous
    z = _real_array(point, "homogeneous coordinates must be complex numbers", _COMPLEX)
    if z.ndim == 0 or z.shape[-1] < 2:
        raise DomainError("projective points need an ambient dimension >= 2")
    with np.errstate(over="ignore"):  # such a row is scaled below
        norm2 = np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag)
    if not (fits := (norm2 >= _SQUARES_FLOOR) & (norm2 < np.inf)).all():
        if not np.isfinite(z).all():
            raise DomainError("homogeneous coordinates must be finite")
        if not z.any(axis=-1).all():
            raise DomainError("homogeneous coordinates must be a nonzero vector")
        return _rays(np.where(fits[..., None], z, _binary_scaled(z)[0]))  # now in range
    return z / np.sqrt(norm2)[..., None]


def _matrices(M, what, symmetry=None):
    """Complex matrices (..., m, m), square and finite, and with ``symmetry`` "Hermitian" or
    "skew-Hermitian" so within ``_SKEW_TOL``; else ``DomainError``.  The one matrix reader."""
    M = _real_array(M, f"{what} must be complex numbers", _COMPLEX)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or M.size == 0:
        raise DomainError(f"{what} must be square (m, m), or a stack of them (k, m, m)")
    if symmetry is not None:
        sign = -1.0 if symmetry == "Hermitian" else 1.0
        defect = float(np.max(np.abs(M + sign * M.conj().mT)))
        if not defect <= _SKEW_TOL:  # NaN too: a non-finite entry gives a non-finite defect
            raise DomainError(f"{what} is not {symmetry} (defect {defect:.2e})")
    elif not np.isfinite(M).all():
        raise DomainError(f"{what} must be finite")
    return M


def _acting(x, z, core=2, z_core=1):
    """x, matrices (..., m, m) (``core`` 2) or rays (..., m) (1), if the rays z (..., m), in
    items of ``z_core`` axes, have its m and pair with it (``_paired``)."""
    if x.shape[-1] != z.shape[-1]:
        raise DomainError(f"a ray of length {z.shape[-1]} where length {x.shape[-1]} is needed")
    _paired(x, core, z, z_core)
    return x


def _paired(x, core, z, z_core=1):
    """The leading axes of stacks x and z of items with ``core`` and ``z_core`` axes: equal,
    or one side's where the other has none; else one ``DomainError`` naming both shapes."""
    a, b = x.shape[:max(x.ndim - core, 0)], z.shape[:max(z.ndim - z_core, 0)]
    if a and b and a != b:
        raise DomainError(f"stacks of shapes {x.shape} and {z.shape} do not pair")
    return a or b


def _apply(M, z):
    """M z for a matrix and a vector, or row by row for stacks (k, m, m), (k, m)."""
    return (_acting(M, z) @ z[..., None])[..., 0]


def _scalar(x):
    """A 0-d result as a float; a stack's results as they are."""
    return float(x) if np.ndim(x) == 0 else x


def fubini_study_distance(a, b):
    """Geodesic distance arccos |<z, w>| between two rays (row by row for two
    stacks); rays of two lengths, or stacks that do not pair, raise ``DomainError``."""
    a, b = _rays(a), _rays(b)
    return _distance(_acting(a, b, 1), b)


def _distance(a, b):
    """``fubini_study_distance`` of unit vectors as ``_rays`` returns them."""
    return _scalar(np.arccos(np.minimum(np.abs(np.vecdot(a, b)), 1.0)))


def pi_projection(point):
    """Coordinate probabilities |z_k|^2 of a ray."""
    return np.abs(_rays(point)) ** 2


def _lift(p, u):
    """sqrt(p_k) exp(i u_k / 2) for rows (..., m) of p and u, checked as in ``tau``; a
    refusal keeps the flat index of its row for ``ExponentialFamilySpec._naming``."""
    if p.shape != u.shape:
        raise DomainError("tau needs matching probability and angle vectors")
    with np.errstate(all="ignore"):  # a non-finite sum is refused below
        mass = np.abs(p.sum(axis=-1) - 1.0)
        center = np.abs(np.sum(p * u, axis=-1))
        drift = center / np.maximum(1.0, np.abs(u).max(axis=-1))  # u's rounding scale
    for bad, what, value in (
            (~(np.isfinite(p).all(axis=-1) & np.isfinite(u).all(axis=-1)),
             "tau needs finite probabilities and angles", mass),
            (np.any(p <= 0.0, axis=-1), "tau needs strictly positive probabilities", mass),
            (~(mass <= _TAU_TOL), "probabilities must sum to 1 (off by {:.2e})", mass),
            (~(drift <= _TAU_TOL), "fiber angles must be p-centered (|E_p u| = {:.2e})",
             center)):
        if bad.any():
            err = DomainError(msg := what.format(value.flat[i := int(np.argmax(bad))]))
            err.row, err.what, err.residual = i, msg, None
            raise err
    return np.sqrt(p) * np.exp(0.5j * u)


def tau(p, u):
    """Lift a positive probability vector and centered fiber angle to a ray.

    Requires p > 0, sum p = 1 within ``_TAU_TOL`` and the centering sum p_k u_k = 0
    within ``_TAU_TOL`` max(1, max |u_k|), the scale of the rounding of centered angles;
    the representative sqrt(p_k) exp(i u_k / 2) is automatically unit: an array (m,).
    Stacks (k, m) of p and u give k unit rays as rows (k, m), each its single call's.
    """
    p, u = (_real_array(x, "tau needs real probability and angle vectors") for x in (p, u))
    if p.ndim not in (1, 2):
        raise DomainError("tau needs probability vectors (m,) or stacks of them (k, m)")
    return _rays(_lift(p, u))


def deck_shift(p, u, m):
    """The deck transformation u -> u + 4 pi (m - E_p(m)) for integer m; row by
    row for stacks (k, m)."""
    p, u, m = (_real_array(x, "deck shifts need real vectors") for x in (p, u, m))
    if not (np.isfinite(m) & (m == np.round(m))).all():
        raise DomainError("deck shifts need an integer vector")
    if not (np.isfinite(p).all() and np.isfinite(u).all()):
        raise DomainError("deck shifts need finite probabilities and angles")
    return u + 4.0 * np.pi * (m - np.vecdot(p, m)[..., None])


# ----- charts ----------------------------------------------------------------


def chart_basis(z):
    """A complex-orthonormal basis of z-perp: columns 1..m-1 of the Householder
    reflection taking z to a multiple of e_0; rays (k, m) give (k, m, m-1)."""
    return _chart_basis(_rays(z))


def _chart_basis(z):
    """``chart_basis`` of unit vectors (..., m) as ``_rays`` returns them: no second read."""
    v = z.copy()
    v[..., 0] += np.exp(1j * np.angle(z[..., 0]))  # |v_0| >= 1: no cancellation
    scale = 2.0 / np.sum(np.abs(v) ** 2, axis=-1)[..., None, None]
    reflection = np.eye(z.shape[-1]) - scale * v[..., :, None] * v.conj()[..., None, :]
    return reflection[..., :, 1:]


# ----- comomentum map --------------------------------------------------------


def xi_value(A, point):
    """The comomentum observable xi_A([z]) = (i/2) <z, A z> / <z, z>, as -Im <z, A z> / 2
    at the unit vector z of the ray (``_rays``).  ``point`` is a ray, a homogeneous vector
    (m,) or a stack of them (p, m); a stack gives p values, and k matrices (k, m, m) take
    (k, p, m).  A matrix that is not skew-Hermitian within ``_SKEW_TOL`` is refused."""
    z = _rays(point)
    A = _acting(_matrices(A, "matrix", "skew-Hermitian"), z, 2, 2)
    return _scalar(-0.5 * np.vecdot(z, z @ A.mT).imag)


# ----- spectral theory --------------------------------------------------------


class KahlerObservableCP(Record):
    """Spectral data (eigenvalues X, unitary U) with f([z]) = sum X_k |(Uz)_k|^2;
    X (k, m) and U (k, m, m) are k observables, taking k rays (k, m)."""

    __slots__ = _fields = ("eigenvalues", "frame")

    def __init__(self, eigenvalues, frame):
        X = _real_array(eigenvalues, "eigenvalues must be real numbers")
        U = _matrices(frame, "frame")
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
        """U^H diag(X) U, made exactly Hermitian as (M + M^H) / 2."""
        M = (self.frame.conj().mT * self.eigenvalues[..., None, :]) @ self.frame
        return 0.5 * (M + M.conj().mT)


def observable_from_hermitian(H):
    """Spectral form of the ray function [z] -> <z, H z> / <z, z>, from eigh's output as it
    is (the constructor's unitary and finite checks are for frames from outside)."""
    w, V = np.linalg.eigh(_matrices(H, "matrix", "Hermitian"))
    if not np.isfinite(w).all():
        raise DomainError("eigenvalues must be finite")
    Record.__init__(obs := object.__new__(KahlerObservableCP), w, V.conj().mT)
    return obs


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
    levels is padded with its top eigenvalue at probability 0.  One observable takes a
    stack of rays, and k observables one ray, as k copies of it.
    """
    w = np.abs(_apply(obs.frame, _rays(point))) ** 2
    X = obs.eigenvalues
    order, lam, starts = _level_starts(X if X.shape == w.shape else np.broadcast_to(X, w.shape))
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

    Returns (projected ray, Fubini-Study distance), the ray as its unit vector (m,).
    The squared cosine of the distance equals the transition probability of the level;
    a state orthogonal to the eigenspace (probability below 1e-8) has no projection
    and raises ``UndefinedProjectionError``.  k observables with k levels
    and k rays give k unit rays (k, m) and k distances, row i equal to the single call.
    """
    z = _rays(point)
    lam = _real_array(level, "a level must be a real number")[..., None]
    _paired(lam, 1, c := _apply(obs.frame, z))
    mask = np.abs(obs.eigenvalues - lam) <= _GROUP_TOL
    if not mask.any(axis=-1).all():
        raise DomainError(f"{level!r} is not in the spectrum")
    c_masked = np.where(mask, c, 0.0)
    if (np.vecdot(c_masked, c_masked).real < _PROJECTION_TOL).any():
        raise UndefinedProjectionError(
            f"state is orthogonal to the eigenmanifold of level {level!r}"
        )
    z_proj = _rays(_apply(obs.frame.conj().mT, c_masked))
    return z_proj, _distance(z_proj, z)


def cramer_rao_residual(obs, point):
    """Defect of Var_z(obs) = |grad_FS f|^2 / 4 at a ray, gradient by FD; a
    stack of k observables with k rays gives k defects from one stencil."""
    from ._oracles import _chart_gradient  # here, not on top: _oracles imports projective

    z = _rays(point)
    p = np.abs(_apply(obs.frame, z)) ** 2
    mean = np.vecdot(obs.eigenvalues, p)
    var = np.vecdot((obs.eigenvalues - mean[..., None]) ** 2, p)
    A = -2.0j * obs.hermitian_matrix()  # xi_{-2iH} = <z, H z> / <z, z>
    z = z if z.shape == p.shape else np.broadcast_to(z, p.shape)  # a ray per observable
    # the stencil calls xi_value itself: a wrong xi_value must show in this defect
    grad = _chart_gradient(lambda w: xi_value(A, w), z)
    return _scalar(np.abs(var - 0.25 * np.vecdot(grad, grad)))
