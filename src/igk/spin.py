"""The spin model: binomial families, the two-sphere, and su(2) spectra.

The Kählerification of the binomial family B(n, .) is the round two-sphere:
a tangent-bundle point (theta, theta_dot) maps to

    s = ( tanh(theta/2),
          cos(theta_dot/2) / cosh(theta/2),
          sin(theta_dot/2) / cosh(theta/2) ),

and the sphere pushes forward to count densities pi_sphere(n, s)(k) =
binom(n, k) ((1+x)/2)^k ((1-x)/2)^(n-k), which match B(n, .) itself along
the lift.  Affine sphere functions f = u0 + (u, v, w).s decompose as
f = alpha + beta * (n/2 + n/2 axis . s), have the equally spaced spectrum
lambda_k = alpha + beta k with binomial transition probabilities in
c = axis . s, and are represented by Hermitian tridiagonal (n+1)x(n+1)
matrices Q(f) acting on the spin states

    Psi(a, b)_k = sqrt(binom(n, k)) cos(a/2)^k sin(a/2)^(n-k) e^{i b k}

(colatitude a from the +x axis, azimuth b in the (y, z) plane).  The sphere
carries n times the area form as symplectic structure, oriented so that the
representation is a Lie-algebra morphism: {f, g} = -(1/n) (f_vec x g_vec).s
and Q({f, g}) = -(i/2) [Q(f), Q(g)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import central_difference, log_factorials, stencil
from .projective import ProjectivePoint, _rays, xi_value

__all__ = [
    "SphereFunction",
    "SphereDecomposition",
    "sphere_from_tangent",
    "pi_sphere",
    "spin_law",
    "decompose_sphere_function",
    "spin_spectrum",
    "spin_probabilities",
    "psi_embedding",
    "sphere_point_angles",
    "q_matrix",
    "sphere_bracket",
    "sphere_bracket_fd",
    "commutator_residual",
    "expectation_identity_residual",
    "su2_basis",
    "su2_closure_residual",
    "casimir_matrix",
    "hat_scaling_residual",
    "stern_gerlach_transition",
]

_ANGLE_STEP = 1e-6  # FD step of sphere_bracket_fd in the angle chart


@dataclass(frozen=True)
class SphereFunction:
    """An affine function u0 + u x + v y + w z on the unit sphere."""

    u0: float
    vec: tuple

    def __post_init__(self):
        vec = tuple(float(c) for c in self.vec)
        if len(vec) != 3:
            raise DomainError("sphere functions need a 3-vector of coefficients")
        if not all(map(math.isfinite, (float(self.u0),) + vec)):
            raise DomainError("sphere function coefficients must be finite")
        object.__setattr__(self, "u0", float(self.u0))
        object.__setattr__(self, "vec", vec)

    def value(self, s):
        s = np.asarray(s, dtype=float)
        return self.u0 + np.asarray(self.vec) @ s


@dataclass(frozen=True)
class SphereDecomposition:
    """f = alpha + beta * counting observable along an axis (beta >= 0)."""

    alpha: float
    beta: float
    axis: tuple


def _check_sphere(s, tol=1e-8):
    """A sphere point (3,) or a stack of them (k, 3) as a float array."""
    s = np.asarray(s, dtype=float)
    if s.shape[-1:] != (3,) or s.ndim > 2:
        raise DomainError("a sphere point is a 3-vector")
    off = float(np.max(np.abs(np.sum(s * s, axis=-1) - 1.0)))
    if not off <= tol:
        raise DomainError(f"point is off the unit sphere (||s|^2 - 1| = {off:.2e})")
    return s


def _coefficients(f):
    """(u0 (k,), vec (k, 3)) of a sphere function or a sequence of k of them."""
    fs = (f,) if isinstance(f, SphereFunction) else tuple(f)
    return np.array([g.u0 for g in fs]), np.array([g.vec for g in fs]).reshape(-1, 3)


def sphere_from_tangent(theta, theta_dot):
    """Map a tangent-bundle point of B(n, .) onto the unit sphere.

    Independent of n; 4-pi-periodic in the fiber variable.
    """
    th = float(theta)
    td = float(theta_dot)
    ch = math.cosh(0.5 * th)
    return np.asarray(
        [math.tanh(0.5 * th), math.cos(0.5 * td) / ch, math.sin(0.5 * td) / ch]
    )


def _binomial_pmf(n, p):
    """binom(n, k) p^k (1-p)^(n-k) for k = 0..n, in log space, along a new last
    axis of p (a number or an array); point masses at p = 0, 1."""
    p = np.asarray(p, dtype=float)[..., None]
    k = np.arange(n + 1)
    lf = log_factorials(n)
    with np.errstate(divide="ignore", invalid="ignore"):  # the poles are set below
        pmf = np.exp(lf[n] - lf[k] - lf[n - k] + k * np.log(p) + (n - k) * np.log1p(-p))
    return np.where((p == 0.0) | (p == 1.0), k == n * p, pmf)


def pi_sphere(n, s):
    """Push a sphere point to count probabilities, exactly at the poles.

    pi(s)(k) = binom(n, k) ((1+x)/2)^k ((1-x)/2)^(n-k); evaluation goes
    through a log-space binomial pmf, stable for large n.  A stack of k
    points (k, 3) gives k rows (k, n + 1).
    """
    n = int(n)
    if n < 1:
        raise DomainError("n must be a positive integer")
    s = _check_sphere(s)
    return _binomial_pmf(n, np.clip((1.0 + s[..., 0]) / 2.0, 0.0, 1.0))


def spin_law(n, colatitude):
    """The spin distribution binom(n,k) cos^{2k}(t/2) sin^{2(n-k)}(t/2).

    ``colatitude`` is the angle t from the +x axis of the measured direction;
    evaluated as explicit products so that the poles come out exact.
    """
    n = int(n)
    k = np.arange(n + 1)
    c = math.cos(0.5 * float(colatitude))
    sn = math.sin(0.5 * float(colatitude))
    comb = np.asarray([math.comb(n, j) for j in k], dtype=float)
    return comb * c ** (2 * k) * sn ** (2 * (n - k))


def decompose_sphere_function(n, f):
    """Split an affine sphere function into offset, gap and axis.

    Returns alpha = u0 - |(u,v,w)|, beta = 2 |(u,v,w)| / n and the unit
    axis (u,v,w)/|(u,v,w)| so that f = alpha + beta (n/2)(1 + axis . s);
    a constant function gets beta = 0 and the conventional axis (0, 0, 1).
    """
    n = int(n)
    if n < 1:
        raise DomainError("n must be a positive integer")
    vec = np.asarray(f.vec, dtype=float)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        return SphereDecomposition(alpha=f.u0, beta=0.0, axis=(0.0, 0.0, 1.0))
    return SphereDecomposition(
        alpha=f.u0 - norm, beta=2.0 * norm / n, axis=tuple(vec / norm)
    )


def spin_spectrum(n, f):
    """Equally spaced eigenvalues lambda_k = alpha + beta k, ascending."""
    dec = decompose_sphere_function(n, f)
    return dec.alpha + dec.beta * np.arange(int(n) + 1)


def spin_probabilities(n, f, s):
    """Transition probabilities of the spectrum of f at a sphere point.

    P(lambda_k) is binomial in c = axis . s:
    binom(n,k) ((1+c)/2)^k ((1-c)/2)^(n-k).
    """
    n = int(n)
    s = _check_sphere(s)
    dec = decompose_sphere_function(n, f)
    c = min(max(float(np.asarray(dec.axis) @ s), -1.0), 1.0)
    return _binomial_pmf(n, (1.0 + c) / 2.0)


def sphere_point_angles(s):
    """Colatitude from +x and azimuth in the (y, z) plane of a sphere point.

    A stack (k, 3) of points gives two arrays (k,).
    """
    s = _check_sphere(s)
    a, b = np.arccos(np.clip(s[..., 0], -1.0, 1.0)), np.arctan2(s[..., 2], s[..., 1])
    return (a, b) if s.ndim == 2 else (float(a), float(b))


def psi_embedding(n, colatitude, azimuth):
    """The spin state Psi_k = sqrt(binom(n,k)) cos(a/2)^k sin(a/2)^(n-k) e^{ibk}.

    |Psi_k|^2 reproduces pi_sphere at the corresponding sphere point; the
    poles (a = 0 or pi) land on the coordinate rays exactly.  Arrays (k,)
    of angles give the k unit states as rows of an array (k, n + 1).
    """
    n = int(n)
    a = np.asarray(colatitude, dtype=float)[..., None]
    b = np.asarray(azimuth, dtype=float)[..., None]
    k = np.arange(n + 1)
    comb = np.asarray([math.comb(n, j) for j in k], dtype=float)
    amp = np.sqrt(comb) * np.cos(0.5 * a) ** k * np.sin(0.5 * a) ** (n - k)
    psi = amp * np.exp(1j * b * k)
    return ProjectivePoint(psi) if psi.ndim == 1 else _rays(psi)


def q_matrix(n, f):
    """Hermitian tridiagonal representation of an affine sphere function.

    Diagonal Q_kk = u0 + (2 u / n)(k - n/2); off-diagonal
    Q_{l, l+1} = (1/n) sqrt((n - l)(l + 1)) (v - i w).
    """
    return _q_stack(int(n), *_coefficients(f))[0]


def _q_stack(n, u0, vec):
    """Q matrices (k, n+1, n+1) of the functions u0 + vec . s, u0 (k,), vec (k, 3)."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    k = np.arange(n + 1)
    Q = np.zeros((len(u0), n + 1, n + 1), dtype=complex)
    Q[:, k, k] = u0[:, None] + (2.0 * vec[:, :1] / n) * (k - n / 2.0)
    l = np.arange(n)
    off = np.sqrt((n - l) * (l + 1.0)) * (vec[:, 1:2] - 1j * vec[:, 2:]) / n
    Q[:, l, l + 1] = off
    Q[:, l + 1, l] = np.conj(off)
    return Q


def sphere_bracket(n, f, g):
    """Closed-form bracket {f, g} = -(1/n) (f_vec x g_vec) . s on the sphere.

    The bracket of two affine functions is again affine (with no constant
    term); the orientation matches the representation: see
    ``commutator_residual``.
    """
    n = int(n)
    (a, b, c), (d, e, h) = f.vec, g.vec
    return SphereFunction(0.0, (-(b * h - c * e) / n, -(c * d - a * h) / n,
                                -(a * e - b * d) / n))


def sphere_bracket_fd(n, f, g, s):
    """The bracket by central differences in the colatitude/azimuth chart.

    The symplectic form is -n sin(a) da ^ db (n times the area form, in the
    orientation fixed by the representation), so
    {f, g} = (f_a g_b - f_b g_a) / (-n sin(a)).  Not defined at the poles.
    Sequences of k functions ``f`` and ``g`` with a stack (k, 3) of points
    give k brackets, from one stencil of 4k points.
    """
    n = int(n)
    angles = np.stack(sphere_point_angles(_check_sphere(s).reshape(-1, 3)), axis=-1)
    colat = angles[:, 0]
    if np.any(np.minimum(np.abs(colat), np.abs(np.pi - colat)) < 1e-6):
        raise DomainError("the angle chart degenerates at the poles")

    steps = np.full(angles.shape, _ANGLE_STEP)
    a, b = stencil(angles, steps).T
    points = np.stack([np.cos(a), np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)],
                      axis=-1).reshape(4, -1, 3)
    (fa, fb), (ga, gb) = (central_difference((u0 + np.vecdot(points, vec)).ravel(), steps)
                          for u0, vec in (_coefficients(f), _coefficients(g)))
    res = (fa * gb - fb * ga) / (-n * np.sin(colat))
    return float(res[0]) if np.ndim(s) == 1 else res


def commutator_residual(n, f, g, perturb=0.0):
    """Defect of Q({f, g}) = -(i/2) [Q(f), Q(g)] in the sup norm.

    Sequences of k functions ``f`` and ``g`` give k residuals, from one
    stack of matrices each.  ``perturb`` adds a deliberate offset to one
    entry of the first Q(f), for harness tests that need a failing check.
    """
    n = int(n)
    fs, gs = ([f], [g]) if isinstance(f, SphereFunction) else (f, g)
    Qf, Qg, Qfg = (_q_stack(n, *_coefficients(h)) for h in (
        fs, gs, [sphere_bracket(n, a, b) for a, b in zip(fs, gs)]))
    Qf[0, 0, 0] += perturb
    comm = Qf @ Qg - Qg @ Qf
    res = np.max(np.abs(Qfg + 0.5j * comm), axis=(1, 2))
    return float(res[0]) if isinstance(f, SphereFunction) else res


def expectation_identity_residual(n, f, s):
    """|f(s) - <Psi, Q(f) Psi>| at the spin state over a sphere point.

    A sequence of k functions with a stack (k, 3) of points gives k
    residuals, from one stack of states and matrices.
    """
    rows = _check_sphere(s).reshape(-1, 3)
    u0, vec = _coefficients(f)
    psi = psi_embedding(n, *sphere_point_angles(rows))
    expect = np.einsum("pi,pij,pj->p", psi.conj(), _q_stack(int(n), u0, vec), psi).real
    res = np.abs(u0 + np.sum(vec * rows, axis=1) - expect)
    return float(res[0]) if np.ndim(s) == 1 else res


def su2_basis(n):
    """The representation matrices L_a = (i/2) Q(x_a) of the coordinate functions."""
    return tuple(0.5j * _q_stack(int(n), np.zeros(3), np.eye(3)))


def su2_closure_residual(n):
    """Defect of [L_a, L_b] = (1/n) L_c over the cyclic coordinate triples."""
    L = su2_basis(n)
    return float(np.max([np.max(np.abs(L[a] @ L[b] - L[b] @ L[a] - L[c] / int(n)))
                         for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]))


def casimir_matrix(n):
    """The Casimir sum L_x^2 + L_y^2 + L_z^2 (a scalar matrix)."""
    L = su2_basis(n)
    return L[0] @ L[0] + L[1] @ L[1] + L[2] @ L[2]


def hat_scaling_residual(n, f, g, point):
    """Defect of the 1/4 scaling between the sphere and projective brackets.

    The lift of an affine sphere function to projective space is
    f_hat = xi_{-2i Q(f)}; the identity {f_hat, g_hat} = 4 ({f, g})-hat is
    checked with the Fubini-Study bracket evaluated by finite differences
    at the given projective point, each side in one call on the stencil.
    Sequences of k functions with a stack (k, n + 1) of homogeneous vectors
    give k defects, from one stencil call.
    """
    from .projective import fd_poisson_bracket

    n = int(n)
    z = _rays(point)
    pairs = zip(np.atleast_1d(f), np.atleast_1d(g))
    A, B, C = (-2.0j * _q_stack(n, *_coefficients(h)).reshape(z.shape[:-1] + (n + 1,) * 2)
               for h in (f, g, [sphere_bracket(n, a, b) for a, b in pairs]))
    lhs = fd_poisson_bracket(
        lambda zz: xi_value(A, zz, check=False),
        lambda zz: xi_value(B, zz, check=False),
        point,
    )
    rhs = 4.0 * xi_value(C, z[..., None, :])[..., 0]
    res = np.abs(lhs - rhs)
    return float(res) if z.ndim == 1 else res


def stern_gerlach_transition(n, device_one, m_one, device_two):
    """Sequential measurement: eigenstate m_one of one device into another.

    Devices are affine sphere functions; eigenstates are ordered by
    ascending eigenvalue (index 0..n).  Returns the probability vector over
    the outcomes of the second device,
    P(m_two) = |<v_{m_two}(Q(f2)), v_{m_one}(Q(f1))>|^2.
    """
    n = int(n)
    m_one = int(m_one)
    if not 0 <= m_one <= n:
        raise DomainError(f"eigenstate index must lie in 0..{n}")
    _, vecs_one = np.linalg.eigh(q_matrix(n, device_one))
    _, vecs_two = np.linalg.eigh(q_matrix(n, device_two))
    state = vecs_one[:, m_one]
    amps = vecs_two.conj().T @ state
    return np.abs(amps) ** 2
