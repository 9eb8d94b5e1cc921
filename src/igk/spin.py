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

Every routine that takes a sphere function, except ``sphere_bracket``, takes
a sequence of k of them (with k sphere points or homogeneous vectors where
it takes one), read once as coefficient rows u0 (k,) and vec (k, 3) by
``_coefficients``, which refuses anything else.  It computes on the rows, one stack for
all k, and returns k rows, row i equal to the single call on function i to the bit; one
function gives the single result.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .numerics import (Record, _binary_scaled, _finite_floats, _read_only, _real_array,
                       log_factorials)
from .projective import _rays

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
    "su2_basis",
    "casimir_matrix",
    "stern_gerlach_transition",
]

_SPHERE_TOL = 1e-8  # largest ||s|^2 - 1| of a sphere point
_TWISTED_N = 24  # from this n on a transition row is one O(n) eigenvector (_twisted_row)


class SphereFunction(Record):
    """An affine function u0 + u x + v y + w z on the unit sphere."""

    __slots__ = _fields = ("u0", "vec")

    def __init__(self, u0, vec):
        try:
            x, y, z = vec
        except (TypeError, ValueError):  # not a sequence of three
            raise DomainError("sphere functions need a 3-vector of coefficients") from None
        u0, x, y, z = _finite_floats("sphere function coefficients", u0, x, y, z)
        super().__init__(u0, (x, y, z))

    def value(self, s):
        """f at a sphere point, or at each row of a stack (k, 3) of points (``_check_sphere``)."""
        return self.u0 + _check_sphere(s) @ np.asarray(self.vec)


class SphereDecomposition(Record):
    """f = alpha + beta * counting observable along an axis (beta >= 0)."""

    __slots__ = _fields = ("alpha", "beta", "axis")


def _check_n(n):
    """n as an int; every spin routine that takes n refuses it here unless it is a whole
    number >= 1."""
    try:
        if n >= 1 and n == int(n):
            return int(n)
    except (TypeError, ValueError, OverflowError):  # not a number, an array, inf
        pass
    raise DomainError(f"n must be a positive integer, got {n!r}")


def _check_sphere(s, k=None):
    """A sphere point (3,) or a stack of them (k, 3) as a float array; given ``k``, the
    points as rows (k, 3), one per sphere function, or ``DomainError``."""
    s = _real_array(s, "a sphere point must be real numbers")
    if s.shape[-1:] != (3,) or s.ndim > 2:
        raise DomainError("a sphere point is a 3-vector")
    off = float(np.abs((s * s).sum(axis=-1) - 1.0).max(initial=0.0))  # 0 for no points
    if not off <= _SPHERE_TOL:
        raise DomainError(f"point is off the unit sphere (||s|^2 - 1| = {off:.2e})")
    if k is not None and s.size != 3 * k:
        raise DomainError(f"one sphere point per sphere function: {k} needed, got {s.size // 3}")
    return s if k is None else s.reshape(k, 3)


def _coefficients(f, k=None):
    """(u0 (k,), vec (k, 3), single) of a sphere function or a sequence of k of
    them; ``single`` says that f is one function, whose result is row 0.  Anything else,
    or given ``k`` another number of functions, raises ``DomainError``."""
    single = isinstance(f, SphereFunction)
    fs = (f,) if single else tuple(f) if np.iterable(f) else (None,)
    if not all(isinstance(g, SphereFunction) for g in fs):
        raise DomainError("a sphere function is a SphereFunction or a sequence of them, "
                          f"got {type(f).__name__}")
    if k is not None and len(fs) != k:
        raise DomainError(f"{k} sphere functions needed, one per first function, got {len(fs)}")
    return np.array([g.u0 for g in fs]), np.array([g.vec for g in fs]).reshape(-1, 3), single


def sphere_from_tangent(theta, theta_dot):
    """Map a tangent-bundle point of B(n, .) onto the unit sphere.

    Independent of n; 4-pi-periodic in the fiber variable.  Past the float
    range of cosh(theta / 2) the point is the pole (sign theta, 0, 0); a
    non-finite theta or theta_dot raises ``DomainError``.
    """
    th, td = _finite_floats("a tangent point of the binomial family", theta, theta_dot)
    try:
        ch = math.cosh(0.5 * th)
    except OverflowError:
        return np.asarray([math.copysign(1.0, th), 0.0, 0.0])
    return np.asarray([math.tanh(0.5 * th), math.cos(0.5 * td) / ch, math.sin(0.5 * td) / ch])


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
    n, s = _check_n(n), _check_sphere(s)
    return _binomial_pmf(n, np.minimum(np.maximum((1.0 + s[..., 0]) / 2.0, 0.0), 1.0))


def spin_law(n, colatitude):
    """The spin distribution binom(n,k) cos^{2k}(t/2) sin^{2(n-k)}(t/2).

    ``colatitude`` is the angle t from the +x axis of the measured direction;
    evaluated as explicit products so that the poles come out exact.  A non-finite
    t, or an n whose binomial coefficients overflow a float, raises ``DomainError``.
    """
    n, (t,) = _check_n(n), _finite_floats("a colatitude", colatitude)
    k = np.arange(n + 1)
    c, sn = math.cos(0.5 * t), math.sin(0.5 * t)
    try:
        comb = np.asarray([math.comb(n, j) for j in k], dtype=float)
    except OverflowError:
        raise DomainError(f"spin_law: binom({n}, k) overflows a float") from None
    return comb * c ** (2 * k) * sn ** (2 * (n - k))


def _unit_axes(vec, constant):
    """Unit axes of the rows vec (k, 3), ``constant`` for a zero row, and r, e: |vec| = r 2^e."""
    scaled, e = _binary_scaled(vec)  # r lies in [0.5, 2) unless vec = 0
    r = np.sqrt(np.vecdot(scaled, scaled))
    axis = scaled / np.maximum(r, 0.5)[:, None]
    axis[r == 0.0] = constant
    return axis, r, e


def _decompose(n, u0, vec):
    """alpha (k,), beta (k,) and axis (k, 3) of the functions u0 + vec . s at a checked n."""
    axis, r, e = _unit_axes(vec, (0.0, 0.0, 1.0))  # a constant function: beta = 0
    with np.errstate(over="ignore"):  # refused below
        norm = 2.0 * np.ldexp(0.5 * r, e)  # r 2^e, or inf past the float range
    if not (np.abs(u0) + norm < math.inf).all():
        raise DomainError("sphere function too large: its spectrum overflows")
    return u0 - norm, norm / (0.5 * n), axis


def decompose_sphere_function(n, f):
    """Split an affine sphere function into offset, gap and axis.

    Returns alpha = u0 - |(u,v,w)|, beta = 2 |(u,v,w)| / n and the unit
    axis (u,v,w)/|(u,v,w)| so that f = alpha + beta (n/2)(1 + axis . s);
    a constant function gets beta = 0 and the conventional axis (0, 0, 1).
    A spectrum u0 +- |(u,v,w)| past the float range raises ``DomainError``.
    """
    u0, vec, single = _coefficients(f)
    alpha, beta, axis = _decompose(_check_n(n), u0, vec)
    if single:
        return SphereDecomposition(float(alpha[0]), float(beta[0]), tuple(map(float, axis[0])))
    return SphereDecomposition(alpha, beta, axis)


def spin_spectrum(n, f):
    """Equally spaced eigenvalues lambda_k = alpha + beta k, ascending."""
    n = _check_n(n)
    u0, vec, single = _coefficients(f)
    alpha, beta, _ = _decompose(n, u0, vec)
    lam = alpha[:, None] + beta[:, None] * np.arange(n + 1)
    return lam[0] if single else lam


def spin_probabilities(n, f, s):
    """Transition probabilities of the spectrum of f at a sphere point.

    P(lambda_k) is binomial in c = axis . s:
    binom(n,k) ((1+c)/2)^k ((1-c)/2)^(n-k).
    """
    n = _check_n(n)
    u0, vec, single = _coefficients(f)
    _, _, axis = _decompose(n, u0, vec)
    c = np.vecdot(axis, _check_sphere(s, len(u0)))
    c = np.minimum(np.maximum(c, -1.0), 1.0)
    probs = _binomial_pmf(n, (1.0 + c) / 2.0)
    return probs[0] if single else probs


def sphere_point_angles(s):
    """Colatitude from +x and azimuth in the (y, z) plane of a sphere point.

    A stack (k, 3) of points gives two arrays (k,).
    """
    s = _check_sphere(s)
    a, b = np.arccos(np.clip(s[..., 0], -1.0, 1.0)), np.arctan2(s[..., 2], s[..., 1])
    return (a, b) if s.ndim == 2 else (float(a), float(b))


def psi_embedding(n, colatitude, azimuth):
    """The spin state Psi_k = sqrt(binom(n,k)) cos(a/2)^k sin(a/2)^(n-k) e^{ibk}.

    |Psi_k|^2 reproduces pi_sphere at the corresponding sphere point: the
    amplitudes are the square roots of the log-space binomial pmf in
    cos^2(a/2), for a colatitude a in [0, pi] and a finite azimuth b (else
    ``DomainError``).  One state is its unit vector (n + 1,); arrays (k,) of angles
    give the k unit states as rows of an array (k, n + 1), row i the single call's.
    """
    n = _check_n(n)
    a, b = (_real_array(t, "angles must be real numbers") for t in (colatitude, azimuth))
    if not ((a >= 0.0) & (a <= math.pi)).all():  # NaN too: sin(a/2) >= 0 is read
        raise DomainError("a colatitude lies in [0, pi]")
    if not np.isfinite(b).all():
        raise DomainError("an azimuth must be finite")
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DomainError(f"angles of shapes {a.shape} and {b.shape} do not broadcast") from None
    # squared as an array: the power of a numpy scalar rounds another way
    amp = np.sqrt(_binomial_pmf(n, np.cos(0.5 * a.reshape(-1)) ** 2)).reshape(a.shape + (n + 1,))
    return _rays(amp * np.exp(1j * b[..., None] * np.arange(n + 1)))


def q_matrix(n, f):
    """Hermitian tridiagonal representation of an affine sphere function.

    Diagonal Q_kk = u0 + (2 u / n)(k - n/2); off-diagonal
    Q_{l, l+1} = (1/n) sqrt((n - l)(l + 1)) (v - i w).
    """
    u0, vec, single = _coefficients(f)
    Q = _q_stack(_check_n(n), u0, vec)
    return Q[0] if single else Q


def _q_stack(n, u0, vec):
    """Q matrices (k, n+1, n+1) of the functions u0 + vec . s, u0 (k,), vec (k, 3)."""
    return _tridiagonal(*_q_bands(n, u0, vec[:, 0], vec[:, 1] - 1j * vec[:, 2]))


@lru_cache(maxsize=None)
def _q_ladder(n):
    """k - n/2 for k = 0..n and sqrt((n - l)(l + 1)) for l < n, read-only, at a checked n."""
    k, l = np.arange(n + 1), np.arange(n)
    return _read_only(k - n / 2.0, np.sqrt((n - l) * (l + 1.0)))


def _q_bands(n, u0, u, vw):
    """Diagonal (k, n+1) and upper off-diagonal (k, n) of Q(u0 + u x + v y + w z) from
    rows u0, u and vw = v - i w (or a real v); an entry past the float range raises
    ``DomainError``."""
    centred, ladder = _q_ladder(n)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        diag = u0[:, None] + (2.0 * u[:, None] / n) * centred
        off = ladder * vw[:, None] / n
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise DomainError("sphere function too large: its matrix Q(f) overflows")
    return diag, off


def _tridiagonal(diag, off):
    """Hermitian matrices (k, n+1, n+1) with bands diag (k, n+1) and off (k, n)."""
    Q = np.zeros(diag.shape + diag.shape[1:], dtype=off.dtype)
    flat, step = Q.reshape(len(Q), diag.shape[1] ** 2), diag.shape[1] + 1
    flat[:, ::step], flat[:, 1::step], flat[:, step - 1::step] = diag, off, np.conj(off)
    return Q


def _bracket(n, vf, vg):
    """-(vf x vg) / n on coefficient rows (k, 3) or 3-vectors: ``np.cross``'s terms in
    its own order, so equal to it to the bit, signed zeros included, without its
    per-call overhead."""
    (a0, a1, a2), (b0, b1, b2) = np.asarray(vf, float).T, np.asarray(vg, float).T
    with np.errstate(over="ignore", invalid="ignore"):  # SphereFunction refuses them
        return -np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], -1) / n


def sphere_bracket(n, f, g):
    """Closed-form bracket {f, g} = -(1/n) (f_vec x g_vec) . s on the sphere.

    The bracket of two affine functions is again affine (with no constant
    term); the orientation matches the representation, Q({f, g}) =
    -(i/2) [Q(f), Q(g)].  ``_bracket`` is its form on coefficient rows.
    """
    return SphereFunction(0.0, _bracket(_check_n(n), f.vec, g.vec))


def su2_basis(n):
    """The representation matrices L_a = (i/2) Q(x_a) of the coordinate functions."""
    return tuple(0.5j * _q_stack(_check_n(n), np.zeros(3), np.eye(3)))


def casimir_matrix(n):
    """The Casimir sum L_x^2 + L_y^2 + L_z^2 (a scalar matrix)."""
    L = su2_basis(n)
    return L[0] @ L[0] + L[1] @ L[1] + L[2] @ L[2]


def stern_gerlach_transition(n, device_one, m_one, device_two):
    """Sequential measurement: eigenstate m_one of one device into another.

    Devices are affine sphere functions; eigenstates are ordered by
    ascending eigenvalue (index 0..n).  Returns the probability vector over
    the outcomes of the second device,
    P(m_two) = |<v_{m_two}(Q(f2)), v_{m_one}(Q(f1))>|^2 = V[m_one, m_two]^2: Q is
    rotation covariant, so in the first device's eigenbasis the second is the real
    tridiagonal Q(c x + s y), c = a1 . a2 and s = |a1 x a2| for the unit axes, with
    eigenvectors V.  A constant device, Q(f) = u0 I, keeps the standard basis, Q(x)'s;
    a Q(f) past the float range raises ``DomainError``.  Sequences of k device pairs
    with k indices (or one) give k rows, below ``_TWISTED_N`` from one real ``eigh`` of a
    (k, n+1, n+1) stack, else each in O(n) from the eigenvector of eigenvalue m_one - n/2
    (``_twisted_row``); any other index, or one that is not a whole number in 0..n, raises
    ``DomainError``.
    """
    n = _check_n(n)
    u1, v1, single = _coefficients(device_one)
    k = len(u1)
    u2, v2, _ = _coefficients(device_two, k)
    def refusal():  # formatted only for a refusal
        got = m_one.tolist() if isinstance(m_one, np.ndarray) else m_one  # on one line
        return (f"eigenstate index must be a whole number in 0..{n}, or one per device "
                f"pair, got {got!r}")
    m = _real_array(m_one, refusal)
    if m.ndim > 1 or m.size not in (1, k) or not (
            (0 <= m) & (m <= n) & (m == np.round(m))).all():  # NaN too
        raise DomainError(refusal())
    m = np.broadcast_to(m, k).astype(int)
    vec = np.concatenate([v1, v2])
    axis = _unit_axes(vec, (1.0, 0.0, 0.0))[0]
    axis = np.concatenate([axis, axis], axis=1)  # x y z x y z: cyclic shifts are slices
    a1, a2 = axis[:k], axis[k:]
    cross = a1[:, 1:4] * a2[:, 2:5] - a1[:, 2:5] * a2[:, 1:4]  # a1 x a2, _bracket's terms
    c = np.minimum(np.maximum(np.vecdot(a1[:, :3], a2[:, :3]), -1.0), 1.0)
    s = np.sqrt(np.vecdot(cross, cross))
    # one band call: the 2k device rows are only refused past the float range
    diag, off = _q_bands(n, np.concatenate([u1, u2, np.zeros(k)]), np.concatenate([vec[:, 0], c]),
                         np.concatenate([vec[:, 1] - 1j * vec[:, 2], s]))
    if n < _TWISTED_N:
        probs = np.linalg.eigh(_tridiagonal(diag[2 * k:], off[2 * k:].real))[1][np.arange(k), m] ** 2
    else:
        probs = np.array([_twisted_row(n, *pair) for pair in zip(c, s, m)]).reshape(k, n + 1)
    return probs[0] if single else probs


def _pivots(diag, sq):
    """Pivots D_k = diag_k - sq_{k-1} / D_{k-1} of a tridiagonal's LDL^T in Python floats; one
    below pivmin = tiny max(1, max sq) is -pivmin (LAPACK's dlar1v): no sq / D overflows."""
    pivmin, d, out = np.finfo(float).tiny * max(1.0, *sq), math.inf, []
    for a, b in zip(diag, [0.0, *sq]):
        d = a - b / d
        out.append(d := d if abs(d) >= pivmin else -pivmin)
    return out


def _twisted_row(n, c, s, m):
    """Row m of the squared eigenvectors of T = (n/2) Q(c x + s y), in O(n): as |d_{m'm}| =
    |d_{mm'}| (Edmonds, Angular Momentum in Quantum Mechanics, ch. 4), the squared eigenvector
    z of T's known eigenvalue m - n/2.  Its pivots twist at the r of least |D+_r + D-_r - a_r|
    (Parlett and Dhillon, Linear Algebra Appl. 267 (1997)); log |z| sums log e_k - log |D_k|
    outward from z_r = 1, so tiny probabilities keep their relative accuracy.  s = 0 (log 0 =
    -inf) gives the exact 0/1 row at the zero of the diagonal: m for c > 0, else n - m."""
    centred, ladder = _q_ladder(n)
    a, e = c * centred - (m - n / 2.0), 0.5 * s * ladder
    sq = (e * e).tolist()
    lo, hi = np.array(_pivots(a.tolist(), sq)), np.array(_pivots(a[::-1].tolist(), sq[::-1])[::-1])
    r = int(np.argmin(np.abs(lo + hi - a)))
    with np.errstate(divide="ignore"):  # log 0 = -inf at s = 0
        log_e = np.log(e)
    # z_k = -(e_k / D+_k) z_{k+1} left of r, and z_{k+1} = -(e_k / D-_{k+1}) z_k right of it
    log_z2 = 2.0 * np.concatenate([np.cumsum((log_e[:r] - np.log(np.abs(lo[:r])))[::-1])[::-1],
                                   [0.0], np.cumsum(log_e[r:] - np.log(np.abs(hi[r + 1:])))])
    z2 = np.exp(log_z2 - log_z2.max())
    return z2 / z2.sum()
