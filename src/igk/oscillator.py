"""The Gaussian location model and its harmonic-oscillator quantization.

The tangent bundle of N(mu, 1) is the flat Kähler plane with coordinates
z = (x, y) (base mean and fiber), omega = dx ^ dy, and Poisson algebra
spanned by 1, x, y and r = (x^2 + y^2)/2:

    {x, y} = 1,   {x, r} = y,   {y, r} = -x.

Coherent states lift plane points to L^2 wave functions

    Psi(z)(xi) = (2 pi)^(-1/4) exp(-(xi - x)^2 / 4) exp(-i y xi / hbar),

with |Psi(z)|^2 the N(x, 1) density.  The quantization map sends

    1 -> Id,   x -> (multiplication by xi),   y -> i hbar d/dxi,
    r -> -(hbar^2/2) d^2/dxi^2 + xi^2/2 - (hbar^2/8 + 1/2),

and satisfies the expectation identity f(z) = <Psi(z), Q(f) Psi(z)> exactly;
each inner product is a closed form in the first two moments of N(x, 1).
Observables with a genuinely quadratic part do not decompose over the affine
spectral calculus; the statistical spectrum of an affine one is either a point
mass (constant f) or a Gaussian N(f(z), cx^2 + cy^2).

An optional matrix cross-check represents Q(f) in a Hermite function basis
adapted to the coherent states; the matrix is complex Hermitian (the y term
is purely imaginary in any real basis).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, NotKahlerError
from .numerics import Record, _finite_floats, _read_only, _real_array

__all__ = [
    "PlanePoint",
    "PlaneKahlerFunction",
    "GaussianSpectrum",
    "plane_bracket",
    "gaussian_spectrum",
    "coherent_state",
    "oscillator_expectation",
    "OscillatorOperator",
    "oscillator_operator",
    "coherent_coefficients",
]

_COHERENT_TAIL = 1e-14  # largest norm a truncated coherent state may miss


class PlanePoint(Record):
    """A point z = (x, y) of the Kähler plane (base mean, fiber); finite.  An input that
    every routine taking a plane point accepts, as it accepts the pair (x, y) itself."""

    __slots__ = _fields = ("x", "y")

    def __init__(self, x, y):
        super().__init__(*_finite_floats("plane point coordinates", x, y))


def _plane(z, stack=True):
    """Plane points as a float array: a ``PlanePoint`` or a pair (x, y) gives (2,), a stack
    (k, 2), where ``stack`` allows one, (k, 2); anything else raises ``DomainError``."""
    xy = _real_array([z.x, z.y] if isinstance(z, PlanePoint) else z,
                     "plane point coordinates must be real numbers")
    if xy.shape[-1:] != (2,) or xy.ndim > 1 + stack:
        raise DomainError(f"a plane point is a pair (x, y), got shape {xy.shape}")
    if not np.isfinite(xy).all():
        raise DomainError("plane point coordinates must be finite")
    return xy


class PlaneKahlerFunction(Record):
    """c1 + cx x + cy y + cr (x^2 + y^2)/2, the Kähler function algebra;
    finite coefficients."""

    __slots__ = _fields = ("c1", "cx", "cy", "cr")

    def __init__(self, c1=0.0, cx=0.0, cy=0.0, cr=0.0):
        super().__init__(*_finite_floats("Kähler function coefficients", c1, cx, cy, cr))

    def value(self, z):
        """f at a plane point (a float), or at each row of a stack (k, 2) of points; a
        value past the float range raises ``DomainError``."""
        x, y = (xy := _plane(z)).T
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            f = self.c1 + self.cx * x + self.cy * y
            if self.cr:
                f = f + 0.5 * self.cr * (np.square(x) + np.square(y))
        if not np.isfinite(f).all():
            raise DomainError("the Kähler function value overflows at this point")
        return float(f) if xy.ndim == 1 else f


def plane_bracket(f, g):
    """Closed-form Poisson bracket of two Kähler-plane functions.

    With omega = dx ^ dy: {x, y} = 1, {x, r} = y, {y, r} = -x, and the
    algebra closes with no new quadratic terms.
    """
    return PlaneKahlerFunction(
        c1=f.cx * g.cy - f.cy * g.cx,
        cx=f.cr * g.cy - f.cy * g.cr,
        cy=f.cx * g.cr - f.cr * g.cx,
        cr=0.0,
    )


class GaussianSpectrum(Record):
    """Statistical spectrum of an affine plane observable.

    Either a point mass at ``atom`` or a Gaussian with the given mean and
    variance; ``kind`` is "point" or "gaussian".
    """

    __slots__ = _fields = ("kind", "mean", "variance")

    @property
    def atom(self):
        if self.kind != "point":
            raise DomainError("only a point spectrum has an atom")
        return self.mean

    def density(self, t):
        if self.kind == "point":
            raise DomainError("a point spectrum has no density")
        t = _real_array(t, "spectrum points must be real numbers")
        if not np.isfinite(t).all():
            raise DomainError("spectrum points must be finite")
        return np.exp(-0.5 * (t - self.mean) ** 2 / self.variance) / math.sqrt(
            2.0 * math.pi * self.variance
        )


def gaussian_spectrum(f, z):
    """Spectrum and distribution of an affine observable at a plane point.

    For f = c1 + cx x + cy y the value f(Z) of the underlying Gaussian state
    is N(f(z), cx^2 + cy^2); a constant is the point mass at c1.  A nonzero
    quadratic part has no affine spectral decomposition and raises
    ``NotKahlerError``; a mean or variance past the float range raises
    ``DomainError``.
    """
    if f.cr != 0.0:
        raise NotKahlerError(
            "the radial term is not affine; no spectral decomposition applies"
        )
    variance = f.cx * f.cx + f.cy * f.cy
    if not math.isfinite(variance):
        raise DomainError("the spectrum's variance overflows")
    mean = f.value(_plane(z, stack=False))
    if variance == 0.0:
        return GaussianSpectrum(kind="point", mean=mean, variance=0.0)
    return GaussianSpectrum(kind="gaussian", mean=mean, variance=variance)


def coherent_state(hbar, z, xi):
    """The coherent wave function at xi (vectorized).

    (2 pi)^(-1/4) exp(-(xi - x)^2 / 4 - i y xi / hbar); its squared modulus
    is the N(x, 1) density.  A phase that overflows (a subnormal hbar) is a
    ``DomainError``.
    """
    hbar, (x, y) = _check_hbar(hbar), _plane(z, stack=False).tolist()
    xi = _real_array(xi, "wave function points must be real numbers")
    if not np.isfinite(xi).all():
        raise DomainError("wave function points must be finite")
    amp = (2.0 * math.pi) ** (-0.25) * np.exp(-((xi - x) ** 2) / 4.0)
    with np.errstate(over="ignore", invalid="ignore"):
        psi = amp * np.exp(-1j * y * xi / hbar)
    if not np.all(np.isfinite(psi)):
        raise DomainError(f"coherent state overflowed at hbar = {hbar:g}")
    return psi


def _check_hbar(hbar):
    (hbar,) = _finite_floats("hbar", hbar)
    if not hbar > 0.0:
        raise DomainError(f"hbar must be positive and finite, got {hbar}")
    return hbar


def oscillator_expectation(hbar, f, z):
    """<Psi(z), Q(f) Psi(z)> in closed form.

    The derivative action on the coherent state is Psi' = D Psi with
    D(xi) = -(xi - x)/2 - i y / hbar and Psi'' = (D^2 - 1/2) Psi, so Q(f) Psi / Psi is a
    polynomial of degree 2 in xi, whose mean under |Psi|^2 = N(x, 1) takes only
    E[xi^2] = x^2 + 1, E[D] = -i y / hbar and E[D^2] = 1/4 - y^2 / hbar^2.  ``z`` is one
    plane point, giving one complex value, or a stack (k, 2) of points, giving k values;
    a value past the float range (a huge hbar) is a ``DomainError``.
    """
    hbar, xy = _check_hbar(hbar), _plane(z)
    x, y = np.atleast_2d(xy).T
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        xi2, d1, d2 = x * x + 1.0, -1j * y / hbar, 0.25 - np.square(y / hbar)
        q = f.c1 + f.cx * x + f.cy * (1j * hbar) * d1
        if f.cr:
            q = q + f.cr * (
                -(hbar * hbar / 2.0) * (d2 - 0.5)
                + xi2 / 2.0
                - (hbar * hbar / 8.0 + 0.5)
            )
    if not np.isfinite(q).all():
        raise DomainError(f"the oscillator expectation overflows at hbar = {hbar:g}")
    return complex(q[0]) if xy.ndim == 1 else q


# ----- Hermite-basis matrix cross-check --------------------------------------


class OscillatorOperator(Record):
    """Matrix of Q(f) in the coherent-adapted Hermite basis.

    Basis functions are phi_k(xi) = 2^(-1/4) psi_k(xi / sqrt(2)) with psi_k
    the orthonormal Hermite functions, so phi_0 is the ground coherent state.
    The matrix is complex Hermitian; it is real symmetric exactly when the
    observable has no y component.
    """

    __slots__ = _fields = ("hbar", "matrix")


@lru_cache(maxsize=4)
def _ladder_blocks(size):
    """T, D, D @ D, T @ T and the identity of a basis of ``size``: built once per size
    (the four latest), read-only."""
    c = np.sqrt((np.arange(size - 1) + 1.0) / 2.0)
    T = np.diag(c, 1) + np.diag(c, -1)  # multiplication by t
    D = np.diag(c, 1) - np.diag(c, -1)  # d/dt, antisymmetric
    return _read_only(T, D, D @ D, T @ T, np.eye(size))


def oscillator_operator(hbar, f, size=64):
    """Assemble the Q(f) matrix in the sqrt(2)-scaled Hermite basis.

    With t = xi / sqrt(2): multiplication by xi is sqrt(2) T, the derivative
    is D / sqrt(2), and
    Q(r) = -(hbar^2 / 4) D^2 + T^2 - (hbar^2/8 + 1/2) Id.
    A basis size below 1 or a matrix past the float range raises ``DomainError``.
    """
    hbar = _check_hbar(hbar)
    if (size := int(size)) < 1:
        raise DomainError(f"the Hermite basis needs a size >= 1, got {size}")
    T, D, DD, TT, eye = _ladder_blocks(size)
    Qx = math.sqrt(2.0) * T
    h2 = hbar * hbar
    with np.errstate(over="ignore", invalid="ignore"):
        Qy = (1j * hbar / math.sqrt(2.0)) * D
        Qr = -(h2 / 4.0) * DD + TT - (h2 / 8.0 + 0.5) * eye
        M = f.c1 * eye + f.cx * Qx + f.cy * Qy + f.cr * Qr
    if not np.isfinite(M).all():
        raise DomainError(f"the oscillator operator overflows at hbar = {hbar:g}")
    return OscillatorOperator(hbar=hbar, matrix=M)


def _coherent_basis(hbar, z):
    """a = x/2 - i y / hbar at z, |a|^2, and the least basis size N whose bound p_N (N + 1)
    / (N + 1 - |a|^2) on the missing norm sum_{k >= N} p_k, p_k = e^{-|a|^2} |a|^{2k} / k!,
    is within _COHERENT_TAIL; inf past |a|^2 = 2^40, where lgamma loses the digits."""
    hbar, (x, y) = _check_hbar(hbar), _plane(z, stack=False).tolist()  # floats: inf on overflow
    a = 0.5 * x - 1j * y / hbar
    a2 = abs(a) * abs(a)
    if not math.isfinite(a2):
        raise DomainError(f"coherent state parameter overflows at hbar = {hbar:g}")
    lo, hi = int(a2), int(a2 + 10.0 * math.sqrt(a2)) + 60  # too small, large enough
    while hi - lo > 1 and 0.0 < a2 <= 2.0 ** 40:
        N = (lo + hi) // 2
        tail = N * math.log(a2) - a2 - math.lgamma(N + 1.0) - math.log1p(-a2 / (N + 1.0))
        lo, hi = (N, hi) if tail > math.log(_COHERENT_TAIL) else (lo, N)
    return a, a2, 1 if a2 == 0.0 else hi if a2 <= 2.0 ** 40 else math.inf


def coherent_coefficients(hbar, z, size=64):
    """Hermite-basis coefficients of the coherent state at z (up to phase).

    c_k = e^{-|a|^2/2} a^k / sqrt(k!) with a = x/2 - i y / hbar; the magnitudes sum
    ln |c_k / c_(k-1)| = ln(|a|^2 / k) / 2 outward from the mode, scaled to unit norm over
    every non-negligible k.  A basis whose missing norm 1 - sum |c_k|^2 may exceed 1e-14
    (``_COHERENT_TAIL``, by a Poisson tail bound) raises ``DomainError`` naming the least
    size that holds the state (none past |a|^2 = 2^40), as does |a|^2 past the floats.
    """
    a, a2, need = _coherent_basis(hbar, z)
    if (size := int(size)) < need:
        raise DomainError(
            f"no basis igk can build holds the coherent state at |a|^2 = {a2:.6g}"
            if math.isinf(need) else f"a basis of {size} misses more than {_COHERENT_TAIL:g}"
            f" of the coherent state at |a|^2 = {a2:.6g}: it needs size {need}")
    mode, top = int(a2), max(size, int(a2 + 12.0 * math.sqrt(a2)) + 80)
    with np.errstate(divide="ignore"):  # a ratio below the float range is a zero term
        steps = 0.5 * np.log(a2 / np.arange(1, top))  # ln |c_k / c_(k-1)|, k = 1..top-1
    mag2 = np.exp(2.0 * np.concatenate((-np.cumsum(steps[:mode][::-1])[::-1], [0.0],
                                        np.cumsum(steps[mode:]))))
    return np.sqrt(mag2[:size] / mag2.sum()) * np.exp(1j * np.arange(size) * np.angle(a))
