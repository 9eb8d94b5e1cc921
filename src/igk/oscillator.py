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
the inner products reduce to Gauss-Hermite quadrature of polynomials against
N(x, 1), one quadrature per order for a whole stack of points.  Observables
with a genuinely quadratic part do not decompose over the affine spectral
calculus: their statistical spectrum is either a point mass (constant f) or
a Gaussian N(f(z), cx^2 + cy^2).

An optional matrix cross-check represents Q(f) in a Hermite function basis
adapted to the coherent states; the matrix is complex Hermitian (the y term
is purely imaginary in any real basis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotKahlerError, NumericalError
from .numerics import gauss_hermite, log_factorials

__all__ = [
    "PlanePoint",
    "PlaneKahlerFunction",
    "GaussianSpectrum",
    "plane_bracket",
    "plane_bracket_fd",
    "gaussian_spectrum",
    "coherent_state",
    "oscillator_expectation",
    "oscillator_expectation_residual",
    "OscillatorOperator",
    "oscillator_operator",
    "coherent_coefficients",
]

_QUAD_ORDER = 96
_QUAD_GATE = 1e-9
_BRACKET_STEP = 1e-6  # FD step of plane_bracket_fd


@dataclass(frozen=True)
class PlanePoint:
    """A point z = (x, y) of the Kähler plane (base mean, fiber)."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))


@dataclass(frozen=True)
class PlaneKahlerFunction:
    """c1 + cx x + cy y + cr (x^2 + y^2)/2, the Kähler function algebra."""

    c1: float = 0.0
    cx: float = 0.0
    cy: float = 0.0
    cr: float = 0.0

    def __post_init__(self):
        for name in ("c1", "cx", "cy", "cr"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def value(self, z):
        """f at a PlanePoint, or at each row of a stack (k, 2) of points."""
        x, y = (z.x, z.y) if isinstance(z, PlanePoint) else np.asarray(z, dtype=float).T
        return self.c1 + self.cx * x + self.cy * y + 0.5 * self.cr * (x ** 2 + y ** 2)


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


def plane_bracket_fd(f, g, z):
    """The bracket {f, g} = f_x g_y - f_y g_x at a point, by central FD."""
    xy, steps = np.array([z.x, z.y]), _BRACKET_STEP * np.eye(2)
    (fx, fy), (gx, gy) = ((fun.value(xy + steps) - fun.value(xy - steps))
                          / (2 * _BRACKET_STEP) for fun in (f, g))
    return fx * gy - fy * gx


@dataclass(frozen=True)
class GaussianSpectrum:
    """Statistical spectrum of an affine plane observable.

    Either a point mass at ``atom`` or a Gaussian with the given mean and
    variance.
    """

    kind: str  # "point" or "gaussian"
    mean: float
    variance: float

    @property
    def atom(self):
        if self.kind != "point":
            raise DomainError("only a point spectrum has an atom")
        return self.mean

    def density(self, t):
        if self.kind == "point":
            raise DomainError("a point spectrum has no density")
        t = np.asarray(t, dtype=float)
        return np.exp(-0.5 * (t - self.mean) ** 2 / self.variance) / math.sqrt(
            2.0 * math.pi * self.variance
        )


def gaussian_spectrum(f, z):
    """Spectrum and distribution of an affine observable at a plane point.

    For f = c1 + cx x + cy y the value f(Z) of the underlying Gaussian state
    is N(f(z), cx^2 + cy^2); a constant is the point mass at c1.  A nonzero
    quadratic part has no affine spectral decomposition and raises
    ``NotKahlerError``.
    """
    if f.cr != 0.0:
        raise NotKahlerError(
            "the radial term is not affine; no spectral decomposition applies"
        )
    variance = f.cx ** 2 + f.cy ** 2
    mean = f.value(z)
    if variance == 0.0:
        return GaussianSpectrum(kind="point", mean=mean, variance=0.0)
    return GaussianSpectrum(kind="gaussian", mean=mean, variance=variance)


def coherent_state(hbar, z, xi):
    """The coherent wave function at xi (vectorized).

    (2 pi)^(-1/4) exp(-(xi - x)^2 / 4 - i y xi / hbar); its squared modulus
    is the N(x, 1) density.  A phase that overflows (a subnormal hbar) is a
    ``DomainError``.
    """
    hbar = _check_hbar(hbar)
    xi = np.asarray(xi, dtype=float)
    amp = (2.0 * math.pi) ** (-0.25) * np.exp(-((xi - z.x) ** 2) / 4.0)
    with np.errstate(over="ignore", invalid="ignore"):
        psi = amp * np.exp(-1j * z.y * xi / hbar)
    if not np.all(np.isfinite(psi)):
        raise DomainError(f"coherent state overflowed at hbar = {hbar:g}")
    return psi


def _check_hbar(hbar):
    hbar = float(hbar)
    if not (math.isfinite(hbar) and hbar > 0.0):
        raise DomainError(f"hbar must be positive and finite, got {hbar}")
    return hbar


def oscillator_expectation(hbar, f, z):
    """<Psi(z), Q(f) Psi(z)> evaluated analytically under the state.

    The derivative action on the coherent state is
    Psi' = D Psi with D(xi) = -(xi - x)/2 - i y / hbar and
    Psi'' = (D^2 - 1/2) Psi, so the integrand is a polynomial against
    N(x, 1) and the quadrature is exact; an order-doubling gate guards the
    result anyway (``NumericalError`` with the worst row's residual; an
    overflow of a huge hbar is a ``DomainError``).  ``z`` is a PlanePoint,
    giving one complex value, or a stack (k, 2) of points, giving k values
    from one quadrature per order.
    """
    hbar = _check_hbar(hbar)
    xy = [[z.x, z.y]] if isinstance(z, PlanePoint) else z
    x, y = np.asarray(xy, dtype=float).T[:, :, None]

    def quad(order):
        # E[Q(f) Psi / Psi] against N(x, 1) by Gauss-Hermite, one row per point
        t, w = gauss_hermite(order)
        xi = x + math.sqrt(2.0) * t
        D = -(xi - x) / 2.0 - 1j * y / hbar
        q = f.c1 + f.cx * xi + f.cy * (1j * hbar) * D
        if f.cr:
            q = q + f.cr * (
                -(hbar * hbar / 2.0) * (D * D - 0.5)
                + xi ** 2 / 2.0
                - (hbar * hbar / 8.0 + 0.5)
            )
        return (q @ w) / math.sqrt(math.pi)

    # an overflow (hbar near the float limit) gives inf or NaN: a usage error
    with np.errstate(over="ignore", invalid="ignore"):
        val = quad(_QUAD_ORDER)
        check = quad(2 * _QUAD_ORDER)
        worst = float(np.max(np.abs(val - check) / np.maximum(1.0, np.abs(check))))
    if not math.isfinite(worst):  # a NaN or inf in any row
        raise DomainError(f"oscillator quadrature overflowed at hbar = {hbar:g}")
    if not worst <= _QUAD_GATE:
        raise NumericalError("oscillator quadrature did not converge under "
                             "order doubling", residual=worst)
    return complex(val[0]) if isinstance(z, PlanePoint) else val


def oscillator_expectation_residual(hbar, f, z):
    """|f(z) - <Psi(z), Q(f) Psi(z)>| at a plane point or a stack (k, 2)."""
    return np.abs(f.value(z) - oscillator_expectation(hbar, f, z))


# ----- Hermite-basis matrix cross-check --------------------------------------


@dataclass(frozen=True)
class OscillatorOperator:
    """Matrix of Q(f) in the coherent-adapted Hermite basis.

    Basis functions are phi_k(xi) = 2^(-1/4) psi_k(xi / sqrt(2)) with psi_k
    the orthonormal Hermite functions, so phi_0 is the ground coherent state.
    The matrix is complex Hermitian; it is real symmetric exactly when the
    observable has no y component.
    """

    hbar: float
    matrix: np.ndarray

    def hermiticity_defect(self):
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))


def _ladder_blocks(size):
    c = np.sqrt((np.arange(size - 1) + 1.0) / 2.0)
    T = np.diag(c, 1) + np.diag(c, -1)  # multiplication by t
    D = np.diag(c, 1) - np.diag(c, -1)  # d/dt, antisymmetric
    return T, D


def oscillator_operator(hbar, f, size=64):
    """Assemble the Q(f) matrix in the sqrt(2)-scaled Hermite basis.

    With t = xi / sqrt(2): multiplication by xi is sqrt(2) T, the derivative
    is D / sqrt(2), and
    Q(r) = -(hbar^2 / 4) D^2 + T^2 - (hbar^2/8 + 1/2) Id.
    """
    hbar = _check_hbar(hbar)
    T, D = _ladder_blocks(int(size))
    eye = np.eye(int(size))
    Qx = math.sqrt(2.0) * T
    Qy = (1j * hbar / math.sqrt(2.0)) * D
    Qr = -(hbar ** 2 / 4.0) * (D @ D) + T @ T - (hbar ** 2 / 8.0 + 0.5) * eye
    M = f.c1 * eye + f.cx * Qx + f.cy * Qy + f.cr * Qr
    return OscillatorOperator(hbar=hbar, matrix=M)


def coherent_coefficients(hbar, z, size=64):
    """Hermite-basis coefficients of the coherent state at z (up to phase).

    c_k = e^{-|a|^2/2} a^k / sqrt(k!) with a = x/2 - i y / hbar; the tail
    must be negligible for the matrix cross-check to be meaningful.
    """
    hbar = _check_hbar(hbar)
    a = 0.5 * z.x - 1j * z.y / hbar
    k = np.arange(int(size))
    if a == 0:
        coeffs = np.zeros(int(size), dtype=complex)
        coeffs[0] = 1.0
        return coeffs
    logmag = k * math.log(abs(a)) - 0.5 * log_factorials(int(size) - 1) - 0.5 * abs(a) ** 2
    phase = np.exp(1j * k * np.angle(a))
    return np.exp(logmag) * phase
