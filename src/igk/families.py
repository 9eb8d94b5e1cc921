"""Exponential families on finite sets and on the real line.

Densities have the form

    p(x; theta) = exp( C(x) + <theta, F(x)> - psi(theta) )

with carrier ``C``, statistics ``F = (F_1, ..., F_n)`` and log-partition
``psi``, taken against counting measure (finite support) or Lebesgue measure
(real line).  The natural chart is ``theta``; the expectation chart is
``eta = grad psi(theta)``, inverted by a damped Newton iteration whose
Jacobian is the Fisher matrix ``h = Hess psi(theta)``.

eta, h and T = grad^3 psi are the first three cumulants of the statistics,
read through one route: the builtin families' closed-form ``cumulants``
hook, else the weighted support, exact finite sums or Gauss-Hermite
quadrature in a standardized variable ``x = center + sqrt(2) * scale * t``
on the real line, centred on the ``envelope`` or on three fixed-point
refinements of (mean, std).  Every quadrature passes an order-doubling
convergence gate, and every support table a normalization gate (row sums
within ``FINITE_NORM_TOL`` or ``REAL_LINE_NORM_TOL`` of 1), before use.

``weighted_support``, ``moment_tensors`` and the three chart functions
(``natural_to_expectation``, ``log_partition_hessian``,
``expectation_to_natural``) take one point, shape (dim,), or a stack of
them, shape (k, dim), as one vectorized table; a finite space builds the
carrier and statistic values of its points once per family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, NumericalError
from .numerics import gauss_hermite, log_factorials

__all__ = [
    "FiniteSpace",
    "RealLine",
    "Box",
    "NaturalPoint",
    "ExpectationPoint",
    "ExponentialFamilySpec",
    "family",
    "categorical_family",
    "binomial_family",
    "normal_family",
    "normal_fixed_sigma_family",
    "BUILTIN_FAMILIES",
    "MAX_FAMILY_N",
    "FINITE_NORM_TOL",
    "REAL_LINE_NORM_TOL",
]

MAX_FAMILY_N = 1024  # largest n of the builtin categorical:n and binomial:n
FINITE_NORM_TOL = 1e-9  # |sum p - 1| of a probability table
REAL_LINE_NORM_TOL = 1e-7  # |sum w - 1| of density-absorbed quadrature weights

_QUAD_GATE = 1e-9
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class FiniteSpace:
    """A finite measured space: distinct real points with counting measure."""

    points: tuple
    labels: tuple = ()

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if len(pts) < 2:
            raise DomainError("a finite measured space needs at least two points")
        if len(set(pts)) != len(pts):
            raise DomainError("points of a finite measured space must be distinct")
        object.__setattr__(self, "points", pts)
        labels = tuple(self.labels)
        if not labels:
            labels = tuple(f"x{i + 1}" for i in range(len(pts)))
        elif len(labels) != len(pts):
            raise DomainError("labels must match points one to one")
        object.__setattr__(self, "labels", labels)

    @property
    def size(self):
        return len(self.points)

    def values(self):
        return np.asarray(self.points, dtype=float)


@dataclass(frozen=True)
class RealLine:
    """The real line with Lebesgue measure and a Gauss-Hermite order."""

    quad_order: int = 64

    def __post_init__(self):
        if int(self.quad_order) < 1:
            raise DomainError("quadrature order must be at least 1")
        object.__setattr__(self, "quad_order", int(self.quad_order))


MeasuredSpace = Union[FiniteSpace, RealLine]


@dataclass(frozen=True)
class Box:
    """An open coordinate box, bounds possibly infinite."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(a) for a in self.lo)
        hi = tuple(float(b) for b in self.hi)
        if len(lo) != len(hi):
            raise DomainError("box bounds must have equal length")
        if any(a >= b for a, b in zip(lo, hi)):
            raise DomainError("box must have nonempty interior")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @staticmethod
    def unbounded(n):
        return Box((-math.inf,) * n, (math.inf,) * n)

    @property
    def dim(self):
        return len(self.lo)

    @cached_property
    def _bounds(self):
        """lo and hi as read-only arrays, built once."""
        lo, hi = np.array(self.lo), np.array(self.hi)
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi

    def contains(self, x):
        """Whether x lies inside; row by row for a stack of points (k, dim)."""
        lo, hi = self._bounds
        x = np.asarray(x, dtype=float)
        inside = ((x > lo) & (x < hi)).all(axis=-1)
        return bool(inside) if inside.ndim == 0 else inside


def _window(domain, r):
    """Per coordinate, the domain box clipped to [-r, r], as (lo, hi) lists.

    A coordinate whose domain misses [-r, r] spans from its edge e nearest
    the origin to 2e instead, so every window lies in the closed domain and
    has a nonempty interior.
    """
    lo, hi = [], []
    for a, b in zip(domain.lo, domain.hi):
        c, d = max(a, -r), min(b, r)
        if c >= d:
            c, d = (a, min(b, 2.0 * a)) if a >= r else (max(a, 2.0 * b), b)
        lo.append(c)
        hi.append(d)
    return lo, hi


@dataclass(frozen=True)
class _ChartPoint:
    """A point given by its coordinates in one chart."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))


class NaturalPoint(_ChartPoint):
    """A point given in the natural chart."""


class ExpectationPoint(_ChartPoint):
    """A point given in the expectation chart."""


@dataclass(frozen=True)
class ExponentialFamilySpec:
    """An exponential family: carrier, statistics, log-partition, domain.

    ``carrier`` and the entries of ``statistics`` are vectorized callables of
    the sample point; ``log_partition`` maps a natural-parameter vector to a
    float.  ``cumulants(rows, order)`` maps a theta stack (k, dim) to the
    first ``order`` of the derivative tensors (eta, h, T) of ``psi``, each
    with a leading k axis; when present it serves the mean map (order 1),
    the Hessian (order 2) and ``moment_tensors`` (order 3), else the gated
    support table does, and all three take one theta or a stack.  Optional
    ``mean_inverse`` starts Newton's inversion of the mean map, ``envelope``
    gives the real-line (mean, std) in place of adaptive standardization.
    ``sample_box`` is a bounded region of natural parameters used by tests
    and verification sweeps; by default the domain's window of radius 2
    (see ``_window``) shrunk by 5% of its width on each side.
    """

    name: str
    space: MeasuredSpace
    carrier: Callable
    statistics: tuple
    log_partition: Callable
    domain: Box
    mean_inverse: Optional[Callable] = None
    envelope: Optional[Callable] = None
    sample_box: Optional[Box] = None
    cumulants: Optional[Callable] = None

    def __post_init__(self):
        if len(self.statistics) < 1:
            raise DomainError("an exponential family needs at least one statistic")
        if self.domain.dim != self.dim:
            raise DomainError("domain dimension must match the number of statistics")
        if self.sample_box is None:
            lo, hi = _window(self.domain, 2.0)
            margin = [0.05 * (b - a) for a, b in zip(lo, hi)]
            object.__setattr__(self, "sample_box", Box(
                tuple(a + m for a, m in zip(lo, margin)),
                tuple(b - m for b, m in zip(hi, margin))))

    # ----- basic structure -------------------------------------------------

    @property
    def dim(self):
        return len(self.statistics)

    @property
    def is_finite(self):
        return isinstance(self.space, FiniteSpace)

    def _check_theta(self, theta, stack=False):
        """One validated theta, shape (dim,); with ``stack``, a stack of rows
        (k, dim), where a single theta is a stack of one."""
        th = np.asarray(theta, dtype=float)
        rows = th.reshape(1, -1) if th.ndim < 2 else th
        if (rows.ndim != 2 or rows.shape[1] != self.dim or not len(rows)
                or (th.ndim == 2 and not stack)):
            raise DomainError(
                f"{self.name}: expected {self.dim} natural parameters, got shape {th.shape}"
            )
        inside = self.domain.contains(rows)  # NaN and +-inf lie outside an open box
        if not inside.all():
            i = int(np.argmin(inside))
            where = f" (row {i})" if th.ndim == 2 else ""
            if not np.isfinite(rows[i]).all():
                raise DomainError(f"{self.name}: natural parameters must be finite{where}")
            raise DomainError(
                f"{self.name}: {rows[i].tolist()} outside the natural domain{where}")
        return rows if stack else rows[0]

    def _interior_point(self):
        """The origin, or else the midpoint of the domain's window of radius 1
        (see ``_window``); inside the domain either way."""
        th = np.zeros(self.dim)
        if self.domain.contains(th):
            return th
        return np.asarray([(a + b) / 2.0 for a, b in zip(*_window(self.domain, 1.0))])

    def natural_coords(self, point):
        """Natural coordinates of a point given in either chart."""
        if isinstance(point, NaturalPoint):
            return self._check_theta(point.coords)
        if isinstance(point, ExpectationPoint):
            return self.expectation_to_natural(point.coords)
        return self._check_theta(point)

    def statistic_matrix(self, x):
        """Stack of statistic values, shape (dim, len(x)); for points x of
        shape (k, q), shape (k, dim, q)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        F = np.empty(x.shape[:-1] + (self.dim,) + x.shape[-1:])
        for i, f in enumerate(self.statistics):
            F[..., i, :] = f(x)
        return F

    def _tables(self, x):
        """Carrier values C(x) and statistic values F(x) at the points x."""
        return np.asarray(self.carrier(x), dtype=float), self.statistic_matrix(x)

    @cached_property
    def _support_tables(self):
        """(x, C(x), F(x)) on the points of a finite space, built once."""
        x = self.space.values()
        tables = (x, *self._tables(x))
        for a in tables:
            a.setflags(write=False)
        return tables

    def _psi(self, rows):
        """psi(theta) of each row of a theta stack, one Python call per row."""
        return np.array([float(self.log_partition(r)) for r in rows])

    @staticmethod
    def _log_p(rows, psi, C, F):
        """ln p = C + <theta, F> - psi(theta) for each row of a theta stack."""
        return C + (rows[:, None, :] @ F)[:, 0] - psi[:, None]

    # ----- densities -------------------------------------------------------

    def log_density(self, theta, x):
        th = self._check_theta(theta)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = self._log_p(th[None], self._psi(th[None]), *self._tables(xs))[0]
        return out if np.ndim(x) else float(out[0])

    def density(self, theta, x):
        return np.exp(self.log_density(theta, x))

    def probabilities(self, theta):
        """Density table over the support of a finite space, gated like
        ``weighted_support`` (a stack of theta gives one row per theta)."""
        if not self.is_finite:
            raise DomainError(f"{self.name}: probabilities need a finite space")
        return self.weighted_support(theta)[1]

    # ----- quadrature / expectation machinery ------------------------------

    def _gh_rule(self, rows, psi, center, scale, order):
        """Points (k, q), log weights with the density folded in, and F there."""
        t, w = gauss_hermite(order)
        x = center[:, None] + math.sqrt(2.0) * scale[:, None] * t
        C, F = self._tables(x)
        logw = np.log(math.sqrt(2.0) * scale)[:, None] + np.log(w) + t * t \
            + self._log_p(rows, psi, C, F)
        return x, logw, F

    def _adaptive_envelope(self, rows, psi):
        """Three fixed-point refinements of (mean, std) for each theta row."""
        center, scale = np.zeros(len(rows)), np.ones(len(rows))
        for _ in range(3):
            x, logw, _ = self._gh_rule(rows, psi, center, scale, self.space.quad_order)
            shift = np.max(logw, axis=1)
            if not np.all(np.isfinite(shift)):
                raise NumericalError(
                    f"{self.name}: density not evaluable on the quadrature grid"
                )
            w = np.exp(logw - shift[:, None])
            z = w.sum(axis=1)
            m = np.vecdot(w, x) / z
            v = np.vecdot(w, (x - m[:, None]) ** 2) / z
            if not (np.all(np.isfinite(m)) and np.all(v > 0.0)):
                raise NumericalError(f"{self.name}: quadrature standardization failed")
            center, scale = m, np.sqrt(v)
        return center, scale

    def check_normalized(self, weights):
        """Raise ``NumericalError`` (worst row's residual; NaN fails) unless
        each row of ``weights`` ((k,) q) sums to 1 within the space's
        tolerance.  A ``psi`` that contradicts ``C`` and ``F`` scales the table
        by exp(psi_true - psi); a rule that misses the density sums to ~0."""
        tol = FINITE_NORM_TOL if self.is_finite else REAL_LINE_NORM_TOL
        residual = np.atleast_1d(np.abs(np.sum(weights, axis=-1) - 1.0))
        i = int(np.argmax(residual))  # the first NaN, if any
        if not residual[i] <= tol:
            where = f" (row {i})" if residual.size > 1 else " at this theta"
            raise NumericalError(
                f"{self.name}: density not normalized{where}, "
                f"|sum - 1| > {tol:g}",
                residual=float(residual[i]),
            )

    def _support(self, theta):
        """``weighted_support`` of a theta stack (k, dim), plus the statistics:
        weights (k, q), points (k, q) and F (k, dim, q) on the real line,
        points (q,) and F (dim, q) shared by every row on a finite space."""
        rows = self._check_theta(theta, stack=True)
        psi = self._psi(rows)
        if not np.isfinite(psi).all():
            i = int(np.argmin(np.isfinite(psi)))
            where = f" (row {i})" if len(rows) > 1 else " at this theta"
            raise NumericalError(f"{self.name}: log_partition is not finite{where}")
        if self.is_finite:
            x, C, F = self._support_tables
            w = np.exp(self._log_p(rows, psi, C, F))
            self.check_normalized(w)
            return x, w, F
        if self.envelope is not None:
            center, scale = np.array([self.envelope(r) for r in rows], dtype=float).T
        else:
            center, scale = self._adaptive_envelope(rows, psi)
        order = self.space.quad_order
        _, lw1, F1 = self._gh_rule(rows, psi, center, scale, order)
        x2, lw2, F2 = self._gh_rule(rows, psi, center, scale, 2 * order)
        w1, w2 = np.exp(lw1), np.exp(lw2)
        if not (np.all(np.isfinite(w1)) and np.all(np.isfinite(w2))):
            raise NumericalError(f"{self.name}: quadrature weights overflowed")
        z1, z2 = w1.sum(axis=1), w2.sum(axis=1)
        (eta1,), (eta2,) = self._moments(F1, w1, 1), self._moments(F2, w2, 1)
        num = np.maximum(np.abs(z1 - z2), np.max(np.abs(eta1 - eta2), axis=1))
        den = np.maximum(np.maximum(1.0, np.abs(z2)), np.max(np.abs(eta2), axis=1))
        worst = float(np.max(num / den))
        if not worst <= _QUAD_GATE:
            raise NumericalError(
                f"{self.name}: quadrature did not converge under order doubling",
                residual=worst,
            )
        self.check_normalized(w2)
        return x2, w2, F2

    def weighted_support(self, theta):
        """Support points and density-absorbed expectation weights.

        For finite spaces this is (points, probabilities).  On the real line
        the weights fold the density into the Gauss-Hermite rule so that
        ``E[g] = weights @ g(points)``; the rule must pass an order-doubling
        convergence gate (relative change of the normalization and of the
        statistic means below 1e-9), else ``NumericalError`` is raised with
        the worst residual.  Either table must pass ``check_normalized``.
        A stack of theta, shape (k, dim), gives points and weights of shape
        (k, q), one row per theta.
        """
        x, w, _ = self._support(theta)
        x = np.broadcast_to(x, w.shape)
        return (x[0], w[0]) if np.ndim(theta) < 2 else (x, w)

    def _cumulants(self, theta, order):
        """The first ``order`` of (eta, h, T) at one theta or a stack: from the
        family's closed-form ``cumulants`` hook, else the gated support table."""
        if self.cumulants is not None:
            moments = self.cumulants(self._check_theta(theta, stack=True), order)
        else:
            _, w, F = self._support(theta)
            moments = self._moments(F, w, order)
        return tuple(m[0] for m in moments) if np.ndim(theta) < 2 else moments

    @staticmethod
    def _moments(F, w, order=3):
        """The first ``order`` of (eta, h, T) of statistics F ((k,) dim, q)
        under weights w (k, q); no T below order 3."""
        eta = (F @ w[:, :, None])[..., 0]
        if order < 2:
            return (eta,)
        Fc = F - eta[:, :, None]
        h = (Fc * w[:, None, :]) @ np.swapaxes(Fc, 1, 2)
        if order < 3:
            return eta, h
        return eta, h, np.einsum("kiq,kjq,klq,kq->kijl", Fc, Fc, Fc, w)

    def moment_tensors(self, theta):
        """Statistic mean, covariance, and third central moment tensor.

        Returns ``(eta, h, T)`` with ``h[i, j] = E[(F_i - eta_i)(F_j - eta_j)]``
        and ``T[i, j, k]`` the corresponding third central moment: the first
        three derivative tensors of psi.  A stack of theta, shape (k, dim),
        gives each tensor a leading k axis.
        """
        return self._cumulants(theta, 3)

    # ----- charts ----------------------------------------------------------

    def natural_to_expectation(self, theta):
        """Mean map eta(theta), the mean of the statistics (one row per theta)."""
        return self._cumulants(theta, 1)[0]

    def log_partition_hessian(self, theta):
        """Hessian of psi, the covariance of the statistics (one per theta)."""
        return self._cumulants(theta, 2)[1]

    def expectation_to_natural(self, eta):
        """Invert the mean map by damped Newton iteration, row by row.

        ``eta`` is one target (dim,) or a stack (k, dim).  Each pass reads
        (eta, h) at the start or candidate of every unconverged row from one
        ``_cumulants`` table.  A candidate must lie in the domain with a
        finite psi and lower max |eta(theta) - target|, else its row's step
        halves; a row whose step falls below 1e-12 (a target off the image of
        the mean map) or that misses ``_NEWTON_MAX_ITER`` steps raises
        ``NumericalError`` naming the row, with its residual.
        """
        target = np.atleast_1d(np.asarray(eta, dtype=float))
        if (target.ndim > 2 or target.shape[-1] != self.dim or not target.size
                or not np.isfinite(target).all()):
            raise DomainError(
                f"{self.name}: expected {self.dim} finite expectation parameters")
        stack = target.ndim == 2
        target = target.reshape(-1, self.dim)
        if self.mean_inverse is not None:
            th = np.array([self.mean_inverse(t) for t in target], dtype=float)
        else:
            th = np.tile(self._interior_point(), (len(target), 1))
        step, rnorm = np.zeros_like(th), np.full(len(th), np.inf)
        lam, steps = np.ones(len(th)), np.zeros(len(th), dtype=int)
        while (active := ~(rnorm < _NEWTON_TOL)).any():
            failed = active & ((lam < 1e-12) | (steps > _NEWTON_MAX_ITER))
            if failed.any():
                i = int(np.argmax(failed))
                what = ("damped Newton stalled; the target may lie outside the image "
                        "of the mean map" if lam[i] < 1e-12 else
                        f"Newton did not converge in {_NEWTON_MAX_ITER} iterations")
                raise NumericalError(f"{self.name}: {what}{f' (row {i})' if stack else ''}",
                                     residual=float(rnorm[i]))
            rows = np.flatnonzero(active)
            cand = th[rows] - lam[rows, None] * step[rows]
            ok = self.domain.contains(cand)
            with np.errstate(all="ignore"):  # an overflowing psi is refused here
                ok[ok] = np.isfinite(self._psi(cand[ok]))
            better = np.zeros(len(rows), dtype=bool)
            if ok.any():
                eta_c, h_c = self._cumulants(cand[ok], 2)
                r_c = eta_c - target[rows[ok]]
                rnorm_c = np.max(np.abs(r_c), axis=1)
                better[ok] = won = rnorm_c < rnorm[rows[ok]]
                acc = rows[better]
                th[acc], rnorm[acc], lam[acc] = cand[better], rnorm_c[won], 1.0
                steps[acc] += 1
                go = rnorm_c[won] >= _NEWTON_TOL  # converged rows take no next step
                if go.any():
                    h_go, r_go = h_c[won][go], r_c[won][go, :, None]
                    try:
                        step[acc[go]] = np.linalg.solve(h_go, r_go)[:, :, 0]
                    except np.linalg.LinAlgError:  # a singular h gets a zero step, stalls
                        step[acc[go]] = (np.linalg.pinv(h_go) @ r_go)[:, :, 0]
            lam[rows[~better]] *= 0.5
        return th if stack else th[0]

    # ----- summary statistics ----------------------------------------------

    def mean_and_variance(self, theta, observable):
        """Mean and variance of an observable under p(.; theta).

        ``observable`` is a vectorized callable, or a value table over the
        points of a finite space.
        """
        x, w = self.weighted_support(theta)
        vals = self._observable_values(x, observable)
        m = float(vals @ w)
        v = float(((vals - m) ** 2) @ w)
        return m, v

    def _observable_values(self, x, observable):
        """An observable at support points x (q,) or (k, q): a vectorized
        callable, or a value table (q,) over the points of a finite space."""
        if callable(observable):
            return np.broadcast_to(
                np.asarray(observable(x), dtype=float), x.shape
            ).astype(float)
        vals = np.asarray(observable, dtype=float)
        if not self.is_finite or vals.shape != x.shape[-1:]:
            raise DomainError(
                f"{self.name}: a value table needs a finite space of matching size"
            )
        return vals

    def statistic_independence_margin(self, theta=None):
        """Smallest eigenvalue of the Gram matrix of {1, F_1..F_n}.

        A positive margin certifies affine independence of the statistics
        (no degenerate directions in the natural parameter).
        """
        if theta is None:
            theta = self._interior_point()
        x, w = self.weighted_support(theta)
        rows = np.vstack([np.ones_like(x), self.statistic_matrix(x)])
        gram = (rows * w) @ rows.T
        return float(np.linalg.eigvalsh(gram)[0])


# ----- builtin families -----------------------------------------------------


def _indicator(value):
    def f(x, v=float(value)):
        return np.where(np.isclose(x, v, rtol=0.0, atol=1e-12), 1.0, 0.0)

    return f


def categorical_family(n):
    """The full categorical family on n points (dimension n - 1).

    Points are 1..n with labels x1..xn; statistic i is the indicator of point
    i, the last point serving as reference.  psi(theta) = ln(1 + sum e^theta).
    """
    n = int(n)
    if not 2 <= n <= MAX_FAMILY_N:
        raise DomainError(f"categorical:n needs 2 <= n <= {MAX_FAMILY_N}, got {n}")
    space = FiniteSpace(tuple(range(1, n + 1)))
    stats = tuple(_indicator(i) for i in range(1, n))

    def psi(theta):
        m = max(0.0, float(np.max(theta)))
        return m + math.log(math.exp(-m) + np.exp(np.asarray(theta) - m).sum())

    def cumulants(rows, order):
        # eta = softmax over (theta, 0); h = diag(eta) - eta eta^T; T is the
        # theta_l derivative of h: delta_ij h_il - h_il eta_j - eta_i h_jl
        m = np.maximum(0.0, rows.max(axis=1))
        e = np.exp(rows - m[:, None])
        eta = e / (np.exp(-m) + e.sum(axis=1))[:, None]
        if order < 2:
            return (eta,)
        diag = np.arange(n - 1)
        h = -eta[:, :, None] * eta[:, None, :]
        h[:, diag, diag] += eta
        if order < 3:
            return eta, h
        T = -h[:, :, None, :] * eta[:, None, :, None] - eta[:, :, None, None] * h[:, None]
        T[:, diag, diag] += h
        return eta, h, T

    def inverse(eta):
        eta = np.asarray(eta, dtype=float)
        rest = 1.0 - eta.sum()
        if np.any(eta <= 0.0) or rest <= 0.0:
            raise DomainError(
                "categorical expectation parameters must be positive with sum < 1"
            )
        return np.log(eta) - math.log(rest)

    return ExponentialFamilySpec(
        name=f"categorical:{n}",
        space=space,
        carrier=lambda x: np.zeros_like(x),
        statistics=stats,
        log_partition=psi,
        domain=Box.unbounded(n - 1),
        mean_inverse=inverse,
        sample_box=Box((-2.0,) * (n - 1), (2.0,) * (n - 1)),
        cumulants=cumulants,
    )


def binomial_family(n):
    """The binomial family B(n, .) with the success count as statistic."""
    n = int(n)
    if not 1 <= n <= MAX_FAMILY_N:
        raise DomainError(f"binomial:n needs 1 <= n <= {MAX_FAMILY_N}, got {n}")
    space = FiniteSpace(tuple(range(n + 1)))
    support = space.values()
    lf = log_factorials(n)
    log_binom = lf[n] - lf - lf[::-1]  # ln binom(n, k) for k = 0..n

    def carrier(x):
        k = np.searchsorted(support, x)
        if not (support[np.minimum(k, n)] == x).all():  # off-support x is not rounded
            raise DomainError(f"binomial:{n} lives on the integers 0..{n}")
        return log_binom[k]

    def psi(theta):
        return float(n * np.logaddexp(0.0, theta[0]))

    def cumulants(rows, order):
        # derivatives of n ln(1 + e^t): n s, n s (1 - s), n s (1 - s)(1 - 2 s)
        # with s the logistic function, evaluated without overflow
        e = np.exp(-np.abs(rows[:, :1]))
        s = np.where(rows[:, :1] >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        h = (n * s * (1.0 - s))[:, :, None]
        return (n * s, h, h[..., None] * (1.0 - 2.0 * s)[:, :, None, None])[:order]

    def inverse(eta):
        e = float(np.asarray(eta).reshape(-1)[0])
        if not 0.0 < e < n:
            raise DomainError("binomial expectation parameter must lie in (0, n)")
        return np.asarray([math.log(e) - math.log(n - e)])

    return ExponentialFamilySpec(
        name=f"binomial:{n}",
        space=space,
        carrier=carrier,
        statistics=(lambda x: x,),
        log_partition=psi,
        domain=Box.unbounded(1),
        mean_inverse=inverse,
        sample_box=Box((-2.0,), (2.0,)),
        cumulants=cumulants,
    )


def normal_family():
    """Gaussians on the real line with statistics (x, x^2).

    theta1 = mu / sigma^2, theta2 = -1 / (2 sigma^2) with theta2 < 0, and
    psi = -theta1^2/(4 theta2) + (1/2) ln(-pi/theta2).
    """

    def psi(theta):
        t1, t2 = float(theta[0]), float(theta[1])
        return -t1 * t1 / (4.0 * t2) + 0.5 * math.log(-math.pi / t2)

    def cumulants(rows, order):
        # cumulants of (x, x^2) under N(mu, v), indexed by the number of
        # x^2 slots: mean (mu, mu^2 + v), covariance (v, 2 mu v,
        # 2 v^2 + 4 mu^2 v), third (0, 2 v^2, 8 mu v^2, 8 v^3 + 24 mu^2 v^2)
        v = -0.5 / rows[:, 1]
        mu = rows[:, 0] * v
        v2, mu2 = v * v, mu * mu
        k2 = np.stack([v, 2.0 * mu * v, 2.0 * v2 + 4.0 * mu2 * v], axis=-1)
        k3 = np.stack([np.zeros_like(v), 2.0 * v2, 8.0 * mu * v2,
                       8.0 * v2 * v + 24.0 * mu2 * v2], axis=-1)
        slots = np.arange(2)
        return (np.stack([mu, mu2 + v], axis=-1),
                k2[:, slots[:, None] + slots],
                k3[:, slots[:, None, None] + slots[:, None] + slots])[:order]

    def inverse(eta):
        e1, e2 = float(eta[0]), float(eta[1])
        var = e2 - e1 * e1
        if var <= 0.0:
            raise DomainError("normal expectation parameters need E[x^2] > E[x]^2")
        return np.asarray([e1 / var, -1.0 / (2.0 * var)])

    def envelope(theta):
        t1, t2 = float(theta[0]), float(theta[1])
        return -t1 / (2.0 * t2), math.sqrt(-1.0 / (2.0 * t2))

    return ExponentialFamilySpec(
        name="normal",
        space=RealLine(),
        carrier=lambda x: np.zeros_like(x),
        statistics=(lambda x: x, lambda x: x * x),
        log_partition=psi,
        domain=Box((-math.inf, -math.inf), (math.inf, 0.0)),
        mean_inverse=inverse,
        envelope=envelope,
        sample_box=Box((-2.0, -3.0), (2.0, -0.3)),
        cumulants=cumulants,
    )


def normal_fixed_sigma_family():
    """Unit-variance Gaussians N(theta, 1); psi = theta^2/2 + ln sqrt(2 pi)."""

    def psi(theta):
        t = float(theta[0])
        return 0.5 * t * t + 0.5 * math.log(2.0 * math.pi)

    def cumulants(rows, order):
        k = len(rows)
        return (rows.copy(), np.ones((k, 1, 1)), np.zeros((k, 1, 1, 1)))[:order]

    return ExponentialFamilySpec(
        name="normal_fixed_sigma",
        space=RealLine(),
        carrier=lambda x: -0.5 * x * x,
        statistics=(lambda x: x,),
        log_partition=psi,
        domain=Box.unbounded(1),
        mean_inverse=lambda eta: np.asarray([float(np.asarray(eta).reshape(-1)[0])]),
        envelope=lambda theta: (float(theta[0]), 1.0),
        sample_box=Box((-2.0,), (2.0,)),
        cumulants=cumulants,
    )


def family(name):
    """Look up a builtin family by name, e.g. 'categorical:3' or 'normal'."""
    base, _, arg = str(name).partition(":")
    if base in ("categorical", "binomial"):
        try:
            n = int(arg)
        except ValueError as exc:
            raise DomainError(f"malformed family name {name!r}") from exc
        return (categorical_family if base == "categorical" else binomial_family)(n)
    if base == "normal" and not arg:
        return normal_family()
    if base == "normal_fixed_sigma" and not arg:
        return normal_fixed_sigma_family()
    raise DomainError(f"unknown family {name!r}")


BUILTIN_FAMILIES = ("categorical:3", "binomial:3", "normal", "normal_fixed_sigma")
