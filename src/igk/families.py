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
on the real line; beside it the builtins' ``dual`` hook gives phi'' = h^-1 and
phi''' = -h^-1 h^-1 h^-1 T of psi's Legendre dual phi(eta) in closed form.  Every
quadrature table holds the order-q and order-2q rules side by side, centred on the
``envelope`` hook or else settled or moved (see ``weighted_support``), and passes an
order-doubling convergence gate; every support table passes a normalization gate (row
sums within ``FINITE_NORM_TOL`` or ``REAL_LINE_NORM_TOL`` of 1), before use.  Without a
hook every row starts from its family's one start table at center 0, scale 1:
its nodes, base log weights, C and F are built on the first call, never per
theta, and read-only; only a moved row evaluates C and F again.  F is a view of
G = [1; F], so the settle test reads a rule's weight sum and first moments from
one product G @ w; Newton returns after one table when every start converged.

A point of the family is its natural parameter theta, a real array.
``weighted_support``, ``moment_tensors``, ``mean_and_variance`` and the
chart functions (``natural_to_expectation``, ``expectation_to_natural``) take
one point, shape (dim,), or a stack of them, shape (k, dim), as one vectorized
table, validated once by ``_check_theta``, which refuses anything but real
numbers (a string, a ragged sequence, an object, a complex array); a finite
space builds the carrier and statistic values of its points once per family.

One rule (``ExponentialFamilySpec._row_error``) names a refused point, here, in
``igk.geometry`` and in ``igk._oracles``: " (row i)" ends the message for a stack
(k, dim), one row too, i the caller's point (a Newton target, a stencil's
center); one point is not named.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, NumericalError
from .numerics import Record, _read_only, _real_array, gauss_hermite_logs, log_factorials

__all__ = [
    "FiniteSpace",
    "RealLine",
    "Box",
    "ExponentialFamilySpec",
    "family",
    "categorical_family",
    "binomial_family",
    "normal_family",
    "normal_fixed_sigma_family",
    "BUILTIN_FAMILIES",
    "MAX_FAMILY_N",
    "MAX_QUAD_ORDER",
    "FINITE_NORM_TOL",
    "REAL_LINE_NORM_TOL",
]

MAX_FAMILY_N = 1024  # largest n of the builtin categorical:n and binomial:n
MAX_QUAD_ORDER = 185  # the fused table's order-2q rule has finite, positive weights to 2q = 370
FINITE_NORM_TOL = 1e-9  # |sum p - 1| of a probability table
REAL_LINE_NORM_TOL = 1e-7  # |sum w - 1| of density-absorbed quadrature weights

_QUAD_GATE = 1e-9
_SETTLED = 1e-13  # a normalized row whose order-doubling change is at most this is final
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 100


def _all(mask):
    """``mask.all()``, at a third of its dispatch cost on the small tables here."""
    return np.count_nonzero(mask) == mask.size


class FiniteSpace(Record):
    """A finite measured space: distinct real points with counting measure, and their
    labels (strings; x1, x2, ... if none are given)."""

    __slots__ = _fields = ("points", "labels")

    def __init__(self, points, labels=()):
        pts = _real_array(points, what := "points of a finite measured space must be real numbers")
        if pts.ndim != 1:
            raise DomainError(what)
        if not np.isfinite(pts).all():
            raise DomainError("points of a finite measured space must be finite")
        pts = tuple(map(float, pts))
        if len(pts) < 2:
            raise DomainError("a finite measured space needs at least two points")
        if len(set(pts)) != len(pts):
            raise DomainError("points of a finite measured space must be distinct")
        if not isinstance(labels, (list, tuple)) or not all(isinstance(s, str) for s in labels):
            raise DomainError("labels must be a list or tuple of strings")
        labels = tuple(labels) or tuple(f"x{i + 1}" for i in range(len(pts)))
        if len(labels) != len(pts):
            raise DomainError("labels must match points one to one")
        super().__init__(pts, labels)

    @property
    def size(self):
        return len(self.points)

    def values(self):
        return np.asarray(self.points, dtype=float)


class RealLine(Record):
    """The real line with Lebesgue measure and a Gauss-Hermite order, 1..MAX_QUAD_ORDER."""

    __slots__ = _fields = ("quad_order",)

    def __init__(self, quad_order=64):
        if not 1 <= (q := int(quad_order)) <= MAX_QUAD_ORDER:
            raise DomainError(f"quadrature order must be at least 1 and at most {MAX_QUAD_ORDER}, "
                              f"got {q}")
        super().__init__(q)


MeasuredSpace = Union[FiniteSpace, RealLine]


class Box(Record):
    """An open coordinate box, bounds possibly infinite."""

    _fields = ("lo", "hi")

    def __init__(self, lo, hi):
        what = "box bounds must be sequences of real numbers"
        lo, hi = _real_array(lo, what), _real_array(hi, what)
        if lo.ndim != 1 or hi.ndim != 1:
            raise DomainError(what)
        lo, hi = tuple(map(float, lo)), tuple(map(float, hi))
        if len(lo) != len(hi):
            raise DomainError("box bounds must have equal length")
        if not all(a < b for a, b in zip(lo, hi)):  # a NaN bound too: it bounds no point
            raise DomainError("box must have nonempty interior")
        super().__init__(lo, hi)

    @staticmethod
    def unbounded(n):
        return Box((-math.inf,) * n, (math.inf,) * n)

    @property
    def dim(self):
        return len(self.lo)

    @cached_property
    def _inside(self):
        """Entrywise test that x lies between the bounds (NaN never does), built once;
        in the whole space, that x is finite."""
        if all(map(math.isinf, self.lo + self.hi)):
            return np.isfinite
        lo, hi = np.array(self.lo), np.array(self.hi)
        return lambda x: (x > lo) & (x < hi)

    def contains(self, x):
        """Whether x lies inside; row by row for a stack of points (k, dim)."""
        inside = self._inside(_real_array(x, "points of a box must be real numbers")).all(axis=-1)
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


class ExponentialFamilySpec(Record):
    """An exponential family: carrier, statistics, log-partition, domain.

    ``carrier`` and the entries of ``statistics`` are vectorized callables of
    the sample point.  The callables of theta take a stack (k, dim) and give
    k results: ``log_partition`` psi (k,); ``cumulants(rows, order)`` the
    first ``order`` of the derivative tensors (eta, h, T) of psi with a
    leading k axis, for the mean map, the Hessian and ``moment_tensors`` in
    place of the gated support table; ``dual(rows, order)`` phi'' or phi''' (order 2, 3)
    of psi's Legendre dual, for the expectation chart; optional ``mean_inverse(eta_rows)``
    Newton starts (k, dim), raising ``DomainError`` off the image, and
    ``envelope`` the real-line (center, scale), each (k,), of the one
    quadrature table, in place of settling or moving it (``weighted_support``).
    ``sample_box`` is a bounded region of natural parameters used by tests
    and verification sweeps; by default the domain's window of radius 2
    (see ``_window``) shrunk by 5% of its width on each side.
    """

    _fields = ("name", "space", "carrier", "statistics", "log_partition", "domain",
               "mean_inverse", "envelope", "sample_box", "cumulants", "dual")

    def __init__(self, name: str, space: MeasuredSpace, carrier: Callable,
                 statistics: tuple, log_partition: Callable, domain: Box,
                 mean_inverse: Optional[Callable] = None,
                 envelope: Optional[Callable] = None, sample_box: Optional[Box] = None,
                 cumulants: Optional[Callable] = None, dual: Optional[Callable] = None):
        if len(statistics) < 1:
            raise DomainError("an exponential family needs at least one statistic")
        if domain.dim != len(statistics):
            raise DomainError("domain dimension must match the number of statistics")
        if sample_box is None:
            lo, hi = _window(domain, 2.0)
            margin = [0.05 * (b - a) for a, b in zip(lo, hi)]
            sample_box = Box(tuple(a + m for a, m in zip(lo, margin)),
                             tuple(b - m for b, m in zip(hi, margin)))
        super().__init__(name, space, carrier, statistics, log_partition, domain,
                         mean_inverse, envelope, sample_box, cumulants, dual)

    # ----- basic structure -------------------------------------------------

    @cached_property
    def dim(self):
        return len(self.statistics)

    @property
    def is_finite(self):
        return isinstance(self.space, FiniteSpace)

    def _check_theta(self, theta):
        """One validated theta (dim,), or a stack of them (k, dim), as it came; anything
        but real numbers in the domain raises ``DomainError``."""
        th = _real_array(theta, f"{self.name}: natural parameters must be real numbers")
        rows = th.reshape(1, -1) if th.ndim < 2 else th
        if rows.ndim != 2 or rows.shape[1] != self.dim or not len(rows):
            raise DomainError(
                f"{self.name}: expected {self.dim} natural parameters, got shape {th.shape}"
            )
        inside = self.domain._inside(rows)  # NaN and +-inf lie outside an open box
        if not _all(inside):
            i = int(np.argmin(inside.all(axis=1)))
            what = (f"{rows[i].tolist()} outside the natural domain"
                    if np.isfinite(rows[i]).all() else "natural parameters must be finite")
            raise self._row_error(th, i, what, DomainError)
        return rows if th.ndim == 2 else rows[0]

    def _row_error(self, theta, j, what, error=NumericalError, residual=None):
        """``error`` "<family>: <what>", ended for a stack theta (k, dim) by " (row i)",
        i = j % k the point that table row j belongs to (row j of point i at j k + i,
        as in ``_oracles.stencil``); ``row``, ``what`` and ``residual`` keep j, what
        and residual for ``_naming``."""
        note = f" (row {j % len(theta)})" if theta.ndim == 2 else ""
        err = error(f"{self.name}: {what}{note}")
        err.row, err.what, err.residual = j, what, residual
        return err

    @contextmanager
    def _naming(self, theta, points=None):
        """A refusal of a table inside (a ``_row_error``, of its type) names the point
        of theta that its row j belongs to: points[j] if given, else j % k."""
        try:
            yield
        except (NumericalError, DomainError) as err:
            if not hasattr(err, "what"):  # not a table's refusal
                raise
            j = err.row if points is None else points[err.row]
            raise self._row_error(theta, j, err.what, type(err), err.residual) from None

    def _finite(self, theta, table, what, error=NumericalError):
        """``table`` if it is finite, else the ``_row_error`` (an ``error``) of its first
        row that is not; a stack's table has its rows on the leading axis."""
        if not _all(finite := np.isfinite(table)):
            ok = finite.reshape(len(table), -1).all(1)
            raise self._row_error(theta, int(np.argmin(ok)), f"{what} is not finite", error)
        return table

    def _interior_point(self):
        """The origin, or else the midpoint of the domain's window of radius 1
        (see ``_window``); inside the domain either way."""
        th = np.zeros(self.dim)
        if self.domain.contains(th):
            return th
        return np.asarray([(a + b) / 2.0 for a, b in zip(*_window(self.domain, 1.0))])

    def statistic_matrix(self, x):
        """Stack of statistic values, shape (dim, len(x)); for points x of shape (k, q),
        (k, dim, q): the view F = G[..., 1:, :] of G = [1; F], its ``base``."""
        x = np.atleast_1d(_real_array(x, f"{self.name}: sample points must be real numbers"))
        G = np.ones(x.shape[:-1] + (self.dim + 1,) + x.shape[-1:])
        for i, f in enumerate(self.statistics, 1):
            G[..., i, :] = f(x)
        return G[..., 1:, :]

    def _tables(self, x):
        """Carrier values C(x) and statistic values F(x) at the points x."""
        return np.asarray(self.carrier(x), dtype=float), self.statistic_matrix(x)

    @cached_property
    def _support_tables(self):
        """(x, C(x), F(x), base log weights) of the family's start table, built once,
        read-only: a finite space's points (base 0), or on a real line without an
        ``envelope`` hook the fused (q, 2q) rule of ``_gh_rule`` at center 0, scale 1."""
        if self.is_finite:
            x, base = self.space.values(), np.zeros(())
        else:
            q = self.space.quad_order
            x, base = self._gh_nodes(np.zeros(1), np.ones(1), q, 2 * q)
        C, F = self._tables(x)
        return _read_only(x, C, F, base, F.base)[:4]  # G = F.base = [1; F] too

    @cached_property
    def _interior_table(self):
        """(theta, w, F, eta, h) of ``_support`` at the interior point, built once, read-only:
        Newton's start without ``mean_inverse`` and ``statistic_independence_margin`` read it."""
        _, w, F = self._support(th := self._interior_point())  # inside the domain
        return _read_only(th, w, F, *self._moments(F, w, 2))

    @staticmethod
    def _log_p(rows, psi, C, F):
        """ln p = C + <theta, F> - psi(theta) for each row of a theta stack."""
        return C + (rows[:, None, :] @ F)[:, 0] - psi[:, None]

    # ----- densities -------------------------------------------------------

    def log_density(self, theta, x):
        """ln p(x; theta) at points x, -inf where the density is 0; a theta stack (k, dim)
        gives (k, len(x)).  A non-finite psi or a NaN entry raises ``NumericalError``."""
        th = self._check_theta(theta)
        xs = _real_array(x, f"{self.name}: sample points must be real numbers")
        rows, xs = np.atleast_2d(th), np.atleast_1d(xs)
        with np.errstate(all="ignore"):  # a non-finite psi and a NaN entry are refused
            psi = self._finite(th, self.log_partition(rows), "log_partition")
            out = self._log_p(rows, psi, *self._tables(xs))
        if np.isnan(out).any():
            i, j = np.argwhere(np.isnan(out))[0]
            raise self._row_error(th, int(i), f"log-density is NaN at x = {float(xs[j])!r}")
        out = out.reshape(np.shape(theta)[:-1] + np.shape(x))
        return float(out) if out.ndim == 0 else out

    def density(self, theta, x):
        return np.exp(self.log_density(theta, x))

    def probabilities(self, theta):
        """Density table over the support of a finite space, gated like
        ``weighted_support`` (a stack of theta gives one row per theta)."""
        if not self.is_finite:
            raise DomainError(f"{self.name}: probabilities need a finite space")
        return self.weighted_support(theta)[1]

    # ----- quadrature / expectation machinery ------------------------------

    @staticmethod
    def _gh_nodes(center, scale, *orders):
        """Points (k, q) and log weights ln s + ln w + t^2 of the rules of ``orders``
        side by side, s = sqrt(2) scale, in x = center + s t."""
        t, log_w, t2 = gauss_hermite_logs(*orders)
        s = math.sqrt(2.0) * scale
        return center[:, None] + s[:, None] * t, np.log(s)[:, None] + log_w + t2

    def _gh_rule(self, rows, psi, center, scale, *orders):
        """Points (k, q), log weights with the density folded in, and F there,
        for the rules of ``orders`` side by side."""
        x, base = self._gh_nodes(center, scale, *orders)
        C, F = self._tables(x)
        return x, base + self._log_p(rows, psi, C, F), F

    def _normalized(self, theta, residual):
        """The normalization gate: each row of a weight table (k, q), whose |sum - 1|
        is ``residual`` (k,), sums to 1 within the space's tolerance, else the worst
        row (NaN fails) is refused.  A ``psi`` that contradicts ``C`` and ``F`` scales
        the table by exp(psi_true - psi); a rule that misses the density sums to ~0."""
        tol = FINITE_NORM_TOL if self.is_finite else REAL_LINE_NORM_TOL
        i = int(residual.argmax())  # the first NaN, if any
        if not residual[i] <= tol:
            raise self._row_error(theta, i, f"density not normalized, |sum - 1| > {tol:g}",
                                  residual=float(residual[i]))

    def _support(self, theta, psi=None):
        """``weighted_support`` of a validated theta (dim,) or stack (k, dim), plus the
        statistics: weights (k, q), points (k, q) and F (k, dim, q) on the real line, or
        one row of each, (1, q) and (1, dim, q), that every row shares if none moved;
        points (q,) and F (dim, q) shared by every row on a finite space.  ``psi``
        is the log-partition at the rows if the caller has it already."""
        rows = theta.reshape(-1, self.dim)
        with np.errstate(all="ignore"):  # the gates refuse a non-finite psi or table
            psi = self._finite(theta, self.log_partition(rows) if psi is None else psi,
                               "log_partition")
            if self.is_finite:
                x, C, F, _ = self._support_tables
                w = np.exp(self._log_p(rows, psi, C, F))  # ln p = -inf is p = 0
                self._normalized(theta, np.abs(w.sum(axis=1) - 1.0))
                return x, w, F
            k, q = len(rows), self.space.quad_order
            if self.envelope is None:  # every row starts from the family's one-row table
                x, C, F, base = self._support_tables
                logw = base + self._log_p(rows, psi, C, F)
            else:
                center, scale = self.envelope(rows)
                x, logw, F = self._gh_rule(rows, psi, center, scale, q, 2 * q)
            G, moving = F.base, True  # [1; F]: a rule's weight sum and moments in one product
            for move in range(4):  # the gate's order-q and order-2q rules, <= 3 moves
                w = np.exp(logw)
                M1 = np.vecdot(G[..., :q], w[:, None, :q])  # (z, eta) of the order-q rule
                M2 = np.vecdot(G[..., q:], w[:, None, q:])  # and of the order-2q rule
                change = (np.maximum.reduce(np.abs(M1 - M2), axis=1)  # NaN/inf: w not finite
                          / np.maximum.reduce(np.abs(M2), axis=1, initial=1.0))
                off = np.abs(M2[:, 0] - 1.0)  # the order-2q rule's normalization residual
                moving = moving & ~((change <= _SETTLED) & (off <= REAL_LINE_NORM_TOL))
                # an envelope hook's table is final
                if self.envelope is not None or move == 3 or not np.count_nonzero(moving):
                    break
                if not move:  # each row its own copy of the shared one-row start table
                    x, G = x.repeat(k, 0), G.repeat(k, 0)
                    F, center, scale = G[:, 1:], np.zeros(k), np.ones(k)
                # to the order-2q mean and std of x (log-space shift); NaN/inf m or v: stay
                xm, lw = x[moving, q:], logw[moving, q:]
                u = np.exp(lw - lw.max(axis=1)[:, None])
                m = np.vecdot(u, xm) / (z := u.sum(axis=1))
                v = np.vecdot(u, (xm - m[:, None]) ** 2) / z
                moving[moving] = ok = (v > 0.0) & (v < np.inf)  # a bad m makes v bad
                if not ok.any():
                    break
                center[moving], scale[moving] = m[ok], np.sqrt(v[ok])
                x[moving], logw[moving], F[moving] = self._gh_rule(
                    rows[moving], psi[moving], center[moving], scale[moving], q, 2 * q)
            if not _all(finite := np.isfinite(w)):
                raise self._row_error(theta, int(np.argmin(finite.all(axis=1))),
                                      "quadrature weights not finite")
            i = int(change.argmax())  # the first NaN, if any
            if not change[i] <= _QUAD_GATE:
                raise self._row_error(theta, i, "quadrature did not converge under order "
                                      "doubling", residual=float(change[i]))
            self._normalized(theta, off)
        return x[:, q:], w[:, q:], F[..., q:]

    def weighted_support(self, theta):
        """Support points and density-absorbed expectation weights.

        For finite spaces this is (points, probabilities).  On the real line
        the weights fold the density into the Gauss-Hermite rule so that
        ``E[g] = weights @ g(points)``.  Without an ``envelope`` hook a row starts at
        center 0, scale 1; it is final once its weights sum to 1 (within the norm gate's
        tolerance: a table that misses the density has change ~0) and their order-
        doubling change is at most ``_SETTLED`` = 1e-13, else it moves to its order-2q
        mean and std of x, at most three times (four tables); its change is max |M1 - M2| /
        max(1, max |M2|), M = G @ w = (sum w, F @ w) of each rule, G = [1; F].  The rule must
        then pass the order-doubling gate (change below 1e-9), else ``NumericalError`` is
        raised with the worst residual; either table must also pass the normalization gate.
        A stack of theta (k, dim) gives points and weights (k, q), row i its own call.
        """
        th = self._check_theta(theta)
        x, w, _ = self._support(th)
        x = np.broadcast_to(x, w.shape)
        return (x[0], w[0]) if th.ndim < 2 else (x, w)

    def _cumulants(self, theta, order, psi=None):
        """The first ``order`` of (eta, h, T) at a validated theta (dim,) or stack
        (k, dim): from the family's closed-form ``cumulants`` hook, else the
        gated support table (``psi`` as in ``_support``).  A closed-form table
        that is not finite (past the float range) is refused."""
        if self.cumulants is None:
            _, w, F = self._support(theta, psi)
            moments = self._moments(F, w, order)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                moments = self.cumulants(theta.reshape(-1, self.dim), order)
            for m in moments:
                self._finite(theta, m, "moment table")
        return moments if theta.ndim == 2 else tuple([m[0] for m in moments])

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
        return self._cumulants(self._check_theta(theta), 3)

    # ----- charts ----------------------------------------------------------

    def natural_to_expectation(self, theta):
        """Mean map eta(theta), the mean of the statistics (one row per theta)."""
        return self._cumulants(self._check_theta(theta), 1)[0]

    def expectation_to_natural(self, eta):
        """Invert the mean map by damped Newton iteration, row by row.

        ``eta`` is one target (dim,) or a stack (k, dim).  Each pass reads (eta, h) at
        the start or candidate of every unconverged row from one ``_cumulants`` table,
        but the first reads no h at a ``mean_inverse`` start, and without that hook the
        family's one interior table (``_interior_table``); if every start converged
        the first pass is the only one (no step state is built).  A pass reads whole
        arrays, or a mask of them if it skips a row.  A row converges within
        ``_NEWTON_TOL``, or four ulps of a large target.  A candidate must lie in the
        domain with a finite psi and lower max |eta(theta) - target|, else its row's
        step halves; a row whose step falls below 1e-12 (a target off the image of the
        mean map) or that misses ``_NEWTON_MAX_ITER`` steps raises ``NumericalError``
        naming the row, with its residual.  Anything but real numbers, or a shape other
        than (dim,) or (k, dim), raises ``DomainError``.
        """
        given = np.atleast_1d(
            _real_array(eta, f"{self.name}: expectation parameters must be real numbers"))
        if (given.ndim > 2 or given.shape[-1] != self.dim or not given.size
                or not _all(np.isfinite(given))):
            raise DomainError(
                f"{self.name}: expected {self.dim} finite expectation parameters")
        target = given.reshape(-1, self.dim)
        if self.mean_inverse is not None:  # a closed-form start needs no h
            th, order, first = np.array(self.mean_inverse(target), dtype=float), 1, None
        else:  # the interior table's (eta, h) are the first pass's, for every row
            with self._naming(given):
                th0, _, _, eta0, h0 = self._interior_table
            th, order = np.tile(th0, (len(target), 1)), 2
            first = eta0, np.broadcast_to(h0, (len(target),) + h0.shape[1:])
        tol = np.maximum(_NEWTON_TOL, 4.0 * np.spacing(np.abs(target).max(axis=1)))
        # per row: best residual, step scale, accepted steps (scalars on the first pass)
        cand, rnorm, lam, steps, step, active = th, np.inf, 1.0, 0, None, np.True_
        while True:
            if first is not None:
                ok, moments, first = slice(None), first, None
            else:
                inside = self.domain._inside(cand)  # every candidate, or a mask of them
                ok = slice(None) if _all(inside) and _all(active) else inside.all(axis=1) & active
                read = cand[ok]  # a pass that reads no row evaluates no psi
                with np.errstate(all="ignore"):  # an overflowing psi is refused here
                    psi = self.log_partition(read) if len(read) else read[:, 0]
                if not _all(finite := np.isfinite(psi)):
                    ok = inside.all(axis=1) & active
                    ok[ok], psi = finite, psi[finite]
                if isinstance(ok, slice):  # table row j is target row j
                    with self._naming(given):
                        moments = self._cumulants(cand, order, psi)
            if isinstance(ok, slice):
                rnorm_c = np.maximum.reduce(np.abs(r_c := moments[0] - target), axis=1)
            else:
                rnorm_c = np.full(len(th), np.inf)  # a candidate not read never wins
                if len(psi):
                    with self._naming(given, np.flatnonzero(ok)):  # the target's row
                        moments = self._cumulants(cand[ok], order, psi)
                    rnorm_c[ok] = np.abs(r_c := moments[0] - target[ok]).max(axis=1)
            # a start off the tolerance is not kept: it is read again, with its h
            better = rnorm_c < (tol if order == 1 else rnorm)
            np.copyto(th, cand, where=better[:, None])
            rnorm = np.where(better, rnorm_c, rnorm)
            if _all(done := rnorm < tol):
                return th.reshape(given.shape)
            active = ~done
            lam, steps = np.where(better, 1.0, 0.5 * lam), steps + better
            step = np.zeros_like(th) if step is None else step
            if (go := better & (rnorm_c >= tol)).any():  # converged rows take no next step
                h_go, r_go = moments[1][go[ok]], r_c[go[ok], :, None]
                try:
                    step[go] = np.linalg.solve(h_go, r_go)[:, :, 0]
                except np.linalg.LinAlgError:  # a singular h gets a zero step, stalls
                    step[go] = (np.linalg.pinv(h_go) @ r_go)[:, :, 0]
            failed = active & ((lam < 1e-12) | (steps > _NEWTON_MAX_ITER))
            if failed.any():
                i = int(np.argmax(failed))
                what = ("damped Newton stalled; the target may lie outside the image "
                        "of the mean map" if lam[i] < 1e-12 else
                        f"Newton did not converge in {_NEWTON_MAX_ITER} iterations")
                raise self._row_error(given, i, what, residual=float(rnorm[i]))
            cand, order = th - lam[:, None] * step, 2

    # ----- summary statistics ----------------------------------------------

    def mean_and_variance(self, theta, observable):
        """Mean and variance of an observable under p(.; theta).

        ``observable`` is a vectorized callable, or a value table over the
        points of a finite space, refused before any table is built.  A stack
        of theta (k, dim) gives k means and k variances.
        """
        values = self._observable(observable)
        th = self._check_theta(theta)
        m, v = self._mean_and_variance(th, values)
        return (float(m[0]), float(v[0])) if th.ndim < 2 else (m, v)

    def _mean_and_variance(self, theta, values):
        """``mean_and_variance`` of a validated theta (dim,) or stack (k, dim), as k
        rows, for an observable given as a function ``values`` of support points."""
        x, w, _ = self._support(theta)
        vals = values(np.broadcast_to(x, w.shape))
        m = np.vecdot(w, vals)
        return m, np.vecdot(w, (vals - m[..., None]) ** 2)

    def _observable(self, observable):
        """An observable as a function of support points x (q,) or (k, q): a
        vectorized callable, or a value table (q,) over a finite space.  Values that
        are not real numbers, or not finite, raise ``DomainError``."""
        def read(vals, what="observable values"):
            vals = _real_array(vals, f"{self.name}: {what} must be real numbers")
            if not _all(np.isfinite(vals)):
                raise DomainError(f"{self.name}: observable values must be finite")
            return vals
        if callable(observable):
            def values(x):
                with np.errstate(all="ignore"):  # a non-finite value is refused
                    return np.broadcast_to(read(observable(x)), x.shape)
            return values
        vals = read(observable, "a value table")
        if not self.is_finite or vals.shape != (self.space.size,):
            raise DomainError(f"{self.name}: a value table needs a finite space of matching size")
        return lambda x: vals

    def statistic_independence_margin(self):
        """Smallest eigenvalue of the Gram matrix of {1, F_1..F_n} at the
        interior point (see ``_interior_point``).

        A positive margin certifies affine independence of the statistics
        (no degenerate directions in the natural parameter).
        """
        _, w, F, _, _ = self._interior_table
        rows = np.vstack([np.ones(w.shape[-1]), F.reshape(-1, w.shape[-1])])
        gram = (rows * w[0]) @ rows.T
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

    def softmax(rows):
        # (m, e^(theta - m), e^-m, z) with m = max(0, theta): psi = m + ln z,
        # eta = e / z; a spread past the float range gives theta - m = -inf, an exact e = 0
        m = rows.max(axis=1, initial=0.0)
        with np.errstate(over="ignore"):
            e = np.exp(rows - m[:, None])
        return m, e, (ref := np.exp(-m)), ref + e.sum(axis=1)

    def psi(rows):
        m, _, _, z = softmax(rows)
        return m + np.log(z)

    def cumulants(rows, order):
        # eta = softmax over (theta, 0); h = diag(eta) - eta eta^T; T is the
        # theta_l derivative of h: delta_ij h_il - h_il eta_j - eta_i h_jl
        _, e, ref, z = softmax(rows)
        eta = e / z[:, None]
        if order < 2:
            return (eta,)
        h = -eta[:, :, None] * eta[:, None, :]
        h.reshape(len(e), -1)[:, ::n] += eta  # the diagonal, (i, i) at flat i n
        # eta_i - eta_i^2 cancels only for a term above z / 2, the largest: its
        # 1 - eta_i is the sum of the other terms, the reference e^-m among them, over z
        k, top = np.arange(len(e)), e.argmax(axis=1)
        others = e.copy()
        others[k, top] = ref
        h[k, top, top] = eta[k, top] * others.sum(axis=1) / z
        if order < 3:
            return eta, h
        T = -h[:, :, None, :] * eta[:, None, :, None] - eta[:, :, None, None] * h[:, None]
        T.reshape(len(e), -1, n - 1)[:, ::n] += h  # T[:, i, i] += h[:, i]
        return eta, h, T

    def dual(rows, order):
        # phi'' = diag(1/eta) + 1/eta_0, phi''' = -delta_ijk / eta_i^2 + 1/eta_0^2, with the
        # reference point's eta_0 = e^-m / z: no 1 - sum eta cancels
        _, e, ref, z = softmax(rows)
        d, d0 = z[:, None] / e, z / ref  # 1/eta and 1/eta_0
        if order == 3:
            d, d0 = -d * d, d0 * d0
        out = np.repeat(d0, (n - 1) ** order).reshape((len(e),) + (n - 1,) * order)
        out.reshape(len(e), -1)[:, ::sum((n - 1) ** j for j in range(order))] += d  # diagonal
        return out

    def inverse(eta):
        # eta < 1 first: then no sum of at most 1023 terms overflows
        if not ((eta > 0.0).all() and (eta < 1.0).all()
                and ((rest := 1.0 - eta.sum(axis=1)) > 0.0).all()):
            raise DomainError(
                "categorical expectation parameters must be positive with sum < 1"
            )
        return np.log(eta) - np.log(rest)[:, None]

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
        dual=dual,
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

    def psi(rows):
        return n * np.logaddexp(0.0, rows[:, 0])

    def cumulants(rows, order):
        # derivatives of n ln(1 + e^t): n s, n s (1 - s), n s (1 - s)(1 - 2 s)
        # with s the logistic function; with e = e^-|t| no term overflows or
        # cancels: s (1 - s) = e / (1 + e)^2 and 1 - 2 s = -+(1 - e) / (1 + e)
        t = rows[:, :1]
        e = np.exp(-np.abs(t))
        s = np.where(t >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        h = (n * e / (1.0 + e) ** 2)[:, :, None]
        if order < 3:
            return (n * s, h)[:order]
        one_minus_e = -np.expm1(-np.abs(t))
        skew = np.where(t > 0.0, -one_minus_e, one_minus_e) / (1.0 + e)
        return n * s, h, h[..., None] * skew[:, :, None, None]

    def dual(rows, order):
        # phi'' = 1 / (n s q), phi''' = (1/q^2 - 1/s^2) / n^2: of s and q = 1 - s the larger
        # is 1 / (1 + e), the smaller e / (1 + e), neither cancelling; s is larger at t > 0
        t = rows[:, :1]
        e = np.exp(-np.abs(t))
        big, small = 1.0 / (1.0 + e), e / (1.0 + e)
        if order == 2:
            return (1.0 / (n * big * small))[:, :, None]
        return (np.sign(t) * (1.0 / small**2 - 1.0 / big**2) / (n * n))[:, :, None, None]

    def inverse(eta):
        if not np.all((0.0 < eta) & (eta < n)):
            raise DomainError("binomial expectation parameter must lie in (0, n)")
        return np.log(eta) - np.log(n - eta)

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
        dual=dual,
    )


def normal_family():
    """Gaussians on the real line with statistics (x, x^2).

    theta1 = mu / sigma^2, theta2 = -1 / (2 sigma^2) with theta2 < 0, and
    psi = -theta1^2/(4 theta2) + (1/2) ln(-pi/theta2).
    """
    slots2 = np.add.outer(np.arange(2), np.arange(2))  # slot of h[i, j]: i + j x^2 factors
    slots3 = np.add.outer(slots2, np.arange(2))  # and of T[i, j, l]

    def psi(rows):
        t1, t2 = rows.T
        return -t1 * t1 / (4.0 * t2) + 0.5 * np.log(-math.pi / t2)

    def cumulants(rows, order):
        # cumulants of (x, x^2) under N(mu, v), indexed by the number of
        # x^2 slots: mean (mu, mu^2 + v), covariance (v, 2 mu v,
        # 2 v^2 + 4 mu^2 v), third (0, 2 v^2, 8 mu v^2, 8 v^3 + 24 mu^2 v^2)
        # (no term of an order above ``order`` is built, so none can overflow)
        v = -0.5 / rows[:, 1]
        mu = rows[:, 0] * v
        eta = np.array([mu, (mu2 := mu * mu) + v]).T.copy()  # (k, 2) in C order
        if order < 2:
            return (eta,)
        v2 = v * v  # (slot, k) tables, gathered to C order: a stack's rows sum as one theta
        k2 = np.array([v, 2.0 * mu * v, 2.0 * v2 + 4.0 * mu2 * v])
        h = k2.T.take(slots2, axis=1)
        if order < 3:
            return eta, h
        k3 = np.array([np.zeros_like(v), 2.0 * v2, 8.0 * mu * v2,
                       8.0 * v2 * v + 24.0 * mu2 * v2])
        return eta, h, k3.T.take(slots3, axis=1)

    def dual(rows, order):
        # by eta_2 slots in mu and a = 1/v: phi'' (a + 2 mu^2 a^2, -mu a^2, a^2/2), phi'''
        # (6 mu a^2 + 8 mu^3 a^3, -a^2 - 4 mu^2 a^3, 2 mu a^3, -a^3)
        a = -2.0 * rows[:, 1]
        mu = rows[:, 0] / a
        d = ([a + 2.0 * (mu * a) ** 2, -mu * a * a, 0.5 * a * a] if order == 2 else
             [(6.0 + 8.0 * mu * mu * a) * mu * a * a, -(1.0 + 4.0 * mu * mu * a) * a * a,
              2.0 * mu * a ** 3, -a ** 3])
        return np.array(d).T.take(slots2 if order == 2 else slots3, axis=1)

    def inverse(eta):
        e1, e2 = eta.T
        with np.errstate(over="ignore"):  # an overflowing E[x]^2 is refused below
            var = e2 - e1 * e1
        if np.any(var <= 0.0):
            raise DomainError("normal expectation parameters need E[x^2] > E[x]^2")
        return np.stack([e1 / var, -1.0 / (2.0 * var)], axis=-1)

    def envelope(rows):
        t1, t2 = rows.T
        return -t1 / (2.0 * t2), np.sqrt(-1.0 / (2.0 * t2))

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
        dual=dual,
    )


def normal_fixed_sigma_family():
    """Unit-variance Gaussians N(theta, 1); psi = theta^2/2 + ln sqrt(2 pi)."""

    def psi(rows):
        t = rows[:, 0]
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
        mean_inverse=lambda eta: eta,
        envelope=lambda rows: (rows[:, 0], np.ones(len(rows))),
        sample_box=Box((-2.0,), (2.0,)),
        cumulants=cumulants,
        dual=lambda rows, order: np.full((len(rows),) + (1,) * order, 3.0 - order),  # 1, 0
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
