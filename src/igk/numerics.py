"""Small numerical helpers: Gauss-Hermite nodes, ln k!, the input readers (real or complex
arrays, finite floats), exact binary scaling of rows, and ``Record``, the base class of igk's
immutable records.  Finite differences live in ``igk._oracles``.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _normed_hermite(x, n):
    """The orthonormal Hermite polynomial of degree n at x, by its downward
    three-term recurrence."""
    c0, c1 = 0.0, 1.0 / np.sqrt(np.sqrt(np.pi))
    if n == 0:
        return np.full(x.shape, c1)
    for nd in map(float, range(n, 1, -1)):
        c0, c1 = -c1 * np.sqrt((nd - 1.0) / nd), c0 + c1 * x * np.sqrt(2.0 / nd)
    return c0 + c1 * x * np.sqrt(2)


@lru_cache(maxsize=None)
def gauss_hermite(order):
    """Cached Gauss-Hermite nodes and weights for weight exp(-t^2); read-only.

    numpy's ``hermgauss`` rule, bit for bit: the eigenvalues of the symmetric
    companion matrix, one Newton step, weights 1 / H_(n-1)(t)^2 from the
    orthonormal recurrence scaled to sum to sqrt(pi), then symmetrization.
    """
    n = int(order)
    if n < 1:
        raise ValueError(f"Gauss-Hermite order must be at least 1, got {n}")
    t = np.linalg.eigvalsh(np.diag(np.sqrt(0.5 * np.arange(1, n)), -1))
    t -= _normed_hermite(t, n) / (_normed_hermite(t, n - 1) * np.sqrt(2 * n))
    fm = _normed_hermite(t, n - 1)
    fm /= np.abs(fm).max()
    w = 1 / (fm * fm)
    w = (w + w[::-1]) / 2
    t = (t - t[::-1]) / 2
    w *= np.sqrt(np.pi) / w.sum()
    return _read_only(t, w)


@lru_cache(maxsize=None)
def gauss_hermite_logs(*orders):
    """Cached t, ln w and t^2 of the Gauss-Hermite rules of ``orders`` in a row."""
    t, w = map(np.concatenate, zip(*map(gauss_hermite, orders)))
    return _read_only(t, np.log(w), t * t)


@lru_cache(maxsize=None)
def log_factorials(m):
    """ln k! for k = 0..m, as a running sum of ln 1..ln m; cached, read-only."""
    lf = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, int(m) + 1)))))
    return _read_only(lf)[0]


_FLOAT, _COMPLEX = np.dtype(float), np.dtype(complex)
_FLOAT_OR_INT = (float, int)


def _real_array(values, what, dtype=_FLOAT):
    """``values`` as a float array, or with ``_COMPLEX`` a complex one; anything else (a
    string, a ragged sequence, an object, a complex number read as real) raises
    ``DomainError(what)``, or ``DomainError(what())`` for a text formatted only to refuse."""
    try:
        a = np.asarray(values)
    except (TypeError, ValueError):  # a ragged sequence
        a = np.asarray(None)  # an object: refused below
    if a.dtype.kind in ("biufc" if dtype is _COMPLEX else "biuf"):
        return a if a.dtype is dtype else a.astype(dtype)
    raise DomainError(what() if callable(what) else what)


def _finite_floats(what, *values):
    """The values as floats; a NaN, an infinity, or anything but one real number
    (a string, an array, a complex number) raises ``DomainError``."""
    try:  # a Python float or int, or a numpy float64, is one real number: no numpy call
        floats = tuple([float(v) for v in values if isinstance(v, _FLOAT_OR_INT) or (
            not isinstance(v, (str, bytes)) and np.isrealobj(v) and np.ndim(v) == 0)])
    except (TypeError, ValueError, OverflowError):  # not a number, ragged, a huge int
        floats = ()
    if len(floats) < len(values):
        raise DomainError(f"{what} must be real numbers, got {values}")
    if not all(map(math.isfinite, floats)):
        raise DomainError(f"{what} must be finite, got {floats}")
    return floats


# a sum of m squares at or above this has lost at most m 2^-105 of itself to underflow
_SQUARES_FLOOR = 2.0 ** -970


def _binary_scaled(x):
    """x (..., m), real or complex, divided exactly by 2^e per row, and e (...): each finite
    nonzero row's largest real or imaginary part lands in [0.5, 1), so that its sum of
    squares can neither underflow nor overflow; where x's own does neither, the two sums
    agree to the bit up to the factor 4^e."""
    parts = np.ascontiguousarray(x).view(float)  # a complex row: its (re, im) pairs
    e = np.frexp(np.abs(parts).max(axis=-1))[1]
    return np.ldexp(parts, -e[..., None]).view(x.dtype), e


class Record:
    """Base of igk's immutable records: their fields compare, hash and print
    as a tuple, and assigning one raises ``AttributeError``.

    A subclass names its fields in ``_fields`` (also its ``__slots__``, unless
    a ``cached_property`` needs a ``__dict__``) and defines an ``__init__``
    only to validate or convert its arguments.  ``Record.__init__`` binds the
    values by position or keyword and refuses a missing, repeated or unknown field.
    """

    __slots__ = ()
    _fields = ()

    def __init__(self, *values, **named):
        fields = self._fields
        if named:  # keywords fill the fields after the positional values, in order
            values += tuple(named.pop(name) for name in fields[len(values):] if name in named)
        if named or len(values) != len(fields):
            extra = f" and the keyword(s) {', '.join(named)}" if named else ""
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)} "
                            f"once each, got {len(values)} value(s){extra}")
        setter = object.__setattr__
        for name, value in zip(fields, values):
            setter(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"
