"""Small numerical helpers: central differences, Gauss-Hermite nodes, ln k!.

Every finite-difference oracle of the package builds its stencil with
``stencil``, evaluates its function once on the stacked rows, and turns the
values into derivatives with ``central_difference``; steps that follow the
size of a coordinate come from ``relative_steps``.
"""

from functools import lru_cache

import numpy as np


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def gauss_hermite(order):
    """Cached Gauss-Hermite nodes and weights for weight exp(-t^2); read-only."""
    return _read_only(*np.polynomial.hermite.hermgauss(int(order)))


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


def relative_steps(x, scale):
    """Difference steps scale * max(1, |x_j|), one per coordinate of x."""
    return scale * np.maximum(1.0, np.abs(np.asarray(x, dtype=float)))


def stencil(x, steps, richardson=False):
    """The stacked points [x + E; x - E] around x, with E = diag(steps).

    With ``richardson`` the half steps [x + E/2; x - E/2] follow, for the
    extrapolation in ``central_difference``.  A stack of k points (k, n)
    with steps (k, n) gives each stencil row for every point in turn.
    """
    E = np.eye(np.shape(steps)[-1])[:, None] * steps
    rows = x + np.concatenate([E, -E, 0.5 * E, -0.5 * E] if richardson else [E, -E])
    return rows.reshape(-1, E.shape[-1])


def central_difference(values, steps, richardson=False):
    """D[j] = d f / d x_j from the values f on the rows of ``stencil``.

    ``values`` has one leading entry per stencil row; the rest of its shape
    is the shape of f.  Steps (k, n) of a stack give D[j, p] for point p.
    With ``richardson`` the result is the extrapolation (4 D(steps / 2) -
    D(steps)) / 3, whose truncation error is O(step^4).
    """
    s = np.asarray(steps, dtype=float).T
    values = np.asarray(values)
    values = values.reshape((-1,) + s.shape[1:] + values.shape[1:])
    n = len(s)
    s = s.reshape(s.shape + (1,) * (values.ndim - s.ndim))
    d = (values[:n] - values[n:2 * n]) / (2.0 * s)
    if not richardson:
        return d
    half = (values[2 * n:3 * n] - values[3 * n:]) / (2.0 * (0.5 * s))
    return (4.0 * half - d) / 3.0

