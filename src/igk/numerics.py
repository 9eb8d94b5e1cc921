"""Small numerical helpers: central differences, Gauss-Hermite nodes, ln k!.

Every finite-difference oracle of the package builds its stencil with
``stencil``, evaluates its function once on the stacked rows, and turns the
values into derivatives with ``central_difference``; steps that follow the
size of a coordinate come from ``relative_steps``.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def gauss_hermite(order):
    """Cached Gauss-Hermite nodes and weights for weight exp(-t^2)."""
    t, w = np.polynomial.hermite.hermgauss(int(order))
    return t, w


@lru_cache(maxsize=None)
def log_factorials(m):
    """ln k! for k = 0..m, as a running sum of ln 1..ln m; cached, read-only."""
    lf = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, int(m) + 1)))))
    lf.setflags(write=False)
    return lf


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


def fd_hessian(fun, x, scale=1e-4):
    """Second-difference Hessian of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    h = relative_steps(x, scale)
    n = x.size
    H = np.empty((n, n))
    f0 = fun(x)
    for i in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        H[i, i] = (fun(xp) + fun(xm) - 2.0 * f0) / h[i] ** 2
    for i in range(n):
        for j in range(i + 1, n):
            xpp = x.copy()
            xpm = x.copy()
            xmp = x.copy()
            xmm = x.copy()
            xpp[[i, j]] += [h[i], h[j]]
            xpm[i] += h[i]
            xpm[j] -= h[j]
            xmp[i] -= h[i]
            xmp[j] += h[j]
            xmm[[i, j]] -= [h[i], h[j]]
            H[i, j] = H[j, i] = (fun(xpp) - fun(xpm) - fun(xmp) + fun(xmm)) \
                / (4.0 * h[i] * h[j])
    return H
