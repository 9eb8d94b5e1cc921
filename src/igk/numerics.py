"""Small numerical helpers: finite differences, Gauss-Hermite nodes, ln k!."""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def gauss_hermite(order):
    """Cached Gauss-Hermite nodes and weights for weight exp(-t^2)."""
    t, w = np.polynomial.hermite.hermgauss(int(order))
    return t, w


def log_factorials(m):
    """ln k! for k = 0..m, as a running sum of ln 1..ln m."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, int(m) + 1)))))


def _steps(x, scale):
    x = np.asarray(x, dtype=float)
    return scale * np.maximum(1.0, np.abs(x))


def fd_gradient(fun, x, scale=1e-5):
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    h = _steps(x, scale)
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        g[i] = (fun(xp) - fun(xm)) / (2.0 * h[i])
    return g


def fd_jacobian(fun, x, scale=1e-5):
    """Central-difference Jacobian of a vector function of a vector.

    Returns J with J[i, j] = d fun_i / d x_j.
    """
    x = np.asarray(x, dtype=float)
    h = _steps(x, scale)
    cols = []
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h[j]
        xm[j] -= h[j]
        cols.append((np.asarray(fun(xp), float) - np.asarray(fun(xm), float))
                    / (2.0 * h[j]))
    return np.stack(cols, axis=-1)


def fd_hessian(fun, x, scale=1e-4):
    """Second-difference Hessian of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    h = _steps(x, scale)
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
