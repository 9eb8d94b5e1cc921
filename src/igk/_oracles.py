"""Independent oracles: the one module that decides how ``igk verify`` measures a claim.

The library computes the paper's closed forms; ``igk verify`` checks them against these
finite-difference (FD) routes and defects.  Every FD oracle builds its stencil with
``stencil``, evaluates its function once on the stacked rows, and differences the values
with ``central_difference``; a stencil row outside a family's domain refuses its point
(``_fd_stencil``).  One Kähler form g + i omega, ``_kahler_form``, contracts two gradients:
every FD bracket is its imaginary part.  The closed forms are reached through their modules
(``geometry._christoffel``, ``spin._q_stack``, ...), so that a routine replaced on its
module is the one the oracle sees.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry, oscillator, projective, spin, tangent_bundle
from .errors import DomainError
from .numerics import _finite_floats, _real_array, log_factorials

# ----- every finite-difference step of the package ----------------------------
# Relative steps are scaled by max(1, |x_j|) per coordinate (``relative_steps``).
_CURVATURE_STEP = 1e-4  # relative, Richardson: the curvature stencil of ``_curvatures``
_DUALITY_STEP = 1e-5  # relative: metric derivative and cross-duality mean-map Jacobian
_SATURATION = 1e-8  # largest FD rounding floor of cross-duality, relative to min eig h
_JACOBIAN_STEP = 1e-4  # relative: the stencil of ``flow_isometry_residual``
_GRADIENT_STEP = 1e-5  # relative: ``metric_gradient_fd``
_CHART_STEP = 1e-5  # in the normal chart of a ray
_TAU_STEP = 1e-6  # in the natural chart (theta, v) of the lift
_ANGLE_STEP = 1e-6  # sphere_bracket_fd, in the colatitude/azimuth chart
_BRACKET_STEP = 1e-6  # plane_bracket_fd
_PSI_GRADIENT_STEP = 1e-5  # relative: eta = grad psi in ``psi_cumulants``
_PSI_HESSIAN_STEP = 1e-4  # relative, outer and inner: h = grad grad psi there


# ----- stencils and differences -----------------------------------------------


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
    n, k = len(s), np.prod(s.shape[1:], dtype=int)  # k points: -1 is undetermined at k = 0
    values = values.reshape((len(values) // k if k else 2 * n,) + s.shape[1:] + values.shape[1:])
    s = s.reshape(s.shape + (1,) * (values.ndim - s.ndim))
    d = (values[:n] - values[n:2 * n]) / (2.0 * s)
    if not richardson:
        return d
    half = (values[2 * n:3 * n] - values[3 * n:]) / (2.0 * (0.5 * s))
    return (4.0 * half - d) / 3.0


def _fd_stencil(fam, theta, scale, richardson=False):
    """Relative steps and ``stencil`` rows of theta (n,) or (k, n); a row outside the
    domain refuses its point of theta at once."""
    step = relative_steps(theta, scale)
    rows = stencil(theta, step, richardson)
    inside = fam.domain.contains(rows)
    if not inside.all():
        points = theta.reshape(-1, fam.dim)
        i = int(np.argmin(inside)) % len(points)  # row j of point i: j k + i
        raise fam._row_error(theta, i, f"{points[i].tolist()} lies within one difference "
                             "step of the domain edge", DomainError)
    return step, rows


def _at_points(theta, table):
    """The rows of theta's points (n,) or (k, n) at the head of a table."""
    return table[:theta.size // theta.shape[-1]].reshape(theta.shape[:-1] + table.shape[1:])


# ----- dually flat geometry ---------------------------------------------------


def psi_cumulants(fam, grid):
    """eta = grad psi and h = grad grad psi at a validated grid (k, n) from FD of
    ``log_partition`` alone, h as the difference of the difference; one call each."""
    steps = relative_steps(grid, _PSI_GRADIENT_STEP)
    eta = central_difference(fam.log_partition(stencil(grid, steps)), steps).T
    outer = relative_steps(grid, _PSI_HESSIAN_STEP)
    rows = stencil(grid, outer)
    inner = relative_steps(rows, _PSI_HESSIAN_STEP)
    grad = central_difference(fam.log_partition(stencil(rows, inner)), inner)
    return eta, np.moveaxis(central_difference(grad.T, outer), 1, 0)


def _curvatures(fam, theta, alphas):
    """Riemann tensors R^(alpha)[a, i, j, k, l] (last index up) for alphas[a] at a
    validated theta, from one stencil, and (eta, h, T) at theta.

    R(e_i, e_j) e_k = d_i Gamma2[j,k,:] - d_j Gamma2[i,k,:]
                      + Gamma2[i,m,:] Gamma2[j,k,m] - Gamma2[j,m,:] Gamma2[i,k,m],
    with Gamma2 differenced centrally (``_CURVATURE_STEP``, scaled by coordinate
    size) and Richardson-extrapolated once: O(step^4).  The point and its 4n
    stencil points are one moment table; a stack of k points gives
    R[a, p, i, j, k, l] from k (1 + 4n) rows.  Tensors past the float range
    raise ``NumericalError``.
    """
    step, rows = _fd_stencil(fam, theta, _CURVATURE_STEP, richardson=True)
    centers = theta.reshape(-1, fam.dim)
    with fam._naming(theta):
        eta, h, T = fam._cumulants(np.concatenate([centers, rows]), 3)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by row
        gamma2 = np.stack([geometry._christoffel(T, a) for a in alphas], axis=1) \
            @ geometry._inverse(fam, theta, h)[:, None, None]
        g2 = _at_points(theta, gamma2)
        # dg[i, ..., j, k, l] = d_i Gamma2[j, k, l]; R is built with i first
        dg = central_difference(gamma2[len(centers):], step, richardson=True)
        R = np.swapaxes(dg - np.swapaxes(dg, 0, -3)
                        + np.einsum("...jkm,...iml->i...jkl", g2, g2)
                        - np.einsum("...ikm,...jml->i...jkl", g2, g2), 0, -4)
    fam._finite(theta, np.swapaxes(R, 0, -5), "curvature table")
    return (R, *(_at_points(theta, m) for m in (eta, h, T)))


def _metric_derivative(fam, theta, richardson):
    """dh[d, j, k] = d_d h_jk at a validated theta (a stack (k, n): (k, n, n, n)) by
    central differences of h on theta +- E, and the steps and eta on the stencil:
    one table, with ``richardson`` also on theta +- E/2 for ``_cross_duality``."""
    step, rows = _fd_stencil(fam, theta, _DUALITY_STEP, richardson)
    with fam._naming(theta):
        eta, h = fam._cumulants(rows, 2)
    dh = central_difference(h, step)  # reads the rows theta +- E alone
    return np.swapaxes(dh, 0, dh.ndim - 3), step, eta


def _duality_residuals(fam, theta, h, T, dh, alphas):
    """Duality defects max |d_i g_jk - Gamma^(alpha)_{ij,k} - Gamma^(-alpha)_{ik,j}|
    at a validated theta, whose moments are h and T and metric derivative dh
    (``_metric_derivative``): row a for alphas[a], columns the natural and the
    expectation chart.  A stack of k thetas gives a leading k axis; a point whose
    defects leave the float range raises ``NumericalError``."""
    out = np.empty(h.shape[:-2] + (len(alphas), 2))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by row
        B = geometry._inverse(fam, theta, h)
        # d/d eta_a = B_ad d/d theta_d and d(h^-1) = -B dh B give d_a g in eta
        dg = -np.einsum("...ad,...bi,...cj,...dij->...abc", B, B, B, dh)
        for a, alpha in enumerate(alphas):
            for c, (deriv, chart) in enumerate(((dh, None), (dg, B))):
                ga, gm = (geometry._christoffel(T, a, chart) for a in (alpha, -alpha))
                out[..., a, c] = np.max(np.abs(deriv - ga - np.swapaxes(gm, -1, -2)),
                                        axis=(-3, -2, -1))
    return fam._finite(theta, out, "duality defect table")


def _skew_residual(ra, rm, h):
    """Skew-duality defect max |R^(alpha)_{ijkl} + R^(-alpha)_{ijlk}| with both
    lowered by h, one per point of a stack."""
    ra = np.einsum("...ijkm,...ml->...ijkl", ra, h)
    rm = np.einsum("...ijkm,...ml->...ijkl", rm, h)
    return np.max(np.abs(ra + np.swapaxes(rm, -1, -2)), axis=(-4, -3, -2, -1))


def cross_duality_residual(fam, theta):
    """Defect of h . (d eta / d theta)^-1 = Id with the Jacobian from FD.

    The Jacobian of the mean map is differenced independently of the
    expectation-formula metric, so this really crosses two routes.  One
    Richardson step keeps the Jacobian truncation below the 1e-7 gate even
    where the mean map bends fast.  A stack of points gives one each.  Where
    the mean map saturates, so that the Jacobian's rounding floor
    eps max|eta| / step exceeds ``_SATURATION`` min eig h, ``NumericalError``
    is raised with that ratio as its residual.  eta and h at the points and eta
    on their stencil are one table, which ``_cross_duality`` reads.
    """
    theta = fam._check_theta(theta)
    step, rows = _fd_stencil(fam, theta, _DUALITY_STEP, richardson=True)
    centers = theta.reshape(-1, fam.dim)
    with fam._naming(theta):
        eta, h = fam._cumulants(np.concatenate([centers, rows]), 2)
    return _cross_duality(fam, theta, _at_points(theta, eta), _at_points(theta, h),
                          step, eta[len(centers):])


def _cross_duality(fam, theta, eta, h, step, eta_rows):
    """``cross_duality_residual`` at a validated theta with moments eta and h there, and
    eta_rows on its Richardson stencil of steps ``step`` (``_metric_derivative``)."""
    J = np.moveaxis(central_difference(eta_rows, step, richardson=True), 0, -1)
    J_inv = geometry._inverse(fam, theta, J, what="mean-map Jacobian")
    # past the floor the defect measures eta's rounding, not the duality
    floor = np.finfo(float).eps * np.abs(eta).max(axis=-1) / step.min(axis=-1)
    with np.errstate(divide="ignore"):  # an h with a zero eigenvalue is refused
        ratio = np.ravel(floor / np.linalg.eigvalsh(h)[..., 0])
    if not (ratio <= _SATURATION).all():
        i = int(np.argmin(ratio <= _SATURATION))
        raise fam._row_error(theta, i, "the mean map saturates past the reach of its FD "
                             "Jacobian", residual=float(ratio[i]))
    return projective._scalar(np.max(np.abs(h @ J_inv - np.eye(fam.dim)), axis=(-2, -1)))


# ----- tangent bundle ---------------------------------------------------------


def omega_closedness_residual(fam, theta):
    """max_{i<j,k} |d_i h_jk - d_j h_ik|, the obstruction to d omega = 0; one
    per point of a theta stack (k, n), from one metric stencil."""
    dh = _metric_derivative(fam, fam._check_theta(theta), False)[0]
    return projective._scalar(np.max(np.abs(dh - np.swapaxes(dh, -3, -2)), axis=(-3, -2, -1)))


def metric_gradient_fd(fam, base_function, theta, h):
    """Fisher gradient h^{-1} grad_theta of a generic base function.

    ``base_function`` maps a theta stack (p, n) to p floats; it is called
    once, on the central-difference stencil of the validated theta (refused
    within one step of the domain edge).  h is the given Fisher metric at
    theta.  A stack (k, n) gives k gradients.
    """
    theta = fam._check_theta(theta)
    step, rows = _fd_stencil(fam, theta, _GRADIENT_STEP)
    df = central_difference(base_function(rows), step)
    return geometry._inverse(fam, theta, h, df.T[..., None])[..., 0]


def flow_isometry_residual(fam, observable, theta, h, t):
    """max |Dphi^T G Dphi - G| for the time-t flow of an observable f, with G built from
    h, the given Fisher metric at theta.

    The flow moves the fiber by -t b, b = h^-1 Cov(F, f) the Fisher gradient of E[f]
    (grad E[f] = Cov(F, f)), so Dphi = [[I, 0], [-t Db, I]]: an isometry iff b is constant,
    as for an f affine in the statistics.  h and Cov(F, f) are the moments of [F; f] on one
    support table of theta's 2n stencil rows; Db is their central difference.  ``observable``
    is a ``LinearObservable`` (a0 + <a, F>), a vectorized callable, or a value table, refused
    on the real line before any table is built.  A stack (k, n) gives k residuals; a t that
    is not one finite real number raises ``DomainError``.
    """
    theta = fam._check_theta(theta)
    (t,) = _finite_floats("the flow time", t)
    n = theta.shape[-1]
    linear = isinstance(observable, tangent_bundle.LinearObservable)
    obs = (tangent_bundle.linear_observable(fam, observable) if linear  # its dimension check
           else fam._observable(observable))
    step, rows = _fd_stencil(fam, theta, _JACOBIAN_STEP)
    with fam._naming(theta):
        x, w, F = fam._support(rows)
    F = np.broadcast_to(F, w.shape[:1] + F.shape[-2:])
    f = obs.a0 + np.asarray(obs.coeffs) @ F if linear else obs(np.broadcast_to(x, w.shape))
    cov = fam._moments(np.concatenate([F, np.broadcast_to(f, w.shape)[:, None]], 1), w, 2)[1]
    grads = geometry._inverse(fam, theta, cov[:, :-1, :-1], cov[:, :-1, -1:])[..., 0]
    G = tangent_bundle._structure(h).metric
    dphi = np.broadcast_to(np.eye(2 * n), G.shape).copy()
    dphi[..., n:, :n] = -t * np.moveaxis(central_difference(grads, step), 0, -1)
    return projective._scalar(np.max(np.abs(dphi.mT @ G @ dphi - G), axis=(-2, -1)))


# ----- projective space -------------------------------------------------------


def fd_chart_gradient(fun, z):
    """Real gradient of a ray function in the normal chart at z.

    ``fun`` maps a stack of homogeneous vectors (p, m), not necessarily
    normalized, to p reals (or to p rows of reals, giving one gradient
    column each); it is called once, on the whole stencil.  The gradient is
    with respect to the 2(m-1) real coordinates (s_j, t_j) over a
    complex-orthonormal basis of z-perp, in which the Fubini-Study metric at
    the center is the identity.  k rays (k, m) give ``fun`` all k stencils
    as one stack (k, 4(m-1), m), and k gradients.
    """
    return _chart_gradient(fun, projective._rays(z))


def _chart_gradient(fun, z):
    """``fd_chart_gradient`` at unit vectors z (..., m) as ``projective._rays`` returns them."""
    rows = z.reshape(-1, z.shape[-1])
    # the 4(m-1) points [z + d; z - d]: the rows of d are the basis of z-perp
    # (s_j), then i times it (t_j)
    basis = projective._chart_basis(rows).mT
    d = _CHART_STEP * np.concatenate([basis, 1j * basis], axis=1)
    w = np.concatenate([rows[:, None] + d, rows[:, None] - d], axis=1)
    vals = np.swapaxes(fun(w.reshape(z.shape[:-1] + w.shape[1:])), 0, z.ndim - 1)
    grad = central_difference(vals.reshape((-1,) + vals.shape[z.ndim:]),
                              np.full(z.shape[:-1] + d.shape[1:2], _CHART_STEP))
    # contiguous rows: a dot product over strided rows sums in another order
    return np.ascontiguousarray(np.swapaxes(grad, 0, z.ndim - 1))


def _kahler_form(ga, gb):
    """g + i omega of gradient rows (..., 2k) in canonical coordinates (q_1..q_k, p_1..p_k),
    omega = sum dq ^ dp: the one contraction of two gradients in igk.  The real part is the
    metric (Var = |grad f|^2 / 4 on CP^(m-1)), the imaginary part the Poisson bracket."""
    k = ga.shape[-1] // 2
    return np.vecdot(ga, gb) + 1j * (np.vecdot(ga[..., :k], gb[..., k:])
                                     - np.vecdot(ga[..., k:], gb[..., :k]))


def lie_morphism_residual(A, B, z):
    """|xi_[A,B](z) - {xi_A, xi_B}(z)| with the bracket evaluated by FD; stacks
    of k matrices (k, m, m) and k rays (k, m) give k residuals."""
    w = projective._rays(z)
    A, B = (projective._acting(projective._matrices(M, "matrix", "skew-Hermitian"), w)
            for M in (A, B))
    w = np.broadcast_to(w, (projective._paired(A, 2, B, 2) or w.shape[:-1]) + w.shape[-1:])
    lhs = projective.xi_value(A @ B - B @ A, w[..., None, :])[..., 0]
    return projective._scalar(np.abs(lhs - _xi_bracket(A, B, w)))


def _xi_bracket(A, B, w):
    """{xi_A, xi_B} at unit vectors w (..., m): Im ``_kahler_form`` of the chart gradients of
    the pair [xi_A, xi_B], stacked in one stencil per ray."""
    ga, gb = np.moveaxis(_chart_gradient(lambda v: np.stack(
        [projective.xi_value(A, v), projective.xi_value(B, v)], axis=-1), w), -1, 0)
    return _kahler_form(ga, gb).imag


def lift_jacobian(fam, theta, v):
    """D[j] = d z / d x_j of ``tangent_bundle.lift`` at x = (theta, v), by FD,
    projected off the ray (D - z <z, D>): the images of the natural frame of TM
    in the tangent space of CP^(m-1) at [z].  A stack (k, n) gives D (k, 2n, m);
    the points and their 4n stencil rows are lifted in one call, the points first, so
    row r belongs to point r % k and a refusal names it as ``tangent_bundle.lift`` does."""
    what = f"{fam.name}: (theta, v) must be real arrays of one shape"
    theta, v = _real_array(theta, what), _real_array(v, what)
    if v.shape != theta.shape:  # lift validates the rest
        raise DomainError(what)
    x = np.concatenate([theta, v], axis=-1)
    steps = np.full(x.shape, _TAU_STEP)
    centers = x.reshape(-1, x.shape[-1])
    with fam._naming(theta):
        z = tangent_bundle.lift(fam, *np.split(np.concatenate([centers, stencil(x, steps)]),
                                               2, 1))
    D = np.moveaxis(central_difference(z[len(centers):], steps), 0, -2)
    z = _at_points(theta, z)
    return D - z[..., None, :] * np.vecdot(z[..., None, :], D)[..., None]


def lift_defects(fam, theta, v, structure):
    """D J - i D and D^H D - (G + i Omega) / 4, zero iff the lift is holomorphic and iff it pulls
    g_FS + i omega_FS back to a quarter of TM's, for D = ``lift_jacobian`` at (theta, v) and the
    ``structure`` that ``kahler_structure_at`` gives at theta; no table is read.  A stack (k, n)
    gives (k, 2n, m) and (k, 2n, 2n), with (D^H D)[a, b] = <D[a], D[b]>."""
    D = lift_jacobian(fam, theta, v)
    return (structure.complex_structure.T @ D - 1j * D,
            D.conj() @ D.mT - 0.25 * (structure.metric + 1j * structure.omega))


# ----- spin and oscillator brackets -------------------------------------------


def sphere_bracket_fd(n, f, g, s):
    """{f, g} = Im ``_kahler_form`` / (-n sin(a)) of central FD gradients in the colatitude/
    azimuth chart, where the symplectic form is -n sin(a) da ^ db (n times the area form, in
    the orientation fixed by the representation).  Not defined at the poles."""
    n = spin._check_n(n)
    u0f, vf, single = spin._coefficients(f)
    u0g, vg, _ = spin._coefficients(g, len(u0f))
    angles = np.stack(spin.sphere_point_angles(spin._check_sphere(s, len(u0f))), axis=-1)
    colat = angles[:, 0]
    if np.any(np.minimum(np.abs(colat), np.abs(np.pi - colat)) < 1e-6):
        raise DomainError("the angle chart degenerates at the poles")
    steps = np.full(angles.shape, _ANGLE_STEP)
    a, b = stencil(angles, steps).T
    points = np.stack([np.cos(a), np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)],
                      axis=-1).reshape(4, -1, 3)
    df, dg = (central_difference((u0 + np.vecdot(points, vec)).ravel(), steps).T
              for u0, vec in ((u0f, vf), (u0g, vg)))
    res = _kahler_form(df, dg).imag / (-n * np.sin(colat))
    return float(res[0]) if single else res


def hat_scaling_residual(n, f, g, point):
    """Defect of the 1/4 scaling {f_hat, g_hat} = 4 ({f, g})-hat between the sphere and
    projective brackets, f_hat = xi_{-2i Q(f)} the lift of an affine sphere function: the
    Fubini-Study bracket by FD at the projective point, each side in one stencil call."""
    n = spin._check_n(n)
    u0f, vf, single = spin._coefficients(f)
    u0g, vg, _ = spin._coefficients(g, len(u0f))
    z = projective._rays(point)
    if z.size // z.shape[-1] != len(u0f):  # as in spin: one point per sphere function
        raise DomainError(f"one ray per sphere function: rays of shape {z.shape} for "
                          f"{len(u0f)} function(s)")
    A, B, C = (-2.0j * spin._q_stack(n, u0, vec).reshape(z.shape[:-1] + (n + 1,) * 2)
               for u0, vec in ((u0f, vf), (u0g, vg),
                               (np.zeros(len(u0f)), spin._bracket(n, vf, vg))))
    rhs = 4.0 * projective.xi_value(C, z[..., None, :])[..., 0]
    res = np.abs(_xi_bracket(A, B, z) - rhs).reshape(len(u0f))
    return float(res[0]) if single else res


def plane_bracket_fd(f, g, z):
    """The plane bracket {f, g} = f_x g_y - f_y g_x at a point: Im ``_kahler_form`` by FD."""
    steps = np.full(2, _BRACKET_STEP)
    points = stencil(oscillator._plane(z, stack=False), steps)
    return _kahler_form(*(central_difference(fun.value(points), steps) for fun in (f, g))).imag


# ----- closed-form defects of spin and the oscillator ---------------------------


def commutator_residual(n, f, g):
    """Defect of Q({f, g}) = -(i/2) [Q(f), Q(g)] in the sup norm."""
    n = spin._check_n(n)
    u0f, vf, single = spin._coefficients(f)
    u0g, vg, _ = spin._coefficients(g, len(u0f))
    Qf, Qg, Qfg = (spin._q_stack(n, u0, vec) for u0, vec in (
        (u0f, vf), (u0g, vg), (np.zeros(len(u0f)), spin._bracket(n, vf, vg))))
    comm = Qf @ Qg - Qg @ Qf
    res = np.max(np.abs(Qfg + 0.5j * comm), axis=(1, 2))
    return float(res[0]) if single else res


def expectation_identity_residual(n, f, s):
    """|f(s) - <Psi, Q(f) Psi>| at the spin state over a sphere point."""
    u0, vec, single = spin._coefficients(f)
    rows = spin._check_sphere(s, len(u0))
    psi = spin.psi_embedding(n, *spin.sphere_point_angles(rows))
    expect = np.einsum("pi,pij,pj->p", psi.conj(), spin._q_stack(int(n), u0, vec), psi).real
    res = np.abs(u0 + np.sum(vec * rows, axis=1) - expect)
    return float(res[0]) if single else res


def su2_closure_residual(n):
    """Defect of [L_a, L_b] = (1/n) L_c over the cyclic coordinate triples."""
    L = spin.su2_basis(n)
    return float(np.max([np.max(np.abs(L[a] @ L[b] - L[b] @ L[a] - L[c] / int(n)))
                         for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]))


def wigner_law(n, m1, cos_beta):
    """|d^{n/2}_{m2 - n/2, m1 - n/2}(beta)|^2 for m2 = 0..n: the Stern-Gerlach law of devices
    at angle beta, which shares no code with ``spin.stern_gerlach_transition``.

    Edmonds, Angular Momentum in Quantum Mechanics, eq. (4.1.23), for j = n/2:
    d^j_{ab} = sqrt((j+a)! (j-a)! / ((j+b)! (j-b)!)) sin(beta/2)^(a-b)
    cos(beta/2)^(a+b) P_{j-a}^{(a-b, a+b)}(cos beta) where a >= |b|, which the
    symmetries |d_ab| = |d_ba| = |d_{-a,-b}| reach from any pair; the Jacobi
    polynomial comes from its three-term recurrence.
    """
    lf, j = log_factorials(n), n / 2.0
    half_sin, half_cos = math.sqrt((1.0 - cos_beta) / 2.0), math.sqrt((1.0 + cos_beta) / 2.0)
    law = []
    for m2 in range(n + 1):
        a, b = m2 - j, m1 - j
        if abs(a) < abs(b):
            a, b = b, a
        if a < 0:
            a, b = -a, -b
        al, be, deg = round(a - b), round(a + b), round(j - a)
        # P_0 = 1 and P_1, then 2k (k + al + be)(c - 2) P_k = (c - 1)(c (c - 2) x + al^2 - be^2)
        # P_{k-1} - 2 (k + al - 1)(k + be - 1) c P_{k-2}, c = 2k + al + be
        p_prev, p = 1.0, (al + 1) + (al + be + 2) * (cos_beta - 1.0) / 2.0 if deg else 1.0
        for k in range(2, deg + 1):
            c = 2 * k + al + be
            p_prev, p = p, ((c - 1) * (c * (c - 2) * cos_beta + al * al - be * be) * p
                            - 2 * (k + al - 1) * (k + be - 1) * c * p_prev) \
                / (2 * k * (k + al + be) * (c - 2))
        log_d = 0.5 * (lf[round(j + a)] + lf[round(j - a)] - lf[round(j + b)] - lf[round(j - b)])
        d = math.exp(log_d) * half_sin ** al * half_cos ** be * p
        law.append(d * d)
    return np.array(law)


def oscillator_expectation_residual(hbar, f, z):
    """|f(z) - <Psi(z), Q(f) Psi(z)>| at a plane point or a stack (k, 2)."""
    return np.abs(f.value(z) - oscillator.oscillator_expectation(hbar, f, z))
