"""Finite-difference (FD) oracles: the one module that knows how FD is done.

The library computes the paper's closed forms; ``igk verify`` checks them
against these independent routes.  Every oracle builds its stencil with
``stencil``, evaluates its function once on the stacked rows, and differences
the values with ``central_difference``; a stencil row outside a family's domain
refuses the caller's point (``_fd_stencil``).  The closed forms are reached
through their modules (``geometry._christoffel``, ``tangent_bundle.lift``, ...),
so that a routine replaced on its module is the one the oracle sees.
"""

from __future__ import annotations

import numpy as np

from . import geometry, oscillator, projective, spin, tangent_bundle
from .errors import DomainError, NotKahlerError
from .numerics import _finite_floats, _real_array

# ----- every finite-difference step of the package ----------------------------
# Relative steps are scaled by max(1, |x_j|) per coordinate (``relative_steps``).
_CURVATURE_STEP = 1e-4  # relative, Richardson: the curvature stencil of ``_curvatures``
_DUALITY_STEP = 1e-5  # relative: metric derivative and cross-duality mean-map Jacobian
_SATURATION = 1e-8  # largest FD rounding floor of cross-duality, relative to min eig h
_JACOBIAN_STEP = 1e-4  # relative: outer stencil of a non-linear flow_isometry_residual
_GRADIENT_STEP = 1e-5  # relative: metric_gradient_fd, inner stencil of the flow
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
    values = values.reshape((-1,) + s.shape[1:] + values.shape[1:])
    n = len(s)
    s = s.reshape(s.shape + (1,) * (values.ndim - s.ndim))
    d = (values[:n] - values[n:2 * n]) / (2.0 * s)
    if not richardson:
        return d
    half = (values[2 * n:3 * n] - values[3 * n:]) / (2.0 * (0.5 * s))
    return (4.0 * half - d) / 3.0


def _fd_stencil(fam, theta, scale, richardson=False, caller=None):
    """Relative steps and ``stencil`` rows of theta (n,) or (k, n); a row outside the
    domain refuses the caller's theta (``caller`` if theta is its stencil) at once."""
    step = relative_steps(theta, scale)
    rows = stencil(theta, step, richardson)
    inside = fam.domain.contains(rows)
    if not inside.all():
        named = theta if caller is None else caller
        points = named.reshape(-1, fam.dim)
        i = int(np.argmin(inside)) % len(points)  # row j of point i: j k + i
        raise fam._row_error(named, i, f"{points[i].tolist()} lies within one difference "
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
    within one step of the domain edge).  h is the Fisher metric at theta from
    the caller's table.  A stack (k, n) gives k gradients.
    """
    theta = fam._check_theta(theta)
    step, rows = _fd_stencil(fam, theta, _GRADIENT_STEP)
    return _metric_gradient(fam, step, base_function(rows), h, theta)


def _metric_gradient(fam, step, values, h, caller):
    """h^{-1} grad f from the values of f on a stencil of steps ``step`` ((k,) n)
    and h at its points; a singular h names the caller's validated theta."""
    df = central_difference(values, step)
    return geometry._inverse(fam, caller, h, df.T[..., None])[..., 0]


def flow_isometry_residual(fam, observable, theta, h, t):
    """max |Dphi^T G Dphi - G| for the time-t flow of an observable, with G built
    from h, the Fisher metric at theta from the caller's table.

    Linear observables have constant gradient, hence Dphi is exactly the
    identity plus a nilpotent zero block and the flow is an exact isometry.
    Any other observable of the sample point (a vectorized callable, or a
    value table over a finite space) gets the FD Jacobian of its Fisher
    gradient, exposing the failure of the isometry property: its mean on the
    4n^2 inner stencil rows is one support table, h on the 2n outer rows one
    more.  A value table on the real line is refused first.  A stack of k base
    points (k, n) gives k residuals; a t that is not one finite real number
    raises ``DomainError``.
    """
    theta = fam._check_theta(theta)
    (t,) = _finite_floats("the flow time", t)
    n, dgrad = theta.shape[-1], 0.0
    try:
        tangent_bundle.linear_observable(fam, observable)
    except NotKahlerError:
        values = fam._observable(observable)
        step, outer = _fd_stencil(fam, theta, _JACOBIAN_STEP)
        inner_step, inner = _fd_stencil(fam, outer, _GRADIENT_STEP, caller=theta)
        with fam._naming(theta):
            means = fam._mean_and_variance(inner, values)[0]
            grads = _metric_gradient(fam, inner_step, means, fam._cumulants(outer, 2)[1], theta)
        dgrad = np.moveaxis(central_difference(grads, step), 0, -1)
    G = tangent_bundle._structure(h).metric
    dphi = np.broadcast_to(np.eye(2 * n), G.shape).copy()
    dphi[..., n:, :n] = -t * dgrad
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
    z = projective._rays(z)
    rows = z.reshape(-1, z.shape[-1])
    # the 4(m-1) points [z + d; z - d]: the rows of d are the basis of z-perp
    # (s_j), then i times it (t_j)
    basis = projective.chart_basis(rows).mT
    d = _CHART_STEP * np.concatenate([basis, 1j * basis], axis=1)
    w = np.concatenate([rows[:, None] + d, rows[:, None] - d], axis=1)
    vals = np.swapaxes(fun(w.reshape(z.shape[:-1] + w.shape[1:])), 0, z.ndim - 1)
    grad = central_difference(vals.reshape((-1,) + vals.shape[z.ndim:]),
                              np.full(z.shape[:-1] + d.shape[1:2], _CHART_STEP))
    # contiguous rows: a dot product over strided rows sums in another order
    return np.ascontiguousarray(np.swapaxes(grad, 0, z.ndim - 1))


def fd_poisson_bracket(fun_a, fun_b, z):
    """Fubini-Study Poisson bracket of two ray functions at z, by FD.

    With omega = Im<.,.> the chart coordinates are canonical and
    {f, g} = sum_j (df/ds_j dg/dt_j - df/dt_j dg/ds_j).  Both functions take
    a stack as in ``fd_chart_gradient`` and share one stencil (per ray).
    """
    ga, gb = np.moveaxis(
        fd_chart_gradient(lambda w: np.stack([fun_a(w), fun_b(w)], axis=-1), z), -1, 0)
    k = ga.shape[-1] // 2
    return projective._scalar(np.vecdot(ga[..., :k], gb[..., k:])
                              - np.vecdot(ga[..., k:], gb[..., :k]))


def lie_morphism_residual(A, B, z):
    """|xi_[A,B](z) - {xi_A, xi_B}(z)| with the bracket evaluated by FD; stacks
    of k matrices (k, m, m) and k rays (k, m) give k residuals."""
    A, B = (np.asarray(M, dtype=complex) for M in (A, B))
    lhs = projective.xi_value(A @ B - B @ A, projective._rays(z)[..., None, :])[..., 0]
    return projective._scalar(np.abs(lhs - _xi_bracket(A, B, z)))


def _xi_bracket(A, B, z):
    """{xi_A, xi_B} at z by ``fd_poisson_bracket``, one stencil per ray."""
    xi = projective.xi_value
    return fd_poisson_bracket(lambda w: xi(A, w, check=False),
                              lambda w: xi(B, w, check=False), z)


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
    """{f, g} = (f_a g_b - f_b g_a) / (-n sin(a)) by central differences in the colatitude/
    azimuth chart, where the symplectic form is -n sin(a) da ^ db (n times the area form, in
    the orientation fixed by the representation).  Not defined at the poles."""
    n = spin._check_n(n)
    (u0f, vf, single), (u0g, vg, _) = spin._coefficients(f), spin._coefficients(g)
    angles = np.stack(spin.sphere_point_angles(spin._check_sphere(s).reshape(len(u0f), 3)),
                      axis=-1)
    colat = angles[:, 0]
    if np.any(np.minimum(np.abs(colat), np.abs(np.pi - colat)) < 1e-6):
        raise DomainError("the angle chart degenerates at the poles")
    steps = np.full(angles.shape, _ANGLE_STEP)
    a, b = stencil(angles, steps).T
    points = np.stack([np.cos(a), np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)],
                      axis=-1).reshape(4, -1, 3)
    (fa, fb), (ga, gb) = (central_difference((u0 + np.vecdot(points, vec)).ravel(), steps)
                          for u0, vec in ((u0f, vf), (u0g, vg)))
    res = (fa * gb - fb * ga) / (-n * np.sin(colat))
    return float(res[0]) if single else res


def hat_scaling_residual(n, f, g, point):
    """Defect of the 1/4 scaling {f_hat, g_hat} = 4 ({f, g})-hat between the sphere and
    projective brackets, f_hat = xi_{-2i Q(f)} the lift of an affine sphere function: the
    Fubini-Study bracket by FD at the projective point, each side in one stencil call."""
    n = spin._check_n(n)
    (u0f, vf, single), (u0g, vg, _) = spin._coefficients(f), spin._coefficients(g)
    z = projective._rays(point)
    A, B, C = (-2.0j * spin._q_stack(n, u0, vec).reshape(z.shape[:-1] + (n + 1,) * 2)
               for u0, vec in ((u0f, vf), (u0g, vg),
                               (np.zeros(len(u0f)), spin._bracket(n, vf, vg))))
    rhs = 4.0 * projective.xi_value(C, z[..., None, :])[..., 0]
    res = np.abs(_xi_bracket(A, B, point) - rhs).reshape(len(u0f))
    return float(res[0]) if single else res


def plane_bracket_fd(f, g, z):
    """The Kähler-plane bracket {f, g} = f_x g_y - f_y g_x at a point, by central FD."""
    steps = np.full(2, _BRACKET_STEP)
    points = stencil(oscillator._plane(z, stack=False), steps)
    (fx, fy), (gx, gy) = (central_difference(fun.value(points), steps) for fun in (f, g))
    return fx * gy - fy * gx
