"""Deterministic verification suites behind ``igk verify``.

Each suite draws every random quantity from a seeded PCG64 generator, runs a
fixed list of residual checks, and reports one line per check: an identifier,
the measured value, the threshold, and the comparison direction.  A check
reports its worst sample: the largest for ``<=``, the smallest for ``>=``.
A NaN or infinite sample raises ``NumericalError`` naming the check, since a
report cannot hold it.  Reports are sorted by identifier and are
byte-reproducible for a fixed seed.

``_CHECKS`` holds every check's rule: its threshold and its comparator.
"""

from __future__ import annotations

import math

import numpy as np

from . import SUITES, _oracles, geometry, oscillator, projective, spin, tangent_bundle
from .errors import (
    DomainError,
    NotKahlerError,
    NumericalError,
    UndefinedProjectionError,
)
from .families import BUILTIN_FAMILIES, FINITE_NORM_TOL, REAL_LINE_NORM_TOL, family
from .numerics import Record
from .specfile import family_from_dict

__all__ = [
    "CheckResult",
    "SuiteReport",
    "SUITES",
    "GENERATOR_NAME",
    "run_suite",
]

GENERATOR_NAME = "numpy-pcg64"
_MAX_HERMITE_BASIS = 512  # largest basis of operator-cross-check: 4 MB per matrix

# the stream tag of the suites whose later checks draw from PCG64([seed, suite, tag]), so
# that they leave the suite's own draws alone: the lift's and the Wigner law's
_OWN_STREAMS = {"dombrowski": 1, "spin": 2}

# (threshold, comparator) per check id without its /<family> suffix;
# a full id overrides it.  Pairs, not a dict by rule: REAL_LINE_NORM_TOL is 1e-7.
_CHECKS = {key: rule for rule, keys in (
    ((REAL_LINE_NORM_TOL, "<="), "geometry/normalization"),
    ((FINITE_NORM_TOL, "<="), """geometry/normalization/categorical:3
        geometry/normalization/binomial:3 geometry/normalization/user-bernoulli"""),
    ((0.0, "<="), "dombrowski/base-block spin/poles-exact"),
    ((1e-14, "<="), """projective/pi-tau-roundtrip projective/tau-normalized
        spin/casimir-value"""),
    ((1e-12, "<="), """geometry/christoffel-symmetric dombrowski/structure-identities
        dombrowski/poisson-commute dombrowski/flow-additive projective/deck-invariance
        spin/spin-law spin/spin-law-normalized spin/sphere-binomial-consistency
        spin/state-projects-to-binomial spin/axis-flip-invariance
        oscillator/bracket-table"""),
    ((1e-12, ">="), "geometry/metric-spd geometry/statistic-independence"),
    ((1e-10, "<="), """geometry/e-flat-natural geometry/m-flat-expectation
        geometry/dual-potential-agreement
        projective/cosine-square-law projective/spectral-consistency
        projective/spectrum-shuffle-invariance projective/probability-axioms
        spin/expectation-identity spin/rotation-invariance spin/decomposition-identity
        spin/stern-gerlach oscillator/operator-hermitian"""),
    ((1e-11, "<="), "spin/stern-gerlach-wigner"),
    ((1e-8, "<="), """geometry/chart-roundtrip dombrowski/flow-isometry
        projective/cramer-rao-eigenpoint spin/commutator spin/su2-closure
        spin/casimir-scalar oscillator/spectrum-distribution oscillator/coherent-phase
        oscillator/coherent-normalization oscillator/spectrum-ladder"""),
    ((1e-7, "<="), """geometry/third-cumulant-agreement geometry/metric-agreement
        geometry/mean-map-agreement geometry/cross-duality oscillator/expectation-identity"""),
    ((1e-6, "<="), """dombrowski/omega-closed dombrowski/gradient-cross-check
        dombrowski/lift-holomorphic dombrowski/lift-pullback projective/comomentum-morphism
        projective/critical-gradient spin/bracket-fd-agreement spin/hat-scaling
        oscillator/bracket-fd-agreement oscillator/operator-cross-check"""),
    ((1e-5, "<="), """geometry/curvature-flat geometry/duality
        geometry/duality-expectation geometry/curvature-analytic-vs-fd
        projective/pullback-metric projective/pullback-omega
        projective/cramer-rao-random"""),
    ((2e-4, "<="), "geometry/skew-duality"),
    ((1e-3, ">="), "dombrowski/non-affine-isometry-defect"),
    ((0.5, ">="), """dombrowski/non-affine-rejected
        projective/orthogonal-projection-rejected oscillator/quadratic-not-decomposable"""),
) for key in keys.split()}


class CheckResult(Record):
    """One verification line: id, measured value, threshold, and direction
    ``comparator``, "<=" or ">="."""

    __slots__ = _fields = ("check_id", "value", "threshold", "comparator")

    @property
    def passed(self):
        if self.comparator == "<=":
            return bool(self.value <= self.threshold)
        return bool(self.value >= self.threshold)


class SuiteReport(Record):
    """A suite's sorted check list plus the provenance of its randomness."""

    __slots__ = _fields = ("suite", "seed", "generator", "checks")

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


class _Collector:
    """Each check's worst sample under its ``_CHECKS`` rule: the largest for
    ``<=``, the smallest for ``>=``.  An id without a rule raises ``KeyError`` naming
    it."""

    def __init__(self):
        self.checks = {}

    def add(self, check_id, value):
        rule = _CHECKS.get(check_id) or _CHECKS.get(check_id.rsplit("/", 1)[0])
        if rule is None:
            raise KeyError(f"check {check_id!r} has no rule in verify._CHECKS")
        threshold, comparator = rule
        if isinstance(value, np.ndarray) and value.ndim:
            # an array of samples: its first non-finite one, or else its worst
            bad = value[~np.isfinite(value)]
            value = bad[0] if bad.size else (
                value.max() if comparator == "<=" else value.min())
        value = float(value)
        if not math.isfinite(value):
            raise NumericalError(f"{check_id}: sample is not finite", residual=value)
        old = self.checks.get(check_id)
        if old is None:
            self.checks[check_id] = CheckResult(check_id, value, threshold, comparator)
        elif (value > old.value) if comparator == "<=" else (value < old.value):
            self.checks[check_id] = CheckResult(check_id, value, old.threshold, comparator)

    def expect_raise(self, check_id, error, fun, *args):
        """Flag check: 1.0 when ``fun(*args)`` raises ``error``, else 0.0."""
        try:
            fun(*args)
        except error:
            return self.add(check_id, 1.0)
        self.add(check_id, 0.0)

    def sorted_checks(self):
        return tuple(sorted(self.checks.values(), key=lambda c: c.check_id))


def _user_finite_family():
    return family_from_dict(
        {
            "name": "user-bernoulli",
            "kind": "finite",
            "n": 1,
            "points": [0, 1],
            "C": "0",
            "F": ["x"],
            "psi": "ln(1 + exp(theta1))",
        },
        source="<builtin-check>",
    )


def _user_real_family():
    return family_from_dict(
        {
            "name": "user-gauss-half",
            "kind": "real_line",
            "n": 1,
            "C": "-(x^2)/2 - ln(2*pi)/2",
            "F": ["x/2"],
            "psi": "theta1^2/8",
        },
        source="<builtin-check>",
    )


# ----- geometry ---------------------------------------------------------------


def _suite_geometry(rng, out):
    fams = [family(name) for name in BUILTIN_FAMILIES]
    fams.append(_user_finite_family())
    fams.append(_user_real_family())
    for fam in fams:
        grid = fam._check_theta(geometry.theta_grid(fam))
        # one moment table over the whole grid, and one independent route
        _, w, F = fam._support(grid)
        eta_w, h_emp, T = fam._moments(F, w)
        if fam.cumulants is not None:
            # the closed-form hook against the finite-sum or quadrature table
            eta, h_ref, T_ref = fam.cumulants(grid, 3)
            out.add(f"geometry/third-cumulant-agreement/{fam.name}",
                    np.max(np.abs(T_ref - T)))
            theta_back = fam.expectation_to_natural(eta)
        else:
            # spec families read the table in production; FD of psi checks it
            eta, h_ref = _oracles.psi_cumulants(fam, grid)
            theta_back = fam.expectation_to_natural(eta_w)
        g0, B = geometry._christoffel(T, 0.0), geometry._inverse(fam, grid, h_emp)
        norm = w if not fam.is_finite else np.exp(fam._log_p(  # the psi hook's own table
            grid, fam.log_partition(grid), *fam._support_tables[1:3]))
        out.add(f"geometry/normalization/{fam.name}", np.max(np.abs(norm.sum(axis=1) - 1.0)))
        out.add(f"geometry/metric-agreement/{fam.name}", np.max(np.abs(h_emp - h_ref)))
        out.add(f"geometry/metric-spd/{fam.name}", np.min(np.linalg.eigvalsh(h_emp)[:, 0]))
        out.add(f"geometry/mean-map-agreement/{fam.name}", np.max(np.abs(eta - eta_w)))
        out.add(f"geometry/chart-roundtrip/{fam.name}", np.max(np.abs(theta_back - grid)))
        out.add(f"geometry/e-flat-natural/{fam.name}", np.max(np.abs(
            geometry._christoffel(T, 1.0))))
        out.add(f"geometry/m-flat-expectation/{fam.name}", np.max(np.abs(
            geometry._christoffel(T, -1.0, B))))
        if fam.dual is not None:  # the hook's phi'', phi''' against B, -B B B T, per max(1, |.|)
            for order, ref in ((2, B), (3, -np.einsum("kai,kbj,kcl,kijl->kabc", B, B, B, T))):
                out.add(f"geometry/dual-potential-agreement/{fam.name}", np.abs(
                    geometry._dual(fam, grid, order) - ref) / np.maximum(1.0, np.abs(ref)))
        out.add(f"geometry/christoffel-symmetric/{fam.name}",
                np.max(np.abs(g0 - np.swapaxes(g0, 1, 2))))
        out.add(f"geometry/statistic-independence/{fam.name}",
                fam.statistic_independence_margin())
        # FD-heavy checks on a seeded subsample of the grid, as one stack: one curvature
        # stencil (with the picks' moments) and one metric stencil (on a closed-form
        # family with the Richardson rows of cross-duality) serve every alpha
        picks = grid[rng.choice(len(grid), size=min(4, len(grid)), replace=False)]
        R, eta, h, T = _oracles._curvatures(fam, picks, (1.0, -1.0, 0.0, 0.5))
        r1, rm1, r0, rhalf = R
        out.add(f"geometry/curvature-flat/{fam.name}", np.abs([r1, rm1]))
        dh, step, eta_rows = _oracles._metric_derivative(fam, picks, fam.cumulants is not None)
        duality = _oracles._duality_residuals(fam, picks, h, T, dh, (0.0, 0.5, 1.0))
        out.add(f"geometry/duality/{fam.name}", duality[:, :, 0])
        out.add(f"geometry/duality-expectation/{fam.name}", duality[:, :2, 1])
        # alpha = 0 is its own dual: R^(-0) is R^(0) to the bit
        for Ra, Rb in ((r0, r0), (r1, rm1)):
            out.add(f"geometry/skew-duality/{fam.name}", _oracles._skew_residual(Ra, Rb, h))
        B = geometry._inverse(fam, picks, h)
        for alpha, R in ((0.0, r0), (0.5, rhalf)):
            out.add(f"geometry/curvature-analytic-vs-fd/{fam.name}",
                    np.abs(np.einsum("...ijkm,...ml->...ijkl", R, h)
                           - geometry._amari_curvature(B, T, alpha)))
        if fam.cumulants is not None:
            out.add(f"geometry/cross-duality/{fam.name}",
                    _oracles._cross_duality(fam, picks, eta, h, step, eta_rows))


# ----- dombrowski (tangent bundle) ---------------------------------------------


def _suite_dombrowski(rng, out, lift_rng):
    for fam in (family(name) for name in BUILTIN_FAMILIES):
        n = fam.dim
        lo, hi = np.asarray(fam.sample_box.lo), np.asarray(fam.sample_box.hi)
        # x**2 is affine on categorical:n, where 1 and the statistics span every function
        quadratic = int(fam.is_finite and fam.space.size > fam.dim + 1)
        # the draws in a fixed order: 100 structure points (as 100 single rng.uniform(lo, hi)
        # calls), a finite family's 10 lift points (theta, v) from a stream of their own, 5
        # closedness points, two linear observables, 3 flow points (theta, v), x**2's (v unread)
        points = [rng.uniform(lo, hi, size=(100, n))]
        if fam.is_finite:
            points += [lift_rng.uniform(lo, hi, size=(10, n)),
                       lift_rng.uniform(-2.0, 2.0, size=(10, n))]
        closed = rng.uniform(lo, hi, size=(5, n))
        obs_a, obs_b = (tangent_bundle.LinearObservable(rng.normal(), tuple(rng.normal(size=n)))
                        for _ in range(2))
        th, fibers = (np.array(f) for f in zip(
            *[(rng.uniform(lo, hi), rng.normal(size=n)) for _ in range(3)]))
        quad_th, _ = rng.uniform(lo, hi, size=(quadratic, n)), rng.normal(size=(quadratic, n))
        # one structure table: [100 structure | 10 lift | 1 quadratic | 3 flow] theta
        s = tangent_bundle.kahler_structure_at(fam, np.concatenate([*points[:2], quad_th, th]))
        J, h, G, Om = s.complex_structure, s.base_metric[:100], s.metric[:100], s.omega[:100]
        if fam.is_finite:  # J makes the lift holomorphic, and (G + i Omega) / 4 its pullback
            holomorphic, pullback = _oracles.lift_defects(
                fam, *points[1:], tangent_bundle._structure(s.base_metric[100:110]))
            out.add(f"dombrowski/lift-holomorphic/{fam.name}", np.abs(holomorphic))
            out.add(f"dombrowski/lift-pullback/{fam.name}", np.abs(pullback))
        for dev in (J @ J + np.eye(2 * n), Om - J.T @ G, G - J.T @ G @ J):
            out.add(f"dombrowski/structure-identities/{fam.name}", np.max(np.abs(dev)))
        out.add(f"dombrowski/base-block/{fam.name}", np.max(np.abs(G[:, :n, :n] - h)))
        out.add(f"dombrowski/omega-closed/{fam.name}",
                _oracles.omega_closedness_residual(fam, closed))

        # linear observables, through the flow the library runs: Hamilton's equation
        # v - v_1 = grad f at t = 1, exact isometries, commuting flows, additive in t
        flow = tangent_bundle.hamiltonian_flow_step
        th1, v1 = flow(fam, obs_a, th, fibers, 0.7)
        th2, v2 = flow(fam, obs_a, th1, v1, 0.3)
        tha, va = flow(fam, obs_a, th, fibers, 1.0)
        thb, vb = flow(fam, obs_b, th, fibers, 1.0)
        gfd = _oracles.metric_gradient_fd(
            fam, lambda rows: obs_a.a0 + np.vecdot(fam.natural_to_expectation(rows), obs_a.coeffs),
            th, s.base_metric[-3:])
        out.add(f"dombrowski/gradient-cross-check/{fam.name}", np.abs(fibers - va - gfd))
        for t in (0.5, 2.0):
            out.add(f"dombrowski/flow-isometry/{fam.name}",
                    _oracles.flow_isometry_residual(fam, obs_a, th, s.base_metric[-3:], t))
        xa, xb = (np.hstack([tx - th, vx - fibers]) for tx, vx in ((tha, va), (thb, vb)))
        out.add(f"dombrowski/poisson-commute/{fam.name}",
                np.abs(np.einsum("ki,kij,kj->k", xa, s.omega[-3:], xb)))
        for dev in (v2 - va, th2 - th):
            out.add(f"dombrowski/flow-additive/{fam.name}", np.abs(dev))
        if quadratic:
            quad = lambda v: np.asarray(v, float) ** 2  # noqa: E731
            out.expect_raise(f"dombrowski/non-affine-rejected/{fam.name}",
                             NotKahlerError, tangent_bundle.linear_observable, fam, quad)
            out.add(f"dombrowski/non-affine-isometry-defect/{fam.name}",
                    _oracles.flow_isometry_residual(fam, quad, quad_th, s.base_metric[-4:-3], 1.0))


# ----- projective ---------------------------------------------------------------


def _groups(draws):
    """Draw tuples (key, ...) grouped by key, in the order of each key's first
    draw: yields the key and one stacked array per further field."""
    for key in dict.fromkeys(d[0] for d in draws):
        yield key, [np.array(f) for f in zip(*(d[1:] for d in draws if d[0] == key))]


def _random_ray(rng, m):
    return rng.normal(size=m) + 1j * rng.normal(size=m)


def _random_hermitian(rng, m):
    M = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return 0.5 * (M + M.conj().T)


def _suite_projective(rng, out):
    draws = []
    for _ in range(20):
        m = int(rng.integers(3, 7))
        p = rng.dirichlet(np.full(m, 3.0))
        u = rng.normal(size=m)
        u -= p @ u
        draws.append((m, p, u, rng.integers(-2, 3, size=m)))
    for _, (p, u, shift) in _groups(draws):
        z = projective.tau(p, u)
        out.add("projective/pi-tau-roundtrip", np.abs(projective.pi_projection(z) - p))
        z2 = projective.tau(p, projective.deck_shift(p, u, shift))
        for ray in (z, z2):  # a lift is a unit ray: tau scaled by 1.001 fails here
            out.add("projective/tau-normalized", np.abs(np.linalg.norm(ray, axis=-1) - 1.0))
        out.add("projective/deck-invariance", 1.0 - np.abs(np.vecdot(z, z2)))

    for size in (3, 4):
        draws = []
        for _ in range(20):
            p = rng.dirichlet(np.full(size, 3.0))
            u = rng.normal(size=size)
            u -= p @ u
            # p, u, then the tangent vectors va, wa, vb, wb
            draws.append([p, u] + [rng.normal(size=size) for _ in range(4)])
        p, *rest = np.stack(draws, axis=1)
        # to the natural chart: theta = ln p - ln p_m, the rest less their last entry
        u, va, wa, vb, wb = (x[:, :-1] - x[:, -1:] for x in rest)
        theta = np.log(p[:, :-1]) - np.log(p[:, -1:])
        fam = family(f"categorical:{size}")
        _, E = _oracles.lift_defects(fam, theta, u, tangent_bundle.kahler_structure_at(fam, theta))
        # a^T E b on the tangent pairs a = (va, wa), b = (vb, wb): the g_FS and omega_FS parts
        pulled = np.einsum("ki,kij,kj->k", np.hstack([va, wa]), E, np.hstack([vb, wb]))
        out.add(f"projective/pullback-metric/categorical:{size}", np.abs(pulled.real))
        out.add(f"projective/pullback-omega/categorical:{size}", np.abs(pulled.imag))

    draws = []
    for _ in range(20):
        m = int(rng.integers(2, 6))
        A = 1j * _random_hermitian(rng, m)
        B = 1j * _random_hermitian(rng, m)
        draws.append((m, A, B, _random_ray(rng, m)))
    for _, (A, B, z) in _groups(draws):
        out.add("projective/comomentum-morphism", _oracles.lie_morphism_residual(A, B, z))

    # a draw whose picked level has probability < 1e-6 gives no cosine sample
    out.add("projective/cosine-square-law", 0.0)
    draws = []
    for _ in range(50):
        m = int(rng.integers(2, 7))
        H = _random_hermitian(rng, m)
        # the eigh stays here: the last draw depends on the number of levels
        obs = projective.observable_from_hermitian(H)
        z, perm = _random_ray(rng, m), rng.permutation(m)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        lam = obs.eigenvalues[int(rng.integers(0, m))]
        eig = np.argmin(np.abs(obs.eigenvalues - lam))
        levels = np.count_nonzero(projective._level_starts(obs.eigenvalues)[2])
        draws.append((m, H, obs.eigenvalues, obs.frame.T, z, perm, phase,
                      obs.frame[eig].conj(), int(rng.integers(0, levels))))
    for _, (H, X, frame_t, z, perm, phase, eig_ray, idx) in _groups(draws):
        # one stack per m; the frames keep the column-major layout of eigh,
        # so their products match those of single draws bit for bit
        obs = projective.KahlerObservableCP(X, np.swapaxes(frame_t, 1, 2))
        unit, rows = projective._rays(z), np.arange(len(z))
        out.add("projective/spectral-consistency", np.abs(
            obs.value(z) - np.vecdot(unit, projective._apply(H, unit)).real))
        ra = projective.spectrum_and_probabilities(obs, z)
        rb = projective.spectrum_and_probabilities(projective.KahlerObservableCP(
            X[rows[:, None], perm], obs.frame[rows[:, None], perm]), z)
        for dev in (ra.levels - rb.levels, ra.probabilities - rb.probabilities):
            out.add("projective/spectrum-shuffle-invariance", np.abs(dev))
        rc = projective.spectrum_and_probabilities(obs, 3.7 * phase[:, None] * unit)
        # total mass, a negative probability, and invariance under scaling
        for dev in (np.abs(ra.probabilities.sum(axis=1) - 1.0),
                    -np.min(ra.probabilities, axis=1),
                    np.abs(rc.probabilities - ra.probabilities)):
            out.add("projective/probability-axioms", dev)
        out.add("projective/cramer-rao-random", projective.cramer_rao_residual(obs, z))
        # one stencil at the eigen-rays for the Cramer-Rao defect and the critical gradient
        A = -2.0j * obs.hermitian_matrix()  # xi_{-2iH} = <z, H z> / <z, z>
        grad = _oracles.fd_chart_gradient(lambda w2: projective.xi_value(A, w2), eig_ray)
        out.add("projective/cramer-rao-eigenpoint", np.abs(projective._variance(
            obs, projective._rays(eig_ray)) - 0.25 * _oracles._kahler_form(grad, grad).real))
        out.add("projective/critical-gradient", np.abs(grad))
        prob = ra.probabilities[rows, idx]
        keep = prob >= 1e-6
        if keep.any():
            proj, dist = projective.eigenmanifold_projection(projective.KahlerObservableCP(
                X[keep], obs.frame[keep]), ra.levels[rows, idx][keep], z[keep])
            for d in (dist, projective.fubini_study_distance(proj, z[keep])):
                out.add("projective/cosine-square-law", np.abs(np.cos(d) ** 2 - prob[keep]))

    out.expect_raise("projective/orthogonal-projection-rejected",
                     UndefinedProjectionError, projective.eigenmanifold_projection,
                     projective.KahlerObservableCP([0.0, 1.0], np.eye(2)), 1.0,
                     np.array([1.0, 0.0]))


# ----- spin ---------------------------------------------------------------------


def _random_sphere_point(rng, away_from_poles=False):
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            continue
        s = v / norm
        if not away_from_poles or abs(s[0]) <= 0.9:
            return s


def _random_rotation(rng):
    M = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(M)
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 2] = -Q[:, 2]
    return Q


def _suite_spin(rng, out, wigner_rng):
    angles = (0.0, math.pi / 6, math.pi / 3, math.pi / 2, math.pi)
    s = np.array([[math.cos(t), math.sin(t), 0.0] for t in angles])
    for n in (1, 2, 3, 10):
        probs = spin.pi_sphere(n, s)
        out.add("spin/spin-law", np.abs(probs - [spin.spin_law(n, t) for t in angles]))
        out.add("spin/spin-law-normalized", np.abs(probs.sum(axis=1) - 1.0))
    out.add("spin/poles-exact", np.abs(
        spin.pi_sphere(4, [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]) - np.eye(5)[[4, 0]]))

    draws = []
    for _ in range(50):
        n = int(rng.integers(1, 11))
        th = float(rng.uniform(-3, 3))
        draws.append((n, th, spin.sphere_from_tangent(th, float(rng.uniform(-8, 8)))))
    for n, (th, s) in _groups(draws):
        want = family(f"binomial:{n}").probabilities(th[:, None])
        out.add("spin/sphere-binomial-consistency", np.abs(spin.pi_sphere(n, s) - want))

    draws = []
    for _ in range(100):
        n = int(rng.integers(1, 6))
        f = spin.SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
        g = spin.SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
        draws.append((n, f, g, _random_sphere_point(rng)))
    for n, (fs, gs, ss) in _groups(draws):
        out.add("spin/commutator", np.max(_oracles.commutator_residual(n, fs, gs)))
        out.add("spin/expectation-identity",
                np.max(_oracles.expectation_identity_residual(n, fs, ss)))
        # f(s) = alpha + beta (n/2)(1 + axis . s) at the drawn points
        u0, vec, _ = spin._coefficients(fs)
        dec = spin.decompose_sphere_function(n, fs)
        out.add("spin/decomposition-identity", np.abs(
            dec.alpha + dec.beta * (n / 2) * (1.0 + np.vecdot(dec.axis, ss))
            - (u0 + np.vecdot(vec, ss))))

    for n in range(1, 6):
        out.add("spin/su2-closure", _oracles.su2_closure_residual(n))
        C = spin.casimir_matrix(n)
        out.add("spin/casimir-scalar", np.max(np.abs(C - C[0, 0] * np.eye(n + 1))))
        # the value of the scalar, -j (j + 1) / n^2 at j = n/2: a zero matrix fails it
        out.add("spin/casimir-value", np.abs(C + (n + 2) / (4 * n) * np.eye(n + 1)))

    draws = []
    for _ in range(20):
        n = int(rng.integers(1, 6))
        f = spin.SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
        g = spin.SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
        s = _random_sphere_point(rng, away_from_poles=True)
        draws.append((n, f, g, s, _random_ray(rng, n + 1)))
    for n, (fs, gs, ss, zs) in _groups(draws):
        bracket = [b.vec for b in spin.sphere_bracket(n, fs, gs)]
        out.add("spin/bracket-fd-agreement", np.abs(
            np.vecdot(bracket, ss) - _oracles.sphere_bracket_fd(n, fs, gs, ss)))
        out.add("spin/hat-scaling", _oracles.hat_scaling_residual(n, fs, gs, zs))

    draws = [(int(rng.integers(1, 8)), _random_sphere_point(rng)) for _ in range(20)]
    for n, (s,) in _groups(draws):
        out.add("spin/state-projects-to-binomial", np.abs(np.abs(spin.psi_embedding(
            n, *spin.sphere_point_angles(s))) ** 2 - spin.pi_sphere(n, s)))

    draws = []
    for _ in range(10):
        n = int(rng.integers(1, 6))
        f = spin.SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
        R = _random_rotation(rng)
        draws.append((n, f, spin.SphereFunction(f.u0, tuple(R @ np.asarray(f.vec))),
                      spin.SphereFunction(f.u0, tuple(-np.asarray(f.vec)))))
    for n, (fs, rotated, flipped) in _groups(draws):
        lam, eig = spin.spin_spectrum(n, fs), np.linalg.eigvalsh(spin.q_matrix(n, fs))
        for dev in (lam - spin.spin_spectrum(n, rotated),
                    eig - np.linalg.eigvalsh(spin.q_matrix(n, rotated))):
            out.add("spin/rotation-invariance", np.abs(dev))
        out.add("spin/decomposition-identity", np.abs(lam - eig))
        dec, dec2 = (spin.decompose_sphere_function(n, h) for h in (fs, flipped))
        for dev in (dec.alpha - dec2.alpha, dec.beta - dec2.beta, dec.axis + dec2.axis):
            out.add("spin/axis-flip-invariance", np.abs(dev))

    t = math.pi / 5
    x_axis = spin.SphereFunction(0.0, (1.0, 0.0, 0.0))
    along = spin.SphereFunction(0.0, (0.2, -0.4, 0.9))
    for probs, want in (
        (spin.stern_gerlach_transition(
            1, x_axis, 1, spin.SphereFunction(0.0, (math.cos(t), math.sin(t), 0.0))),
         [math.sin(t / 2) ** 2, math.cos(t / 2) ** 2]),
        (spin.stern_gerlach_transition(
            2, x_axis, 1, spin.SphereFunction(0.0, (0.0, 1.0, 0.0))), [0.5, 0.0, 0.5]),
        (spin.stern_gerlach_transition(3, along, 2, along), np.eye(4)[2]),
    ):
        out.add("spin/stern-gerlach", np.max(np.abs(probs - np.asarray(want))))
    draws = []
    for _ in range(5):
        n = int(rng.integers(1, 5))
        f1 = spin.SphereFunction(0.0, tuple(rng.normal(size=3)))
        f2 = spin.SphereFunction(0.0, tuple(rng.normal(size=3)))
        draws.append((n, f1, f2, int(rng.integers(0, n + 1))))
    for n, (f1s, f2s, m1s) in _groups(draws):
        probs = spin.stern_gerlach_transition(n, f1s, m1s, f2s)
        out.add("spin/stern-gerlach", np.abs(probs.sum(axis=1) - 1.0))
        # max-spin state along f1's axis: agrees with the state-point law
        law = spin.spin_probabilities(n, f2s, spin.decompose_sphere_function(n, f1s).axis)
        out.add("spin/stern-gerlach", np.abs(
            spin.stern_gerlach_transition(n, f1s, n, f2s) - law))
    # the Wigner small-d law on both routes of the transition: one n below spin._TWISTED_N,
    # one from it to 64, one anywhere in 1..64
    for lo, hi in ((1, spin._TWISTED_N), (spin._TWISTED_N, 65), (1, 65)):
        n = int(wigner_rng.integers(lo, hi))
        m1 = int(wigner_rng.integers(0, n + 1))
        a1, a2 = (wigner_rng.normal(size=3) for _ in range(2))
        probs = spin.stern_gerlach_transition(n, spin.SphereFunction(wigner_rng.normal(), a1), m1,
                                              spin.SphereFunction(wigner_rng.normal(), a2))
        cos_beta = float(np.clip(a1 @ a2 / (np.linalg.norm(a1) * np.linalg.norm(a2)), -1.0, 1.0))
        out.add("spin/stern-gerlach-wigner", np.abs(probs - _oracles.wigner_law(n, m1, cos_beta)))


# ----- oscillator ----------------------------------------------------------------


def _suite_oscillator(rng, out, hbars=(0.5, 1.0, 2.0)):
    F = oscillator.PlaneKahlerFunction

    x, y, r = F(cx=1), F(cy=1), F(cr=1)
    for f, g, want in (
        (x, y, F(c1=1)),
        (x, r, F(cy=1)),
        (y, r, F(cx=-1)),
        (F(c1=1), r, F()),
    ):
        got = oscillator.plane_bracket(f, g)
        coeffs = [(fun.c1, fun.cx, fun.cy, fun.cr) for fun in (got, want)]
        out.add("oscillator/bracket-table", np.max(np.abs(np.subtract(*coeffs))))

    for _ in range(50):
        f = F(*rng.normal(size=4))
        g = F(*rng.normal(size=4))
        z = rng.normal(size=2)
        out.add("oscillator/bracket-fd-agreement", abs(
            oscillator.plane_bracket(f, g).value(z)
            - _oracles.plane_bracket_fd(f, g, z)))

    spec = oscillator.gaussian_spectrum(F(cx=1), np.array([2.0, 0.3]))
    tgrid = np.linspace(spec.mean - 12.0, spec.mean + 12.0, 4001)
    point = oscillator.gaussian_spectrum(F(c1=5.0), np.zeros(2))
    for dev in (abs(spec.mean - 2.0) + abs(spec.variance - 1.0),
                abs(float(np.trapezoid(spec.density(tgrid), tgrid)) - 1.0),
                abs(point.atom - 5.0), point.variance):
        out.add("oscillator/spectrum-distribution", dev)
    out.expect_raise("oscillator/quadratic-not-decomposable", NotKahlerError,
                     oscillator.gaussian_spectrum, F(cr=1.0), np.zeros(2))

    out.add("oscillator/coherent-normalization", abs(
        oscillator.coherent_state(1.0, np.zeros(2), 0.0).real
        - (2.0 * math.pi) ** (-0.25)))
    xi = np.linspace(-12.0, 12.0, 4001)
    for _ in range(20):
        z = rng.normal(size=2)
        hbar = float(rng.choice(hbars))
        psi = oscillator.coherent_state(hbar, z, xi + z[0])
        out.add("oscillator/coherent-normalization",
                abs(float(np.trapezoid(np.abs(psi) ** 2, xi + z[0])) - 1.0))
        # Psi(x + d) conj Psi(x) has phase -y d / hbar, within 1/2 of 0 for this d
        d = min(1.0, hbar / (2.0 * max(1.0, abs(z[1]))))
        psi0, psi1 = oscillator.coherent_state(hbar, z, [z[0], z[0] + d])
        out.add("oscillator/coherent-phase", abs(hbar * np.angle(psi1 * psi0.conj()) / d + z[1]))

    axis = np.linspace(-2.0, 2.0, 5)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    for hbar in hbars:
        for f in (F(c1=1), F(cx=1), F(cy=1), F(cr=1), F(0.3, -0.7, 1.1, 0.4)):
            out.add("oscillator/expectation-identity", np.max(
                _oracles.oscillator_expectation_residual(hbar, f, grid)))

    for hbar in (0.5, 1.0, 2.0):  # Q(r) is real; size 64 holds the sweep's low levels only
        levels = np.linalg.eigvalsh(oscillator.oscillator_operator(hbar, r, 64).matrix.real)[:4]
        out.add("oscillator/spectrum-ladder", np.abs(
            levels - (hbar * (np.arange(4) + 0.5) - hbar * hbar / 8.0 - 0.5)))

    for _ in range(5):
        hbar = float(rng.choice(hbars))
        f = F(*rng.normal(size=4))
        z = 0.8 * rng.normal(size=2)
        # the first doubling of 64 whose truncated state misses <= 1e-14 of its norm;
        # a state that no basis within the cap holds fails the cross-check (sample 1)
        size, need = 64, oscillator._coherent_basis(hbar, z)[2]
        while size < min(need, _MAX_HERMITE_BASIS):
            size *= 2
        op = oscillator.oscillator_operator(hbar, f, size=size)
        out.add("oscillator/operator-hermitian", np.abs(op.matrix - op.matrix.conj().T))
        c = oscillator.coherent_coefficients(hbar, z, size=size) if size >= need else None
        out.add("oscillator/operator-cross-check", 1.0 if c is None else
                abs(float(np.vdot(c, op.matrix @ c).real) - f.value(z)))


# ----- driver ---------------------------------------------------------------------


_SUITE_FUNCS = {
    "geometry": _suite_geometry,
    "dombrowski": _suite_dombrowski,
    "projective": _suite_projective,
    "spin": _suite_spin,
    "oscillator": _suite_oscillator,
}


def run_suite(suite, seed=0, hbar=None):
    """Run one named suite (or ``all``) and return its sorted report, a function of the
    arguments alone: each check has one threshold.

    ``hbar`` appends an extra value to the oscillator sweep.  A check whose sample is NaN
    or infinite raises ``NumericalError`` naming the check; the library errors of a bad
    ``hbar`` propagate as well.
    """
    if suite != "all" and suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; pick one of {SUITES + ('all',)}")
    names = SUITES if suite == "all" else (suite,)
    out = _Collector()
    seed = int(seed)
    for name in names:
        rng = np.random.default_rng(np.random.PCG64([seed, SUITES.index(name)]))
        if name == "oscillator" and hbar is not None:
            _suite_oscillator(rng, out, hbars=(0.5, 1.0, 2.0, oscillator._check_hbar(hbar)))
        elif name in _OWN_STREAMS:
            _SUITE_FUNCS[name](rng, out, np.random.default_rng(
                np.random.PCG64([seed, SUITES.index(name), _OWN_STREAMS[name]])))
        else:
            _SUITE_FUNCS[name](rng, out)
    return SuiteReport(
        suite=suite,
        seed=seed,
        generator=GENERATOR_NAME,
        checks=out.sorted_checks(),
    )
