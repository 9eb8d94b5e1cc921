"""Deterministic verification suites behind ``igk verify``.

Each suite draws every random quantity from a seeded PCG64 generator, runs a
fixed list of residual checks, and reports one line per check: an identifier,
the measured value, the threshold, and the comparison direction.  A check
reports its worst sample: the largest for ``<=``, the smallest for ``>=``.
A NaN or infinite sample raises ``NumericalError`` naming the check, since a
report cannot hold it.  Reports are sorted by identifier and are
byte-reproducible for a fixed seed.

Tolerance profiles: ``strict`` applies the design thresholds; ``fd`` relaxes
those checks that are limited by finite-difference truncation (curvature,
duality, closedness, bracket agreements, Cramér-Rao, pullbacks) by a factor
of ten, for platforms with noisier libm rounding.  The profile may also be
selected with the ``IGK_TOL_PROFILE`` environment variable.

``perturb="spin/commutator"`` deliberately corrupts one representation
matrix entry, for harnesses that need to see a failing report.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from . import PROFILES, SUITES, geometry, oscillator, projective, spin, tangent_bundle
from .errors import (
    DomainError,
    NotKahlerError,
    NumericalError,
    UndefinedProjectionError,
)
from .families import BUILTIN_FAMILIES, FINITE_NORM_TOL, REAL_LINE_NORM_TOL, family
from .numerics import central_difference, relative_steps, stencil
from .specfile import family_from_dict

__all__ = [
    "CheckResult",
    "SuiteReport",
    "SUITES",
    "PROFILES",
    "GENERATOR_NAME",
    "resolve_profile",
    "run_suite",
]

GENERATOR_NAME = "numpy-pcg64"
_FD_RELAX = 10.0
_MAX_HERMITE_BASIS = 512  # largest basis of operator-cross-check: 4 MB per matrix

_PERTURB_KEYS = ("spin/commutator",)


@dataclass(frozen=True)
class CheckResult:
    """One verification line: id, measured value, threshold, direction."""

    check_id: str
    value: float
    threshold: float
    comparator: str  # "<=" or ">="

    @property
    def passed(self):
        if self.comparator == "<=":
            return bool(self.value <= self.threshold)
        return bool(self.value >= self.threshold)


@dataclass(frozen=True)
class SuiteReport:
    """A suite's sorted check list plus the provenance of its randomness."""

    suite: str
    seed: int
    generator: str
    profile: str
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def resolve_profile(profile=None):
    """Profile from the argument, else IGK_TOL_PROFILE, else strict."""
    if profile is None:
        profile = os.environ.get("IGK_TOL_PROFILE", "strict")
    if profile not in PROFILES:
        raise DomainError(
            f"unknown tolerance profile {profile!r}; pick one of {PROFILES}"
        )
    return profile


class _Collector:
    """Each check's worst sample: the largest for ``<=``, the smallest for
    ``>=``.  A check's first sample fixes its threshold and comparator."""

    def __init__(self, profile):
        self.profile = profile
        self.checks = {}

    def add(self, check_id, value, threshold, comparator="<=", fd_limited=False):
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
            if fd_limited and self.profile == "fd" and comparator == "<=":
                threshold = threshold * _FD_RELAX
            self.checks[check_id] = CheckResult(
                check_id, value, float(threshold), comparator)
        elif (value > old.value) if old.comparator == "<=" else (value < old.value):
            self.checks[check_id] = dataclasses.replace(old, value=value)

    def expect_raise(self, check_id, error, fun, *args):
        """Flag check: 1.0 when ``fun(*args)`` raises ``error``, else 0.0."""
        try:
            fun(*args)
        except error:
            raised = True
        else:
            raised = False
        self.add(check_id, 1.0 if raised else 0.0, 0.5, ">=")

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


def _amari_curvature(h, T, alpha):
    """Lowered alpha-curvature of an exponential family in the natural chart.

    R_ijkl = (1 - alpha^2)/4 h^mn (T_ikm T_jln - T_ilm T_jkn)  (Amari &
    Nagaoka, Methods of Information Geometry, ch. 2-3).
    """
    hinv = np.linalg.inv(h)
    return 0.25 * (1.0 - alpha * alpha) * (
        np.einsum("...mn,...ikm,...jln->...ijkl", hinv, T, T)
        - np.einsum("...mn,...ilm,...jkn->...ijkl", hinv, T, T))


def _suite_geometry(rng, out):
    fams = [family(name) for name in BUILTIN_FAMILIES]
    fams.append(_user_finite_family())
    fams.append(_user_real_family())
    for fam in fams:
        grid = geometry.theta_grid(fam)
        # one moment table over the whole grid, and one independent route
        _, w, F = fam._support(grid)
        eta_w, h_emp, T = fam._moments(F, w)
        if fam.cumulants is not None:
            # the closed-form hook against the finite-sum or quadrature table
            eta, h_ref, T_ref = fam.cumulants(grid, 3)
            out.add(f"geometry/third-cumulant-agreement/{fam.name}",
                    np.max(np.abs(T_ref - T)), 1e-7)
            theta_back = fam.expectation_to_natural(eta)
        else:
            # spec families read the table in production; FD of psi checks it
            steps = relative_steps(grid, 1e-5)
            eta = central_difference(fam._psi(stencil(grid, steps)), steps).T
            # h by the central difference of the central difference of psi
            outer = relative_steps(grid, 1e-4)
            rows = stencil(grid, outer)
            inner = relative_steps(rows, 1e-4)
            grad = central_difference(fam._psi(stencil(rows, inner)), inner)
            h_ref = np.moveaxis(central_difference(grad.T, outer), 1, 0)
            theta_back = fam.expectation_to_natural(eta_w)
        g0 = geometry._christoffel(h_emp, T, 0.0, "natural")
        norm_tol = FINITE_NORM_TOL if fam.is_finite else REAL_LINE_NORM_TOL
        out.add(f"geometry/normalization/{fam.name}",
                np.max(np.abs(w.sum(axis=1) - 1.0)), norm_tol)
        out.add(f"geometry/metric-agreement/{fam.name}",
                np.max(np.abs(h_emp - h_ref)), 1e-7)
        out.add(f"geometry/metric-spd/{fam.name}",
                np.min(np.linalg.eigvalsh(h_emp)[:, 0]), 1e-12, ">=")
        out.add(f"geometry/mean-map-agreement/{fam.name}",
                np.max(np.abs(eta - eta_w)), 1e-7)
        out.add(f"geometry/chart-roundtrip/{fam.name}",
                np.max(np.abs(theta_back - grid)), 1e-8)
        out.add(f"geometry/e-flat-natural/{fam.name}", np.max(np.abs(
            geometry._christoffel(h_emp, T, 1.0, "natural"))), 1e-10)
        out.add(f"geometry/m-flat-expectation/{fam.name}", np.max(np.abs(
            geometry._christoffel(h_emp, T, -1.0, "expectation"))), 1e-10)
        out.add(f"geometry/christoffel-symmetric/{fam.name}",
                np.max(np.abs(g0 - np.swapaxes(g0, 1, 2))), 1e-12)
        out.add(f"geometry/statistic-independence/{fam.name}",
                fam.statistic_independence_margin(), 1e-12, ">=")
        # FD-heavy checks on a seeded subsample of the grid, as one stack:
        # one curvature stencil and one metric stencil serve every alpha
        picks = grid[rng.choice(len(grid), size=min(4, len(grid)), replace=False)]
        r1, rm1, r0, rhalf = geometry._curvatures(fam, picks, (1.0, -1.0, 0.0, 0.5))
        out.add(f"geometry/curvature-flat/{fam.name}", np.abs([r1, rm1]), 1e-5,
                fd_limited=True)
        _, h, T = fam.moment_tensors(picks)
        duality = geometry._duality_residuals(fam, picks, h, T, (0.0, 0.5, 1.0))
        out.add(f"geometry/duality/{fam.name}", duality[:, :, 0], 1e-5, fd_limited=True)
        out.add(f"geometry/duality-expectation/{fam.name}", duality[:, :2, 1], 1e-5,
                fd_limited=True)
        # alpha = 0 is its own dual: R^(-0) is R^(0) to the bit
        for Ra, Rb in ((r0, r0), (r1, rm1)):
            out.add(f"geometry/skew-duality/{fam.name}",
                    geometry._skew_residual(Ra, Rb, h), 2e-4, fd_limited=True)
        for alpha, R in ((0.0, r0), (0.5, rhalf)):
            out.add(f"geometry/curvature-analytic-vs-fd/{fam.name}",
                    np.abs(np.einsum("...ijkm,...ml->...ijkl", R, h)
                           - _amari_curvature(h, T, alpha)), 1e-5, fd_limited=True)
        if fam.cumulants is not None:
            out.add(f"geometry/cross-duality/{fam.name}",
                    geometry.cross_duality_residual(fam, picks), 1e-7, fd_limited=True)


# ----- dombrowski (tangent bundle) ---------------------------------------------


def _suite_dombrowski(rng, out):
    for fam in (family(name) for name in BUILTIN_FAMILIES):
        n = fam.dim
        lo = np.asarray(fam.sample_box.lo)
        hi = np.asarray(fam.sample_box.hi)
        # the same draws as 100 single rng.uniform(lo, hi) calls
        s = tangent_bundle.kahler_structure_at(fam, rng.uniform(lo, hi, size=(100, n)))
        J, G, Om = s.complex_structure, s.metric, s.omega
        for dev in (J @ J + np.eye(2 * n), Om - J.T @ G, G - J.T @ G @ J):
            out.add(f"dombrowski/structure-identities/{fam.name}",
                    np.max(np.abs(dev)), 1e-12)
        out.add(f"dombrowski/base-block/{fam.name}",
                np.max(np.abs(G[:, :n, :n] - s.base_metric)), 0.0)

        for _ in range(5):
            out.add(f"dombrowski/omega-closed/{fam.name}",
                    tangent_bundle.omega_closedness_residual(fam, rng.uniform(lo, hi)),
                    1e-6, fd_limited=True)

        # linear observables: constant gradient, exact flow isometry,
        # commuting lifts
        obs_a = tangent_bundle.LinearObservable(rng.normal(),
                                                tuple(rng.normal(size=n)))
        obs_b = tangent_bundle.LinearObservable(rng.normal(),
                                                tuple(rng.normal(size=n)))
        for _ in range(3):
            th = rng.uniform(lo, hi)
            fiber = rng.normal(size=n)
            pt = tangent_bundle.TangentBundlePoint(tuple(th), tuple(fiber))
            ga = tangent_bundle.kahler_gradient_field(fam, obs_a, th)
            gfd = tangent_bundle.metric_gradient_fd(
                fam, lambda t: obs_a.base_value(fam, t), th
            )
            out.add(f"dombrowski/gradient-cross-check/{fam.name}",
                    np.max(np.abs(ga - gfd)), 1e-6, fd_limited=True)
            for t in (0.5, 2.0):
                out.add(f"dombrowski/flow-isometry/{fam.name}",
                        tangent_bundle.flow_isometry_residual(fam, obs_a, pt, t), 1e-8)
            p1 = tangent_bundle.hamiltonian_flow_step(fam, obs_a, pt, 0.7)
            p2 = tangent_bundle.hamiltonian_flow_step(fam, obs_a, p1, 0.3)
            p12 = tangent_bundle.hamiltonian_flow_step(fam, obs_a, pt, 1.0)
            for dev in (p2.fiber_array - p12.fiber_array, p2.base_array - pt.base_array):
                out.add(f"dombrowski/flow-additive/{fam.name}",
                        np.max(np.abs(dev)), 1e-12)
            out.add(f"dombrowski/poisson-commute/{fam.name}",
                    abs(tangent_bundle.poisson_bracket_linear(fam, obs_a, obs_b, th)),
                    1e-12)

        # The quadratic-observable rejection is only meaningful when the
        # constant plus the statistics span a proper subspace of functions on
        # the points; on categorical:n they span everything, so x**2 really is
        # affine there and nothing should be rejected.
        if fam.is_finite and fam.space.size > fam.dim + 1:
            quad = lambda v: np.asarray(v, float) ** 2  # noqa: E731
            out.expect_raise(f"dombrowski/non-affine-rejected/{fam.name}",
                             NotKahlerError, tangent_bundle.linear_observable, fam, quad)
            th = rng.uniform(lo, hi)
            pt = tangent_bundle.TangentBundlePoint(
                tuple(th), tuple(rng.normal(size=n)))
            out.add(
                f"dombrowski/non-affine-isometry-defect/{fam.name}",
                tangent_bundle.flow_isometry_residual(fam, quad, pt, 1.0),
                1e-3,
                ">=",
            )


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
    for _ in range(20):
        m = int(rng.integers(3, 7))
        p = rng.dirichlet(np.full(m, 3.0))
        u = rng.normal(size=m)
        u -= p @ u
        z = projective.tau(p, u)
        out.add("projective/pi-tau-roundtrip",
                np.max(np.abs(projective.pi_projection(z) - p)), 1e-14)
        shift = rng.integers(-2, 3, size=m)
        z2 = projective.tau(p, projective.deck_shift(p, u, shift))
        out.add("projective/deck-invariance",
                1.0 - abs(np.vdot(z.homogeneous, z2.homogeneous)), 1e-12)

    for size in (3, 4):
        draws = []
        for _ in range(20):
            p = rng.dirichlet(np.full(size, 3.0))
            u = rng.normal(size=size)
            u -= p @ u
            # p, u, then the tangent vectors va, wa, vb, wb
            draws.append([p, u] + [rng.normal(size=size) for _ in range(4)])
        p, u, va, wa, vb, wb = np.stack(draws, axis=1)
        res_g, res_o = projective.pullback_scaling_check(
            family(f"categorical:{size}"), p, u, (va, wa), (vb, wb))
        out.add(f"projective/pullback-metric/categorical:{size}", np.max(res_g),
                1e-5, fd_limited=True)
        out.add(f"projective/pullback-omega/categorical:{size}", np.max(res_o),
                1e-5, fd_limited=True)

    draws = []
    for _ in range(20):
        m = int(rng.integers(2, 6))
        A = 1j * _random_hermitian(rng, m)
        B = 1j * _random_hermitian(rng, m)
        draws.append((m, A, B, _random_ray(rng, m)))
    for _, (A, B, z) in _groups(draws):
        out.add("projective/comomentum-morphism",
                projective.lie_morphism_residual(A, B, z), 1e-6, fd_limited=True)

    # a draw whose picked level has probability < 1e-6 gives no cosine sample
    out.add("projective/cosine-square-law", 0.0, 1e-10)
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
            obs.value(z) - np.vecdot(unit, projective._apply(H, unit)).real), 1e-10)
        ra = projective.spectrum_and_probabilities(obs, z)
        rb = projective.spectrum_and_probabilities(projective.KahlerObservableCP(
            X[rows[:, None], perm], obs.frame[rows[:, None], perm]), z)
        for dev in (ra.levels - rb.levels, ra.probabilities - rb.probabilities):
            out.add("projective/spectrum-shuffle-invariance", np.abs(dev), 1e-10)
        rc = projective.spectrum_and_probabilities(obs, 3.7 * phase[:, None] * unit)
        # total mass, a negative probability, and invariance under scaling
        for dev in (np.abs(ra.probabilities.sum(axis=1) - 1.0),
                    -np.min(ra.probabilities, axis=1),
                    np.abs(rc.probabilities - ra.probabilities)):
            out.add("projective/probability-axioms", dev, 1e-10)
        out.add("projective/cramer-rao-random", projective.cramer_rao_residual(obs, z),
                1e-5, fd_limited=True)
        out.add("projective/cramer-rao-eigenpoint",
                projective.cramer_rao_residual(obs, eig_ray), 1e-8)
        A = -2.0j * obs.hermitian_matrix()  # xi_{-2iH} = <z, H z> / <z, z>
        grad = projective.fd_chart_gradient(
            lambda w2: projective.xi_value(A, w2, check=False), eig_ray)
        out.add("projective/critical-gradient", np.abs(grad), 1e-6, fd_limited=True)
        prob = ra.probabilities[rows, idx]
        keep = prob >= 1e-6
        if keep.any():
            _, dist = projective.eigenmanifold_projection(projective.KahlerObservableCP(
                X[keep], obs.frame[keep]), ra.levels[rows, idx][keep], z[keep])
            out.add("projective/cosine-square-law",
                    np.abs(np.cos(dist) ** 2 - prob[keep]), 1e-10)

    out.expect_raise("projective/orthogonal-projection-rejected",
                     UndefinedProjectionError, projective.eigenmanifold_projection,
                     projective.KahlerObservableCP([0.0, 1.0], np.eye(2)), 1.0,
                     projective.ProjectivePoint([1, 0]))


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


def _suite_spin(rng, out, perturb=None):
    angles = (0.0, math.pi / 6, math.pi / 3, math.pi / 2, math.pi)
    s = np.array([[math.cos(t), math.sin(t), 0.0] for t in angles])
    for n in (1, 2, 3, 10):
        probs = spin.pi_sphere(n, s)
        out.add("spin/spin-law", np.abs(probs - [spin.spin_law(n, t) for t in angles]),
                1e-12)
        out.add("spin/spin-law-normalized", np.abs(probs.sum(axis=1) - 1.0), 1e-12)
    out.add("spin/poles-exact", np.abs(
        spin.pi_sphere(4, [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]) - np.eye(5)[[4, 0]]), 0.0)

    draws = []
    for _ in range(50):
        n = int(rng.integers(1, 11))
        th = float(rng.uniform(-3, 3))
        draws.append((n, th, spin.sphere_from_tangent(th, float(rng.uniform(-8, 8)))))
    for n, (th, s) in _groups(draws):
        want = family(f"binomial:{n}").probabilities(th[:, None])
        out.add("spin/sphere-binomial-consistency", np.abs(spin.pi_sphere(n, s) - want),
                1e-12)

    draws = []
    for _ in range(100):
        n = int(rng.integers(1, 6))
        f = spin.SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
        g = spin.SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
        draws.append((n, f, g, _random_sphere_point(rng)))
    for n, (fs, gs, ss) in _groups(draws):
        bump = 1e-3 if (perturb == "spin/commutator" and n == draws[0][0]) else 0.0
        out.add("spin/commutator",
                np.max(spin.commutator_residual(n, fs, gs, perturb=bump)), 1e-8)
        out.add("spin/expectation-identity",
                np.max(spin.expectation_identity_residual(n, fs, ss)), 1e-10)

    for n in range(1, 6):
        out.add("spin/su2-closure", spin.su2_closure_residual(n), 1e-8)
        C = spin.casimir_matrix(n)
        out.add("spin/casimir-scalar", np.max(np.abs(C - C[0, 0] * np.eye(n + 1))),
                1e-8)

    draws = []
    for _ in range(20):
        n = int(rng.integers(1, 6))
        f = spin.SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
        g = spin.SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
        s = _random_sphere_point(rng, away_from_poles=True)
        draws.append((n, f, g, s, _random_ray(rng, n + 1)))
    for n, (fs, gs, ss, zs) in _groups(draws):
        brackets = [spin.sphere_bracket(n, f, g) for f, g in zip(fs, gs)]
        u0, vec = spin._coefficients(brackets)
        out.add("spin/bracket-fd-agreement", np.abs(u0 + np.vecdot(vec, ss)
                - spin.sphere_bracket_fd(n, fs, gs, ss)), 1e-6, fd_limited=True)
        out.add("spin/hat-scaling", spin.hat_scaling_residual(n, fs, gs, zs), 1e-6,
                fd_limited=True)

    draws = [(int(rng.integers(1, 8)), _random_sphere_point(rng)) for _ in range(20)]
    for n, (s,) in _groups(draws):
        out.add("spin/state-projects-to-binomial", np.abs(np.abs(spin.psi_embedding(
            n, *spin.sphere_point_angles(s))) ** 2 - spin.pi_sphere(n, s)), 1e-12)

    for _ in range(10):
        n = int(rng.integers(1, 6))
        f = spin.SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
        R = _random_rotation(rng)
        f_rot = spin.SphereFunction(f.u0, tuple(R @ np.asarray(f.vec)))
        for dev in (spin.spin_spectrum(n, f) - spin.spin_spectrum(n, f_rot),
                    np.linalg.eigvalsh(spin.q_matrix(n, f))
                    - np.linalg.eigvalsh(spin.q_matrix(n, f_rot))):
            out.add("spin/rotation-invariance", np.max(np.abs(dev)), 1e-10)
        dec = spin.decompose_sphere_function(n, f)
        flipped = spin.SphereFunction(f.u0, tuple(-np.asarray(f.vec)))
        dec2 = spin.decompose_sphere_function(n, flipped)
        for dev in (dec.alpha - dec2.alpha, dec.beta - dec2.beta,
                    np.asarray(dec.axis) + np.asarray(dec2.axis)):
            out.add("spin/axis-flip-invariance", np.max(np.abs(dev)), 1e-12)

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
        out.add("spin/stern-gerlach", np.max(np.abs(probs - np.asarray(want))), 1e-10)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        f1 = spin.SphereFunction(0.0, tuple(rng.normal(size=3)))
        f2 = spin.SphereFunction(0.0, tuple(rng.normal(size=3)))
        probs = spin.stern_gerlach_transition(n, f1, int(rng.integers(0, n + 1)), f2)
        out.add("spin/stern-gerlach", abs(float(probs.sum()) - 1.0), 1e-10)
        # max-spin state along f1's axis: agrees with the state-point law
        dec1 = spin.decompose_sphere_function(n, f1)
        probs_max = spin.stern_gerlach_transition(n, f1, n, f2)
        law = spin.spin_probabilities(n, f2, np.asarray(dec1.axis))
        out.add("spin/stern-gerlach", np.max(np.abs(probs_max - law)), 1e-10)


# ----- oscillator ----------------------------------------------------------------


def _suite_oscillator(rng, out, hbars=(0.5, 1.0, 2.0)):
    F = oscillator.PlaneKahlerFunction
    P = oscillator.PlanePoint

    x, y, r = F(cx=1), F(cy=1), F(cr=1)
    for f, g, want in (
        (x, y, F(c1=1)),
        (x, r, F(cy=1)),
        (y, r, F(cx=-1)),
        (F(c1=1), r, F()),
    ):
        got = oscillator.plane_bracket(f, g)
        out.add("oscillator/bracket-table", np.max(np.abs(
            np.subtract(dataclasses.astuple(got), dataclasses.astuple(want)))), 1e-12)

    for _ in range(50):
        f = F(*rng.normal(size=4))
        g = F(*rng.normal(size=4))
        z = P(*rng.normal(size=2))
        out.add("oscillator/bracket-fd-agreement", abs(
            oscillator.plane_bracket(f, g).value(z)
            - oscillator.plane_bracket_fd(f, g, z)), 1e-6, fd_limited=True)

    spec = oscillator.gaussian_spectrum(F(cx=1), P(2.0, 0.3))
    tgrid = np.linspace(spec.mean - 12.0, spec.mean + 12.0, 4001)
    point = oscillator.gaussian_spectrum(F(c1=5.0), P(0.0, 0.0))
    for dev in (abs(spec.mean - 2.0) + abs(spec.variance - 1.0),
                abs(float(np.trapezoid(spec.density(tgrid), tgrid)) - 1.0),
                abs(point.atom - 5.0), point.variance):
        out.add("oscillator/spectrum-distribution", dev, 1e-8)
    out.expect_raise("oscillator/quadratic-not-decomposable", NotKahlerError,
                     oscillator.gaussian_spectrum, F(cr=1.0), P(0.0, 0.0))

    out.add("oscillator/coherent-normalization", abs(
        oscillator.coherent_state(1.0, P(0.0, 0.0), 0.0).real
        - (2.0 * math.pi) ** (-0.25)), 1e-8)
    xi = np.linspace(-12.0, 12.0, 4001)
    for _ in range(20):
        z = P(*rng.normal(size=2))
        hbar = float(rng.choice(hbars))
        psi = oscillator.coherent_state(hbar, z, xi + z.x)
        out.add("oscillator/coherent-normalization",
                abs(float(np.trapezoid(np.abs(psi) ** 2, xi + z.x)) - 1.0), 1e-8)

    axis = np.linspace(-2.0, 2.0, 5)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    for hbar in hbars:
        for f in (F(c1=1), F(cx=1), F(cy=1), F(cr=1), F(0.3, -0.7, 1.1, 0.4)):
            out.add("oscillator/expectation-identity", np.max(
                oscillator.oscillator_expectation_residual(hbar, f, grid)), 1e-7)

    for _ in range(5):
        hbar = float(rng.choice(hbars))
        f = F(*rng.normal(size=4))
        z = P(*(0.8 * rng.normal(size=2)))
        # double the basis until the truncated state misses <= 1e-14 of its norm
        size = 64
        c = oscillator.coherent_coefficients(hbar, z, size=size)
        while 1.0 - np.vdot(c, c).real > 1e-14 and size < _MAX_HERMITE_BASIS:
            size *= 2
            c = oscillator.coherent_coefficients(hbar, z, size=size)
        op = oscillator.oscillator_operator(hbar, f, size=size)
        out.add("oscillator/operator-hermitian", op.hermiticity_defect(), 1e-10)
        out.add("oscillator/operator-cross-check",
                abs(float(np.vdot(c, op.matrix @ c).real) - f.value(z)), 1e-6)


# ----- driver ---------------------------------------------------------------------


_SUITE_FUNCS = {
    "geometry": _suite_geometry,
    "dombrowski": _suite_dombrowski,
    "projective": _suite_projective,
    "spin": _suite_spin,
    "oscillator": _suite_oscillator,
}


def run_suite(suite, seed=0, profile=None, perturb=None, hbar=None):
    """Run one named suite (or ``all``) and return its sorted report.

    ``perturb`` must be ``None`` or one of the documented corruption hooks;
    ``hbar`` appends an extra value to the oscillator sweep.  A check whose
    sample is NaN or infinite raises ``NumericalError`` naming the check; the
    library errors of a bad ``hbar`` propagate as well.
    """
    if suite != "all" and suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; pick one of {SUITES + ('all',)}")
    if perturb is not None and perturb not in _PERTURB_KEYS:
        raise DomainError(
            f"unknown perturbation {perturb!r}; available: {_PERTURB_KEYS}"
        )
    profile = resolve_profile(profile)
    names = SUITES if suite == "all" else (suite,)
    out = _Collector(profile)
    seed = int(seed)
    for name in names:
        rng = np.random.default_rng(
            np.random.PCG64([seed, SUITES.index(name)])
        )
        kwargs = {}
        if name == "spin":
            kwargs["perturb"] = perturb
        if name == "oscillator" and hbar is not None:
            kwargs["hbars"] = (0.5, 1.0, 2.0, float(hbar))
        _SUITE_FUNCS[name](rng, out, **kwargs)
    return SuiteReport(
        suite=suite,
        seed=seed,
        generator=GENERATOR_NAME,
        profile=profile,
        checks=out.sorted_checks(),
    )
