"""Deterministic verification suites behind ``igk verify``.

Each suite draws every random quantity from a seeded PCG64 generator, runs a
fixed list of residual checks, and reports one line per check: an identifier,
the measured value, the threshold, and the comparison direction.  Reports are
sorted by identifier and are byte-reproducible for a fixed seed.

Tolerance profiles: ``strict`` applies the design thresholds; ``fd`` relaxes
those checks that are limited by finite-difference truncation (curvature,
duality, closedness, bracket agreements, Cramér-Rao, pullbacks) by a factor
of ten, for platforms with noisier libm rounding.  The profile may also be
selected with the ``IGK_TOL_PROFILE`` environment variable.

``perturb="spin/commutator"`` deliberately corrupts one representation
matrix entry, for harnesses that need to see a failing report.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import geometry, oscillator, projective, spin, tangent_bundle
from .errors import (
    DomainError,
    NotKahlerError,
    UndefinedProjectionError,
)
from .families import FINITE_NORM_TOL, REAL_LINE_NORM_TOL, family
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

SUITES = ("geometry", "dombrowski", "projective", "spin", "oscillator")
PROFILES = ("strict", "fd")
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
    def __init__(self, profile):
        self.profile = profile
        self.checks = []

    def add(self, check_id, value, threshold, comparator="<=", fd_limited=False):
        if fd_limited and self.profile == "fd" and comparator == "<=":
            threshold = threshold * _FD_RELAX
        self.checks.append(
            CheckResult(check_id, float(value), float(threshold), comparator)
        )

    def flag(self, check_id, ok):
        self.add(check_id, 1.0 if ok else 0.0, 0.5, comparator=">=")

    def sorted_checks(self):
        return tuple(sorted(self.checks, key=lambda c: c.check_id))


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
        np.einsum("mn,ikm,jln->ijkl", hinv, T, T)
        - np.einsum("mn,ilm,jkn->ijkl", hinv, T, T))


def _suite_geometry(rng, out):
    fams = [family(name) for name in
            ("categorical:3", "binomial:3", "normal", "normal_fixed_sigma")]
    fams.append(_user_finite_family())
    fams.append(_user_real_family())
    for fam in fams:
        grid = geometry.theta_grid(fam)
        # one moment table over the whole grid; the Newton round trip is per theta
        _, w, F = fam._support(grid)
        norm_dev = float(np.max(np.abs(w.sum(axis=1) - 1.0)))
        eta_w, h_emp, T = fam._moments(F, w)
        h_ref = np.stack([fam.log_partition_hessian(th) for th in grid])
        agree = float(np.max(np.abs(h_emp - h_ref)))
        spd_min = float(np.min(np.linalg.eigvalsh(h_emp)[:, 0]))
        eta = np.stack([fam.natural_to_expectation(th) for th in grid])
        eta_dev = float(np.max(np.abs(eta - eta_w)))
        roundtrip = max(float(np.max(np.abs(fam.expectation_to_natural(e) - th)))
                        for e, th in zip(eta, grid))
        e_flat = float(np.max(np.abs(geometry._christoffel(h_emp, T, 1.0, "natural"))))
        m_flat = float(np.max(np.abs(
            geometry._christoffel(h_emp, T, -1.0, "expectation"))))
        g0 = geometry._christoffel(h_emp, T, 0.0, "natural")
        sym_dev = float(np.max(np.abs(g0 - np.swapaxes(g0, 1, 2))))
        norm_tol = FINITE_NORM_TOL if fam.is_finite else REAL_LINE_NORM_TOL
        out.add(f"geometry/normalization/{fam.name}", norm_dev, norm_tol)
        out.add(f"geometry/metric-agreement/{fam.name}", agree, 1e-7)
        if fam.cumulants is not None:
            # the closed-form hook against the finite-sum or quadrature table;
            # its eta and h meet the table in mean-map- and metric-agreement
            out.add(f"geometry/third-cumulant-agreement/{fam.name}",
                    float(np.max(np.abs(fam.cumulants(grid, 3)[2] - T))), 1e-7)
        out.add(f"geometry/metric-spd/{fam.name}", spd_min, 1e-12, ">=")
        out.add(f"geometry/mean-map-agreement/{fam.name}", eta_dev, 1e-7)
        out.add(f"geometry/chart-roundtrip/{fam.name}", roundtrip, 1e-8)
        out.add(f"geometry/e-flat-natural/{fam.name}", e_flat, 1e-10)
        out.add(f"geometry/m-flat-expectation/{fam.name}", m_flat, 1e-10)
        out.add(f"geometry/christoffel-symmetric/{fam.name}", sym_dev, 1e-12)
        out.add(
            f"geometry/statistic-independence/{fam.name}",
            fam.statistic_independence_margin(),
            1e-12,
            ">=",
        )
        # FD-heavy checks on a seeded subsample of the grid
        picks = grid[rng.choice(len(grid), size=min(4, len(grid)), replace=False)]
        curv = 0.0
        dual = 0.0
        dual_e = 0.0
        skew = 0.0
        cross = 0.0
        analytic = 0.0
        for th in picks:
            # one curvature stencil and one metric stencil serve every alpha
            r1, rm1, r0, rhalf = geometry._curvatures(fam, th, (1.0, -1.0, 0.0, 0.5))
            curv = max(curv, float(np.max(np.abs(r1))), float(np.max(np.abs(rm1))))
            _, h, T = fam.moment_tensors(th)
            duality = geometry._duality_residuals(fam, th, h, T, (0.0, 0.5, 1.0))
            dual = max(dual, *duality[:, 0])
            dual_e = max(dual_e, *duality[:2, 1])
            # alpha = 0 is its own dual: R^(-0) is R^(0) to the bit
            skew = max(skew, geometry._skew_residual(r0, r0, h),
                       geometry._skew_residual(r1, rm1, h))
            for alpha, R in ((0.0, r0), (0.5, rhalf)):
                analytic = max(analytic, float(np.max(np.abs(
                    np.einsum("ijkm,ml->ijkl", R, h)
                    - _amari_curvature(h, T, alpha)))))
            if fam.cumulants is not None:
                cross = max(cross, geometry.cross_duality_residual(fam, th))
        out.add(f"geometry/curvature-flat/{fam.name}", curv, 1e-5, fd_limited=True)
        out.add(f"geometry/duality/{fam.name}", dual, 1e-5, fd_limited=True)
        out.add(f"geometry/duality-expectation/{fam.name}", dual_e, 1e-5,
                fd_limited=True)
        out.add(f"geometry/skew-duality/{fam.name}", skew, 2e-4, fd_limited=True)
        out.add(f"geometry/curvature-analytic-vs-fd/{fam.name}", analytic, 1e-5,
                fd_limited=True)
        if fam.cumulants is not None:
            out.add(f"geometry/cross-duality/{fam.name}", cross, 1e-7,
                    fd_limited=True)


# ----- dombrowski (tangent bundle) ---------------------------------------------


def _suite_dombrowski(rng, out):
    fams = [family(name) for name in
            ("categorical:3", "binomial:3", "normal", "normal_fixed_sigma")]
    for fam in fams:
        n = fam.dim
        lo = np.asarray(fam.sample_box.lo)
        hi = np.asarray(fam.sample_box.hi)
        # the same draws as 100 single rng.uniform(lo, hi) calls
        s = tangent_bundle.kahler_structure_at(fam, rng.uniform(lo, hi, size=(100, n)))
        J, G, Om = s.complex_structure, s.metric, s.omega
        struct_dev = max(
            float(np.max(np.abs(J @ J + np.eye(2 * n)))),
            float(np.max(np.abs(Om - J.T @ G))),
            float(np.max(np.abs(G - J.T @ G @ J))),
        )
        base_dev = float(np.max(np.abs(G[:, :n, :n] - s.base_metric)))
        out.add(f"dombrowski/structure-identities/{fam.name}", struct_dev, 1e-12)
        out.add(f"dombrowski/base-block/{fam.name}", base_dev, 0.0)

        closed = 0.0
        for _ in range(5):
            th = rng.uniform(lo, hi)
            closed = max(closed, tangent_bundle.omega_closedness_residual(fam, th))
        out.add(f"dombrowski/omega-closed/{fam.name}", closed, 1e-6,
                fd_limited=True)

        # linear observables: constant gradient, exact flow isometry,
        # commuting lifts
        obs_a = tangent_bundle.LinearObservable(rng.normal(),
                                                tuple(rng.normal(size=n)))
        obs_b = tangent_bundle.LinearObservable(rng.normal(),
                                                tuple(rng.normal(size=n)))
        grad_dev = 0.0
        iso = 0.0
        addv = 0.0
        comm = 0.0
        for _ in range(3):
            th = rng.uniform(lo, hi)
            fiber = rng.normal(size=n)
            pt = tangent_bundle.TangentBundlePoint(tuple(th), tuple(fiber))
            ga = tangent_bundle.kahler_gradient_field(fam, obs_a, th)
            gfd = tangent_bundle.metric_gradient_fd(
                fam, lambda t: obs_a.base_value(fam, t), th
            )
            grad_dev = max(grad_dev, float(np.max(np.abs(ga - gfd))))
            for t in (0.5, 2.0):
                iso = max(iso, tangent_bundle.flow_isometry_residual(
                    fam, obs_a, pt, t))
            p1 = tangent_bundle.hamiltonian_flow_step(fam, obs_a, pt, 0.7)
            p2 = tangent_bundle.hamiltonian_flow_step(fam, obs_a, p1, 0.3)
            p12 = tangent_bundle.hamiltonian_flow_step(fam, obs_a, pt, 1.0)
            addv = max(
                addv,
                float(np.max(np.abs(p2.fiber_array - p12.fiber_array))),
                float(np.max(np.abs(p2.base_array - pt.base_array))),
            )
            comm = max(comm, abs(tangent_bundle.poisson_bracket_linear(
                fam, obs_a, obs_b, th)))
        out.add(f"dombrowski/gradient-cross-check/{fam.name}", grad_dev, 1e-6,
                fd_limited=True)
        out.add(f"dombrowski/flow-isometry/{fam.name}", iso, 1e-8)
        out.add(f"dombrowski/flow-additive/{fam.name}", addv, 1e-12)
        out.add(f"dombrowski/poisson-commute/{fam.name}", comm, 1e-12)

        # The quadratic-observable rejection is only meaningful when the
        # constant plus the statistics span a proper subspace of functions on
        # the points; on categorical:n they span everything, so x**2 really is
        # affine there and nothing should be rejected.
        if fam.is_finite and fam.space.size > fam.dim + 1:
            quad = lambda v: np.asarray(v, float) ** 2  # noqa: E731
            raised = False
            try:
                tangent_bundle.linear_observable(fam, quad)
            except NotKahlerError:
                raised = True
            out.flag(f"dombrowski/non-affine-rejected/{fam.name}", raised)
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


def _random_ray(rng, m):
    return projective.ProjectivePoint(rng.normal(size=m) + 1j * rng.normal(size=m))


def _random_hermitian(rng, m):
    M = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return 0.5 * (M + M.conj().T)


def _suite_projective(rng, out):
    roundtrip = 0.0
    deck = 0.0
    for _ in range(20):
        m = int(rng.integers(3, 7))
        p = rng.dirichlet(np.full(m, 3.0))
        u = rng.normal(size=m)
        u -= p @ u
        z = projective.tau(p, u)
        roundtrip = max(roundtrip, float(np.max(np.abs(
            projective.pi_projection(z) - p))))
        shift = rng.integers(-2, 3, size=m)
        z2 = projective.tau(p, projective.deck_shift(p, u, shift))
        deck = max(deck, 1.0 - abs(np.vdot(z.homogeneous, z2.homogeneous)))
    out.add("projective/pi-tau-roundtrip", roundtrip, 1e-14)
    out.add("projective/deck-invariance", deck, 1e-12)

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

    morphism = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 6))
        A = 1j * _random_hermitian(rng, m)
        B = 1j * _random_hermitian(rng, m)
        morphism = max(morphism, projective.lie_morphism_residual(
            A, B, _random_ray(rng, m)))
    out.add("projective/comomentum-morphism", morphism, 1e-6, fd_limited=True)

    consistency = 0.0
    shuffle_dev = 0.0
    cr = 0.0
    cr_eig = 0.0
    cos2 = 0.0
    axioms = 0.0
    critical = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 7))
        H = _random_hermitian(rng, m)
        obs = projective.observable_from_hermitian(H)
        z = _random_ray(rng, m)
        consistency = max(consistency, abs(
            obs.value(z)
            - float(np.vdot(z.homogeneous, H @ z.homogeneous).real)))
        perm = rng.permutation(m)
        shuffled = projective.KahlerObservableCP(
            obs.eigenvalues[perm], obs.frame[perm])
        ra = projective.spectrum_and_probabilities(obs, z)
        rb = projective.spectrum_and_probabilities(shuffled, z)
        shuffle_dev = max(
            shuffle_dev,
            float(np.max(np.abs(ra.levels - rb.levels))),
            float(np.max(np.abs(ra.probabilities - rb.probabilities))),
        )
        axioms = max(
            axioms,
            abs(float(ra.probabilities.sum()) - 1.0),
            float(-min(0.0, float(ra.probabilities.min()))),
        )
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        scaled = projective.ProjectivePoint(3.7 * phase * z.homogeneous)
        rc = projective.spectrum_and_probabilities(obs, scaled)
        axioms = max(axioms, float(np.max(np.abs(
            rc.probabilities - ra.probabilities))))
        cr = max(cr, projective.cramer_rao_residual(obs, z))
        lam = float(obs.eigenvalues[int(rng.integers(0, m))])
        eig_ray = projective.ProjectivePoint(
            obs.frame.conj().T @ np.eye(m)[np.argmin(np.abs(obs.eigenvalues - lam))]
        )
        cr_eig = max(cr_eig, projective.cramer_rao_residual(obs, eig_ray))
        A = -2.0j * obs.hermitian_matrix()  # xi_{-2iH} = <z, H z> / <z, z>
        grad = projective.fd_chart_gradient(
            lambda w2: projective.xi_value(A, w2, check=False), eig_ray)
        critical = max(critical, float(np.max(np.abs(grad))))
        idx = int(rng.integers(0, ra.levels.size))
        lam2 = float(ra.levels[idx])
        prob = float(ra.probabilities[idx])
        if prob >= 1e-6:
            _, dist = projective.eigenmanifold_projection(obs, lam2, z)
            cos2 = max(cos2, abs(math.cos(dist) ** 2 - prob))
    out.add("projective/spectral-consistency", consistency, 1e-10)
    out.add("projective/spectrum-shuffle-invariance", shuffle_dev, 1e-10)
    out.add("projective/probability-axioms", axioms, 1e-10)
    out.add("projective/cramer-rao-random", cr, 1e-5, fd_limited=True)
    out.add("projective/cramer-rao-eigenpoint", cr_eig, 1e-8)
    out.add("projective/critical-gradient", critical, 1e-6, fd_limited=True)
    out.add("projective/cosine-square-law", cos2, 1e-10)

    obs = projective.KahlerObservableCP([0.0, 1.0], np.eye(2))
    raised = False
    try:
        projective.eigenmanifold_projection(obs, 1.0, projective.ProjectivePoint([1, 0]))
    except UndefinedProjectionError:
        raised = True
    out.flag("projective/orthogonal-projection-rejected", raised)


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
    law_dev = 0.0
    sum_dev = 0.0
    for n in (1, 2, 3, 10):
        for t in (0.0, math.pi / 6, math.pi / 3, math.pi / 2, math.pi):
            s = np.asarray([math.cos(t), math.sin(t), 0.0])
            probs = spin.pi_sphere(n, s)
            law_dev = max(law_dev, float(np.max(np.abs(
                probs - spin.spin_law(n, t)))))
            sum_dev = max(sum_dev, abs(float(probs.sum()) - 1.0))
    out.add("spin/spin-law", law_dev, 1e-12)
    out.add("spin/spin-law-normalized", sum_dev, 1e-12)

    pole_dev = max(
        float(np.max(np.abs(spin.pi_sphere(4, [1.0, 0.0, 0.0])
                            - np.eye(5)[4]))),
        float(np.max(np.abs(spin.pi_sphere(4, [-1.0, 0.0, 0.0])
                            - np.eye(5)[0]))),
    )
    out.add("spin/poles-exact", pole_dev, 0.0)

    binom_dev = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 11))
        fam = family(f"binomial:{n}")
        th = float(rng.uniform(-3, 3))
        td = float(rng.uniform(-8, 8))
        s = spin.sphere_from_tangent(th, td)
        binom_dev = max(binom_dev, float(np.max(np.abs(
            spin.pi_sphere(n, s) - fam.probabilities([th])))))
    out.add("spin/sphere-binomial-consistency", binom_dev, 1e-12)

    draws = []
    for _ in range(100):
        n = int(rng.integers(1, 6))
        f = spin.SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
        g = spin.SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
        draws.append((n, f, g, _random_sphere_point(rng)))
    comm = 0.0
    expect = 0.0
    for n in sorted({d[0] for d in draws}):
        # one stack per n, in draw order: the first draw heads its group
        _, fs, gs, ss = zip(*(d for d in draws if d[0] == n))
        bump = 1e-3 if (perturb == "spin/commutator" and n == draws[0][0]) else 0.0
        comm = max(comm, float(np.max(spin.commutator_residual(n, fs, gs, perturb=bump))))
        expect = max(expect, float(np.max(
            spin.expectation_identity_residual(n, fs, np.array(ss)))))
    out.add("spin/commutator", comm, 1e-8)
    out.add("spin/expectation-identity", expect, 1e-10)

    closure = 0.0
    casimir = 0.0
    for n in range(1, 6):
        closure = max(closure, spin.su2_closure_residual(n))
        C = spin.casimir_matrix(n)
        casimir = max(casimir, float(np.max(np.abs(
            C - C[0, 0] * np.eye(n + 1)))))
    out.add("spin/su2-closure", closure, 1e-8)
    out.add("spin/casimir-scalar", casimir, 1e-8)

    fd_dev = 0.0
    hat_dev = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 6))
        f = spin.SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
        g = spin.SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
        s = _random_sphere_point(rng, away_from_poles=True)
        fd_dev = max(fd_dev, abs(
            spin.sphere_bracket(n, f, g).value(s)
            - spin.sphere_bracket_fd(n, f, g, s)))
        z = _random_ray(rng, n + 1)
        hat_dev = max(hat_dev, spin.hat_scaling_residual(n, f, g, z))
    out.add("spin/bracket-fd-agreement", fd_dev, 1e-6, fd_limited=True)
    out.add("spin/hat-scaling", hat_dev, 1e-6, fd_limited=True)

    psi_dev = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 8))
        s = _random_sphere_point(rng)
        a, b = spin.sphere_point_angles(s)
        state = spin.psi_embedding(n, a, b)
        psi_dev = max(psi_dev, float(np.max(np.abs(
            np.abs(state.homogeneous) ** 2 - spin.pi_sphere(n, s)))))
    out.add("spin/state-projects-to-binomial", psi_dev, 1e-12)

    rot_dev = 0.0
    flip_dev = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 6))
        f = spin.SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
        R = _random_rotation(rng)
        f_rot = spin.SphereFunction(f.u0, tuple(R @ np.asarray(f.vec)))
        rot_dev = max(
            rot_dev,
            float(np.max(np.abs(spin.spin_spectrum(n, f)
                                - spin.spin_spectrum(n, f_rot)))),
            float(np.max(np.abs(
                np.linalg.eigvalsh(spin.q_matrix(n, f))
                - np.linalg.eigvalsh(spin.q_matrix(n, f_rot))))),
        )
        dec = spin.decompose_sphere_function(n, f)
        flipped = spin.SphereFunction(f.u0, tuple(-np.asarray(f.vec)))
        dec2 = spin.decompose_sphere_function(n, flipped)
        flip_dev = max(
            flip_dev,
            abs(dec.alpha - dec2.alpha),
            abs(dec.beta - dec2.beta),
            float(np.max(np.abs(np.asarray(dec.axis) + np.asarray(dec2.axis)))),
        )
    out.add("spin/rotation-invariance", rot_dev, 1e-10)
    out.add("spin/axis-flip-invariance", flip_dev, 1e-12)

    t = math.pi / 5
    sg1 = spin.stern_gerlach_transition(
        1,
        spin.SphereFunction(0.0, (1.0, 0.0, 0.0)),
        1,
        spin.SphereFunction(0.0, (math.cos(t), math.sin(t), 0.0)),
    )
    sg_dev = float(np.max(np.abs(
        sg1 - np.asarray([math.sin(t / 2) ** 2, math.cos(t / 2) ** 2]))))
    sg2 = spin.stern_gerlach_transition(
        2,
        spin.SphereFunction(0.0, (1.0, 0.0, 0.0)),
        1,
        spin.SphereFunction(0.0, (0.0, 1.0, 0.0)),
    )
    sg_dev = max(sg_dev, float(np.max(np.abs(
        sg2 - np.asarray([0.5, 0.0, 0.5])))))
    same = spin.stern_gerlach_transition(
        3,
        spin.SphereFunction(0.0, (0.2, -0.4, 0.9)),
        2,
        spin.SphereFunction(0.0, (0.2, -0.4, 0.9)),
    )
    sg_dev = max(sg_dev, float(np.max(np.abs(same - np.eye(4)[2]))))
    for _ in range(5):
        n = int(rng.integers(1, 5))
        f1 = spin.SphereFunction(0.0, tuple(rng.normal(size=3)))
        f2 = spin.SphereFunction(0.0, tuple(rng.normal(size=3)))
        probs = spin.stern_gerlach_transition(n, f1, int(rng.integers(0, n + 1)), f2)
        sg_dev = max(sg_dev, abs(float(probs.sum()) - 1.0))
        # max-spin state along f1's axis: agrees with the state-point law
        dec1 = spin.decompose_sphere_function(n, f1)
        probs_max = spin.stern_gerlach_transition(n, f1, n, f2)
        law = spin.spin_probabilities(n, f2, np.asarray(dec1.axis))
        sg_dev = max(sg_dev, float(np.max(np.abs(probs_max - law))))
    out.add("spin/stern-gerlach", sg_dev, 1e-10)


# ----- oscillator ----------------------------------------------------------------


def _suite_oscillator(rng, out, hbars=(0.5, 1.0, 2.0)):
    F = oscillator.PlaneKahlerFunction
    P = oscillator.PlanePoint

    table_dev = 0.0
    x, y, r = F(cx=1), F(cy=1), F(cr=1)
    for f, g, want in (
        (x, y, F(c1=1)),
        (x, r, F(cy=1)),
        (y, r, F(cx=-1)),
        (F(c1=1), r, F()),
    ):
        got = oscillator.plane_bracket(f, g)
        table_dev = max(
            table_dev,
            abs(got.c1 - want.c1),
            abs(got.cx - want.cx),
            abs(got.cy - want.cy),
            abs(got.cr - want.cr),
        )
    out.add("oscillator/bracket-table", table_dev, 1e-12)

    fd_dev = 0.0
    for _ in range(50):
        f = F(*rng.normal(size=4))
        g = F(*rng.normal(size=4))
        z = P(*rng.normal(size=2))
        fd_dev = max(fd_dev, abs(
            oscillator.plane_bracket(f, g).value(z)
            - oscillator.plane_bracket_fd(f, g, z)))
    out.add("oscillator/bracket-fd-agreement", fd_dev, 1e-6, fd_limited=True)

    spec = oscillator.gaussian_spectrum(F(cx=1), P(2.0, 0.3))
    spec_dev = abs(spec.mean - 2.0) + abs(spec.variance - 1.0)
    tgrid = np.linspace(spec.mean - 12.0, spec.mean + 12.0, 4001)
    spec_dev = max(spec_dev, abs(float(np.trapezoid(spec.density(tgrid), tgrid)) - 1.0))
    point = oscillator.gaussian_spectrum(F(c1=5.0), P(0.0, 0.0))
    spec_dev = max(spec_dev, abs(point.atom - 5.0), point.variance)
    out.add("oscillator/spectrum-distribution", spec_dev, 1e-8)
    raised = False
    try:
        oscillator.gaussian_spectrum(F(cr=1.0), P(0.0, 0.0))
    except NotKahlerError:
        raised = True
    out.flag("oscillator/quadratic-not-decomposable", raised)

    norm_dev = abs(
        oscillator.coherent_state(1.0, P(0.0, 0.0), 0.0).real
        - (2.0 * math.pi) ** (-0.25)
    )
    xi = np.linspace(-12.0, 12.0, 4001)
    for _ in range(20):
        z = P(*rng.normal(size=2))
        hbar = float(rng.choice(hbars))
        psi = oscillator.coherent_state(hbar, z, xi + z.x)
        norm_dev = max(norm_dev, abs(
            float(np.trapezoid(np.abs(psi) ** 2, xi + z.x)) - 1.0))
    out.add("oscillator/coherent-normalization", norm_dev, 1e-8)

    expect_dev = 0.0
    axis = np.linspace(-2.0, 2.0, 5)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    for hbar in hbars:
        for f in (F(c1=1), F(cx=1), F(cy=1), F(cr=1), F(0.3, -0.7, 1.1, 0.4)):
            expect_dev = max(expect_dev, float(np.max(
                oscillator.oscillator_expectation_residual(hbar, f, grid))))
    out.add("oscillator/expectation-identity", expect_dev, 1e-7)

    herm_dev = 0.0
    matrix_dev = 0.0
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
        herm_dev = max(herm_dev, op.hermiticity_defect())
        val = float(np.vdot(c, op.matrix @ c).real)
        matrix_dev = max(matrix_dev, abs(val - f.value(z)))
    out.add("oscillator/operator-hermitian", herm_dev, 1e-10)
    out.add("oscillator/operator-cross-check", matrix_dev, 1e-6)


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
    ``hbar`` appends an extra value to the oscillator sweep.
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
