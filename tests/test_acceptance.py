"""Acceptance gate: the ten headline guarantees, one printed verdict each.

Each test prints a single ``criterion NN PASS/FAIL`` line with the worst
observed residual and its tolerance, then asserts.  The whole gate runs in
well under a minute on one core.
"""

import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from igk import _oracles
from igk._oracles import (
    commutator_residual,
    cross_duality_residual,
    expectation_identity_residual,
    flow_isometry_residual,
    lift_defects,
    omega_closedness_residual,
    oscillator_expectation_residual,
)
from igk.families import BUILTIN_FAMILIES, binomial_family, family
from igk.geometry import theta_grid
from igk.oscillator import PlaneKahlerFunction, PlanePoint
from igk.projective import (
    ProjectivePoint,
    cramer_rao_residual,
    deck_shift,
    eigenmanifold_projection,
    observable_from_hermitian,
    spectrum_and_probabilities,
    tau,
)
from igk.spin import (
    SphereFunction,
    casimir_matrix,
    pi_sphere,
    spin_probabilities,
    sphere_from_tangent,
)
from igk.tangent_bundle import LinearObservable, kahler_structure_at


@pytest.fixture
def announce(capsys):
    def _announce(index, label, ok, detail):
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"criterion {index:2d} {verdict}: {label} ({detail})")
        assert ok, f"criterion {index}: {label} ({detail})"

    return _announce


def random_sphere_function(rng):
    return SphereFunction(rng.normal(), tuple(rng.normal(size=3)))


def random_ray(rng, m):
    return ProjectivePoint(rng.normal(size=m) + 1j * rng.normal(size=m))


def random_hermitian(rng, m):
    M = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return 0.5 * (M + M.conj().T)


class TestAcceptance:
    def test_01_spin_measurement_law(self, announce):
        device = SphereFunction(0.0, (0.0, 0.0, 1.0))
        worst = 0.0
        worst_sum = 0.0
        for n in (1, 2, 3, 10):
            for t in (0.0, math.pi / 6, math.pi / 3, math.pi / 2, math.pi):
                s = np.array([math.sin(t), 0.0, math.cos(t)])
                s = s / np.linalg.norm(s)
                probs = spin_probabilities(n, device, s)
                law = np.array(
                    [
                        math.comb(n, k)
                        * math.cos(t / 2) ** (2 * k)
                        * math.sin(t / 2) ** (2 * (n - k))
                        for k in range(n + 1)
                    ]
                )
                worst = max(worst, float(np.max(np.abs(probs - law))))
                worst_sum = max(worst_sum, abs(float(probs.sum()) - 1.0))
        ok = worst < 1e-12 and worst_sum < 1e-12
        announce(
            1,
            "spin measurement probabilities match the closed-form law",
            ok,
            f"worst deviation {worst:.2e}, worst sum defect {worst_sum:.2e}, "
            "tolerance 1e-12",
        )

    def test_02_representation_identities(self, announce):
        rng = np.random.default_rng(2)
        comm = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 6))
            comm = max(
                comm,
                commutator_residual(
                    n, random_sphere_function(rng), random_sphere_function(rng)
                ),
            )
        expect = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 6))
            s = rng.normal(size=3)
            s = s / np.linalg.norm(s)
            expect = max(
                expect,
                expectation_identity_residual(n, random_sphere_function(rng), s),
            )
        casimir = 0.0
        for n in range(1, 6):
            C = casimir_matrix(n)
            scalar = np.trace(C).real / (n + 1)
            casimir = max(casimir, float(np.max(np.abs(C - scalar * np.eye(n + 1)))))
        ok = comm < 1e-8 and expect < 1e-10 and casimir < 1e-8
        announce(
            2,
            "commutator, expectation, and Casimir identities hold",
            ok,
            f"commutator {comm:.2e} < 1e-8, expectation {expect:.2e} < 1e-10, "
            f"casimir {casimir:.2e} < 1e-8",
        )

    def test_03_cramer_rao_equality(self, announce):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(2, 7))
            obs = observable_from_hermitian(random_hermitian(rng, m))
            worst = max(worst, cramer_rao_residual(obs, random_ray(rng, m)))
        ok = worst < 1e-5
        announce(
            3,
            "variance equals a quarter squared gradient norm",
            ok,
            f"worst residual {worst:.2e}, tolerance 1e-5",
        )

    def test_04_cos_squared_projection_law(self, announce):
        rng = np.random.default_rng(4)
        worst = 0.0
        checked = 0
        for _ in range(100):
            m = int(rng.integers(2, 7))
            obs = observable_from_hermitian(random_hermitian(rng, m))
            z = random_ray(rng, m)
            report = spectrum_and_probabilities(obs, z)
            for level, prob in zip(report.levels, report.probabilities):
                if prob < 1e-8:
                    continue
                _, dist = eigenmanifold_projection(obs, level, z)
                worst = max(worst, abs(math.cos(dist) ** 2 - prob))
                checked += 1
        ok = worst < 1e-10 and checked >= 100
        announce(
            4,
            "outcome probability is the squared cosine of the projection distance",
            ok,
            f"worst deviation {worst:.2e} over {checked} projections, "
            "tolerance 1e-10",
        )

    def test_05_covering_map_geometry(self, announce):
        rng = np.random.default_rng(5)
        pullback = 0.0
        for m in (3, 4):
            fam = family(f"categorical:{m}")
            for _ in range(20):
                p = rng.uniform(0.2, 1.0, size=m)
                p = p / p.sum()
                u = rng.normal(size=m)
                u = u - p @ u
                pair_a = (rng.normal(size=m), rng.normal(size=m))
                pair_b = (rng.normal(size=m), rng.normal(size=m))
                # to the natural chart: theta = ln p - ln p_m, and the angles and
                # exponential-tilt directions as differences against the last point
                v, ta, wa, tb, wb = (x[:-1] - x[-1] for x in (u, *pair_a, *pair_b))
                theta = np.log(p[:-1]) - np.log(p[-1])
                # E = D^H D - (G + i Omega) / 4: a^T E b is zero iff the lift pulls
                # g_FS + i omega_FS back to a quarter of G + i Omega on the pair
                _, E = lift_defects(fam, theta, v, kahler_structure_at(fam, theta))
                pulled = np.concatenate([ta, wa]) @ E @ np.concatenate([tb, wb])
                pullback = max(pullback, abs(pulled.real), abs(pulled.imag))
        p = rng.uniform(0.2, 1.0, size=4)
        p = p / p.sum()
        u = rng.normal(size=4)
        u = u - p @ u
        base = tau(p, u)
        deck = 0.0
        for _ in range(20):
            shifted = deck_shift(p, u, rng.integers(-3, 4, size=4))
            moved = tau(p, shifted)
            deck = max(deck, 0.0 if abs(np.vdot(base, moved)) >= 1.0 - 1e-12 else 1.0)
        ok = pullback < 1e-5 and deck == 0.0
        announce(
            5,
            "statistical lift scales the projective metric by a quarter",
            ok,
            f"worst pullback residual {pullback:.2e} < 1e-5, "
            "20 deck shifts fix the ray",
        )

    def test_06_dual_flatness(self, announce):
        curv = 0.0
        dual = 0.0
        cross = 0.0
        for name in BUILTIN_FAMILIES:
            fam = family(name)
            for th in theta_grid(fam, 20):
                # the FD oracle: the closed form is 0 at alpha = +-1 by its 1 - alpha^2
                R, _, h, T = _oracles._curvatures(fam, th, (1.0, -1.0))
                curv = max(curv, float(np.max(np.abs(R))))
                dh = _oracles._metric_derivative(fam, th, False)[0]
                duality = _oracles._duality_residuals(fam, th, h, T, dh, (0.0, 0.5, 1.0))
                dual = max(dual, float(np.max(duality[:, 0])))
                cross = max(cross, cross_duality_residual(fam, th))
        ok = curv < 1e-5 and dual < 1e-5 and cross < 1e-7
        announce(
            6,
            "builtin families are dually flat with dual coordinate charts",
            ok,
            f"curvature {curv:.2e} < 1e-5, duality {dual:.2e} < 1e-5, "
            f"cross-duality {cross:.2e} < 1e-7",
        )

    def test_07_tangent_bundle_kahler_axioms(self, announce):
        rng = np.random.default_rng(7)
        algebra = 0.0
        closed = 0.0
        isometry = 0.0
        for name in BUILTIN_FAMILIES:
            fam = family(name)
            n = fam.dim
            obs = LinearObservable(rng.normal(), tuple(rng.normal(size=n)))
            # 100 points (theta, v) of TM; the structure and the flow's Jacobian
            # read theta alone
            theta, _ = (np.array(f) for f in zip(*[
                (rng.uniform(fam.sample_box.lo, fam.sample_box.hi), rng.normal(size=n))
                for _ in range(100)]))
            s = kahler_structure_at(fam, theta)
            J, G, Om = s.complex_structure, s.metric, s.omega
            algebra = max(
                algebra,
                float(np.max(np.abs(J @ J + np.eye(2 * n)))),
                float(np.max(np.abs(Om - J.T @ G))),
            )
            closed = max(closed, float(np.max(omega_closedness_residual(fam, theta))))
            isometry = max(isometry, float(np.max(
                flow_isometry_residual(fam, obs, theta, s.base_metric, 1.0))))
        ok = algebra == 0.0 and closed < 1e-6 and isometry < 1e-8
        announce(
            7,
            "tangent bundles carry an exact Kahler triple with isometric flows",
            ok,
            f"algebraic defect {algebra:.2e}, closedness {closed:.2e} < 1e-6, "
            f"flow isometry {isometry:.2e} < 1e-8",
        )

    def test_08_oscillator_expectation_identity(self, announce):
        basis = (
            PlaneKahlerFunction(c1=1.0),
            PlaneKahlerFunction(cx=1.0),
            PlaneKahlerFunction(cy=1.0),
            PlaneKahlerFunction(cr=1.0),
        )
        worst = 0.0
        for x in np.linspace(-2.0, 2.0, 5):
            for y in np.linspace(-2.0, 2.0, 5):
                z = PlanePoint(x, y)
                for hbar in (0.5, 1.0, 2.0):
                    for f in basis:
                        worst = max(
                            worst, oscillator_expectation_residual(hbar, f, z)
                        )
        ok = worst < 1e-7
        announce(
            8,
            "coherent-state expectations reproduce every plane Kahler function",
            ok,
            f"worst residual {worst:.2e} over a 5x5x3 grid times 4 basis "
            "functions, tolerance 1e-7",
        )

    def test_09_binomial_sphere_consistency(self, announce):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(1, 11))
            fam = binomial_family(n)
            theta = rng.uniform(-2.5, 2.5)
            s = sphere_from_tangent(theta, rng.normal() * 2.0)
            worst = max(
                worst,
                float(np.max(np.abs(pi_sphere(n, s) - fam.probabilities([theta])))),
            )
        poles_exact = True
        for n in (1, 4, 10):
            plus = pi_sphere(n, np.array([1.0, 0.0, 0.0]))
            minus = pi_sphere(n, np.array([-1.0, 0.0, 0.0]))
            poles_exact = poles_exact and plus[n] == 1.0 and np.all(plus[:n] == 0.0)
            poles_exact = poles_exact and minus[0] == 1.0 and np.all(minus[1:] == 0.0)
        ok = worst < 1e-12 and poles_exact
        announce(
            9,
            "sphere projection reproduces the binomial densities",
            ok,
            f"worst deviation {worst:.2e} < 1e-12, pole images exact: "
            f"{poles_exact}",
        )

    def test_10_cli_determinism(self, announce):
        exe = shutil.which("igk")
        argv = [exe] if exe else [sys.executable, "-m", "igk.cli"]
        cmd = argv + ["verify", "--suite", "all", "--seed", "0"]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        identical = first.stdout == second.stdout
        ok = first.returncode == 0 and second.returncode == 0 and identical
        announce(
            10,
            "full verification suite passes and reports are byte-identical",
            ok,
            f"exit codes {first.returncode}/{second.returncode}, "
            f"identical bytes: {identical}",
        )
