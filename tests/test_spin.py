"""Spin coherent states, the binomial sphere model, and su(2) representations."""

import math

import numpy as np
import pytest
from scipy.stats import binom

from igk.errors import DomainError
from igk.families import binomial_family
from igk.projective import pi_projection
from igk.spin import (
    SphereFunction,
    casimir_matrix,
    commutator_residual,
    decompose_sphere_function,
    expectation_identity_residual,
    hat_scaling_residual,
    pi_sphere,
    psi_embedding,
    q_matrix,
    sphere_bracket,
    sphere_bracket_fd,
    sphere_from_tangent,
    sphere_point_angles,
    spin_law,
    spin_probabilities,
    spin_spectrum,
    stern_gerlach_transition,
    su2_closure_residual,
)


def closed_form_law(n, t):
    """Independent oracle: C(n,k) cos^{2k}(t/2) sin^{2(n-k)}(t/2)."""
    return np.array(
        [
            math.comb(n, k)
            * math.cos(t / 2.0) ** (2 * k)
            * math.sin(t / 2.0) ** (2 * (n - k))
            for k in range(n + 1)
        ]
    )


def random_sphere_point(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestSpinLaw:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 128])
    def test_matches_closed_form(self, n):
        k = np.arange(n + 1)
        axis = SphereFunction(0.0, (1.0, 0.0, 0.0))
        for t in (0.0, math.pi / 6, math.pi / 3, math.pi / 2, math.pi):
            probs = spin_law(n, t)
            np.testing.assert_allclose(probs, closed_form_law(n, t), atol=1e-14)
            assert probs.sum() == pytest.approx(1.0, abs=1e-14)
            # the log-space pmf against scipy's binomial law, poles included
            s = np.array([math.cos(t), math.sin(t), 0.0])
            oracle = binom.pmf(k, n, (1.0 + s[0]) / 2.0)
            np.testing.assert_allclose(pi_sphere(n, s), oracle, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                spin_probabilities(n, axis, s), oracle, rtol=0, atol=1e-12
            )

    def test_poles_are_deltas(self):
        for n in (1, 4, 7):
            top = spin_law(n, 0.0)
            bottom = spin_law(n, math.pi)
            assert top[n] == 1.0 and np.all(top[:n] == 0.0)  # sin(0) is exact
            assert bottom[0] == 1.0 and np.all(bottom[1:] < 1e-30)


class TestSphereModel:
    def test_tangent_map_lands_on_sphere(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            s = sphere_from_tangent(rng.normal() * 3, rng.normal() * 3)
            assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_projection_recovers_binomial_density(self, n):
        fam = binomial_family(n)
        rng = np.random.default_rng(72)
        for _ in range(10):
            theta = rng.uniform(-2.5, 2.5)
            s = sphere_from_tangent(theta, rng.normal() * 2)
            np.testing.assert_allclose(
                pi_sphere(n, s), fam.probabilities([theta]), atol=1e-13
            )

    def test_pole_images_are_exact(self):
        for n in (1, 3, 6):
            plus = pi_sphere(n, np.array([1.0, 0.0, 0.0]))
            minus = pi_sphere(n, np.array([-1.0, 0.0, 0.0]))
            assert plus[n] == 1.0 and np.all(plus[:n] == 0.0)
            assert minus[0] == 1.0 and np.all(minus[1:] == 0.0)

    def test_off_sphere_rejected(self):
        with pytest.raises(DomainError):
            pi_sphere(2, np.array([1.0, 1.0, 0.0]))

    def test_embedding_is_unit_and_projects_to_law(self):
        rng = np.random.default_rng(73)
        for n in (1, 2, 5):
            a, b = rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi)
            z = psi_embedding(n, a, b)
            assert np.linalg.norm(z.homogeneous) == pytest.approx(1.0)
            np.testing.assert_allclose(
                pi_projection(z), closed_form_law(n, a), atol=1e-12
            )

    def test_angles_roundtrip(self):
        rng = np.random.default_rng(74)
        s = random_sphere_point(rng)
        a, b = sphere_point_angles(s)
        rebuilt = np.array(
            [math.cos(a), math.sin(a) * math.cos(b), math.sin(a) * math.sin(b)]
        )
        np.testing.assert_allclose(rebuilt, s, atol=1e-12)


class TestDecomposition:
    def test_affine_function_splits(self):
        f = SphereFunction(3.0, (0.0, 0.0, 1.4))
        dec = decompose_sphere_function(5, f)
        assert dec.alpha == pytest.approx(3.0 - 1.4)
        assert dec.beta == pytest.approx(2.0 * 1.4 / 5.0)
        np.testing.assert_allclose(dec.axis, [0.0, 0.0, 1.0], atol=1e-15)

    def test_constant_function_gets_flat_spectrum(self):
        dec = decompose_sphere_function(3, SphereFunction(1.0, (0.0, 0.0, 0.0)))
        assert dec.alpha == 1.0 and dec.beta == 0.0
        np.testing.assert_allclose(spin_spectrum(3, SphereFunction(1.0, (0, 0, 0))),
                                   np.ones(4), atol=0)

    def test_spectrum_is_arithmetic(self):
        f = SphereFunction(0.5, (0.6, 0.0, 0.8))
        lam = spin_spectrum(4, f)
        np.testing.assert_allclose(np.diff(lam), np.full(4, lam[1] - lam[0]))
        assert np.all(np.diff(lam) > 0)

    def test_spectrum_matches_operator_eigenvalues(self):
        rng = np.random.default_rng(81)
        for n in (1, 2, 4):
            f = SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
            lam = spin_spectrum(n, f)
            eig = np.linalg.eigvalsh(q_matrix(n, f))
            np.testing.assert_allclose(np.sort(eig), lam, atol=1e-12)

    def test_probabilities_follow_the_law(self):
        rng = np.random.default_rng(82)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            f = SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
            s = random_sphere_point(rng)
            axis = decompose_sphere_function(n, f).axis
            t = math.acos(np.clip(np.asarray(axis) @ s, -1, 1))
            np.testing.assert_allclose(
                spin_probabilities(n, f, s), closed_form_law(n, t), atol=1e-12
            )


class TestStacks:
    """Stacks of points and functions give, row for row, what each row gives
    alone (rtol 1e-13)."""

    def test_pi_sphere_rows_keep_exact_poles(self):
        rng = np.random.default_rng(95)
        s = np.array([random_sphere_point(rng) for _ in range(6)])
        s[1], s[4] = (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)
        got = pi_sphere(7, s)
        assert got.shape == (6, 8)
        for row, point in zip(got, s):
            np.testing.assert_allclose(row, pi_sphere(7, point), rtol=1e-13, atol=0)
        np.testing.assert_array_equal(got[1], np.eye(8)[7])
        np.testing.assert_array_equal(got[4], np.eye(8)[0])

    def test_brackets_and_hat_scaling_match_rows(self):
        rng = np.random.default_rng(96)
        n, k = 3, 5
        fs = [SphereFunction(rng.normal(), tuple(rng.normal(size=3))) for _ in range(k)]
        gs = [SphereFunction(rng.normal(), tuple(rng.normal(size=3))) for _ in range(k)]
        s = np.array([random_sphere_point(rng) for _ in range(k)])
        z = rng.normal(size=(k, n + 1)) + 1j * rng.normal(size=(k, n + 1))
        fd = sphere_bracket_fd(n, fs, gs, s)
        hat = hat_scaling_residual(n, fs, gs, z)
        assert fd.shape == hat.shape == (k,)
        for i in range(k):
            assert fd[i] == pytest.approx(sphere_bracket_fd(n, fs[i], gs[i], s[i]),
                                          rel=1e-13, abs=0)
            assert hat[i] == pytest.approx(hat_scaling_residual(n, fs[i], gs[i], z[i]),
                                           rel=1e-13, abs=0)

    def test_rows_equal_single_calls_to_the_bit(self):
        rng = np.random.default_rng(98)
        n, k = 4, 2000
        s = rng.normal(size=(k, 3))
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        fs, gs = ([SphereFunction(u0, vec) for u0, vec in
                   zip(rng.normal(size=k), rng.normal(size=(k, 3)))] for _ in range(2))
        a, b = sphere_point_angles(s)
        np.testing.assert_array_equal(
            np.column_stack([a, b]), [sphere_point_angles(p) for p in s])
        np.testing.assert_array_equal(
            psi_embedding(n, a, b),
            [psi_embedding(n, ai, bi).homogeneous for ai, bi in zip(a, b)])
        np.testing.assert_array_equal(pi_sphere(n, s), [pi_sphere(n, p) for p in s])
        np.testing.assert_array_equal(
            sphere_bracket_fd(n, fs, gs, s),
            [sphere_bracket_fd(n, f, g, p) for f, g, p in zip(fs, gs, s)])

    def test_sweep_builds_one_family_per_n(self, monkeypatch):
        from igk import verify

        built = []
        original = verify.family

        def counted(name):
            built.append(name)
            return original(name)

        monkeypatch.setattr(verify, "family", counted)
        assert verify.run_suite("spin", seed=5).passed
        assert built and len(set(built)) == len(built)  # 50 with one per draw


class TestBrackets:
    def test_closed_form_matches_fd(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            f = SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
            g = SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
            s = random_sphere_point(rng)
            # keep clear of the poles where the FD chart degenerates
            if abs(abs(s[0]) - 1.0) < 1e-2:
                continue
            assert abs(
                sphere_bracket(n, f, g).value(s) - sphere_bracket_fd(n, f, g, s)
            ) < 1e-7

    def test_bracket_is_antisymmetric_and_kills_constants(self):
        f = SphereFunction(1.0, (1.0, 0.0, 0.0))
        g = SphereFunction(-0.5, (0.0, 2.0, 0.0))
        const = SphereFunction(7.0, (0.0, 0.0, 0.0))
        n = 3
        fg = sphere_bracket(n, f, g)
        gf = sphere_bracket(n, g, f)
        np.testing.assert_allclose(fg.vec, [-c for c in gf.vec], atol=1e-15)
        assert fg.u0 == -gf.u0
        zero = sphere_bracket(n, f, const)
        assert zero.u0 == 0.0 and zero.vec == (0.0, 0.0, 0.0)


class TestRepresentation:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_q_matrices_are_hermitian(self, n):
        rng = np.random.default_rng(101)
        f = SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
        Q = q_matrix(n, f)
        np.testing.assert_allclose(Q, Q.conj().T, atol=1e-15)

    def test_commutator_identity(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            f = SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
            g = SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
            assert commutator_residual(n, f, g) < 1e-12

    def test_perturbation_breaks_the_identity(self):
        f = SphereFunction(0.0, (1.0, 0.0, 0.0))
        g = SphereFunction(0.0, (0.0, 1.0, 0.0))
        assert commutator_residual(3, f, g, perturb=1e-3) > 1e-5

    def test_expectation_identity(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            f = SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
            s = random_sphere_point(rng)
            assert expectation_identity_residual(n, f, s) < 1e-12
        # poles included
        assert expectation_identity_residual(2, f, np.array([1.0, 0, 0])) < 1e-12

    def test_stacked_residuals_match_single_samples(self):
        rng = np.random.default_rng(105)
        fs = [SphereFunction(rng.normal(), tuple(rng.normal(size=3))) for _ in range(6)]
        gs = [SphereFunction(rng.normal(), tuple(rng.normal(size=3))) for _ in range(6)]
        ss = np.array([random_sphere_point(rng) for _ in range(6)])
        comm = commutator_residual(4, fs, gs)
        expect = expectation_identity_residual(4, fs, ss)
        assert comm.shape == expect.shape == (6,)
        for i in range(6):
            assert comm[i] == pytest.approx(commutator_residual(4, fs[i], gs[i]),
                                            abs=1e-15)
            assert expect[i] == pytest.approx(
                expectation_identity_residual(4, fs[i], ss[i]), abs=1e-15)
        # the perturbation lands on the first pair only
        bumped = commutator_residual(4, fs, gs, perturb=1e-3)
        assert bumped[0] > 1e-5
        np.testing.assert_array_equal(bumped[1:], comm[1:])

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_su2_closure_and_casimir(self, n):
        assert su2_closure_residual(n) < 1e-14
        j = n / 2.0
        target = -(j * (j + 1.0)) / n**2 * np.eye(n + 1)
        np.testing.assert_allclose(casimir_matrix(n), target, atol=1e-13)

    def test_hat_scaling(self):
        rng = np.random.default_rng(104)
        for n in (1, 2, 3):
            f = SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
            g = SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
            z = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            assert hat_scaling_residual(n, f, g, z) < 1e-6


class TestSternGerlach:
    def test_two_orthogonal_devices_at_spin_half(self):
        along_x = SphereFunction(0.0, (1.0, 0.0, 0.0))
        along_y = SphereFunction(0.0, (0.0, 1.0, 0.0))
        probs = stern_gerlach_transition(1, along_x, 1, along_y)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_max_incoming_reproduces_the_law(self):
        t = math.pi / 3
        first = SphereFunction(0.0, (1.0, 0.0, 0.0))
        second = SphereFunction(0.0, (math.cos(t), math.sin(t), 0.0))
        probs = stern_gerlach_transition(2, first, 2, second)
        np.testing.assert_allclose(
            probs, [1.0 / 16.0, 6.0 / 16.0, 9.0 / 16.0], atol=1e-12
        )

    def test_same_device_is_deterministic(self):
        device = SphereFunction(0.0, (0.0, 0.0, 1.0))
        for m in range(4):
            probs = stern_gerlach_transition(3, device, m, device)
            expected = np.zeros(4)
            expected[m] = 1.0
            np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_transition_matrix_is_doubly_stochastic(self):
        rng = np.random.default_rng(111)
        one = SphereFunction(0.0, tuple(rng.normal(size=3)))
        two = SphereFunction(0.0, tuple(rng.normal(size=3)))
        n = 4
        M = np.array(
            [stern_gerlach_transition(n, one, m, two) for m in range(n + 1)]
        )
        np.testing.assert_allclose(M.sum(axis=1), np.ones(n + 1), atol=1e-12)
        np.testing.assert_allclose(M.sum(axis=0), np.ones(n + 1), atol=1e-12)

    def test_bad_eigenstate_index(self):
        device = SphereFunction(0.0, (0.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            stern_gerlach_transition(2, device, 5, device)


class TestNonFiniteCoefficients:
    def test_spin_law_refuses_a_nan_axis(self):
        with pytest.raises(DomainError, match="finite"):
            spin_probabilities(2, SphereFunction(0.0, (math.nan, 0.0, 1.0)), [0, 0, 1])

    def test_stern_gerlach_refuses_a_nan_axis(self):
        device = SphereFunction(0.0, (0.0, 0.0, 1.0))
        with pytest.raises(DomainError, match="finite"):
            stern_gerlach_transition(2, device, 1, SphereFunction(0.0, (math.nan, 0.0, 1.0)))
