"""Spin coherent states, the binomial sphere model, and su(2) representations."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import binom

from igk._oracles import hat_scaling_residual, sphere_bracket_fd
from igk.errors import DomainError
from igk.families import binomial_family
from igk.numerics import log_factorials
from igk.projective import pi_projection
from igk.spin import (
    SphereDecomposition,
    SphereFunction,
    _bracket,
    _coefficients,
    casimir_matrix,
    commutator_residual,
    decompose_sphere_function,
    expectation_identity_residual,
    pi_sphere,
    psi_embedding,
    q_matrix,
    sphere_bracket,
    sphere_from_tangent,
    sphere_point_angles,
    spin_law,
    spin_probabilities,
    spin_spectrum,
    stern_gerlach_transition,
    su2_basis,
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

    def test_the_tangent_map_has_one_answer_for_every_input(self):
        # past the range of cosh(theta / 2) the pole, exactly; below it the closed form
        np.testing.assert_array_equal(sphere_from_tangent(2000.0, 0.0), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(sphere_from_tangent(-2000.0, 3.0), [-1.0, 0.0, 0.0])
        s = sphere_from_tangent(1400.0, 1.0)
        assert s[0] == 1.0 and 0.0 < s[1] < 1e-300
        for theta, theta_dot in ((0.0, math.inf), (math.nan, 0.0), (-math.inf, 1.0)):
            with pytest.raises(DomainError, match="finite"):
                sphere_from_tangent(theta, theta_dot)

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
            assert np.linalg.norm(z) == pytest.approx(1.0)
            np.testing.assert_allclose(
                pi_projection(z), closed_form_law(n, a), atol=1e-12
            )

    def test_embedding_past_the_float_range_of_binomials(self):
        # binom(1100, 550) ~ 1e329 overflows a float; its pmf does not (ln k!
        # up to ln 1100! ~ 6600 leaves ~1e-12 of relative rounding)
        z = psi_embedding(1100, 1.0, 0.5)
        assert np.linalg.norm(z) == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_allclose(pi_projection(z), binom.pmf(np.arange(1101), 1100,
                                                               math.cos(0.5) ** 2),
                                   rtol=1e-11, atol=1e-300)
        with pytest.raises(DomainError, match="overflows"):
            spin_law(1100, 1.0)

    @pytest.mark.parametrize("a", [-0.5, 4.0, math.nan, [0.5, 7.0]])
    def test_colatitude_outside_zero_to_pi_is_refused(self, a):
        # the amplitudes read sin(a/2) >= 0; past pi its sign would flip rows
        with pytest.raises(DomainError, match="colatitude"):
            psi_embedding(3, a, np.zeros(np.shape(a)))

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
            [psi_embedding(n, ai, bi) for ai, bi in zip(a, b)])
        np.testing.assert_array_equal(pi_sphere(n, s), [pi_sphere(n, p) for p in s])
        np.testing.assert_array_equal(
            sphere_bracket_fd(n, fs, gs, s),
            [sphere_bracket_fd(n, f, g, p) for f, g, p in zip(fs, gs, s)])
        m1 = rng.integers(0, n + 1, size=k)
        np.testing.assert_array_equal(
            stern_gerlach_transition(n, fs, m1, gs),
            [stern_gerlach_transition(n, f, m, g) for f, m, g in zip(fs, m1, gs)])
        np.testing.assert_array_equal(
            stern_gerlach_transition(n, fs[:50], n, gs[:50]),
            [stern_gerlach_transition(n, f, n, g) for f, g in zip(fs[:50], gs[:50])])

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
        with pytest.raises(DomainError):
            stern_gerlach_transition(2, [device] * 2, [1, -1], [device] * 2)


def wigner_law(n, m1, cos_beta):
    """Independent oracle: |d^{n/2}_{m2 - n/2, m1 - n/2}(beta)|^2 for m2 = 0..n.

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


def random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestSternGerlachFrame:
    """The transition from one real ``eigh`` in the preparer's eigenbasis, against
    the Wigner small-d law, which shares no code with it."""

    @pytest.mark.parametrize("n", list(range(1, 17)) + [64, 128, 256])
    def test_matches_the_wigner_law(self, n):
        rng = np.random.default_rng(4000 + n)
        worst_flipped = 0.0
        for _ in range(3):
            a1, a2 = random_axis(rng), random_axis(rng)
            m1 = int(rng.integers(0, n + 1))
            f1 = SphereFunction(rng.normal(), tuple(a1 * rng.uniform(0.1, 10.0)))
            f2 = SphereFunction(rng.normal(), tuple(a2 * rng.uniform(0.1, 10.0)))
            probs = stern_gerlach_transition(n, f1, m1, f2)
            np.testing.assert_allclose(probs, wigner_law(n, m1, float(a1 @ a2)),
                                       rtol=0, atol=1e-12)
            # control: the law of eigenstate n - m1 is another law
            flipped = wigner_law(n, n - m1, float(a1 @ a2))
            worst_flipped = max(worst_flipped, float(np.max(np.abs(probs - flipped))))
        assert worst_flipped > 1e-3

    def test_one_real_eigh_per_call(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append((a.dtype, a.shape))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        rng = np.random.default_rng(12)
        fs = [SphereFunction(0.0, tuple(rng.normal(size=3))) for _ in range(7)]
        for n, k in ((1, 1), (5, 7), (40, 3), (3, 0)):
            calls.clear()
            pair = (fs[0], fs[-1]) if k == 1 else (fs[:k], fs[len(fs) - k:])
            assert stern_gerlach_transition(n, pair[0], 1, pair[1]).shape[-1] == n + 1
            assert calls == [(np.dtype(np.float64), (k, n + 1, n + 1))]

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_a_constant_device_counts_as_the_x_axis(self, n):
        # Q(f) = u0 I keeps the standard basis, the eigenbasis of Q(x)
        rng = np.random.default_rng(7 + n)
        constant = SphereFunction(1.5, (0.0, 0.0, 0.0))
        x_axis = SphereFunction(0.0, (1.0, 0.0, 0.0))
        for _ in range(5):
            device = SphereFunction(rng.normal(), tuple(rng.normal(size=3)))
            m = int(rng.integers(0, n + 1))
            for pair, x_pair in (((constant, device), (x_axis, device)),
                                 ((device, constant), (device, x_axis))):
                np.testing.assert_allclose(
                    stern_gerlach_transition(n, pair[0], m, pair[1]),
                    stern_gerlach_transition(n, x_pair[0], m, x_pair[1]), rtol=0, atol=1e-15)


class TestSequenceContract:
    """A sequence of k functions (with k points) gives, row for row, what its k
    single calls give, to the bit: a constant function and coefficients near
    1e+-300 included."""

    CALLS = {
        "decompose_sphere_function": lambda n, f, s: decompose_sphere_function(n, f),
        "spin_spectrum": lambda n, f, s: spin_spectrum(n, f),
        "spin_probabilities": lambda n, f, s: spin_probabilities(n, f, s),
        "q_matrix": lambda n, f, s: q_matrix(n, f),
    }

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(97)
        fs = [SphereFunction(rng.normal(), tuple(scale * rng.normal(size=3)))
              for scale in (1.0, 0.0, 1e300, 1e-300, 1.0, 2.5)]
        return fs, np.array([random_sphere_point(rng) for _ in fs])

    @staticmethod
    def _flat(result):
        """A result as one array; a decomposition's fields side by side."""
        if isinstance(result, SphereDecomposition):
            fields = [result.alpha, result.beta, result.axis]
            return np.column_stack(fields) if np.ndim(result.alpha) else np.hstack(fields)
        return result

    @pytest.mark.parametrize("name", list(CALLS))
    def test_rows_equal_single_calls_to_the_bit(self, name):
        fs, s = self._inputs()
        call = self.CALLS[name]
        rows = np.ascontiguousarray(self._flat(call(3, fs, s)))
        singles = np.array([self._flat(call(3, f, p)) for f, p in zip(fs, s)])
        assert rows.shape == singles.shape and rows.dtype == singles.dtype
        assert rows.tobytes() == singles.tobytes()

    def test_bracket_rows_equal_single_brackets_to_the_bit(self):
        fs, _ = self._inputs()
        gs = fs[::-1]  # pairs 1e300 with 1e-300: no bracket overflows
        rows = _bracket(3, _coefficients(fs)[1], _coefficients(gs)[1])
        singles = np.array([sphere_bracket(3, f, g).vec for f, g in zip(fs, gs)])
        assert rows.shape == singles.shape and rows.tobytes() == singles.tobytes()

    def test_bracket_rows_equal_np_cross_to_the_bit(self):
        # signed zeros: -(0 x 0) / n is -0.0, and +0.0 - (-0.0) keeps +0.0
        vf = np.array([[0.0, -0.0, 0.0], [-0.0, 1.0, 0.0], [1e300, -0.0, 1e-300],
                       [0.6, 0.0, 0.8]])
        vg = np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 2.0], [-1e-300, 1e-300, 0.0],
                       [0.1, 0.7, -0.3]])
        want = -np.cross(vf, vg) / 3
        assert _bracket(3, vf, vg).tobytes() == want.tobytes()
        singles = np.array([sphere_bracket(3, SphereFunction(0.0, f), SphereFunction(0.0, g)).vec
                            for f, g in zip(vf, vg)])
        assert singles.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", list(CALLS))
    def test_an_overflow_names_the_single_message(self, name):
        huge = SphereFunction(0.0, (1.7e308, 1.7e308, 0.0))
        call = self.CALLS[name]
        with pytest.raises(DomainError) as single:
            call(2, huge, [0.0, 1.0, 0.0])
        with pytest.raises(DomainError) as sequence:
            call(2, [SphereFunction(0.5, (0.0, 1.0, 0.0)), huge], np.eye(3)[:2])
        assert str(sequence.value) == str(single.value)

    def test_single_calls_keep_their_types(self):
        f = SphereFunction(0.5, (0.6, 0.0, 0.8))
        dec = decompose_sphere_function(4, f)
        assert all(type(v) is float for v in (dec.alpha, dec.beta) + dec.axis)
        assert isinstance(dec.axis, tuple) and isinstance(sphere_bracket(4, f, f), SphereFunction)
        assert spin_spectrum(4, f).shape == spin_probabilities(4, f, [1, 0, 0]).shape == (5,)
        assert q_matrix(4, f).shape == (5, 5)

    def test_points_must_match_the_functions(self):
        f = SphereFunction(0.5, (0.6, 0.0, 0.8))
        for call in (lambda: spin_probabilities(4, [f, f], [1.0, 0.0, 0.0]),
                     lambda: expectation_identity_residual(4, f, np.eye(3)[:2]),
                     lambda: hat_scaling_residual(4, [f, f], [f, f], np.ones(5))):
            with pytest.raises(ValueError):
                call()


class TestNonFiniteCoefficients:
    def test_spin_law_refuses_a_nan_axis(self):
        with pytest.raises(DomainError, match="finite"):
            spin_probabilities(2, SphereFunction(0.0, (math.nan, 0.0, 1.0)), [0, 0, 1])

    def test_stern_gerlach_refuses_a_nan_axis(self):
        device = SphereFunction(0.0, (0.0, 0.0, 1.0))
        with pytest.raises(DomainError, match="finite"):
            stern_gerlach_transition(2, device, 1, SphereFunction(0.0, (math.nan, 0.0, 1.0)))


_F, _G = SphereFunction(0.1, (0.3, 0.2, 0.5)), SphereFunction(-0.2, (0.1, -0.4, 0.2))
# every public spin routine that takes n, and both spin oracles, at a valid rest
_TAKES_N = {
    "pi_sphere": lambda n: pi_sphere(n, [1.0, 0.0, 0.0]),
    "spin_law": lambda n: spin_law(n, 0.3),
    "decompose_sphere_function": lambda n: decompose_sphere_function(n, _F),
    "spin_spectrum": lambda n: spin_spectrum(n, _F),
    "spin_probabilities": lambda n: spin_probabilities(n, _F, [1.0, 0.0, 0.0]),
    "psi_embedding": lambda n: psi_embedding(n, 0.3, 0.1),
    "q_matrix": lambda n: q_matrix(n, _F),
    "sphere_bracket": lambda n: sphere_bracket(n, _F, _G),
    "commutator_residual": lambda n: commutator_residual(n, _F, _G),
    "expectation_identity_residual": lambda n: expectation_identity_residual(
        n, _F, [0.0, 0.6, 0.8]),
    "su2_basis": su2_basis,
    "su2_closure_residual": su2_closure_residual,
    "casimir_matrix": casimir_matrix,
    "stern_gerlach_transition": lambda n: stern_gerlach_transition(n, _F, 0, _G),
    "sphere_bracket_fd": lambda n: sphere_bracket_fd(n, _F, _G, [0.0, 0.6, 0.8]),
    "hat_scaling_residual": lambda n: hat_scaling_residual(n, _F, _G, [1.0, 0.0, 0.0]),
}


class TestNonRealCoefficients:
    """A sphere function's four coefficients are real numbers, read like the other
    records' (``numerics._finite_floats``)."""

    @pytest.mark.parametrize("u0, vec", [
        ("a", (1, 2, 3)), (1 + 0j, (0.0, 0.0, 1.0)), (0.0, np.array([0.0, 0.0, 1.0 + 1j])),
        (0.0, (0.0, "1", 0.0)), (0.0, "abc"), (np.array([0.5]), (0.0, 0.0, 1.0)),
    ], ids=["string-u0", "complex-u0", "complex-vec", "string-entry", "string-vec", "array-u0"])
    def test_non_real_coefficients_are_refused(self, u0, vec):
        # a complex vec was cut to its real part with a ComplexWarning, "a" a bare ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError,
                               match="^sphere function coefficients must be real numbers, got "):
                SphereFunction(u0, vec)

    @pytest.mark.parametrize("vec", [5, (1.0, 2.0), [[0.0, 0.0, 1.0]], np.float64(1.0)], ids=str)
    def test_a_vec_that_is_not_three_numbers_is_refused(self, vec):
        with pytest.raises(DomainError, match="need a 3-vector of coefficients"):
            SphereFunction(0.0, vec)

    def test_a_whole_number_past_the_float_range_is_refused(self):
        # float(10**400) raised a bare OverflowError
        with pytest.raises(DomainError, match="^sphere function coefficients must be "):
            SphereFunction(10 ** 400, (0.0, 0.0, 1.0))

    def test_numpy_and_whole_coefficients_are_python_floats(self):
        f = SphereFunction(np.float64(0.5), np.array([0.0, 1.0, 2.0]))
        assert f == SphereFunction(0.5, (0, True, 2))
        assert repr(f) == "SphereFunction(u0=0.5, vec=(0.0, 1.0, 2.0))"
        assert {type(c) for c in (f.u0, *f.vec)} == {float}


class TestSpinArguments:
    """Every routine that takes n refuses a bad n the same way, without a warning."""

    @pytest.mark.parametrize("n", [0, -1, -2, 2.5, math.nan, math.inf], ids=str)
    @pytest.mark.parametrize("call", list(_TAKES_N.values()), ids=list(_TAKES_N))
    def test_a_bad_n_gets_one_refusal(self, call, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^n must be a positive integer, got "):
                call(n)

    @pytest.mark.parametrize("call", list(_TAKES_N.values()), ids=list(_TAKES_N))
    def test_a_whole_float_n_is_its_integer(self, call):
        assert repr(call(2.0)) == repr(call(2))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_spin_law_refuses_a_non_finite_colatitude(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="colatitude must be finite"):
                spin_law(2, t)

    @pytest.mark.parametrize("m", [1.5, math.nan, math.inf, -math.inf, [1, 0.5]], ids=str)
    def test_an_eigenstate_index_is_a_whole_number(self, m):
        # 1.5 was read as 1, NaN raised a bare ValueError
        one, two = SphereFunction(0.0, (0.0, 0.0, 1.0)), SphereFunction(0.0, (1.0, 0.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"index must be a whole number in 0\.\.2"):
                stern_gerlach_transition(2, [one] * 2, m, [two] * 2)
        assert repr(stern_gerlach_transition(2, one, 1.0, two)) \
            == repr(stern_gerlach_transition(2, one, 1, two))

    @pytest.mark.parametrize("k, m", [(1, [0, 1]), (1, [[0]]), (1, np.array([[1]])), (1, "a"),
                                      (1, 1 + 0j), (1, None), (2, [0, 1, 2]), (2, [[0, 1]]),
                                      (2, [[0], [1, 2]])], ids=str)
    def test_an_index_is_one_whole_number_or_one_per_pair(self, k, m):
        # each raised numpy's bare ValueError or TypeError, or [[1]] passed for one pair
        one, two = SphereFunction(0.0, (0.0, 0.0, 1.0)), SphereFunction(0.0, (1.0, 0.0, 0.0))
        first, second = (one, two) if k == 1 else ([one] * k, [two] * k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^eigenstate index must be a whole number "
                                                  r"in 0\.\.2, or one per device pair, got "):
                stern_gerlach_transition(2, first, m, second)

    def test_one_index_or_one_per_pair(self):
        one, two = SphereFunction(0.0, (0.0, 0.0, 1.0)), SphereFunction(0.0, (1.0, 0.0, 0.0))
        rows = stern_gerlach_transition(2, [one, two], [0, 1], [two, one])
        for i, (f, g) in enumerate([(one, two), (two, one)]):
            assert repr(rows[i]) == repr(stern_gerlach_transition(2, f, i, g))
        assert repr(stern_gerlach_transition(2, [one] * 2, [2], [two] * 2)) \
            == repr(stern_gerlach_transition(2, [one] * 2, 2, [two] * 2))

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf, [0.1, math.nan]], ids=str)
    def test_psi_embedding_refuses_a_non_finite_azimuth(self, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="an azimuth must be finite"):
                psi_embedding(2, np.full(np.shape(b), 0.3), b)


class TestExtremeAxes:
    """Axis vectors whose plain norm underflows or overflows: a correct table
    or a ``DomainError``, and never a numpy warning (warnings are errors)."""

    def test_subnormal_axis_keeps_its_direction(self):
        probs = spin_probabilities(2, SphereFunction(0.0, (5e-324, 0.0, 0.0)), [1, 0, 0])
        np.testing.assert_array_equal(probs, [0.0, 0.0, 1.0])
        assert decompose_sphere_function(2, SphereFunction(0.0, (5e-324, 0.0, 0.0))).axis \
            == (1.0, 0.0, 0.0)

    def test_huge_axis_keeps_its_direction(self):
        f = SphereFunction(0.0, (1e308, 1e308, 0.0))
        dec = decompose_sphere_function(2, f)
        np.testing.assert_allclose(dec.axis, [2 ** -0.5, 2 ** -0.5, 0.0], rtol=1e-15)
        assert dec.beta == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15)
        np.testing.assert_allclose(spin_probabilities(2, f, dec.axis), [0.0, 0.0, 1.0],
                                   rtol=0, atol=1e-15)

    def test_huge_device_is_refused(self):
        device = SphereFunction(0.0, (1e308, 1e308, 0.0))
        with pytest.raises(DomainError, match="overflows"):
            stern_gerlach_transition(3, device, 1, SphereFunction(0.0, (0.0, 0.0, 1.0)))

    def test_overflowing_spectrum_is_refused(self):
        with pytest.raises(DomainError, match="overflows"):
            decompose_sphere_function(2, SphereFunction(0.0, (1.7e308, 1.7e308, 0.0)))

    def test_finite_norms_keep_their_bits(self):
        # a power-of-two rescale is exact: the plain norm's axis and gap, to the bit
        rng = np.random.default_rng(83)
        for _ in range(200):
            vec = rng.normal(size=3) * 10.0 ** rng.uniform(-100, 100)
            norm = float(np.linalg.norm(vec))
            dec = decompose_sphere_function(5, SphereFunction(0.0, tuple(vec)))
            assert dec.axis == tuple(vec / norm)
            assert (dec.alpha, dec.beta) == (-norm, 2.0 * norm / 5)
