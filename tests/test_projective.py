"""Complex projective space: Fubini-Study geometry, observables, spectra."""

import math
import warnings

import numpy as np
import pytest

from igk import _oracles, projective, spin, tangent_bundle, verify
from igk._oracles import (
    _kahler_form,
    fd_chart_gradient,
    lie_morphism_residual,
    lift_defects,
)
from igk.errors import DomainError, UndefinedProjectionError
from igk.families import family
from igk.projective import (
    KahlerObservableCP,
    ProjectivePoint,
    cramer_rao_residual,
    deck_shift,
    eigenmanifold_projection,
    fubini_study_distance,
    observable_from_hermitian,
    pi_projection,
    spectrum_and_probabilities,
    tau,
    xi_value,
)


def random_ray(rng, m):
    return ProjectivePoint(rng.normal(size=m) + 1j * rng.normal(size=m))


def chart_basis(z):
    """The basis of z-perp that the chart gradient reads at the ray z."""
    return projective._chart_basis(projective._rays(z))


def unitary_3():
    """The unitary factor of a fixed complex normal 3 x 3 matrix."""
    B = np.random.default_rng(0).normal(size=(3, 3, 2))
    return np.linalg.qr(B[..., 0] + 1j * B[..., 1])[0]


def random_hermitian(rng, m):
    M = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return 0.5 * (M + M.conj().T)


def random_simplex_point(rng, m):
    p = rng.uniform(0.2, 1.0, size=m)
    return p / p.sum()


def centered_angles(rng, p):
    u = rng.normal(size=p.size)
    return u - p @ u


def pulled_back(fam, theta, v, pair_a, pair_b):
    """|a^T Re E b| and |a^T Im E b| (g_FS, then omega_FS) for the pullback defect E of
    ``lift_defects`` at (theta, v) and the natural-chart tangent vectors a = pair_a,
    b = pair_b, each a pair (theta_dot, v_dot); stacks (k, n) give two arrays (k,)."""
    _, E = lift_defects(fam, theta, v, tangent_bundle.kahler_structure_at(fam, theta))
    a, b = (np.concatenate(pair, axis=-1) for pair in (pair_a, pair_b))
    pulled = np.einsum("...i,...ij,...j->...", a, E, b)
    return np.abs(pulled.real), np.abs(pulled.imag)


def natural_chart(p, *rest):
    """Simplex draws in the natural chart of categorical:m: theta = ln p - ln p_m,
    and the angles and exponential-tilt directions as differences against the last
    point."""
    p = np.asarray(p, dtype=float)
    return (np.log(p[..., :-1]) - np.log(p[..., -1:]),
            *(np.asarray(x)[..., :-1] - np.asarray(x)[..., -1:] for x in rest))


class TestRaysAndDistance:
    def test_phase_invariance(self):
        z = ProjectivePoint([1.0, 2.0j, -1.0])
        w = ProjectivePoint(np.exp(0.7j) * z.homogeneous)
        assert abs(np.vdot(z.homogeneous, w.homogeneous)) >= 1.0 - 1e-12  # same ray
        assert fubini_study_distance(z, w) == pytest.approx(0.0, abs=1e-8)

    def test_orthogonal_rays_are_quarter_turn(self):
        a = ProjectivePoint([1.0, 0.0])
        b = ProjectivePoint([0.0, 1.0])
        assert fubini_study_distance(a, b) == pytest.approx(math.pi / 2)

    def test_distance_from_overlap(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a, b = random_ray(rng, 4), random_ray(rng, 4)
            c = abs(np.vdot(a.homogeneous, b.homogeneous))
            assert fubini_study_distance(a, b) == pytest.approx(math.acos(c))

    def test_projection_probabilities(self):
        z = ProjectivePoint([3.0, 4.0j])
        np.testing.assert_allclose(pi_projection(z), [0.36, 0.64], atol=1e-15)

    def test_degenerate_input_rejected(self):
        with pytest.raises(DomainError):
            ProjectivePoint([1.0])
        with pytest.raises(DomainError):
            ProjectivePoint([0.0, 0.0])

    def test_a_ray_with_subnormal_squares_is_normalized(self):
        # the squares 1e-320 are subnormal: their plain sum made the table sum to 1.0000111
        np.testing.assert_allclose(pi_projection([1e-160, 1e-160]), [0.5, 0.5],
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("z", [[1e200, 1.0], [1e-200, 1e-170], [1e308, 1e308j]],
                             ids=["overflowing", "underflowing", "largest"])
    def test_a_ray_past_the_range_of_its_squares(self, z):
        # refused as "a nonzero vector" (after an overflow warning) before
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pi_projection(z).sum() == pytest.approx(1.0, rel=0, abs=1e-15)

    def test_rows_in_range_keep_their_arithmetic(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        want = z / np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))[:, None]
        np.testing.assert_array_equal(projective._rays(z), want)
        extreme = [[1e200, 1.0, 0.0], [1e-200, 0.0, 1e-170j]]
        np.testing.assert_array_equal(projective._rays(np.concatenate([z, extreme]))[:4], want)

    @pytest.mark.parametrize("z", [[1e-200, 1e-170], [1e200, 1e170]],
                             ids=["underflowing", "overflowing"])
    def test_xi_of_a_ray_past_the_range_of_its_squares(self, z):
        # -z0 z1 / |z|^2; NaN (0 / 0) before
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert xi_value([[0.0, 1j], [1j, 0.0]], z) == pytest.approx(-1e-30, rel=1e-15)


class TestStatisticalLift:
    def test_lift_components(self):
        p = np.array([0.5, 0.3, 0.2])
        u = np.array([1.0, -1.0, -1.0])
        u = u - p @ u
        z = tau(p, u)
        expected = np.sqrt(p) * np.exp(0.5j * u)
        phase = z[0] / expected[0]
        np.testing.assert_allclose(z, expected * phase, atol=1e-12)

    def test_projection_inverts_lift(self):
        rng = np.random.default_rng(21)
        for m in (3, 4, 6):
            p = random_simplex_point(rng, m)
            u = centered_angles(rng, p)
            np.testing.assert_allclose(pi_projection(tau(p, u)), p, atol=1e-12)

    def test_lift_validation(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(DomainError):
            tau(np.array([0.7, 0.2]), np.zeros(2))  # does not sum to 1
        with pytest.raises(DomainError):
            tau(np.array([1.0, 0.0]), np.zeros(2))  # not strictly positive
        with pytest.raises(DomainError):
            tau(p, np.array([1.0, 0.0]))  # angles not centered

    def test_deck_transformations_fix_the_ray(self):
        rng = np.random.default_rng(22)
        p = random_simplex_point(rng, 4)
        u = centered_angles(rng, p)
        base = tau(p, u)
        for _ in range(20):
            m = rng.integers(-3, 4, size=4)
            shifted = deck_shift(p, u, m)
            assert abs(p @ shifted - 0.0) < 1e-10
            assert abs(np.vdot(base, tau(p, shifted))) >= 1.0 - 1e-12  # same ray

    def test_deck_needs_integers(self):
        with pytest.raises(DomainError):
            deck_shift(np.array([0.5, 0.5]), np.zeros(2), np.array([0.5, 0.0]))

    def test_lift_and_deck_stacks_equal_their_rows_to_the_bit(self):
        rng = np.random.default_rng(23)
        p = np.array([random_simplex_point(rng, 5) for _ in range(8)])
        u = np.array([centered_angles(rng, row) for row in p])
        m = rng.integers(-3, 4, size=(8, 5))
        z, shifted = tau(p, u), deck_shift(p, u, m)
        assert z.shape == shifted.shape == (8, 5)
        for i in range(8):
            np.testing.assert_array_equal(z[i], tau(p[i], u[i]))
            np.testing.assert_array_equal(shifted[i], deck_shift(p[i], u[i], m[i]))
        with pytest.raises(DomainError):
            tau(p[None], u[None])  # a stack of stacks


class TestTangentLift:
    @pytest.mark.parametrize("name", ["categorical:4", "binomial:3"])
    def test_a_stack_equals_its_single_calls_to_the_bit(self, name):
        fam = family(name)
        rng = np.random.default_rng(24)
        theta, v = rng.uniform(-2.0, 2.0, size=(2, 7, fam.dim))
        z = tangent_bundle.lift(fam, theta, v)
        assert z.shape == (7, fam.space.size)
        for i in range(7):
            np.testing.assert_array_equal(z[i], tangent_bundle.lift(fam, theta[i], v[i]))

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_categorical_lift_is_tau_in_the_natural_chart(self, m):
        rng = np.random.default_rng(25)
        for _ in range(10):
            p = random_simplex_point(rng, m)
            u = centered_angles(rng, p)
            z = tangent_bundle.lift(family(f"categorical:{m}"), *natural_chart(p, u))
            np.testing.assert_allclose(z, tau(p, u), rtol=0.0, atol=1e-15)

    def test_refusals(self):
        with pytest.raises(DomainError, match="finite space"):
            tangent_bundle.lift(family("normal"), [0.0, -1.0], [1.0, 0.0])
        fam = family("categorical:3")
        with pytest.raises(DomainError, match="shape"):
            tangent_bundle.lift(fam, [0.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(DomainError, match="shape"):
            tangent_bundle.lift(fam, [[0.0, 0.0]], [1.0, 0.0])

    @pytest.mark.parametrize("v", [[1e8, -1e8 / 3.0], [-1e8, 1e8 / 3.0], [1e8, 1e8]])
    def test_a_far_fiber_lifts_to_a_unit_ray(self, v):
        # u = v.F - E_p[v.F] rounds to |E_p u| ~ 5.6e-9 at |v| ~ 1e8, which the
        # centering gate scales by max |u|
        fam = family("categorical:3")
        z = tangent_bundle.lift(fam, [0.3, -0.2], v)
        assert abs(np.vdot(z, z).real - 1.0) <= 1e-15
        np.testing.assert_allclose(np.abs(z) ** 2, fam.probabilities([0.3, -0.2]),
                                   rtol=0.0, atol=1e-15)

    def test_tau_still_refuses_an_off_center_fiber_at_unit_scale(self):
        p = np.array([0.5, 0.3, 0.2])
        u = np.array([1.0, -1.0, -1.0])
        u = u - p @ u
        tau(p, u)
        for off in (1e-9, -1e-9):
            with pytest.raises(DomainError, match=r"^fiber angles must be p-centered"):
                tau(p, u + off)
        with pytest.raises(DomainError, match=r"^fiber angles must be p-centered"):
            tau(p, 1e8 * u + 1e-1)  # off by 1e-1 at scale 1e8: above 1e-10 of it

    def test_a_refusal_names_the_family_and_the_row(self):
        # p_3 = e^-800 / z underflows to 0
        fam = family("categorical:3")
        with pytest.raises(DomainError, match=r"^categorical:3: tau needs strictly "
                                              r"positive probabilities$"):
            tangent_bundle.lift(fam, [800.0, 0.0], [0.0, 0.0])
        with pytest.raises(DomainError, match=r"^categorical:3: tau needs strictly "
                                              r"positive probabilities \(row 1\)$"):
            tangent_bundle.lift(fam, [[0.0, 0.0], [800.0, 0.0]], np.zeros((2, 2)))

    def test_lift_jacobian_names_the_callers_point(self):
        # the points are lifted with their stencil rows: row r belongs to point r % k,
        # and a single point gets no row note
        fam = family("categorical:3")
        with pytest.raises(DomainError, match=r"^categorical:3: natural parameters must "
                                              r"be finite$"):
            _oracles.lift_jacobian(fam, [np.nan, 0.0], [0.0, 0.0])
        with pytest.raises(DomainError, match=r"must be finite \(row 1\)$"):
            _oracles.lift_jacobian(fam, [[0.0, 0.0], [np.nan, 0.0]], np.zeros((2, 2)))
        # a valid point whose stencil row theta + 1e-6 e_1 underflows p_3 to 0
        edge = 745.1332191
        tangent_bundle.lift(fam, [edge, 0.0], [0.0, 0.0])
        with pytest.raises(DomainError, match=r"positive probabilities$"):
            _oracles.lift_jacobian(fam, [edge, 0.0], [0.0, 0.0])
        with pytest.raises(DomainError, match=r"positive probabilities \(row 1\)$"):
            _oracles.lift_jacobian(fam, [[0.0, 0.0], [edge, 0.0]], np.zeros((2, 2)))

    @pytest.mark.filterwarnings("error")
    def test_a_non_finite_fiber_is_refused_without_a_warning(self):
        with pytest.raises(DomainError, match="finite"):
            tangent_bundle.lift(family("categorical:3"), [0.0, 0.0], [np.inf, 0.0])
        with pytest.raises(DomainError, match="tau needs finite"):
            tau([0.5, 0.5], [np.inf, -np.inf])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [
        lambda fam, theta, v: tangent_bundle.lift(fam, theta, v),
        lambda fam, theta, v: tangent_bundle.hamiltonian_flow_step(
            fam, tangent_bundle.LinearObservable(0.0, (2.0,)), theta, v, 1.0),
    ], ids=["lift", "flow"])
    def test_a_non_finite_fiber_names_its_row(self, call):
        # as a non-finite theta in that row does
        fam, theta = family("binomial:3"), np.zeros((3, 1))
        with pytest.raises(DomainError, match=r"^binomial:3: the fiber is not finite$"):
            call(fam, theta[0], [np.nan])
        with pytest.raises(DomainError, match=r"^binomial:3: the fiber is not finite \(row 1\)$"):
            call(fam, theta, [[0.0], [np.nan], [0.0]])
        with pytest.raises(DomainError, match=r"must be finite \(row 1\)$"):
            call(fam, [[0.0], [np.nan], [0.0]], np.zeros((3, 1)))


class TestObservables:
    def test_hermitian_expectation(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            H = random_hermitian(rng, 4)
            obs = observable_from_hermitian(H)
            z = random_ray(rng, 4).homogeneous
            expected = float(np.vdot(z, H @ z).real)
            assert obs.value(z) == pytest.approx(expected, abs=1e-10)
            np.testing.assert_allclose(obs.hermitian_matrix(), H, atol=1e-10)

    def test_xi_of_skew_matrix_is_real(self):
        rng = np.random.default_rng(32)
        H = random_hermitian(rng, 3)
        z = random_ray(rng, 3)
        v = xi_value(1j * H, z)
        assert isinstance(v, float)
        assert v == pytest.approx(-0.5 * observable_from_hermitian(H).value(z))

    def test_xi_rejects_non_skew(self):
        with pytest.raises(DomainError):
            xi_value(np.eye(3), ProjectivePoint([1.0, 0.0, 0.0]))

    def test_momentum_map_is_lie_morphism(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            A = 1j * random_hermitian(rng, 4)
            B = 1j * random_hermitian(rng, 4)
            z = random_ray(rng, 4)
            assert lie_morphism_residual(A, B, z) < 1e-7

    def test_cramer_rao_of_a_large_observable(self):
        # -2i U^H diag(X) U is skew only to 4.7e-10 here, above the skew tolerance of
        # xi_value: the Hermitian matrix of an observable must be Hermitian exactly
        H = 1e6 * random_hermitian(np.random.default_rng(0), 4)
        obs = observable_from_hermitian(H)
        product = -2.0j * (obs.frame.conj().T * obs.eigenvalues) @ obs.frame
        assert np.abs(product + product.conj().T).max() > projective._SKEW_TOL
        hermitian = obs.hermitian_matrix()
        np.testing.assert_array_equal(hermitian, hermitian.conj().T)
        z = np.random.default_rng(1).normal(size=4) + 1j
        assert math.isfinite(cramer_rao_residual(obs, z))

    def test_hermitian_test_is_relative_to_the_matrix(self):
        # Q diag(0, 1e8, 2e8) Q^H is Hermitian to 3.7e-9 absolute, 1.9e-17 relative
        Q = unitary_3()
        obs = observable_from_hermitian(Q @ np.diag([0.0, 1e8, 2e8]) @ Q.conj().T)
        np.testing.assert_allclose(obs.eigenvalues, [0.0, 1e8, 2e8], rtol=1e-14, atol=1e-6)
        for bad in (np.nan, np.inf, -np.inf):
            for H in (np.diag([bad, 1.0]), np.array([[1.0, bad], [0.0, 1.0]])):
                with pytest.raises(DomainError, match="not Hermitian"):
                    observable_from_hermitian(H)
        with pytest.raises(DomainError, match="not skew-Hermitian"):
            xi_value(np.eye(3), np.ones(3))

    def test_frame_must_be_unitary(self):
        with pytest.raises(DomainError):
            KahlerObservableCP(
                eigenvalues=np.array([1.0, 2.0]),
                frame=np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex),
            )


NAN = float("nan")


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: spin.pi_sphere(2, [NAN, 0.0, 0.0]),
                 DomainError, "unit sphere", id="spin.pi_sphere"),
    pytest.param(lambda: tau([NAN, 0.5, 0.5], [0.0, 0.0, 0.0]),
                 DomainError, "finite", id="tau-mass"),
    pytest.param(lambda: tau([0.5, 0.5], [NAN, 0.0]),
                 DomainError, "finite", id="tau-centering"),
    pytest.param(lambda: KahlerObservableCP([0.0, 1.0], [[NAN, 0.0], [0.0, 1.0]]),
                 DomainError, "frame must be finite", id="KahlerObservableCP"),
    pytest.param(lambda: observable_from_hermitian([[NAN, 0.0], [0.0, 1.0]]),
                 DomainError, "not Hermitian", id="observable_from_hermitian"),
    pytest.param(lambda: xi_value([[NAN, 0.0], [0.0, 1j]], [1.0, 1j]),
                 DomainError, "skew-Hermitian", id="xi_value"),
    pytest.param(lambda: tangent_bundle.linear_observable(
                     family("binomial:3"), [0.0, NAN, 2.0, 3.0]),
                 DomainError, "observable values must be finite", id="linear_observable"),
])
def test_nan_input_fails_the_tolerance_gate(call, error, message):
    # a NaN defect compares false against any tolerance; the gate must refuse it
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: KahlerObservableCP([NAN, 1.0], np.eye(2)).value([1, 0]),
                 id="KahlerObservableCP-eigenvalues"),
    pytest.param(lambda: xi_value([[1j, 0.0], [0.0, 1j]], [NAN, 1.0]),
                 id="xi_value-point"),
    # eigh's spectrum of a finite H past the float range: the observable is built from
    # eigh's output without the constructor, and refuses it with the constructor's message
    pytest.param(lambda: observable_from_hermitian(np.full((2, 2), 1.7e308)),
                 id="observable_from_hermitian-overflow"),
])
def test_nan_spectral_input_is_refused(call):
    with pytest.raises(DomainError, match="finite"):
        call()


INF = float("inf")


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: deck_shift([0.5, NAN], [0.1, -0.1], [1, 0]),
                 "deck shifts need finite", id="deck_shift-nan-p"),
    pytest.param(lambda: deck_shift([0.5, 0.5], [INF, -INF], [1, 0]),
                 "deck shifts need finite", id="deck_shift-inf-u"),
    pytest.param(lambda: pi_projection([1.0, NAN]),
                 "coordinates must be finite", id="rays-nan"),
    pytest.param(lambda: fubini_study_distance([1.0, 0.0], [INF, 1.0]),
                 "coordinates must be finite", id="rays-inf"),
])
def test_non_finite_input_is_named_as_such(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_a_non_finite_row_of_tau_is_named_with_its_row():
    p = np.array([[0.5, 0.5], [0.25, NAN], [0.5, 0.5]])
    with pytest.raises(DomainError, match="tau needs finite") as info:
        tau(p, np.zeros_like(p))
    assert info.value.row == 1 and info.value.what == "tau needs finite probabilities and angles"


class TestSpectra:
    def test_decomposition_reconstructs(self):
        rng = np.random.default_rng(41)
        H = random_hermitian(rng, 5)
        obs = observable_from_hermitian(H)
        np.testing.assert_allclose(obs.hermitian_matrix(), H, atol=1e-12)
        U = obs.frame
        np.testing.assert_allclose(U @ U.conj().T, np.eye(5), atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(42)
        H = random_hermitian(rng, 6)
        obs = observable_from_hermitian(H)
        report = spectrum_and_probabilities(obs, random_ray(rng, 6))
        assert report.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(report.levels) > 0)

    def test_degenerate_levels_are_grouped(self):
        frame = np.eye(3, dtype=complex)[[2, 0, 1]]  # shuffled unitary frame
        obs = KahlerObservableCP(np.array([2.0, 1.0, 2.0]), frame)
        z = ProjectivePoint([1.0, 1.0, 1.0])
        report = spectrum_and_probabilities(obs, z)
        np.testing.assert_allclose(report.levels, [1.0, 2.0])
        np.testing.assert_allclose(report.probabilities, [1 / 3, 2 / 3], atol=1e-12)

    def test_mean_is_weighted_spectrum(self):
        rng = np.random.default_rng(43)
        H = random_hermitian(rng, 4)
        obs = observable_from_hermitian(H)
        z = random_ray(rng, 4)
        report = spectrum_and_probabilities(obs, z)
        assert report.levels @ report.probabilities == pytest.approx(
            obs.value(z), abs=1e-12
        )


class TestProjectionLaw:
    def test_cos_squared_distance_is_probability(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            H = random_hermitian(rng, 5)
            obs = observable_from_hermitian(H)
            z = random_ray(rng, 5)
            report = spectrum_and_probabilities(obs, z)
            for level, prob in zip(report.levels, report.probabilities):
                if prob < 1e-8:
                    continue
                _, dist = eigenmanifold_projection(obs, level, z)
                assert math.cos(dist) ** 2 == pytest.approx(prob, abs=1e-10)

    def test_orthogonal_state_has_no_projection(self):
        obs = observable_from_hermitian(np.diag([0.0, 1.0, 1.0]).astype(complex))
        z = ProjectivePoint([1.0, 0.0, 0.0])
        with pytest.raises(UndefinedProjectionError):
            eigenmanifold_projection(obs, 1.0, z)

    def test_unknown_level_rejected(self):
        obs = observable_from_hermitian(np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(DomainError):
            eigenmanifold_projection(obs, 5.0, ProjectivePoint([1.0, 1.0]))

    def test_a_level_of_chained_eigenvalues_projects_whole(self):
        # 1, 1 + 0.8e-9 and 1 + 1.6e-9 chain into one level of probability 1; a mask
        # within 1e-9 of the level left the top eigenvalue out: cos^2 = 2/3
        obs = KahlerObservableCP([1.0, 1.0 + 0.8e-9, 1.0 + 1.6e-9], np.eye(3))
        z = np.ones(3) / np.sqrt(3.0)
        report = spectrum_and_probabilities(obs, z)
        assert report.probabilities.tolist() == [pytest.approx(1.0, abs=1e-15)]
        for level in (*report.levels, 1.0 + 1.6e-9):
            ray, dist = eigenmanifold_projection(obs, level, z)
            assert math.cos(dist) ** 2 == pytest.approx(1.0, abs=1e-15)
            np.testing.assert_allclose(ray, z, rtol=0, atol=1e-15)
        with pytest.raises(DomainError, match="not in the spectrum"):
            eigenmanifold_projection(obs, 1.0 + 3e-9, z)

    def test_a_large_degenerate_level_is_one_level(self):
        # eigh rounds the double eigenvalue 1e6 of 1e6 P (P a rank-2 projector) to two
        # values 1.2e-9 apart: an absolute gap of 1e-9 made them two levels
        Q = unitary_3()
        V = Q[:, [0, 2]]
        obs = observable_from_hermitian(1e6 * (V @ V.conj().T))
        z = np.ones(3)
        report = spectrum_and_probabilities(obs, z)
        assert report.levels == pytest.approx([0.0, 1e6], abs=1e-6)
        weight = np.linalg.norm(V.conj().T @ z) ** 2 / 3.0
        assert report.probabilities[1] == pytest.approx(weight, rel=1e-12)
        for level in (1e6, obs.eigenvalues[1], obs.eigenvalues[2]):
            _, dist = eigenmanifold_projection(obs, level, z)
            assert math.cos(dist) ** 2 == pytest.approx(weight, rel=1e-12)

    def test_variance_equals_quarter_gradient_norm(self):
        rng = np.random.default_rng(52)
        for m in (2, 4, 6):
            for _ in range(10):
                obs = observable_from_hermitian(random_hermitian(rng, m))
                assert cramer_rao_residual(obs, random_ray(rng, m)) < 1e-5


class TestPullback:
    @pytest.mark.parametrize("m", [3, 4])
    def test_quarter_scaling_of_metric_and_form(self, m):
        fam = family(f"categorical:{m}")
        rng = np.random.default_rng(61)
        for _ in range(5):
            p = random_simplex_point(rng, m)
            u = centered_angles(rng, p)
            pair_a = (rng.normal(size=m), rng.normal(size=m))
            pair_b = (rng.normal(size=m), rng.normal(size=m))
            theta, v, *tangents = natural_chart(p, u, *pair_a, *pair_b)
            res_g, res_o = pulled_back(fam, theta, v, tangents[:2], tangents[2:])
            assert res_g < 1e-5
            assert res_o < 1e-5

    def test_kahler_form_is_hermitian(self):
        # g symmetric and omega antisymmetric, to the bit: the bracket is antisymmetric
        rng = np.random.default_rng(62)
        H1 = random_hermitian(rng, 3)
        H2 = random_hermitian(rng, 3)
        z = random_ray(rng, 3)
        ga, gb = (fd_chart_gradient(lambda w, H=H: xi_value(1j * H, w), z) for H in (H1, H2))
        form = _kahler_form(ga, gb)
        assert form == np.conj(_kahler_form(gb, ga))
        assert form.imag != 0.0
        assert _kahler_form(ga, ga).imag == 0.0


def pullback_samples(rng, k, m):
    """k seeded (p, u, (va, wa), (vb, wb)) draws in ``natural_chart``, stacked as
    arrays (k, m - 1): theta, v and the pairs of tangent vectors."""
    p = rng.dirichlet(np.full(m, 3.0), size=k)
    u = rng.normal(size=(k, m))
    u -= np.sum(p * u, axis=1, keepdims=True)
    theta, v, *tangents = natural_chart(p, u, *rng.normal(size=(4, k, m)))
    return theta, v, tangents[:2], tangents[2:]


class TestStackedOracles:
    def test_xi_value_of_a_stack_matches_its_rows(self):
        rng = np.random.default_rng(71)
        A = 1j * random_hermitian(rng, 4)
        stack = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
        got = xi_value(A, stack)
        assert got.shape == (9,)
        np.testing.assert_allclose(got, [xi_value(A, w) for w in stack], rtol=1e-13)

    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_stack_callback_gradient_matches_rows_and_closed_form(self, m):
        rng = np.random.default_rng(72)
        H = random_hermitian(rng, m)
        z = random_ray(rng, m)
        calls = []

        def stacked(w):
            calls.append(w.shape)
            return xi_value(-2.0j * H, w)

        grad = fd_chart_gradient(stacked, z)
        assert calls == [(4 * (m - 1), m)]  # one call on the whole stencil
        per_row = fd_chart_gradient(
            lambda w: np.array([xi_value(-2.0j * H, r) for r in w]), z)
        # a last-bit difference of a value is divided by the 2e-5 stencil width
        np.testing.assert_allclose(grad, per_row, rtol=0.0, atol=1e-9)
        # f = <z, H z> / <z, z>: df/ds_j = 2 Re <b_j, H z>, df/dt_j = 2 Im <b_j, H z>
        c = chart_basis(z).conj().T @ (H @ z.homogeneous)
        np.testing.assert_allclose(grad, 2.0 * np.concatenate([c.real, c.imag]),
                                   atol=1e-8)

    def test_chart_basis_of_a_stack_reads_its_rays(self):
        # the stack was taken as unit rows: max |B^H z| was 1.2 for these
        rows = np.array([[2.0, 0.0], [0.0, 2.0]])
        bases = chart_basis(rows)
        for z, B in zip(rows, bases):
            assert np.max(np.abs(z.conj() @ B)) < 1e-15
            np.testing.assert_array_equal(B, chart_basis(z))

    def test_chart_basis_of_a_stack_matches_its_rows(self):
        rng = np.random.default_rng(73)
        rows = np.array([random_ray(rng, 4).homogeneous for _ in range(5)])
        bases = chart_basis(rows)
        for z, B in zip(rows, bases):
            np.testing.assert_allclose(B, chart_basis(z), atol=1e-15)
            np.testing.assert_allclose(B.conj().T @ B, np.eye(3), atol=1e-14)
            assert np.max(np.abs(z.conj() @ B)) < 1e-14

    @pytest.mark.parametrize("m", [3, 4])
    def test_pullback_rows_match_single_samples(self, m):
        fam = family(f"categorical:{m}")
        theta, v, pa, pb = pullback_samples(np.random.default_rng(74), 6, m)
        res_g, res_o = pulled_back(fam, theta, v, pa, pb)
        assert res_g.shape == res_o.shape == (6,)
        for i in range(6):
            g, o = pulled_back(fam, theta[i], v[i], (pa[0][i], pa[1][i]), (pb[0][i], pb[1][i]))
            assert res_g[i] == pytest.approx(g, rel=1e-6, abs=1e-15)
            assert res_o[i] == pytest.approx(o, rel=1e-6, abs=1e-15)
            assert max(g, o) < 1e-5


    @pytest.mark.parametrize("name", ["categorical:3", "categorical:4", "binomial:3"])
    def test_lift_defects_of_a_stack_match_single_calls_to_the_bit(self, name):
        fam = family(name)
        rng = np.random.default_rng(75)
        theta = rng.uniform(-1.0, 1.0, size=(5, fam.dim))
        v = rng.uniform(-2.0, 2.0, size=(5, fam.dim))
        holo, pull = lift_defects(fam, theta, v, tangent_bundle.kahler_structure_at(fam, theta))
        m = fam.space.size
        assert holo.shape == (5, 2 * fam.dim, m) and pull.shape == (5, 2 * fam.dim, 2 * fam.dim)
        for i in range(5):
            h, p = lift_defects(fam, theta[i], v[i],
                                tangent_bundle.kahler_structure_at(fam, theta[i]))
            assert np.array_equal(h, holo[i]) and np.array_equal(p, pull[i])
            assert max(np.abs(h).max(), np.abs(p).max()) < 1e-6


def observable_stack(rng, k, m):
    """A stack of k observables of one m, its rows as single observables, and
    k homogeneous vectors (k, m)."""
    spectra = [observable_from_hermitian(random_hermitian(rng, m)) for _ in range(k)]
    stack = KahlerObservableCP(np.array([o.eigenvalues for o in spectra]),
                               np.array([o.frame for o in spectra]))
    singles = [KahlerObservableCP(X, U) for X, U in zip(stack.eigenvalues, stack.frame)]
    return singles, stack, rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))


class TestObservableStacks:
    """A stack of observables and rays gives, row for row, what each
    observable gives at its ray (rtol 1e-13)."""

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_gradients_and_residuals_match_rows(self, m):
        rng = np.random.default_rng(80 + m)
        singles, stack, Z = observable_stack(rng, 5, m)
        A = -2.0j * stack.hermitian_matrix()
        B = 1j * np.array([random_hermitian(rng, m) for _ in range(5)])
        calls = []

        def xi(w):
            calls.append(w.shape)
            return xi_value(A, w)

        grad = fd_chart_gradient(xi, Z)
        assert calls == [(5, 4 * (m - 1), m)] and grad.shape == (5, 2 * (m - 1))
        got = {
            "xi": xi_value(A, Z[:, None, :])[:, 0],
            "value": stack.value(Z),
            "cramer-rao": cramer_rao_residual(stack, Z),
            "morphism": lie_morphism_residual(A, B, Z),
            "bracket": _oracles._xi_bracket(A, B, projective._rays(Z)),
            "distance": fubini_study_distance(Z, Z[::-1]),
        }
        for i, (obs, z) in enumerate(zip(singles, Z)):
            np.testing.assert_allclose(
                grad[i], fd_chart_gradient(lambda w: xi_value(A[i], w), z),
                rtol=1e-13, atol=0)
            np.testing.assert_allclose(stack.hermitian_matrix()[i], obs.hermitian_matrix(),
                                       rtol=1e-13, atol=0)
            want = {
                "xi": xi_value(A[i], z),
                "value": obs.value(z),
                "cramer-rao": cramer_rao_residual(obs, z),
                "morphism": lie_morphism_residual(A[i], B[i], z),
                "bracket": _oracles._xi_bracket(A[i], B[i], projective._rays(z)),
                "distance": fubini_study_distance(z, Z[::-1][i]),
            }
            for key, value in want.items():
                assert got[key][i] == pytest.approx(value, rel=1e-13, abs=0), key

    @pytest.mark.parametrize("m", [2, 5])
    def test_spectra_and_projections_match_rows(self, m):
        rng = np.random.default_rng(90 + m)
        singles, stack, Z = observable_stack(rng, 6, m)
        report = spectrum_and_probabilities(stack, Z)
        assert report.levels.shape == report.probabilities.shape == (6, m)
        idx = rng.integers(0, m, size=6)
        proj, dist = eigenmanifold_projection(stack, report.levels[np.arange(6), idx], Z)
        for i, (obs, z) in enumerate(zip(singles, Z)):
            single = spectrum_and_probabilities(obs, z)
            np.testing.assert_allclose(report.levels[i], single.levels, rtol=1e-13, atol=0)
            np.testing.assert_allclose(report.probabilities[i], single.probabilities,
                                       rtol=1e-13, atol=0)
            point, d = eigenmanifold_projection(obs, single.levels[idx[i]], z)
            np.testing.assert_allclose(proj[i], point, rtol=1e-13, atol=0)
            assert dist[i] == pytest.approx(d, rel=1e-13, abs=0)

    def test_rows_with_fewer_levels_are_padded_at_probability_zero(self):
        frame = np.eye(3)
        stack = KahlerObservableCP([[0.0, 1.0, 2.0], [1.0, 1.0, 3.0]], [frame, frame])
        report = spectrum_and_probabilities(stack, [[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        np.testing.assert_array_equal(report.levels, [[0.0, 1.0, 2.0], [1.0, 3.0, 3.0]])
        np.testing.assert_allclose(report.probabilities, [[1 / 3] * 3, [1.0, 0.0, 0.0]])

    def test_stack_of_rays_needs_nonzero_rows(self):
        rng = np.random.default_rng(99)
        _, stack, Z = observable_stack(rng, 3, 3)
        Z[1] = 0.0
        with pytest.raises(DomainError, match="nonzero"):
            cramer_rao_residual(stack, Z)


def count_gradient_callbacks(monkeypatch):
    """Record, for every FD chart gradient from now on, how many times its
    callback is called: the kernel that takes read rays, which the public
    oracles, the brackets and ``cramer_rao_residual`` call, is counted."""
    counts = []
    grad = _oracles._chart_gradient

    def counted(fun):
        counts.append(0)
        slot = len(counts) - 1

        def wrapped(w):
            counts[slot] += 1
            return fun(w)
        return wrapped

    monkeypatch.setattr(_oracles, "_chart_gradient",
                        lambda fun, z: grad(counted(fun), z))
    return counts


class TestProjectiveSuiteCalls:
    def test_each_gradient_callback_is_called_once(self, monkeypatch):
        counts = count_gradient_callbacks(monkeypatch)
        assert verify.run_suite("projective", seed=5).passed
        # per m: one stack for the Cramer-Rao defect at the random rays and one at
        # the eigen-rays, which the critical gradient reads as well (m = 2..6), and
        # the chart gradient of one bracket's stacked pair (m = 2..5); each stack
        # calls its callback once
        assert len(counts) == 2 * 5 + 4
        assert set(counts) == {1}

    def test_chart_gradients_are_stacked_per_dimension(self, monkeypatch):
        calls = []
        original = _oracles._chart_gradient

        def counted(fun, z):
            calls.append(np.shape(z))
            return original(fun, z)

        monkeypatch.setattr(_oracles, "_chart_gradient", counted)
        assert verify.run_suite("all", seed=5).passed
        assert len(calls) <= 24  # 190 with one stencil per draw
        assert all(len(shape) == 2 for shape in calls)

    def test_one_structure_table_per_categorical_size(self, monkeypatch):
        calls = []
        original = tangent_bundle.kahler_structure_at

        def counted(fam, point):
            calls.append(fam.name)
            return original(fam, point)

        monkeypatch.setattr(tangent_bundle, "kahler_structure_at", counted)
        assert verify.run_suite("projective", seed=5).passed
        assert calls == ["categorical:3", "categorical:4"]
