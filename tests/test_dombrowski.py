"""Tangent-bundle Kähler structure and Hamiltonian flows of affine observables."""

import numpy as np
import pytest

from igk.errors import DomainError, NotKahlerError
from igk.families import BUILTIN_FAMILIES, ExponentialFamilySpec, family
from igk.geometry import fisher_metric, theta_grid
from igk.tangent_bundle import (
    LinearObservable,
    TangentBundlePoint,
    flow_isometry_residual,
    hamiltonian_flow_step,
    kahler_gradient_field,
    kahler_structure_at,
    linear_observable,
    metric_gradient_fd,
    omega_closedness_residual,
    poisson_bracket_linear,
)


def random_tb_point(fam, rng):
    theta = rng.uniform(fam.sample_box.lo, fam.sample_box.hi)
    return TangentBundlePoint(tuple(theta), tuple(rng.normal(size=fam.dim)))


class TestStructureMatrices:
    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_algebraic_identities(self, name):
        fam = family(name)
        rng = np.random.default_rng(31)
        n = fam.dim
        for _ in range(20):
            theta = rng.uniform(fam.sample_box.lo, fam.sample_box.hi)
            s = kahler_structure_at(fam, theta)
            J, G, Om = s.complex_structure, s.metric, s.omega
            np.testing.assert_allclose(J @ J, -np.eye(2 * n), atol=1e-14)
            np.testing.assert_allclose(Om, J.T @ G, atol=1e-14)
            np.testing.assert_allclose(G, J.T @ G @ J, atol=1e-12)
            np.testing.assert_allclose(Om, -Om.T, atol=1e-12)

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_base_block_is_fisher(self, name):
        fam = family(name)
        theta = theta_grid(fam, 4)[0]
        s = kahler_structure_at(fam, theta)
        n = fam.dim
        h = fisher_metric(fam, theta)
        np.testing.assert_allclose(s.metric[:n, :n], h, atol=0)
        np.testing.assert_allclose(s.metric[n:, n:], h, atol=0)
        np.testing.assert_allclose(s.metric[:n, n:], 0 * h, atol=0)
        np.testing.assert_allclose(s.base_metric, h, atol=0)

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_omega_closed(self, name):
        fam = family(name)
        for theta in theta_grid(fam, 4):
            assert omega_closedness_residual(fam, theta) < 1e-6


class TestAffineObservables:
    def test_fit_recovers_affine_table(self):
        fam = family("binomial:3")
        k = fam.space.values()
        obs = linear_observable(fam, 2.0 + 5.0 * k)
        assert obs.a0 == pytest.approx(2.0, abs=1e-10)
        np.testing.assert_allclose(obs.coeffs, [5.0], atol=1e-10)

    def test_full_span_on_categorical(self):
        # indicators plus the constant span everything on 3 points,
        # so even x^2 is affine in the statistics there
        fam = family("categorical:3")
        x = fam.space.values()
        obs = linear_observable(fam, x**2)
        design = np.vstack([np.ones_like(x), fam.statistic_matrix(x)]).T
        recovered = design @ np.concatenate([[obs.a0], obs.coeffs])
        np.testing.assert_allclose(recovered, x**2, atol=1e-9)

    def test_quadratic_rejected_on_proper_span(self):
        fam = family("binomial:3")
        k = fam.space.values()
        with pytest.raises(NotKahlerError):
            linear_observable(fam, k**2)

    def test_continuous_space_needs_explicit_coefficients(self):
        fam = family("normal_fixed_sigma")
        with pytest.raises(NotKahlerError):
            linear_observable(fam, lambda x: x)
        obs = linear_observable(fam, LinearObservable(1.0, (2.0,)))
        assert obs.coeffs == (2.0,)

    def test_base_value_is_affine_in_mean(self):
        fam = family("binomial:3")
        obs = LinearObservable(2.0, (5.0,))
        theta = np.array([0.4])
        eta = fam.natural_to_expectation(theta)
        assert obs.base_value(fam, theta) == pytest.approx(2.0 + 5.0 * eta[0])


class TestHamiltonianFlow:
    def test_gradient_field_is_constant(self):
        # grad = h^{-1} (h a) = a independent of the base point
        fam = family("categorical:3")
        obs = LinearObservable(0.7, (1.5, -2.0))
        field = kahler_gradient_field(fam, obs)
        np.testing.assert_allclose(field, [1.5, -2.0], atol=0)
        field_at = kahler_gradient_field(
            fam, obs, TangentBundlePoint((0.3, 0.4), (0.0, 0.0))
        )
        np.testing.assert_allclose(field_at, [1.5, -2.0], atol=0)

    def test_flow_translates_fiber(self):
        fam = family("categorical:3")
        obs = LinearObservable(0.0, (1.0, 2.0))
        pt = TangentBundlePoint((0.2, -0.1), (0.5, 0.5))
        moved = hamiltonian_flow_step(fam, obs, pt, 0.25)
        np.testing.assert_allclose(moved.base_array, pt.base_array, atol=0)
        np.testing.assert_allclose(
            moved.fiber_array, pt.fiber_array - 0.25 * np.array([1.0, 2.0]), atol=0
        )

    def test_flow_is_additive(self):
        fam = family("binomial:3")
        obs = LinearObservable(1.0, (3.0,))
        pt = TangentBundlePoint((0.3,), (-0.2,))
        once = hamiltonian_flow_step(fam, obs, pt, 0.7)
        twice = hamiltonian_flow_step(fam, obs, once, 0.3)
        direct = hamiltonian_flow_step(fam, obs, pt, 1.0)
        np.testing.assert_allclose(twice.fiber_array, direct.fiber_array, atol=1e-15)

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_affine_flows_are_isometries(self, name):
        fam = family(name)
        rng = np.random.default_rng(37)
        obs = LinearObservable(rng.normal(), tuple(rng.normal(size=fam.dim)))
        for _ in range(5):
            pt = random_tb_point(fam, rng)
            assert flow_isometry_residual(fam, obs, pt, 1.0) < 1e-8

    def test_non_affine_flow_breaks_isometry(self):
        fam = family("binomial:3")
        pt = TangentBundlePoint((0.3,), (0.4,))
        residual = flow_isometry_residual(fam, lambda k: k**2, pt, 1.0)
        assert residual > 1e-3

    def test_non_affine_flow_makes_one_support_table(self, monkeypatch):
        # 4n^2 inner stencil points in one table, the 2n outer metrics in one
        # call, the structure at the point in one more
        fam = family("binomial:3")
        support, moments = [], []
        originals = ExponentialFamilySpec._support, ExponentialFamilySpec._cumulants

        def counted_support(self, theta):
            support.append(np.shape(theta))
            return originals[0](self, theta)

        def counted_moments(self, theta, order):
            moments.append(np.shape(theta))
            return originals[1](self, theta, order)

        monkeypatch.setattr(ExponentialFamilySpec, "_support", counted_support)
        monkeypatch.setattr(ExponentialFamilySpec, "_cumulants", counted_moments)
        pt = TangentBundlePoint((0.3,), (0.4,))
        assert flow_isometry_residual(fam, np.arange(4.0) ** 2, pt, 1.0) > 1e-3
        assert support == [(4, 1)]
        assert moments == [(2, 1), (1,)]

    def test_real_line_quadratic_reads_closed_form(self):
        # sigma = 1: E[x^2] = theta^2 + 1 has Fisher gradient 2 theta, so
        # Dphi = [[1, 0], [-2t, 1]] and Dphi^T G Dphi - G peaks at (2t)^2
        fam = family("normal_fixed_sigma")
        pt = TangentBundlePoint((0.3,), (0.4,))
        residual = flow_isometry_residual(fam, lambda x: x**2, pt, 1.0)
        assert residual == pytest.approx(4.0, abs=1e-6)

    def test_real_line_affine_callable_is_isometric(self):
        # x^2 is the second statistic of the normal family
        fam = family("normal")
        pt = TangentBundlePoint((0.3, -0.7), (0.4, 0.1))
        assert flow_isometry_residual(fam, lambda x: x**2, pt, 1.0) < 1e-6

    def test_real_line_value_table_rejected(self):
        fam = family("normal")
        pt = TangentBundlePoint((0.3, -0.7), (0.4, 0.1))
        with pytest.raises(DomainError):
            flow_isometry_residual(fam, np.arange(4.0), pt, 1.0)

    def test_real_line_flow_makes_one_support_table(self, monkeypatch):
        fam = family("normal")
        support = []
        original = ExponentialFamilySpec._support

        def counted_support(self, theta):
            support.append(np.shape(theta))
            return original(self, theta)

        monkeypatch.setattr(ExponentialFamilySpec, "_support", counted_support)
        pt = TangentBundlePoint((0.3, -0.7), (0.4, 0.1))
        assert flow_isometry_residual(fam, lambda x: x**3, pt, 1.0) > 1e-3
        assert support == [(16, 2)]

    def test_affine_lifts_commute(self):
        fam = family("categorical:3")
        rng = np.random.default_rng(41)
        a = LinearObservable(rng.normal(), tuple(rng.normal(size=2)))
        b = LinearObservable(rng.normal(), tuple(rng.normal(size=2)))
        for _ in range(5):
            theta = rng.uniform(-1.5, 1.5, size=2)
            assert abs(poisson_bracket_linear(fam, a, b, theta)) < 1e-14

    def test_metric_gradient_agrees_for_affine(self):
        fam = family("categorical:3")
        obs = LinearObservable(0.0, (1.0, -1.0))
        theta = np.array([0.4, 0.1])
        fd = metric_gradient_fd(
            fam, lambda th: obs.base_value(fam, th), theta
        )
        np.testing.assert_allclose(fd, [1.0, -1.0], atol=1e-6)
