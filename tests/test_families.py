"""Exponential-family structure: densities, charts, moment maps."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import binom, norm

from igk.errors import DomainError, NumericalError
from igk.families import (
    BUILTIN_FAMILIES,
    Box,
    ExpectationPoint,
    ExponentialFamilySpec,
    FiniteSpace,
    NaturalPoint,
    MAX_FAMILY_N,
    binomial_family,
    categorical_family,
    family,
    normal_family,
    normal_fixed_sigma_family,
)
from igk.geometry import theta_grid
from igk.numerics import gauss_hermite
from igk.specfile import family_from_dict


def softmax_probabilities(theta):
    """Independent oracle: p_i = exp(theta_i) / (1 + sum exp(theta))."""
    e = np.exp(np.asarray(theta, dtype=float))
    z = 1.0 + e.sum()
    return np.append(e / z, 1.0 / z)


class TestCategorical:
    def test_probabilities_match_softmax(self):
        fam = categorical_family(4)
        rng = np.random.default_rng(11)
        for _ in range(20):
            theta = rng.uniform(-2, 2, size=3)
            np.testing.assert_allclose(
                fam.probabilities(theta), softmax_probabilities(theta),
                rtol=0, atol=1e-14,
            )

    def test_uniform_at_origin(self):
        fam = categorical_family(3)
        np.testing.assert_allclose(
            fam.probabilities([0.0, 0.0]), np.full(3, 1.0 / 3.0), atol=1e-15
        )

    def test_mean_parameters_are_leading_probabilities(self):
        fam = categorical_family(3)
        theta = np.array([0.7, -0.4])
        eta = fam.natural_to_expectation(theta)
        np.testing.assert_allclose(eta, fam.probabilities(theta)[:2], atol=1e-14)


class TestBinomial:
    def test_probabilities_match_scipy(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 9):
            fam = binomial_family(n)
            for _ in range(10):
                theta = rng.uniform(-2, 2)
                expected = binom.pmf(np.arange(n + 1), n, expit(theta))
                np.testing.assert_allclose(
                    fam.probabilities([theta]), expected, rtol=0, atol=1e-14
                )

    def test_mean_is_n_sigmoid(self):
        fam = binomial_family(7)
        for t in (0.35, -0.35, 30.0, -800.0, 800.0):
            theta = np.array([t])
            np.testing.assert_allclose(
                fam.natural_to_expectation(theta), [7 * expit(t)], atol=1e-13
            )

    def test_off_support_points_are_rejected(self):
        fam = binomial_family(3)
        for x in (1.5, -1.0, 4.0, math.nan):
            with pytest.raises(DomainError):
                fam.log_density([0.3], x)


class TestNormal:
    def test_density_matches_scipy(self):
        fam = normal_family()
        rng = np.random.default_rng(3)
        for _ in range(10):
            theta = np.array([rng.uniform(-2, 2), rng.uniform(-3, -0.3)])
            sigma2 = -1.0 / (2.0 * theta[1])
            mu = theta[0] * sigma2
            xs = rng.normal(mu, math.sqrt(sigma2), size=7)
            np.testing.assert_allclose(
                fam.density(theta, xs),
                norm.pdf(xs, loc=mu, scale=math.sqrt(sigma2)),
                rtol=1e-12,
            )

    def test_moments(self):
        fam = normal_family()
        theta = np.array([1.0, -0.5])  # mu = 1, sigma^2 = 1
        mean, var = fam.mean_and_variance(theta, lambda x: x)
        np.testing.assert_allclose([mean, var], [1.0, 1.0], atol=1e-10)

    def test_fixed_sigma_density(self):
        fam = normal_fixed_sigma_family()
        xs = np.linspace(-2, 4, 9)
        np.testing.assert_allclose(
            fam.density([1.5], xs), norm.pdf(xs, loc=1.5, scale=1.0), rtol=1e-12
        )


class TestCharts:
    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_mean_map_roundtrip(self, name):
        fam = family(name)
        rng = np.random.default_rng(17)
        lo = np.asarray(fam.sample_box.lo)
        hi = np.asarray(fam.sample_box.hi)
        for _ in range(25):
            theta = rng.uniform(lo, hi)
            eta = fam.natural_to_expectation(theta)
            back = fam.expectation_to_natural(eta)
            np.testing.assert_allclose(back, theta, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_closed_mean_map_matches_gradient(self, name):
        fam = family(name)
        stripped = fam.__class__(
            name=fam.name,
            space=fam.space,
            carrier=fam.carrier,
            statistics=fam.statistics,
            log_partition=fam.log_partition,
            domain=fam.domain,
            sample_box=fam.sample_box,
        )
        rng = np.random.default_rng(23)
        theta = rng.uniform(fam.sample_box.lo, fam.sample_box.hi)
        np.testing.assert_allclose(
            fam.natural_to_expectation(theta),
            stripped.natural_to_expectation(theta),
            rtol=0,
            atol=1e-7,
        )

    def test_point_wrappers(self):
        fam = categorical_family(3)
        theta = np.array([0.4, -0.1])
        eta = fam.natural_to_expectation(theta)
        np.testing.assert_allclose(
            fam.natural_coords(NaturalPoint(tuple(theta))), theta, atol=0
        )
        np.testing.assert_allclose(
            fam.natural_coords(ExpectationPoint(tuple(eta))), theta, atol=1e-9
        )

    def test_unreachable_mean_raises(self):
        fam = binomial_family(3)
        with pytest.raises((NumericalError, DomainError)):
            fam.expectation_to_natural(np.array([3.5]))  # outside (0, n)


class TestStackedCharts:
    @pytest.mark.parametrize("name", BUILTIN_FAMILIES + ("bernoulli_spec", "half_gauss_spec"))
    def test_stack_matches_its_rows(self, name, request):
        fam = (family(name) if name in BUILTIN_FAMILIES
               else family_from_dict(request.getfixturevalue(name)))
        grid = theta_grid(fam)
        eta = fam.natural_to_expectation(grid)
        h = fam.log_partition_hessian(grid)
        back = fam.expectation_to_natural(eta)
        assert eta.shape == grid.shape and h.shape == grid.shape + (fam.dim,)
        for th, e, hi, b in zip(grid, eta, h, back):
            np.testing.assert_array_equal(fam.natural_to_expectation(th), e)
            np.testing.assert_array_equal(fam.log_partition_hessian(th), hi)
            np.testing.assert_array_equal(fam.expectation_to_natural(e), b)
        np.testing.assert_allclose(back, grid, rtol=0, atol=1e-12)

    def test_in_image_target_near_the_edge_is_inverted(self, bernoulli_spec):
        # the Fisher matrix there is ~1e-9, below the reach of a differenced psi
        fam = family_from_dict(bernoulli_spec)
        target = 1.0 - 1e-9
        theta = fam.expectation_to_natural([target])
        assert abs(fam.natural_to_expectation(theta)[0] - target) < 1e-12

    # -5 reaches theta < -745, where the table's Fisher matrix is exactly 0
    @pytest.mark.parametrize("target", [[1.5], [-0.2], [-5.0], [[0.3], [1.5]]])
    def test_out_of_image_target_stalls_with_its_residual(self, target, bernoulli_spec):
        fam = family_from_dict(bernoulli_spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # psi overflows past theta ~ 710
            with pytest.raises(NumericalError, match="stalled") as excinfo:
                fam.expectation_to_natural(target)
        message = str(excinfo.value)
        assert excinfo.value.residual > 0.1
        assert "log_partition is not finite" not in message
        assert ("(row 1)" in message) == (np.ndim(target) == 2)


class TestNewtonWork:
    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_exact_start_needs_no_solve(self, name, monkeypatch):
        # mean_inverse lands on the target: one table, and no step is solved
        # for a row that has already converged
        fam = family(name)
        eta = fam.natural_to_expectation(theta_grid(fam, 4)[1])
        calls = {"cumulants": 0, "solve": 0}
        cumulants, solve = ExponentialFamilySpec._cumulants, np.linalg.solve

        def counted_cumulants(self, rows, order):
            calls["cumulants"] += 1
            return cumulants(self, rows, order)

        def counted_solve(a, b):
            calls["solve"] += 1
            return solve(a, b)

        monkeypatch.setattr(ExponentialFamilySpec, "_cumulants", counted_cumulants)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        theta = fam.expectation_to_natural(eta)
        assert calls == {"cumulants": 1, "solve": 0}
        assert np.max(np.abs(fam.natural_to_expectation(theta) - eta)) < 1e-12


class TestStructure:
    def test_weighted_support_normalized(self):
        for name in BUILTIN_FAMILIES:
            fam = family(name)
            theta = np.zeros(fam.dim) if fam.is_finite else np.array(
                [0.0, -0.5][: fam.dim]
            )
            _, w = fam.weighted_support(theta)
            np.testing.assert_allclose(w.sum(), 1.0, atol=1e-9)

    def test_statistic_independence_positive(self):
        for name in BUILTIN_FAMILIES:
            assert family(name).statistic_independence_margin() > 1e-12

    def test_value_table_moments(self):
        fam = categorical_family(3)
        table = np.array([1.0, 4.0, 9.0])
        mean, var = fam.mean_and_variance([0.0, 0.0], table)
        np.testing.assert_allclose(mean, 14.0 / 3.0, atol=1e-13)
        np.testing.assert_allclose(var, np.mean((table - 14.0 / 3.0) ** 2), atol=1e-13)


class TestNormalizationGate:
    def test_table_that_misses_the_density_is_refused(self):
        # a fixed envelope at 0 misses N(30, 1): both Gauss-Hermite orders
        # agree on weights that sum to ~2e-16
        fam = family_from_dict({
            "kind": "real_line", "n": 1, "C": "-(x^2)/2 - ln(2*pi)/2",
            "F": ["x"], "psi": "theta1^2/2",
            "envelope": {"center": 0, "scale": 1}})
        for call in (lambda: fam.weighted_support([30.0]),
                     lambda: fam.mean_and_variance([30.0], lambda x: x)):
            with pytest.raises(NumericalError, match="not normalized") as excinfo:
                call()
            assert excinfo.value.residual == pytest.approx(1.0, abs=1e-9)

    def test_worst_row_of_a_stack_is_named_with_its_residual(self):
        # psi is off by theta1^2, so the table sums to exp(-theta1^2)
        fam = family_from_dict({
            "kind": "finite", "n": 1, "points": [0, 1], "C": "0", "F": ["x"],
            "psi": "ln(1 + exp(theta1)) + theta1^2"})
        fam.weighted_support([0.0])
        with pytest.raises(NumericalError, match=r"\(row 1\)") as excinfo:
            fam.moment_tensors([[0.0], [0.5], [-0.1]])
        assert excinfo.value.residual == pytest.approx(1.0 - math.exp(-0.25), rel=1e-9)

    def test_probabilities_of_a_contradicting_psi_are_refused(self):
        # psi = theta1 instead of ln(1 + e^theta1): p = (0.607, 1.0) at 0.5
        fam = family_from_dict({
            "kind": "finite", "n": 1, "points": [0, 1], "C": "0", "F": ["x"],
            "psi": "theta1"})
        with pytest.raises(NumericalError, match="not normalized") as excinfo:
            fam.probabilities([0.5])
        assert excinfo.value.residual == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_nonfinite_psi_row_is_named(self):
        fam = family_from_dict({
            "kind": "finite", "n": 1, "points": [0, 1], "C": "0", "F": ["x"],
            "psi": "ln(1 + exp(theta1)) + 0*(1/theta1)"})
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match="log_partition is not finite at"):
                fam.probabilities([0.0])
            with pytest.raises(NumericalError, match=r"not finite \(row 1\)"):
                fam.moment_tensors([[0.5], [0.0], [-0.5]])


class TestCachedRules:
    def test_gauss_hermite_rule_is_read_only(self):
        # the lru_cache hands the same arrays to every later quadrature
        t, w = gauss_hermite(8)
        for a in (t, w):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert gauss_hermite(8)[0] is t


class TestValidation:
    def test_unknown_family_name(self):
        with pytest.raises(DomainError):
            family("nosuch")
        with pytest.raises(DomainError):
            family("categorical:x")

    def test_theta_shape_checked(self):
        fam = categorical_family(3)
        with pytest.raises(DomainError):
            fam.probabilities([0.0])
        with pytest.raises(DomainError):
            fam.probabilities([0.0, np.inf])

    def test_domain_enforced(self):
        fam = normal_family()
        with pytest.raises(DomainError):
            fam.density([0.0, 0.5], 0.0)  # theta2 >= 0 is outside the domain

    def test_builtin_size_capped(self):
        for name in (f"categorical:{MAX_FAMILY_N + 1}", f"binomial:{MAX_FAMILY_N + 1}"):
            with pytest.raises(DomainError, match=str(MAX_FAMILY_N)):
                family(name)

    def test_finite_space_needs_two_points(self):
        with pytest.raises(DomainError):
            FiniteSpace((1.0,))

    def test_box_needs_interior(self):
        with pytest.raises(DomainError):
            Box((0.0,), (0.0,))

    def test_probabilities_need_finite_space(self):
        with pytest.raises(DomainError):
            normal_family().probabilities([0.0, -0.5])
