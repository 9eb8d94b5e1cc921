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
    ExponentialFamilySpec,
    FiniteSpace,
    MAX_FAMILY_N,
    binomial_family,
    categorical_family,
    family,
    normal_family,
    normal_fixed_sigma_family,
)
from igk import verify
from igk.geometry import christoffel_alpha, curvature_tensor, fisher_metric, theta_grid
from igk.numerics import gauss_hermite, gauss_hermite_logs
from igk.specfile import family_from_dict
from igk.tangent_bundle import kahler_structure_at, lift


def softmax_probabilities(theta):
    """Independent oracle: p_i = exp(theta_i) / (1 + sum exp(theta))."""
    e = np.exp(np.asarray(theta, dtype=float))
    z = 1.0 + e.sum()
    return np.append(e / z, 1.0 / z)


def fixed_window(spec):
    """The family of the spec dict ``spec`` with an ``envelope`` hook that puts its one
    quadrature table at center 0, scale 1."""
    fam = family_from_dict(spec)
    return ExponentialFamilySpec(
        fam.name, fam.space, fam.carrier, fam.statistics, fam.log_partition, fam.domain,
        envelope=lambda rows: (np.zeros(len(rows)), np.ones(len(rows))))


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

    def test_spread_past_the_float_range_is_silent(self):
        # theta - max(0, theta) overflows to -inf, whose exp is an exact 0
        fam = categorical_family(3)
        theta = [1e308, -1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eta = fam.natural_to_expectation(theta)
            x, w = fam.weighted_support(theta)
            psi = fam.log_partition(np.array([theta]))
        np.testing.assert_array_equal(eta, [1.0, 0.0])
        np.testing.assert_array_equal(x, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(w, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(psi, [1e308])

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

    def test_both_charts_give_the_point(self):
        fam = categorical_family(3)
        theta = np.array([0.4, -0.1])
        eta = fam.natural_to_expectation(theta)
        np.testing.assert_allclose(fam._check_theta(tuple(theta)), theta, atol=0)
        np.testing.assert_allclose(fam.expectation_to_natural(tuple(eta)), theta, atol=1e-9)

    def test_unreachable_mean_raises(self):
        fam = binomial_family(3)
        with pytest.raises((NumericalError, DomainError)):
            fam.expectation_to_natural(np.array([3.5]))  # outside (0, n)

    def test_overflowing_categorical_target_is_refused_under_warnings_as_errors(self):
        # 1 - sum(eta) overflows to -inf: the documented refusal, not numpy's warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="must be positive with sum < 1$"):
                family("categorical:3").expectation_to_natural([1e308, 1e308])


class TestOverflowingClosedForm:
    """normal at theta2 = -1e-300 has variance 5e299: eta is finite, h is not."""

    def test_mean_map_stays_finite_and_silent(self):
        fam = normal_family()
        np.testing.assert_array_equal(fam.natural_to_expectation([0.0, -1e-300]),
                                      [0.0, 0.5 / 1e-300])
        eta, var = fam.mean_and_variance([0.0, -1e-300], lambda x: x)
        assert eta == 0.0 and math.isfinite(var)

    @pytest.mark.parametrize("order, call", [
        (2, fisher_metric),
        (3, lambda fam, th: fam.moment_tensors(th)),
    ])
    def test_fisher_matrix_past_the_float_range_is_refused(self, order, call):
        fam = normal_family()
        with pytest.raises(NumericalError, match=r"^normal: moment table is not finite$"):
            call(fam, [0.0, -1e-300])
        with pytest.raises(NumericalError, match=r"\(row 1\)$"):
            call(fam, [[0.0, -1.0], [0.0, -1e-300]])

    def test_newton_start_within_tolerance_reads_no_fisher_matrix(self):
        # mean_inverse starts eta2 = 1e300 within one ulp, where h = 2 v^2 overflows
        fam = normal_family()
        np.testing.assert_array_equal(fam.expectation_to_natural([0.0, 1e300]),
                                      [0.0, -5e-301])
        np.testing.assert_array_equal(
            fam.expectation_to_natural([[0.0, 1.0], [0.0, 1e300]]),
            [[0.0, -0.5], [0.0, -5e-301]])
        np.testing.assert_array_equal(fam.expectation_to_natural([0.0, 1e100]),
                                      [0.0, -5e-101])

    def test_large_target_converges_within_its_float_spacing(self):
        # an absolute 1e-12 lies below one ulp of 1e6: Newton used to stall here
        fam = normal_family()
        target = np.array([7.0, 1e6])
        residual = np.abs(fam.natural_to_expectation(fam.expectation_to_natural(target))
                          - target)
        assert residual.max() <= 4.0 * np.spacing(1e6)

    def test_hook_builds_no_term_above_its_order(self):
        fam = normal_family()
        with np.errstate(over="raise", invalid="raise"):
            assert len(fam.cumulants(np.array([[0.0, -1e-300]]), 1)) == 1
            with pytest.raises(FloatingPointError):
                fam.cumulants(np.array([[0.0, -1e-300]]), 2)


class TestStackedCharts:
    @pytest.mark.parametrize("name", BUILTIN_FAMILIES + ("bernoulli_spec", "half_gauss_spec"))
    def test_stack_matches_its_rows(self, name, request):
        fam = (family(name) if name in BUILTIN_FAMILIES
               else family_from_dict(request.getfixturevalue(name)))
        grid = theta_grid(fam)
        eta = fam.natural_to_expectation(grid)
        h = fisher_metric(fam, grid)
        back = fam.expectation_to_natural(eta)
        psi = fam.log_partition(grid)
        x, w = fam.weighted_support(grid)
        moments = fam.mean_and_variance(grid, np.sin)
        xs = fam.space.values() if fam.is_finite else np.linspace(-2.0, 2.0, 5)
        log_p = fam.log_density(grid, xs)
        assert eta.shape == grid.shape and h.shape == grid.shape + (fam.dim,)
        assert psi.shape == grid.shape[:1] and x.shape == w.shape
        assert log_p.shape == (len(grid), len(xs))
        np.testing.assert_array_equal(fam.density(grid, xs), np.exp(log_p))
        np.testing.assert_array_equal(fam.log_density(grid, xs[1]), log_p[:, 1])
        for i, (th, e, hi, b) in enumerate(zip(grid, eta, h, back)):
            np.testing.assert_array_equal(fam.natural_to_expectation(th), e)
            np.testing.assert_array_equal(fisher_metric(fam, th), hi)
            np.testing.assert_array_equal(fam.expectation_to_natural(e), b)
            np.testing.assert_array_equal(fam.log_partition(grid[i:i + 1]), psi[i:i + 1])
            np.testing.assert_array_equal(fam.weighted_support(th), (x[i], w[i]))
            np.testing.assert_array_equal(fam.mean_and_variance(th, np.sin),
                                          [c[i] for c in moments])
            np.testing.assert_array_equal(fam.log_density(th, xs), log_p[i])
        if fam.envelope is not None:
            center, scale = fam.envelope(grid)
            for i in range(len(grid)):
                np.testing.assert_array_equal(fam.envelope(grid[i:i + 1]),
                                              ([center[i]], [scale[i]]))
        np.testing.assert_allclose(back, grid, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES + ("user-bernoulli", "user-gauss-half"))
    def test_five_row_stack_is_its_single_calls(self, name):
        # rows from the middle to four times the far end of the sample box converge
        # after different numbers of passes: later passes read the rows still iterating
        fam = (family(name) if name in BUILTIN_FAMILIES else
               {"user-bernoulli": verify._user_finite_family,
                "user-gauss-half": verify._user_real_family}[name]())
        box = fam.sample_box
        theta = np.random.default_rng(31).uniform(box.lo, box.hi, size=(5, fam.dim))
        theta *= np.array([0.1, 0.5, 1.0, 2.0, 4.0])[:, None]
        eta = fam.natural_to_expectation(theta)
        stack = fam.expectation_to_natural(eta)
        for i in range(5):
            np.testing.assert_array_equal(fam.expectation_to_natural(eta[i]), stack[i])
        np.testing.assert_allclose(stack, theta, rtol=0, atol=1e-8)

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


class TestStackContract:
    def test_verify_calls_log_partition_once_per_stack(self, monkeypatch):
        # every theta callable takes a stack: 872 calls with one per row
        calls = []
        init = ExponentialFamilySpec.__init__

        def counted_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            psi = self.log_partition

            def counted(rows):
                calls.append(len(rows))
                return psi(rows)

            object.__setattr__(self, "log_partition", counted)

        monkeypatch.setattr(ExponentialFamilySpec, "__init__", counted_init)
        assert verify.run_suite("all", seed=5).passed
        assert 0 < len(calls) <= 60


class TestNewtonWork:
    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_exact_start_needs_no_solve(self, name, monkeypatch):
        # mean_inverse lands on the target: one table, and no step is solved
        # for a row that has already converged
        fam = family(name)
        eta = fam.natural_to_expectation(theta_grid(fam, 4)[1])
        calls = {"cumulants": 0, "solve": 0}
        cumulants, solve = ExponentialFamilySpec._cumulants, np.linalg.solve

        def counted_cumulants(self, rows, *rest):
            calls["cumulants"] += 1
            return cumulants(self, rows, *rest)

        def counted_solve(a, b):
            calls["solve"] += 1
            return solve(a, b)

        monkeypatch.setattr(ExponentialFamilySpec, "_cumulants", counted_cumulants)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        theta = fam.expectation_to_natural(eta)
        assert calls == {"cumulants": 1, "solve": 0}
        assert np.max(np.abs(fam.natural_to_expectation(theta) - eta)) < 1e-12

    @pytest.mark.parametrize("target, note", [([0.5], ""), ([[0.5], [0.6]], " (row 0)")])
    def test_a_start_table_that_fails_is_refused_at_once(self, target, note):
        # psi is NaN at the interior point 0, where every row starts: the damped steps
        # halved some 40 times before the stall was reported
        fam = family_from_dict({"kind": "finite", "n": 1, "points": [0, 1], "C": "0",
                                "F": ["x"], "psi": "ln(1 + exp(theta1)) + 0*(1/theta1)"})
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as excinfo:
            fam.expectation_to_natural(target)
        assert str(excinfo.value) == f"user-family: log_partition is not finite{note}"

    def test_one_log_partition_per_pass(self, monkeypatch):
        # the psi of the admissibility test also builds the candidates' table:
        # 7 passes took 14 calls when the table evaluated psi again; the first pass
        # reads the family's interior table, built once with its own psi, 7 tables
        # when the first pass tabulated the interior point once per target
        fam = family_from_dict({"kind": "finite", "n": 1, "points": [0, 1], "C": "0",
                                "F": ["x"], "psi": "ln(1 + exp(theta1))"})
        psi, cumulants = fam.log_partition, ExponentialFamilySpec._cumulants
        calls = {"log_partition": 0, "passes": 0}

        def counted_psi(rows):
            calls["log_partition"] += 1
            return psi(rows)

        def counted_cumulants(self, rows, *rest):
            calls["passes"] += 1
            return cumulants(self, rows, *rest)

        object.__setattr__(fam, "log_partition", counted_psi)
        monkeypatch.setattr(ExponentialFamilySpec, "_cumulants", counted_cumulants)
        target = np.array([[0.2], [0.5], [0.9]])
        theta = fam.expectation_to_natural(target)
        assert calls == {"log_partition": 7, "passes": 6}
        np.testing.assert_allclose(expit(theta), target, rtol=0, atol=1e-12)


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
        fam = fixed_window({
            "kind": "real_line", "n": 1, "C": "-(x^2)/2 - ln(2*pi)/2",
            "F": ["x"], "psi": "theta1^2/2"})
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

    def test_psi_off_by_a_millionth_is_refused_on_its_row(self):
        # the table reads no psi; the gate compares it with ln sum e^(C + <theta, F>)
        fam = family_from_dict({
            "kind": "finite", "n": 1, "points": [0, 1], "C": "0", "F": ["x"],
            "psi": "ln(1 + exp(theta1)) + 1e-6 * theta1^2"})
        for call in (fam.probabilities, lambda th: fam.log_density(th, [0.0, 1.0])):
            with pytest.raises(NumericalError, match=r"not normalized.*\(row 1\)$") as excinfo:
                call([[0.0], [1.0], [-0.1]])
            assert excinfo.value.residual == pytest.approx(1e-6, rel=1e-5)

    def test_categorical_tie_at_the_float_range(self):
        # ln p = (l - top) - ln z: x3's -1e308, not the -inf of ln of an underflowed p
        fam = family("categorical:3")
        log_p = fam.log_density([1e308, 1e308], [1.0, 2.0, 3.0])
        assert log_p.tolist() == [-math.log(2.0), -math.log(2.0), -1e308]
        assert fam.probabilities([1e308, 1e308]).tolist() == [0.5, 0.5, 0.0]

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
            with pytest.raises(NumericalError, match="log_partition is not finite$"):
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

    def test_gauss_hermite_rule_is_numpys_bit_for_bit(self):
        # every quadrature value of the verify report rests on this rule;
        # tobytes tells -0.0 from 0.0
        from numpy.polynomial.hermite import hermgauss

        for n in range(1, 257):
            for ours, numpys in zip(gauss_hermite(n), hermgauss(n)):
                assert ours.tobytes() == numpys.tobytes(), n
        with pytest.raises(ValueError, match="at least 1"):
            gauss_hermite(0)

    def test_log_rules_are_read_only_and_side_by_side(self):
        rule = gauss_hermite_logs(8, 16)
        for a in rule:
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert gauss_hermite_logs(8, 16)[0] is rule[0]
        t8, w8 = gauss_hermite(8)
        t16, w16 = gauss_hermite(16)
        np.testing.assert_array_equal(rule[0], np.concatenate([t8, t16]))
        np.testing.assert_array_equal(rule[1], np.log(np.concatenate([w8, w16])))
        np.testing.assert_array_equal(rule[2], rule[0] * rule[0])


def count_tables(monkeypatch):
    """A list that grows by one entry per carrier/statistic evaluation."""
    calls = []
    original = ExponentialFamilySpec._tables

    def counted(self, x):
        calls.append(np.shape(x))
        return original(self, x)

    monkeypatch.setattr(ExponentialFamilySpec, "_tables", counted)
    return calls


def last_envelope(monkeypatch):
    """A dict that holds the (center, scale) of the latest quadrature table built by
    ``_gh_rule`` and, under "rows", the row count of each such table."""
    seen = {}
    original = ExponentialFamilySpec._gh_rule

    def spied(self, rows, psi, center, scale, *orders):
        seen["center"], seen["scale"] = center.copy(), scale.copy()
        seen.setdefault("rows", []).append(len(rows))
        return original(self, rows, psi, center, scale, *orders)

    monkeypatch.setattr(ExponentialFamilySpec, "_gh_rule", spied)
    return seen


class TestGateTable:
    """The order-doubling gate evaluates its two rules as one table; a row
    without an envelope hook settles its table or moves it, at most three times."""

    def test_settled_row_evaluates_the_carrier_once(self, half_gauss_spec, monkeypatch):
        # N(0.15, 1) is exact to round-off under the default envelope (0, 1); the
        # family's start table is built on its first call, and a later settled call
        # evaluates no carrier
        fam = family_from_dict(half_gauss_spec)
        calls = count_tables(monkeypatch)
        fam.weighted_support([0.3])
        assert calls == [(1, 3 * fam.space.quad_order)]
        fam.weighted_support([0.5])
        fam.moment_tensors([[0.3], [-0.2], [1.0]])
        assert calls == [(1, 3 * fam.space.quad_order)]

    @pytest.mark.parametrize("theta", [19.0, 24.0])
    def test_far_row_moves_once(self, theta, half_gauss_spec, monkeypatch):
        # at 19 the first table passes the 1e-9 gate (change ~1e-11) but is not
        # settled: a table accepted by the gate alone jumps by up to 1e-9 in theta
        fam = family_from_dict(half_gauss_spec)
        calls = count_tables(monkeypatch)
        seen = last_envelope(monkeypatch)
        fam.weighted_support([theta])
        assert calls == [(1, 3 * fam.space.quad_order)] * 2
        # moved to the order-2q mean and std of x under N(theta / 2, 1)
        np.testing.assert_allclose([seen["center"][0], seen["scale"][0]],
                                   [theta / 2.0, 1.0], rtol=1e-6)

    @pytest.mark.parametrize("spec", ["halfgauss", "bimodal", "unevaluable"])
    def test_no_call_evaluates_more_than_four_tables(self, spec, half_gauss_spec,
                                                     monkeypatch):
        docs = {"halfgauss": half_gauss_spec,
                "bimodal": {"name": "bimodal", "kind": "real_line", "n": 1,
                            "C": "-(x^2 - 25)^2/2", "F": ["x"], "psi": "0"},
                "unevaluable": {"name": "odd", "kind": "real_line", "n": 1,
                                "C": "-x^2/2 + ln(x)", "F": ["x"], "psi": "0"}}
        # the family's first call builds its start table; beyond it, a call builds
        # one table per move, at most three, and a settled call none
        fam = family_from_dict(docs[spec])
        calls = count_tables(monkeypatch)
        seen = last_envelope(monkeypatch)
        for i, theta in enumerate(np.linspace(-70.0, 70.0, 29)):
            calls.clear()
            seen.clear()
            try:
                fam.weighted_support([theta])
            except NumericalError:
                pass
            moves = seen.get("rows", [])
            assert len(moves) <= 3, theta
            assert len(calls) == (i == 0) + len(moves), theta
            assert set(calls) <= {(1, 3 * fam.space.quad_order)}, theta

    def test_envelope_table_evaluates_the_carrier_once(self, monkeypatch):
        calls = count_tables(monkeypatch)
        family("normal").weighted_support([0.3, -0.5])
        assert calls == [(1, 3 * 64)]

    def test_settled_rows_keep_their_table_in_a_stack(self, half_gauss_spec, monkeypatch):
        # theta = 0.3 settles at once, 24 and -30 move: row i is its single call
        fam = family_from_dict(half_gauss_spec)
        fam.weighted_support([0.3])  # builds the family's start table
        thetas = [0.3, 24.0, -30.0]
        calls = count_tables(monkeypatch)
        stack = fam.weighted_support(np.reshape(thetas, (3, 1)))
        q = fam.space.quad_order
        assert calls == [(2, 3 * q)]  # the moved rows' table only
        tensors = fam.moment_tensors(np.reshape(thetas, (3, 1)))
        for i, theta in enumerate(thetas):
            for got, want in zip(stack, fam.weighted_support([theta])):
                assert got[i].tobytes() == want.tobytes(), theta
            for got, want in zip(tensors, fam.moment_tensors([theta])):
                assert got[i].tobytes() == want.tobytes(), theta

    def test_half_gauss_matches_its_closed_form_far_out(self, half_gauss_spec):
        # N(theta/2, 1) with statistic x/2: eta = theta/4, h = 1/4, T = 0
        fam = family_from_dict(half_gauss_spec)
        theta = np.linspace(-40.0, 40.0, 161)[:, None]
        eta, h, T = fam.moment_tensors(theta)
        np.testing.assert_allclose(eta, theta / 4.0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(h[:, 0, 0], 0.25, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(T[:, 0, 0, 0], 0.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("order", [64, 5])
    def test_unevaluable_density_is_refused_by_row(self, order):
        # ln(x) is NaN on the negative half of every grid, and -inf at the node
        # x = 0 of an odd order: no RuntimeWarning
        fam = family_from_dict({"name": "odd", "kind": "real_line", "n": 1,
                                "quad_order": order,
                                "C": "-x^2/2 + ln(x)", "F": ["x"], "psi": "0"})
        with pytest.raises(NumericalError,
                           match=r"^odd: quadrature weights not finite \(row 0\)$"):
            fam.weighted_support([[0.3], [0.2]])

    @pytest.mark.parametrize("theta2", [-2222.0, -1e5])
    def test_narrow_density_moves_until_its_table_holds_it(self, theta2):
        # N(0, sigma^2), sigma = 0.015 and 0.0022: the first table (center 0,
        # scale 1) misses the density, with an order-doubling change ~0
        fam = family_from_dict({"name": "narrow", "kind": "real_line", "n": 2,
                                "C": "0", "F": ["x", "x^2"],
                                "psi": "-theta1^2/(4*theta2) + ln(pi/(-theta2))/2"})
        var = -0.5 / theta2
        eta, h, _ = fam.moment_tensors([0.0, theta2])
        np.testing.assert_allclose(eta, [0.0, var], rtol=1e-12, atol=1e-18)
        np.testing.assert_allclose(h, [[var, 0.0], [0.0, 2.0 * var**2]],
                                   rtol=1e-12, atol=1e-18)

    @pytest.mark.parametrize("name, thetas", [("normal", None), ("halfgauss", None),
                                              ("halfgauss", [[24.0]])],
                             ids=["normal", "halfgauss", "halfgauss-moved"])
    def test_fused_rules_equal_separate_rules(self, name, thetas, half_gauss_spec,
                                              monkeypatch):
        fam = family(name) if name == "normal" else family_from_dict(half_gauss_spec)
        box = fam.sample_box
        rows = (np.random.default_rng(11).uniform(box.lo, box.hi, size=(5, fam.dim))
                if thetas is None else np.array(thetas))
        psi = fam.log_partition(rows)
        seen = last_envelope(monkeypatch)
        gated = fam._support(rows)
        q, k = fam.space.quad_order, len(rows)
        if name == "halfgauss" and thetas is None:  # every row settled on the start table
            assert not seen and gated[0].shape == (1, 2 * q)
            seen = {"center": np.zeros(k), "scale": np.ones(k)}
        center, scale = seen["center"], seen["scale"]  # where every row settled
        assert center.shape == (k,)
        gated = [np.broadcast_to(a, (k,) + a.shape[1:]) for a in gated]
        fused = fam._gh_rule(rows, psi, center, scale, q, 2 * q)
        for part, order in ((np.s_[..., :q], q), (np.s_[..., q:], 2 * q)):
            for got, want in zip(fused, fam._gh_rule(rows, psi, center, scale, order)):
                np.testing.assert_array_equal(got[part], want)
        # the gated table is the order-2q rule, to the bit
        x2, logw2, F2 = fam._gh_rule(rows, psi, center, scale, 2 * q)
        for got, want in zip(gated, (x2, np.exp(logw2), F2)):
            np.testing.assert_array_equal(got, want)


class TestStartTable:
    """A real-line row without an envelope hook starts from a table of its family built
    once: the nodes, base log weights, C and F of ``_gh_rule`` at center 0, scale 1."""

    def test_built_once_per_family(self, half_gauss_spec, monkeypatch):
        fam, other = family_from_dict(half_gauss_spec), family_from_dict(half_gauss_spec)
        calls = count_tables(monkeypatch)
        shape = (1, 3 * fam.space.quad_order)
        fam.weighted_support([0.3])
        fam.moment_tensors(np.array([[0.5], [-1.0]]))
        assert calls == [shape]  # one start table, no carrier for the settled calls
        fam.weighted_support([24.0])  # one table more for its one move
        assert calls == [shape] * 2
        other.weighted_support([0.3])  # keyed by the family, never by theta
        assert calls == [shape] * 3

    @pytest.mark.parametrize("name", ["halfgauss", "bernoulli"])
    def test_arrays_are_read_only(self, name, half_gauss_spec):
        doc = half_gauss_spec if name == "halfgauss" else {
            "name": "bernoulli", "kind": "finite", "n": 1, "points": [0, 1], "C": "0",
            "F": ["x"], "psi": "ln(1 + exp(theta1))"}
        fam = family_from_dict(doc)
        fam.weighted_support([0.3])
        for table in fam._support_tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[...] = 0.0

    @pytest.mark.parametrize("k", [1, 7, 50])
    def test_gated_table_equals_the_rule_at_the_origin(self, k, half_gauss_spec,
                                                      monkeypatch):
        # moving rows (20, 38, 48) and a refused one (60) among sample-box rows
        fam = family_from_dict(half_gauss_spec)
        q, box = fam.space.quad_order, fam.sample_box
        rows = np.random.default_rng(32).uniform(box.lo, box.hi, size=(k, 1))
        rows[:4, 0] = [20.0, 38.0, 48.0, 60.0][:k]
        psi = fam.log_partition(rows)
        x, C, F, base = fam._support_tables
        want = fam._gh_rule(rows, psi, np.zeros(k), np.ones(k), q, 2 * q)
        for got, table in zip((x, base + fam._log_p(rows, psi, C, F), F), want):
            assert np.broadcast_to(got, table.shape).tobytes() == table.tobytes()
        if k > 3:
            with pytest.raises(NumericalError, match=r"^halfgauss: quadrature did not converge "
                                                     r"under order doubling \(row 3\)$"):
                fam.weighted_support(rows)
            rows, psi = np.delete(rows, 3, 0), np.delete(psi, 3)
        seen = last_envelope(monkeypatch)
        gated = fam._support(rows)
        assert seen["rows"][0] == min(k, 3)  # rows 0-2 move, the sample-box rows settle
        x2, logw2, F2 = fam._gh_rule(rows, psi, np.zeros(len(rows)), np.ones(len(rows)),
                                     2 * q)
        for got, table in zip(gated, (x2, np.exp(logw2), F2)):
            got = np.broadcast_to(got, table.shape)
            assert got[3:].tobytes() == table[3:].tobytes()
            assert got[:3].tobytes() != table[:3].tobytes()


class TestSettleProduct:
    """The settle test reads each rule's weight sum z and raw first moments eta from one
    product with the augmented statistics G = [1; F]: change = max |M1 - M2| / max(1,
    max |M2|), the quantity that the separate sums and moments gave."""

    @pytest.mark.parametrize("name", ["halfgauss", "bernoulli"])
    def test_statistics_are_a_view_of_the_augmented_table(self, name, half_gauss_spec):
        doc = half_gauss_spec if name == "halfgauss" else {
            "name": "bernoulli", "kind": "finite", "n": 1, "points": [0, 1], "C": "0",
            "F": ["x"], "psi": "ln(1 + exp(theta1))"}
        fam = family_from_dict(doc)
        F = fam._support_tables[2]
        G = F.base
        assert G.shape[-2] == fam.dim + 1 and not G.flags.writeable
        assert np.shares_memory(F, G)
        assert np.all(G[..., 0, :] == 1.0)
        np.testing.assert_array_equal(G[..., 1:, :], F)

    @pytest.mark.parametrize("theta, moves", [(0.5, 0), (10.0, 0), (20.0, 1), (38.0, 1),
                                              (48.0, 2)])
    def test_half_gauss_keeps_its_tables(self, theta, moves, half_gauss_spec, monkeypatch):
        fam = family_from_dict(half_gauss_spec)
        q = fam.space.quad_order
        fam.weighted_support([0.3])  # builds the family's start table
        calls = count_tables(monkeypatch)
        built, original = [], ExponentialFamilySpec._gh_rule

        def spied(self, rows, psi, center, scale, *orders):
            built.append(original(self, rows, psi, center, scale, *orders))
            return built[-1]

        monkeypatch.setattr(ExponentialFamilySpec, "_gh_rule", spied)
        x, w, F = fam._support(np.array([theta]))
        assert len(calls) == len(built) == moves  # one carrier table per move
        rows = np.array([[theta]])
        psi = fam.log_partition(rows)
        x0, C, F0, base = fam._support_tables
        tables = [(x0, base + fam._log_p(rows, psi, C, F0), F0)] + built
        # the returned table is the last table's order-2q rule, to the bit
        xs, logw, Fs = tables[-1]
        for got, want in zip((x, w, F), (xs[:, q:], np.exp(logw[:, q:]), Fs[..., q:])):
            assert np.broadcast_to(got, want.shape).tobytes() == want.tobytes()
        # and each table settles (or not) as the separate sums and moments say
        for i, (_, logw, Fs) in enumerate(tables):
            w1, w2 = np.exp(logw[0, :q]), np.exp(logw[0, q:])
            z1, z2, eta1, eta2 = w1.sum(), w2.sum(), Fs[0, :, :q] @ w1, Fs[0, :, q:] @ w2
            change = (max(abs(z1 - z2), np.abs(eta1 - eta2).max())
                      / max(1.0, abs(z2), np.abs(eta2).max()))
            assert (change <= 1e-13 and abs(z2 - 1.0) <= 1e-7) == (i == moves), i

    def test_half_gauss_keeps_its_refusal_far_out(self, half_gauss_spec):
        fam = family_from_dict(half_gauss_spec)
        with pytest.raises(NumericalError, match=r"^halfgauss: quadrature did not converge "
                                                 r"under order doubling$") as err:
            fam.weighted_support([60.0])
        assert err.value.residual > 1e-9


def naive_logistic(c=1e6):
    """Bernoulli in s = c theta (statistic c x) with psi = ln(1 + e^s) written naively, so
    it overflows past s = 709.78 inside the domain s < 1000, exact cumulants, and the crude
    Newton start s = -40 for every target, from which the first steps overshoot.  Returns
    the family and a list of (rows, overflowing rows) of every psi call."""
    hook, reads = binomial_family(1).cumulants, []

    def psi(rows):
        with np.errstate(over="ignore"):
            out = np.log1p(np.exp(c * rows[:, 0]))
        reads.append((len(rows), int(np.isinf(out).sum())))
        return out

    def cumulants(rows, order):
        return tuple(m * c ** (i + 1) for i, m in enumerate(hook(c * rows, order)))

    fam = ExponentialFamilySpec("naive", FiniteSpace((0.0, 1.0)), np.zeros_like,
                                (lambda x: c * x,), psi, Box((-1e4 / c,), (1e3 / c,)),
                                mean_inverse=lambda eta: np.full_like(eta, -40.0 / c),
                                cumulants=cumulants)
    return fam, reads


class TestNewtonRoutes:
    """A pass that reads every row works on whole arrays; a pass that skips a row (its
    candidate outside the domain, or its psi not finite) reads a mask of them."""

    def test_masked_passes_keep_a_stack_equal_to_its_rows(self):
        fam, reads = naive_logistic()
        s = np.array([-33.0, -31.0, -20.0, -40.0])
        eta = 1e6 * expit(s)[:, None]
        stack = fam.expectation_to_natural(eta)
        assert any(0 < n < len(s) for n, _ in reads)  # a pass skipped a row outside
        assert any(inf for _, inf in reads)  # and a pass skipped an overflowing psi
        assert all(n for n, _ in reads)  # and no pass evaluated psi on no row
        for i in range(len(s)):
            assert stack[i].tobytes() == fam.expectation_to_natural(eta[i]).tobytes()
        np.testing.assert_allclose(1e6 * stack[:, 0], s, rtol=1e-5)

    def test_a_refused_row_keeps_its_text_and_residual(self):
        # s = 5 needs a step far past the domain: its step halves until it stalls
        fam, reads = naive_logistic()
        eta = 1e6 * expit(np.array([[-33.0], [5.0], [-31.0]]))
        with pytest.raises(NumericalError) as single:
            fam.expectation_to_natural(eta[1])
        with pytest.raises(NumericalError) as stacked:
            fam.expectation_to_natural(eta)
        # a halving whose every candidate lies outside the domain reads no psi
        assert len(reads) > 2 and all(n for n, _ in reads)
        assert str(single.value) == ("naive: damped Newton stalled; the target may lie "
                                     "outside the image of the mean map")
        assert str(stacked.value) == str(single.value) + " (row 1)"
        assert stacked.value.residual == single.value.residual > 0.0


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

    @pytest.mark.parametrize("theta, note", [([0.3], ""), ([[0.5], [0.3]], " (row 0)")],
                             ids=["single", "stack"])
    def test_density_undefined_at_x_is_refused_without_warning(self, theta, note):
        # ln(x) of the carrier is NaN at x < 0; ln 0 = -inf is density 0
        fam = family_from_dict({"name": "log-carrier", "kind": "real_line", "n": 1,
                                "C": "-x^2/2 + ln(x)", "F": ["x"], "psi": "theta1^2/2"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as excinfo:
                fam.log_density(theta, [1.0, -1.0])
            with pytest.raises(NumericalError):
                fam.density(theta, [-1.0])
            log_p = fam.log_density([0.3], [0.0, 1.0])
            p = fam.density([0.3], [0.0, 1.0])
        assert str(excinfo.value) == f"log-carrier: log-density is NaN at x = -1.0{note}"
        assert log_p[0] == -np.inf and p[0] == 0.0
        np.testing.assert_allclose(log_p[1], -0.5 + 0.3 - 0.045, rtol=1e-15)

    @pytest.mark.parametrize("call", [
        lambda fam, theta: fam.log_density(theta, [0, 1, 2, 3]),
        lambda fam, theta: fam.probabilities(theta),
        lambda fam, theta: fam.weighted_support(theta),
    ], ids=["log_density", "probabilities", "weighted_support"])
    @pytest.mark.parametrize("theta, note", [([1e308], ""), ([[0.0], [1e308]], " (row 1)")],
                             ids=["single", "stack"])
    def test_density_past_the_float_range_is_refused_without_warning(self, theta, note, call):
        # psi = 3 ln(1 + e^theta) overflows; theta x - psi read inf - inf = NaN at x >= 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as excinfo:
                call(family("binomial:3"), theta)
        assert str(excinfo.value) == f"binomial:3: log_partition is not finite{note}"

    @pytest.mark.parametrize("name, theta, message", [
        ("normal", [np.nan, -1.0], "normal: natural parameters must be finite"),
        ("normal", [0.5, np.inf], "normal: natural parameters must be finite"),
        ("binomial:3", [np.inf], "binomial:3: natural parameters must be finite"),
        ("normal", [0.5, 0.25], "normal: [0.5, 0.25] outside the natural domain"),
        ("normal", [[0.5, -1.0], [0.1, -2.0], [0.5, 0.25], [np.nan, -1.0]],
         "normal: [0.5, 0.25] outside the natural domain (row 2)"),
        ("categorical:3", [[0.0, 0.0], [1.0, 1.0], [np.nan, 0.0]],
         "categorical:3: natural parameters must be finite (row 2)"),
        ("binomial:3", [[0.0], [1.0], [np.inf], [2.0]],
         "binomial:3: natural parameters must be finite (row 2)"),
    ], ids=["nan", "inf", "inf-1d", "outside", "outside-row-2", "nan-row-2", "inf-row-2"])
    def test_refusal_names_the_first_bad_row_of_a_stack(self, name, theta, message):
        with pytest.raises(DomainError) as excinfo:
            family(name).moment_tensors(theta)
        assert str(excinfo.value) == message

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

    def test_naming_passes_an_error_of_no_table_through(self):
        error = DomainError("not a table's refusal")
        with pytest.raises(DomainError) as excinfo:
            with normal_family()._naming(np.zeros((2, 2))):
                raise error
        assert excinfo.value is error and str(error) == "not a table's refusal"


# every public function of a base point theta, at a valid rest
_TAKES_THETA = {
    "fisher_metric": fisher_metric,
    "christoffel_alpha": lambda fam, th: christoffel_alpha(fam, th, 0.5),
    "curvature_tensor": lambda fam, th: curvature_tensor(fam, th, 0.5),
    "moment_tensors": ExponentialFamilySpec.moment_tensors,
    "weighted_support": ExponentialFamilySpec.weighted_support,
    "kahler_structure_at": kahler_structure_at,
    "lift": lambda fam, th: lift(fam, th, [0.1]),
}
# theta that are not real numbers; on binomial:3 the number "0.5" spells and the real
# part of each complex case are valid theta
_NOT_REAL = {
    "numeric-string": "0.5",
    "string": "abc",
    "ragged": [[0.1], [0.2, 0.3]],
    "dict": {"theta": 0.1},
    "record": Box((0.0,), (1.0,)),
    "complex-scalar": 0.3 + 1j,
    "complex-list": [0.3 + 0j],
    "complex-stack": np.array([[0.3 + 1j], [0.1 + 0j]]),
}


class TestNonRealInput:
    """A base point is a real theta array: anything else gets one ``DomainError``
    naming the family, without a warning, before any table is built."""

    @pytest.mark.parametrize("theta", list(_NOT_REAL.values()), ids=list(_NOT_REAL))
    @pytest.mark.parametrize("call", list(_TAKES_THETA.values()), ids=list(_TAKES_THETA))
    def test_non_real_theta_is_refused(self, call, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as excinfo:
                call(family("binomial:3"), theta)
        assert str(excinfo.value) == "binomial:3: natural parameters must be real numbers"

    def test_complex_categorical_metric_is_refused(self):
        # the metric used to be read at the real part, with only a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^categorical:3: natural parameters must "
                                                  r"be real numbers$"):
                fisher_metric(family("categorical:3"), np.array([0.3 + 1j, 0.2]))

    @pytest.mark.parametrize("call", list(_TAKES_THETA.values()), ids=list(_TAKES_THETA))
    def test_whole_and_boolean_theta_are_their_floats(self, call):
        fam = family("binomial:3")
        assert repr(call(fam, [1])) == repr(call(fam, [1.0]))
        assert repr(call(fam, [True])) == repr(call(fam, [1.0]))

    @pytest.mark.parametrize("eta", [
        np.array([0.2 + 0.5j, 0.3]), [[0.2 + 0.5j, 0.3], [0.1, 0.2]], "abc", "0.2",
        [["0.2", "0.3"]], [[0.2, 0.3], [0.1]], {"eta": 0.2}, None,
    ], ids=["complex", "complex-stack", "string", "numeric-string", "string-stack",
            "ragged", "dict", "none"])
    def test_non_real_eta_is_refused(self, eta):
        # a complex target was cut to its real part with a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as excinfo:
                family("categorical:3").expectation_to_natural(eta)
        assert str(excinfo.value) == \
            "categorical:3: expectation parameters must be real numbers"

    def test_non_real_sample_points_are_refused(self):
        # a complex x raised a bare TypeError
        with pytest.raises(DomainError, match=r"^normal: sample points must be real numbers$"):
            family("normal").log_density([0.1, -1.0], [1j])

    def test_non_real_value_table_is_refused(self):
        # a complex value table raised a bare TypeError
        with pytest.raises(DomainError, match=r"^binomial:3: a value table must be real numbers$"):
            family("binomial:3").mean_and_variance([0.1], [1j, 0, 0, 0])
