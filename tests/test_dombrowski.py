"""Tangent-bundle Kähler structure and Hamiltonian flows of affine observables."""

import warnings

import numpy as np
import pytest

from igk import _oracles
from igk._oracles import flow_isometry_residual, metric_gradient_fd, omega_closedness_residual
from igk.errors import DomainError, NotKahlerError
from igk.families import BUILTIN_FAMILIES, ExponentialFamilySpec, family
from igk.geometry import fisher_metric, theta_grid
from igk.tangent_bundle import (
    LinearObservable,
    hamiltonian_flow_step,
    kahler_structure_at,
    lift,
    linear_observable,
)

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

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_omega_closedness_stack_matches_its_rows(self, name):
        fam = family(name)
        grid = theta_grid(fam, 4)
        residuals = omega_closedness_residual(fam, grid)
        assert residuals.shape == grid.shape[:1]
        for theta, r in zip(grid, residuals):
            assert omega_closedness_residual(fam, theta) == r

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_flow_stacks_match_their_rows(self, name):
        fam = family(name)
        grid = theta_grid(fam, 4)
        a = LinearObservable(0.3, tuple(np.linspace(-1.0, 1.0, fam.dim)))
        h = fisher_metric(fam, grid)
        got = {"linear": flow_isometry_residual(fam, a, grid, h, 0.7),
               "cubic": flow_isometry_residual(fam, lambda x: x ** 3, grid, h, 0.7)}
        for i, theta in enumerate(grid):
            want = {"linear": flow_isometry_residual(fam, a, theta, h[i], 0.7),
                    "cubic": flow_isometry_residual(fam, lambda x: x ** 3, theta, h[i], 0.7)}
            for key, value in want.items():
                assert got[key].shape == grid.shape[:1]
                np.testing.assert_array_equal(got[key][i], value, err_msg=key)


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

    def test_span_gate_is_relative_to_the_largest_value(self):
        # 1e-12 x^2 is as far from affine as x^2; 1e300 x is affine however large
        fam = family("binomial:3")
        k = fam.space.values()
        with pytest.raises(NotKahlerError, match="not affine"):
            linear_observable(fam, 1e-12 * k**2)
        obs = linear_observable(fam, lambda x: 1e300 * x)
        assert obs.coeffs[0] == pytest.approx(1e300, rel=1e-12)
        assert abs(obs.a0) <= 1e-9 * 3e300

    @pytest.mark.parametrize("observable", [
        pytest.param([0.0, np.nan, 2.0, 3.0], id="nan-entry"),
        pytest.param(lambda x: np.inf * x, id="inf-callable"),
        pytest.param(lambda x: np.log(x - 1.0), id="log-callable"),
    ])
    def test_non_finite_values_are_refused(self, observable):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="binomial:3: observable values must be finite"):
                linear_observable(family("binomial:3"), observable)

    @pytest.mark.parametrize("a0, coeffs", [(np.nan, (1.0,)), (0.0, (np.inf,)),
                                            (np.nan, (np.inf,))])
    def test_non_finite_coefficients_are_refused(self, a0, coeffs):
        with pytest.raises(DomainError, match="observable coefficients must be finite"):
            LinearObservable(a0, coeffs)


class TestHamiltonianFlow:
    def test_flow_translates_fiber(self):
        fam = family("categorical:3")
        obs = LinearObservable(0.0, (1.0, 2.0))
        theta, v = np.array([0.2, -0.1]), np.array([0.5, 0.5])
        base, fiber = hamiltonian_flow_step(fam, obs, theta, v, 0.25)
        np.testing.assert_allclose(base, theta, atol=0)
        np.testing.assert_allclose(fiber, v - 0.25 * np.array([1.0, 2.0]), atol=0)

    def test_flow_is_additive(self):
        fam = family("binomial:3")
        obs = LinearObservable(1.0, (3.0,))
        once = hamiltonian_flow_step(fam, obs, [0.3], [-0.2], 0.7)
        twice = hamiltonian_flow_step(fam, obs, *once, 0.3)
        direct = hamiltonian_flow_step(fam, obs, [0.3], [-0.2], 1.0)
        np.testing.assert_allclose(twice[1], direct[1], atol=1e-15)

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_flow_stack_matches_its_rows(self, name):
        fam = family(name)
        rng = np.random.default_rng(43)
        obs = LinearObservable(rng.normal(), tuple(rng.normal(size=fam.dim)))
        theta = rng.uniform(fam.sample_box.lo, fam.sample_box.hi, size=(5, fam.dim))
        v = rng.normal(size=(5, fam.dim))
        base, fiber = hamiltonian_flow_step(fam, obs, theta, v, 0.7)
        assert base.shape == fiber.shape == theta.shape
        for i in range(len(theta)):
            single = hamiltonian_flow_step(fam, obs, theta[i], v[i], 0.7)
            assert base[i].tobytes() == single[0].tobytes()
            assert fiber[i].tobytes() == single[1].tobytes()

    def test_flow_validates_its_point(self):
        fam, obs = family("categorical:3"), LinearObservable(0.0, (1.0, 2.0))
        with pytest.raises(DomainError, match="natural parameters must be finite"):
            hamiltonian_flow_step(fam, obs, [np.nan, 0.0], [0.0, 0.0], 1.0)
        with pytest.raises(DomainError, match=r"the fiber needs shape \(2,\), got \(1,\)"):
            hamiltonian_flow_step(fam, obs, [0.0, 0.0], [0.0], 1.0)
        with pytest.raises(DomainError, match="observable has wrong dimension"):
            hamiltonian_flow_step(fam, LinearObservable(0.0, (1.0,)), [0.0, 0.0], [0.0, 0.0], 1.0)

    @pytest.mark.parametrize("v", [[0.5 + 1j, 0.0], np.array([[0.5 + 0j, 0.0]]), "ab",
                                   [[0.5], [0.0, 0.1]], object()],
                             ids=["complex", "complex-stack", "string", "ragged", "object"])
    def test_a_non_real_fiber_is_refused(self, v):
        # a complex fiber was cut to its real part with a ComplexWarning
        fam, obs = family("categorical:3"), LinearObservable(0.0, (1.0, 2.0))
        theta = np.zeros(np.shape(v)) if isinstance(v, np.ndarray) else np.zeros(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: hamiltonian_flow_step(fam, obs, theta, v, 1.0),
                         lambda: lift(fam, theta, v)):
                with pytest.raises(DomainError, match=r"^categorical:3: the fiber must be "
                                                      r"real numbers$"):
                    call()

    @pytest.mark.parametrize("theta, v", [
        (np.array([0.3 + 1j]), [0.1]), ([0.3], [0.1 + 1j]), ([0.3], "a"), ([0.3], [0.1, 0.2]),
    ], ids=["complex-theta", "complex-fiber", "string-fiber", "fiber-shape"])
    def test_lift_jacobian_refuses_a_non_real_point(self, theta, v):
        # a complex theta was cut to its real part with only a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^binomial:3: \(theta, v\) must be real "
                                                  r"arrays of one shape$"):
                _oracles.lift_jacobian(family("binomial:3"), theta, v)

    @pytest.mark.parametrize("t, theta, v, note", [
        (1e308, [0.0], [0.0], ""), (5e307, [[0.0], [0.0]], [[0.0], [-1e308]], " (row 1)"),
    ])
    def test_flow_never_returns_a_non_finite_fiber(self, t, theta, v, note):
        # a = 2: t a overflows at t = 1e308; at t = 5e307, v - t a overflows at v = -1e308
        fam, obs = family("binomial:3"), LinearObservable(0.0, (2.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as excinfo:
                hamiltonian_flow_step(fam, obs, theta, v, t)
            assert hamiltonian_flow_step(fam, obs, [0.0], [1e308], 1e307)[1] == 1e308 - 2e307
        assert str(excinfo.value) == f"binomial:3: the fiber at flow time {t} is not finite{note}"

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, "0.5", "x", [0.5], np.ones(2), 1j])
    @pytest.mark.parametrize("oracle", ["flow", "isometry-affine", "isometry-cubic"])
    def test_flow_time_is_one_finite_real_number(self, t, oracle):
        # no NaN residual, no warning, no bare ValueError or TypeError
        fam, obs = family("binomial:3"), LinearObservable(0.0, (2.0,))
        h = fisher_metric(fam, [0.3])
        call = {"flow": lambda: hamiltonian_flow_step(fam, obs, [0.0], [0.0], t),
                "isometry-affine": lambda: flow_isometry_residual(fam, obs, [0.3], h, t),
                "isometry-cubic": lambda: flow_isometry_residual(fam, lambda x: x**3, [0.3], h, t)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^the flow time must be (finite|real numbers)"):
                call[oracle]()

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_affine_flows_are_isometries(self, name):
        fam = family(name)
        rng = np.random.default_rng(37)
        obs = LinearObservable(rng.normal(), tuple(rng.normal(size=fam.dim)))
        for _ in range(5):
            theta = rng.uniform(fam.sample_box.lo, fam.sample_box.hi)
            rng.normal(size=fam.dim)  # the fiber, which the flow's Jacobian does not read
            assert flow_isometry_residual(fam, obs, theta, fisher_metric(fam, theta), 1.0) < 1e-8

    def test_non_affine_flow_breaks_isometry(self):
        fam = family("binomial:3")
        h = fisher_metric(fam, [0.3])
        residual = flow_isometry_residual(fam, lambda k: k**2, [0.3], h, 1.0)
        assert residual > 1e-3

    def test_non_affine_flow_makes_one_support_table(self, monkeypatch):
        # the 2n stencil rows in one support table, which gives h there too; h at
        # the point from the caller
        fam = family("binomial:3")
        h = fisher_metric(fam, [0.3])
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
        assert flow_isometry_residual(fam, np.arange(4.0) ** 2, [0.3], h, 1.0) > 1e-3
        assert support == [(2 * fam.dim, fam.dim)]
        assert moments == []

    def test_real_line_quadratic_reads_closed_form(self):
        # sigma = 1: E[x^2] = theta^2 + 1 has Fisher gradient 2 theta, so
        # Dphi = [[1, 0], [-2t, 1]] and Dphi^T G Dphi - G peaks at (2t)^2
        fam = family("normal_fixed_sigma")
        h = fisher_metric(fam, [0.3])
        residual = flow_isometry_residual(fam, lambda x: x**2, [0.3], h, 1.0)
        assert residual == pytest.approx(4.0, abs=1e-6)

    def test_real_line_value_table_rejected(self, monkeypatch):
        # refused before any table is built
        fam = family("normal")
        support = []
        original = ExponentialFamilySpec._support

        def counted_support(self, theta):
            support.append(np.shape(theta))
            return original(self, theta)

        monkeypatch.setattr(ExponentialFamilySpec, "_support", counted_support)
        with pytest.raises(DomainError, match="value table"):
            flow_isometry_residual(fam, np.arange(4.0), [0.3, -0.7], np.eye(2), 1.0)
        assert support == []

    def test_real_line_flow_makes_one_support_table(self, monkeypatch):
        fam = family("normal")
        support = []
        original = ExponentialFamilySpec._support

        def counted_support(self, theta):
            support.append(np.shape(theta))
            return original(self, theta)

        monkeypatch.setattr(ExponentialFamilySpec, "_support", counted_support)
        h = fisher_metric(fam, [0.3, -0.7])
        assert flow_isometry_residual(fam, lambda x: x**3, [0.3, -0.7], h, 1.0) > 1e-3
        assert support == [(4, 2)]

    @pytest.mark.parametrize("name, observable, theta", [
        ("normal", lambda x: x**2, [0.3, -0.7]),  # the normal family's second statistic
        ("normal", lambda x: 2 * x, [0.3, -1.0]),
        ("normal", lambda x: 1 - x + 0.5 * x * x, [0.3, -1.0]),
        ("normal_fixed_sigma", lambda x: 2 * x, [0.3]),
        ("normal_fixed_sigma", lambda x: 1 - 3 * x, [-1.3]),
    ], ids=["normal-x2", "normal-2x", "normal-quadratic", "fixed-sigma-2x", "fixed-sigma-affine"])
    def test_real_line_affine_callable_is_isometric(self, name, observable, theta):
        # its Fisher gradient h^-1 Cov(F, f) is constant: only rounding is left
        fam = family(name)
        h = fisher_metric(fam, theta)
        assert flow_isometry_residual(fam, observable, theta, h, 1.0) <= 1e-10

    @pytest.mark.parametrize("name", ["binomial:3", "categorical:3"])
    def test_linear_observable_reads_as_its_value_table(self, name):
        fam = family(name)
        grid = theta_grid(fam, 4)
        obs = LinearObservable(0.3, tuple(np.linspace(-1.0, 1.0, fam.dim)))
        table = obs.a0 + np.asarray(obs.coeffs) @ fam.statistic_matrix(fam.space.values())
        h = fisher_metric(fam, grid)
        np.testing.assert_allclose(flow_isometry_residual(fam, obs, grid, h, 1.0),
                                   flow_isometry_residual(fam, table, grid, h, 1.0),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_metric_gradient_stack_matches_its_rows(self, name):
        # the base function sees the whole stencil of the stack in one call
        fam = family(name)
        obs = LinearObservable(0.3, tuple(np.linspace(-1.0, 1.0, fam.dim)))
        grid = theta_grid(fam, 4)
        shapes = []

        def base(rows):
            shapes.append(rows.shape)
            return obs.a0 + np.vecdot(fam.natural_to_expectation(rows), obs.coeffs)

        h = fisher_metric(fam, grid)
        grads = metric_gradient_fd(fam, base, grid, h)
        assert grads.shape == grid.shape
        assert shapes == [(2 * fam.dim * len(grid), fam.dim)]
        for th, hi, g in zip(grid, h, grads):
            np.testing.assert_array_equal(metric_gradient_fd(fam, base, th, hi), g)
        np.testing.assert_allclose(grads, np.broadcast_to(obs.coeffs, grid.shape),
                                   atol=1e-6)

    def test_metric_gradient_validates_theta_first(self):
        calls = []
        with pytest.raises(DomainError, match="outside the natural domain"):
            metric_gradient_fd(family("normal"), calls.append, [0.3, 0.5], np.eye(2))
        assert calls == []

    def test_metric_gradient_agrees_for_affine(self):
        fam = family("categorical:3")
        obs = LinearObservable(0.0, (1.0, -1.0))
        theta = np.array([0.4, 0.1])
        fd = metric_gradient_fd(
            fam, lambda th: obs.a0 + np.vecdot(fam.natural_to_expectation(th), obs.coeffs), theta,
            fisher_metric(fam, theta))
        np.testing.assert_allclose(fd, [1.0, -1.0], atol=1e-6)
