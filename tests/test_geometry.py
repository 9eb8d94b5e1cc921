"""Fisher metric, alpha-connections, flatness, and duality relations."""

import math
import re
import sys
import tracemalloc
from collections import Counter
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from igk import _oracles, geometry, verify
from igk._oracles import (
    central_difference,
    cross_duality_residual,
    flow_isometry_residual,
    metric_gradient_fd,
    omega_closedness_residual,
    relative_steps,
    stencil,
)
from igk.errors import DomainError, NumericalError
from igk.families import (
    BUILTIN_FAMILIES,
    Box,
    ExponentialFamilySpec,
    family,
)
from igk.specfile import family_from_dict
from igk.tangent_bundle import LinearObservable, kahler_structure_at
from igk.geometry import (
    christoffel_alpha,
    curvature_tensor,
    fisher_metric,
    theta_grid,
)


def _duality(fam, point, alpha):
    """Natural-chart duality defect at alpha: ``_oracles._duality_residuals`` at a
    validated point, with the point's own moment table and its metric stencil."""
    theta = fam._check_theta(point)
    _, h, T = fam._cumulants(theta, 3)
    dh = _oracles._metric_derivative(fam, theta, False)[0]
    res = _oracles._duality_residuals(fam, theta, h, T, dh, (alpha,))[..., 0, 0]
    return float(res) if theta.ndim == 1 else res


def _skew_duality(fam, point, alpha):
    """Curvature skew-duality defect at alpha: ``_oracles._skew_residual`` of the
    FD curvatures at +-alpha of a validated point."""
    theta = fam._check_theta(point)
    R, _, h, _ = _oracles._curvatures(fam, theta, (alpha, -alpha))
    res = _oracles._skew_residual(*R, h)
    return float(res) if theta.ndim == 1 else res


def categorical_fisher(theta):
    """Independent oracle: h = diag(p) - p p^T over the leading coordinates."""
    e = np.exp(np.asarray(theta, dtype=float))
    p = e / (1.0 + e.sum())
    return np.diag(p) - np.outer(p, p)


def normal_fisher(theta):
    """Covariance of (x, x^2) under N(mu, sigma^2), via raw moments."""
    sigma2 = -1.0 / (2.0 * theta[1])
    mu = theta[0] * sigma2
    var_x = sigma2
    cov_x_x2 = 2.0 * mu * sigma2
    var_x2 = 2.0 * sigma2**2 + 4.0 * mu**2 * sigma2
    return np.array([[var_x, cov_x_x2], [cov_x_x2, var_x2]])


def categorical_third_cumulant(theta):
    """T_ijk = E[(F-p)_i (F-p)_j (F-p)_k] for indicator statistics."""
    e = np.exp(np.asarray(theta, dtype=float))
    p = e / (1.0 + e.sum())
    n = p.size
    T = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                T[i, j, k] = (
                    p[i] * (i == j) * (i == k)
                    - p[i] * p[k] * (i == j)
                    - p[i] * p[j] * (i == k)
                    - p[j] * p[i] * (j == k)
                    + 2.0 * p[i] * p[j] * p[k]
                )
    return T


def normal_third_cumulant(theta):
    """Third cumulants of (x, x^2) under N(mu, sigma^2)."""
    sigma2 = -1.0 / (2.0 * theta[1])
    mu = theta[0] * sigma2
    T = np.empty((2, 2, 2))
    # kappa(x,x,x) = 0, kappa(x,x,x2) = 2 s2^2, kappa(x,x2,x2) = 8 mu s2^2,
    # kappa(x2,x2,x2) = 8 s2^3 + 24 mu^2 s2^2
    for idx in np.ndindex(2, 2, 2):
        ones = sum(idx)
        T[idx] = (0.0, 2.0 * sigma2**2, 8.0 * mu * sigma2**2,
                  8.0 * sigma2**3 + 24.0 * mu**2 * sigma2**2)[ones]
    return T


def fixed_window(spec):
    """The family of the spec dict ``spec`` with an ``envelope`` hook that puts its one
    quadrature table at center 0, scale 1."""
    fam = family_from_dict(spec)
    return ExponentialFamilySpec(
        fam.name, fam.space, fam.carrier, fam.statistics, fam.log_partition, fam.domain,
        envelope=lambda rows: (np.zeros(len(rows)), np.ones(len(rows))))


class TestFisherMetric:
    def test_categorical_oracle(self):
        fam = family("categorical:4")
        rng = np.random.default_rng(2)
        for _ in range(10):
            theta = rng.uniform(-2, 2, size=3)
            np.testing.assert_allclose(
                fisher_metric(fam, theta), categorical_fisher(theta), atol=1e-12
            )

    def test_binomial_oracle(self):
        fam = family("binomial:6")
        for theta in (-1.0, 0.0, 0.7):
            p = expit(theta)
            np.testing.assert_allclose(
                fisher_metric(fam, np.array([theta])),
                [[6 * p * (1 - p)]],
                atol=1e-12,
            )

    def test_normal_oracle(self):
        fam = family("normal")
        rng = np.random.default_rng(4)
        for _ in range(10):
            theta = np.array([rng.uniform(-2, 2), rng.uniform(-3, -0.3)])
            np.testing.assert_allclose(
                fisher_metric(fam, theta), normal_fisher(theta), rtol=1e-9
            )

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_expectation_chart_is_inverse(self, name):
        fam = family(name)
        theta = theta_grid(fam, 4)[1]
        h = fisher_metric(fam, theta, "natural")
        g = fisher_metric(fam, theta, "expectation")
        np.testing.assert_allclose(h @ g, np.eye(fam.dim), atol=1e-9)

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_positive_definite(self, name):
        fam = family(name)
        for theta in theta_grid(fam, 9):
            assert np.linalg.eigvalsh(fisher_metric(fam, theta)).min() > 0


class TestConnections:
    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_exponential_connection_flat_in_natural_chart(self, name):
        fam = family(name)
        for theta in theta_grid(fam, 4):
            gamma = christoffel_alpha(fam, theta, 1.0, "natural")
            assert np.max(np.abs(gamma)) < 1e-10

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_mixture_connection_flat_in_expectation_chart(self, name):
        fam = family(name)
        for theta in theta_grid(fam, 4):
            gamma = christoffel_alpha(fam, theta, -1.0, "expectation")
            assert np.max(np.abs(gamma)) < 1e-10

    def test_symmetric_in_first_two_indices(self):
        fam = family("categorical:3")
        rng = np.random.default_rng(8)
        for alpha in (-1.0, 0.0, 0.5, 1.0):
            theta = rng.uniform(-1.5, 1.5, size=2)
            gamma = christoffel_alpha(fam, theta, alpha)
            np.testing.assert_allclose(
                gamma, np.swapaxes(gamma, 0, 1), atol=1e-14
            )

    def test_alpha_interpolates_linearly(self):
        # Gamma^(alpha) = Gamma^(1) + (1-alpha)/2 * T is affine in alpha
        fam = family("binomial:4")
        theta = np.array([0.3])
        g_m1 = christoffel_alpha(fam, theta, -1.0)
        g_p1 = christoffel_alpha(fam, theta, 1.0)
        g_0 = christoffel_alpha(fam, theta, 0.0)
        np.testing.assert_allclose(g_0, 0.5 * (g_m1 + g_p1), atol=1e-13)

    @pytest.mark.parametrize(
        "name, theta", [("categorical:3", (0.3, -0.2)), ("normal", (0.5, -0.8))]
    )
    def test_expectation_chart_matches_metric_derivative(self, name, theta):
        # d_a g_bc = Gamma'^(alpha)_{ab,c} + Gamma'^(-alpha)_{ac,b} in the
        # expectation chart, with g(eta) differenced through the Newton inverse
        # of the mean map: a route independent of the closed form.
        fam = family(name)
        theta = np.array(theta)
        eta = fam.natural_to_expectation(theta)
        n = eta.size
        dg = np.empty((n, n, n))
        for a in range(n):
            step = np.zeros(n)
            step[a] = 1e-5 * max(1.0, abs(eta[a]))
            dg[a] = (
                fisher_metric(fam, fam.expectation_to_natural(eta + step), "expectation")
                - fisher_metric(fam, fam.expectation_to_natural(eta - step), "expectation")
            ) / (2.0 * step[a])
        for alpha in (0.0, 0.5):
            ga = christoffel_alpha(fam, theta, alpha, "expectation")
            gm = christoffel_alpha(fam, theta, -alpha, "expectation")
            np.testing.assert_allclose(
                dg, ga + np.transpose(gm, (0, 2, 1)), rtol=0, atol=1e-6
            )


    def test_unnormalized_spec_is_refused(self):
        # psi = theta1 contradicts C and F: the table sums to 1 + e^-0.5 at 0.5
        fam = family_from_dict({"kind": "finite", "n": 1, "points": [0, 1],
                                "C": "0", "F": ["x"], "psi": "theta1"})
        with pytest.raises(NumericalError) as excinfo:
            christoffel_alpha(fam, [0.5], 0.0)
        assert excinfo.value.residual > 0.5
        assert excinfo.value.residual == pytest.approx(math.exp(-0.5), rel=1e-9)


STACK_FAMILIES = [family(name) for name in BUILTIN_FAMILIES] + [
    verify._user_finite_family(), verify._user_real_family()]


class TestCurvature:
    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    def test_dually_flat(self, name, alpha):
        # exactly, by the closed form's 1 - alpha^2; the FD oracle reads < 1e-5
        fam = family(name)
        for theta in theta_grid(fam, 4):
            assert not curvature_tensor(fam, theta, alpha).any()
            assert np.max(np.abs(_oracles._curvatures(fam, theta, (alpha,))[0])) < 1e-5

    def test_one_dimensional_curvature_vanishes(self):
        fam = family("binomial:3")
        R = curvature_tensor(fam, np.array([0.4]), 0.0)
        assert np.max(np.abs(R)) == 0.0

    def test_simplex_levi_civita_sectional_curvature(self):
        # The Fisher 2-simplex is a radius-2 round-sphere patch: K = 1/4.
        fam = family("categorical:3")
        for theta in (np.array([0.3, -0.2]), np.array([0.0, 0.0])):
            R = curvature_tensor(fam, theta, 0.0)
            h = fisher_metric(fam, theta)
            r_low = np.einsum("ijkl,lm->ijkm", R, h)
            K = r_low[0, 1, 1, 0] / (h[0, 0] * h[1, 1] - h[0, 1] ** 2)
            assert K == pytest.approx(0.25, abs=1e-6)

    @pytest.mark.parametrize(
        "name, theta", [("categorical:3", (0.3, -0.2)), ("normal", (0.5, -0.8))]
    )
    def test_matches_amari_closed_form_off_the_flat_pair(self, name, theta):
        # R_ijkl = (1 - alpha^2)/4 h^mn (T_ikm T_jln - T_ilm T_jkn) in the
        # natural chart (Amari & Nagaoka, ch. 2-3); T is the third cumulant,
        # here from the exact categorical probabilities or normal moments.
        fam = family(name)
        alpha = 0.5
        theta = np.array(theta)
        h = fisher_metric(fam, theta)
        if name == "normal":
            T = normal_third_cumulant(theta)
        else:
            T = categorical_third_cumulant(theta)
        hinv = np.linalg.inv(h)
        want = 0.25 * (1.0 - alpha**2) * (
            np.einsum("mn,ikm,jln->ijkl", hinv, T, T)
            - np.einsum("mn,ilm,jkn->ijkl", hinv, T, T)
        )
        got = np.einsum("ijkm,ml->ijkl", curvature_tensor(fam, theta, alpha), h)
        assert np.max(np.abs(got)) > 1e-3
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_curvature_makes_one_moment_table(self, name, monkeypatch):
        # one row per point: the closed form has no stencil
        fam = family(name)
        grid = theta_grid(fam, 4)
        rows = []
        original = ExponentialFamilySpec._cumulants

        def counted(self, th, order):
            rows.append(np.atleast_2d(th).shape)
            return original(self, th, order)

        monkeypatch.setattr(ExponentialFamilySpec, "_cumulants", counted)
        curvature_tensor(fam, grid[1], 0.5)
        assert rows == [(1, fam.dim)]
        rows.clear()
        curvature_tensor(fam, grid[:3], 0.5)
        assert rows == [(3, fam.dim)]


class TestClosedFormCurvature:
    """``curvature_tensor`` is Amari's closed form; the FD route
    ``_oracles._curvatures`` is its independent oracle."""

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    @pytest.mark.parametrize("fam", STACK_FAMILIES, ids=lambda f: f.name)
    def test_matches_the_fd_oracle(self, fam, alpha):
        grid = theta_grid(fam, 4)
        got = curvature_tensor(fam, grid, alpha)
        np.testing.assert_allclose(got, _oracles._curvatures(fam, grid, (alpha,))[0][0],
                                   rtol=0, atol=1e-6)
        if fam.name in ("categorical:3", "normal") and alpha == 0.5:
            assert np.max(np.abs(got)) > 1e-3  # a zeroed tensor cannot pass
        # a stack gives the single-theta results up to rounding; R_iikl = 0 exactly
        diag = np.arange(fam.dim)
        assert not got[:, diag, diag].any()
        for i, theta in enumerate(grid):
            single = curvature_tensor(fam, theta, alpha)
            assert not single[diag, diag].any()
            np.testing.assert_allclose(got[i], single,
                                       rtol=1e-13, atol=1e-12 * np.abs(got).max())


class TestDuality:
    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_metric_duality(self, name):
        fam = family(name)
        theta = theta_grid(fam, 4)[2]
        for alpha in (0.0, 0.5, 1.0):
            assert _duality(fam, theta, alpha) < 1e-5

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_skew_duality_of_curvature(self, name):
        fam = family(name)
        theta = theta_grid(fam, 4)[1]
        for alpha in (0.0, 1.0):
            assert _skew_duality(fam, theta, alpha) < 2e-4

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_chart_cross_duality(self, name):
        fam = family(name)
        for theta in theta_grid(fam, 4):
            assert cross_duality_residual(fam, theta) < 1e-7

    @pytest.mark.parametrize("name, theta", [
        ("binomial:3", [30.0]), ("binomial:3", [15.0]),
        ("categorical:3", [30.0, 0.0]), ("categorical:3", [-30.0, 0.0]),
    ])
    def test_saturated_mean_map_is_refused(self, name, theta):
        # eta's rounding over the step swamps min eig h there: the defect
        # read 2.1, 2.7e-6, 1.4 and 1.8 on working code
        fam = family(name)
        with pytest.raises(NumericalError, match="saturates") as single:
            cross_duality_residual(fam, theta)
        h_min = np.linalg.eigvalsh(fisher_metric(fam, theta))[0]
        floor = np.finfo(float).eps * np.abs(fam.natural_to_expectation(theta)).max() \
            / relative_steps(theta, 1e-5).min()
        assert single.value.residual == pytest.approx(floor / h_min, rel=1e-12)
        assert single.value.residual > 1e-8
        with pytest.raises(NumericalError, match=r"saturates.* \(row 1\)$"):
            cross_duality_residual(fam, [np.full(fam.dim, 0.5), theta])

    @pytest.mark.parametrize("name, theta", [("binomial:3", [-30.0]),
                                             ("categorical:3", [-30.0, -30.0])])
    def test_small_mean_map_far_out_is_kept(self, name, theta):
        # eta ~ e^-30 carries its own small rounding: the defect still resolves
        assert cross_duality_residual(family(name), theta) < 1e-10

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES + ("bernoulli_spec",))
    def test_cross_duality_makes_one_mean_map_call(self, name, request, monkeypatch):
        fam = (family(name) if name in BUILTIN_FAMILIES
               else family_from_dict(request.getfixturevalue(name)))
        theta = theta_grid(fam, 4)[1]
        rows = []
        original = ExponentialFamilySpec._cumulants

        def counted(self, th, order):
            rows.append(np.shape(th))
            return original(self, th, order)

        monkeypatch.setattr(ExponentialFamilySpec, "_cumulants", counted)
        assert cross_duality_residual(fam, theta) < 1e-7
        assert rows == [(1 + 4 * fam.dim, fam.dim)]  # h at theta, eta on both stencils


    @pytest.mark.parametrize("name", ["categorical:3", "normal"])
    def test_omega_closedness_makes_one_metric_call(self, name, monkeypatch):
        fam = family(name)
        theta = theta_grid(fam, 4)[1]
        rows = []
        original = ExponentialFamilySpec._cumulants

        def counted(self, th, order):
            rows.append(np.shape(th))
            return original(self, th, order)

        monkeypatch.setattr(ExponentialFamilySpec, "_cumulants", counted)
        assert omega_closedness_residual(fam, theta) < 1e-5
        assert rows == [(2 * fam.dim, fam.dim)]


class TestCentralDifference:
    def test_stencil_rows_in_documented_order(self):
        x, steps = np.array([1.0, 2.0]), np.array([0.5, 0.25])
        plus, minus = x + np.diag(steps), x - np.diag(steps)
        np.testing.assert_array_equal(stencil(x, steps), np.concatenate([plus, minus]))
        np.testing.assert_array_equal(
            stencil(x, steps, richardson=True),
            np.concatenate([plus, minus, (x + plus) / 2, (x + minus) / 2]))

    def test_plain_differences_are_exact_on_quadratics(self):
        rng = np.random.default_rng(5)
        A, b = rng.normal(size=(2, 3, 3)), rng.normal(size=(2, 3))
        x, steps = rng.normal(size=3), relative_steps(rng.normal(size=3), 1e-2)

        def f(rows):  # two quadratics, one column each
            return np.einsum("pi,kij,pj->pk", rows, A, rows) + rows @ b.T

        want = np.einsum("kij,j->ik", A + np.swapaxes(A, 1, 2), x) + b.T
        got = central_difference(f(stencil(x, steps)), steps)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_richardson_is_exact_on_quartics(self):
        rng = np.random.default_rng(6)
        c, x, steps = rng.normal(size=3), rng.normal(size=3), np.full(3, 0.1)

        def f(rows):
            return np.sum(c * rows ** 4, axis=1) + np.prod(rows, axis=1) ** 2

        want = 4 * c * x ** 3 + 2 * np.prod(x) ** 2 / x
        rows = stencil(x, steps, richardson=True)
        got = central_difference(f(rows), steps, richardson=True)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        plain = central_difference(f(rows[:6]), steps)
        assert np.max(np.abs(plain - want)) > 1e-3  # the step^2 term Richardson removes


    def test_a_stack_of_points_has_one_stencil_per_row(self):
        rng = np.random.default_rng(7)
        x, steps = rng.normal(size=(4, 3)), relative_steps(rng.normal(size=(4, 3)), 1e-3)
        rows = stencil(x, steps, richardson=True)
        assert rows.shape == (12 * 4, 3)  # stencil row j of point i at 4 j + i
        values = np.sin(rows) @ np.arange(3.0)
        got = central_difference(values, steps, richardson=True)
        assert got.shape == (3, 4)
        for i in range(4):
            np.testing.assert_array_equal(rows[i::4], stencil(x[i], steps[i], richardson=True))
            np.testing.assert_array_equal(
                got[:, i], central_difference(values[i::4], steps[i], richardson=True))


class TestGrids:
    def test_one_dimensional_grid(self):
        fam = family("binomial:3")
        grid = theta_grid(fam, 20)
        assert grid.shape == (20, 1)
        assert np.all(np.diff(grid[:, 0]) > 0)

    def test_two_dimensional_grid_covers_box(self):
        fam = family("normal")
        grid = theta_grid(fam, 20)
        assert grid.shape[1] == 2
        assert len(grid) >= 20
        lo = np.asarray(fam.sample_box.lo)
        hi = np.asarray(fam.sample_box.hi)
        assert np.all(grid >= lo - 1e-12) and np.all(grid <= hi + 1e-12)

    def test_three_dimensional_grid_is_a_seeded_sample_in_the_box(self):
        fam = family("categorical:4")
        grid = theta_grid(fam, 20)
        assert grid.shape == (20, 3)
        lo, hi = np.asarray(fam.sample_box.lo), np.asarray(fam.sample_box.hi)
        assert np.all(grid >= lo) and np.all(grid <= hi)
        np.testing.assert_array_equal(theta_grid(fam, 20), grid)


class TestThetaStacks:
    @pytest.mark.parametrize("fam", STACK_FAMILIES, ids=lambda f: f.name)
    def test_fd_oracle_stacks_match_single_theta(self, fam):
        box = fam.sample_box
        stack = np.random.default_rng(4).uniform(box.lo, box.hi, size=(4, fam.dim))
        alphas = (1.0, -1.0, 0.0, 0.5)
        R, eta, h, T = _oracles._curvatures(fam, stack, alphas)
        # the points' own moments come from the curvature table
        for got, want in zip((eta, h, T), fam.moment_tensors(stack)):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        dh = _oracles._metric_derivative(fam, stack, False)[0]
        duality = _oracles._duality_residuals(fam, stack, h, T, dh, (0.0, 0.5, 1.0))
        skew = _oracles._skew_residual(R[0], R[1], h)
        assert R.shape == (4, 4) + (fam.dim,) * 4 and duality.shape == (4, 3, 2)
        for i, theta in enumerate(stack):
            np.testing.assert_allclose(R[:, i], _oracles._curvatures(fam, theta, alphas)[0],
                                       rtol=1e-13, atol=0)
            np.testing.assert_allclose(duality[i], _oracles._duality_residuals(
                fam, theta, h[i], T[i], _oracles._metric_derivative(fam, theta, False)[0],
                (0.0, 0.5, 1.0)), rtol=1e-13, atol=0)
            assert skew[i] == pytest.approx(_oracles._skew_residual(R[0, i], R[1, i], h[i]),
                                            rel=1e-13, abs=0)
        # the single-alpha defects take the stack as one table too
        np.testing.assert_array_equal(_duality(fam, stack, 0.5), duality[:, 1, 0])
        np.testing.assert_array_equal(_skew_duality(fam, stack, 1.0), skew)
        if fam.cumulants is not None:
            cross = cross_duality_residual(fam, stack)
            for i, theta in enumerate(stack):
                assert cross[i] == pytest.approx(cross_duality_residual(fam, theta),
                                                 rel=1e-13, abs=0)

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_a_stack_equals_its_single_calls_to_the_bit(self, name):
        fam = family(name)
        box = fam.sample_box
        stack = np.random.default_rng(2031).uniform(box.lo, box.hi, size=(40, fam.dim))
        calls = [lambda th: curvature_tensor(fam, th, 0.5), lambda th: fisher_metric(fam, th),
                 lambda th: fam.moment_tensors(th)]
        calls += [lambda th, chart=chart: christoffel_alpha(fam, th, -1.0, chart)
                  for chart in ("natural", "expectation")]
        for call in calls:
            tables = call(stack)
            tables = tables if isinstance(tables, tuple) else (tables,)
            for i, theta in enumerate(stack):
                single = call(theta)
                for got, want in zip(tables, single if isinstance(single, tuple) else (single,)):
                    assert got[i].tobytes() == want.tobytes(), (i, call)

    def test_a_stack_of_picks_is_one_curvature_table(self, monkeypatch):
        fam = family("normal")
        rows = []
        original = ExponentialFamilySpec._cumulants

        def counted(self, th, order):
            rows.append(np.shape(th))
            return original(self, th, order)

        monkeypatch.setattr(ExponentialFamilySpec, "_cumulants", counted)
        _oracles._curvatures(fam, theta_grid(fam, 4)[:3], (0.0, 0.5))
        assert rows == [(3 * (1 + 4 * fam.dim), fam.dim)]

    @pytest.mark.parametrize("fam", STACK_FAMILIES, ids=lambda f: f.name)
    def test_rows_match_single_theta(self, fam):
        box = fam.sample_box
        stack = np.random.default_rng(3).uniform(box.lo, box.hi, size=(5, fam.dim))
        tables = fam.moment_tensors(stack)
        metrics = fisher_metric(fam, stack)
        struct = kahler_structure_at(fam, stack)
        n = fam.dim
        assert [t.shape for t in tables] == [(5, n), (5, n, n), (5, n, n, n)]
        for i, theta in enumerate(stack):
            for got, want in zip(tables, fam.moment_tensors(theta)):
                np.testing.assert_allclose(got[i], want, rtol=1e-11)
            np.testing.assert_allclose(metrics[i], fisher_metric(fam, theta), rtol=1e-11)
            single = kahler_structure_at(fam, theta)
            assert single.metric.shape == (2 * n, 2 * n)
            for key in ("base_metric", "metric", "omega"):
                np.testing.assert_allclose(
                    getattr(struct, key)[i], getattr(single, key), rtol=1e-11)
            np.testing.assert_array_equal(struct.complex_structure,
                                          single.complex_structure)

    def test_out_of_domain_row_is_named(self):
        fam = family("normal")
        with pytest.raises(DomainError, match="row 1"):
            fam.moment_tensors([[0.0, -1.0], [0.0, 0.5], [0.0, -2.0]])

    def test_failing_row_carries_its_residual(self):
        # a fixed envelope at 0 cannot follow N(theta, 1) out to theta = 12
        fam = fixed_window({
            "kind": "real_line", "n": 1, "C": "-(x^2)/2 - ln(2*pi)/2",
            "F": ["x"], "psi": "theta1^2/2"})
        fam.moment_tensors([0.0])
        with pytest.raises(NumericalError) as single:
            fam.moment_tensors([12.0])
        with pytest.raises(NumericalError) as stacked:
            fam.moment_tensors([[0.0], [12.0], [0.5]])
        assert stacked.value.residual == single.value.residual > 1e-9


def count_support_calls(monkeypatch):
    """Record (family name, theta bytes) of every gated support table built
    from now on."""
    calls = []
    original = ExponentialFamilySpec._support

    def counted(self, theta, *rest):
        calls.append((self.name, np.asarray(theta, dtype=float).tobytes()))
        return original(self, theta, *rest)

    monkeypatch.setattr(ExponentialFamilySpec, "_support", counted)
    return calls


class TestClosedFormCumulants:
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 7, 50])
    @pytest.mark.parametrize("name", BUILTIN_FAMILIES + ("categorical:5",))
    def test_hook_matches_quadrature_table(self, name, k, order):
        fam = family(name)
        box = fam.sample_box
        stack = np.random.default_rng(5).uniform(box.lo, box.hi, size=(k, fam.dim))
        _, w, F = fam._support(stack)
        got = fam.cumulants(stack, order)
        assert len(got) == order
        for table, want in zip(got, fam._moments(F, w, order)):
            assert table.shape == want.shape
            np.testing.assert_allclose(
                table, want, rtol=1e-10, atol=1e-10 * max(1.0, np.max(np.abs(want))))
        for i in range(k):  # row i of the stack is its own table, bit for bit
            for table, row in zip(got, fam.cumulants(stack[i:i + 1], order)):
                np.testing.assert_array_equal(table[i], row[0])

    def test_builtin_geometry_builds_no_support_table(self, monkeypatch):
        calls = count_support_calls(monkeypatch)
        for name in BUILTIN_FAMILIES:
            fam = family(name)
            theta = 0.5 * np.asarray(fam.sample_box.lo) + 0.1
            fam.natural_to_expectation(theta)
            fam.moment_tensors(theta)
            fisher_metric(fam, theta)
            fisher_metric(fam, theta, "expectation")
            christoffel_alpha(fam, theta, 0.5, "expectation")
            curvature_tensor(fam, theta, 0.5)
            kahler_structure_at(fam, np.stack([theta, 0.5 * theta]))
        assert calls == []

    def test_mean_and_hessian_skip_the_third_cumulant(self):
        # T of categorical:200 alone takes 199^3 * 8 B = 63 MB
        fam = family("categorical:200")
        theta = np.random.default_rng(5).uniform(-2.0, 2.0, size=fam.dim)
        tracemalloc.start()
        try:
            fam.natural_to_expectation(theta)
            fisher_metric(fam, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("t", [30.0, 40.0, 100.0])
    def test_binomial_tails_keep_full_precision(self, t):
        # h = 3 e / (1 + e)^2 and |T| = h (1 - e) / (1 + e) with e = e^-|t|, exactly
        fam = family("binomial:3")
        with localcontext() as ctx:
            ctx.prec = 50
            e = Decimal(-t).exp()
            h_ref = 3 * e / (1 + e) ** 2
            T_ref = float(h_ref * (1 - e) / (1 + e))
            h_ref = float(h_ref)
        _, h, T = fam.moment_tensors([[t], [-t]])
        assert h[0, 0, 0] == h[1, 0, 0]
        np.testing.assert_allclose(h[:, 0, 0], h_ref, rtol=1e-14, atol=0)
        np.testing.assert_allclose(T[:, 0, 0, 0], [-T_ref, T_ref], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("theta", [(40.0, 0.0), (0.0, 40.0), (-40.0, -41.0)])
    def test_categorical_metric_with_a_dominant_term_is_psd(self, theta):
        fam = family("categorical:3")
        h = fisher_metric(fam, theta)
        assert np.linalg.eigvalsh(h).min() >= 0.0
        with localcontext() as ctx:
            ctx.prec = 50
            e = [Decimal(t).exp() for t in theta]
            z = 1 + sum(e)
            want = [float(x / z * (1 - x / z)) for x in e]
        np.testing.assert_allclose(np.diag(h), want, rtol=1e-14, atol=0)

    def test_wrong_third_cumulant_fails_verify(self, monkeypatch):
        for name in ("normal", "categorical:3"):
            good = family(name)

            def skewed(rows, order, good=good):
                eta, h, T = good.cumulants(rows, 3)
                T = T.copy()
                T[:, 1, 1, 1] += 1e-4
                return (eta, h, T)[:order]

            bad = ExponentialFamilySpec(good.name, good.space, good.carrier,
                                        good.statistics, good.log_partition, good.domain,
                                        good.mean_inverse, good.envelope, good.sample_box,
                                        cumulants=skewed)
            monkeypatch.setattr(verify, "family",
                                lambda n, bad=bad: bad if n == bad.name else family(n))
            checks = verify.run_suite("geometry", seed=5).checks
            failed = {c.check_id for c in checks if "third-cumulant" in c.check_id
                      and not c.passed}
            assert failed == {f"geometry/third-cumulant-agreement/{name}"}


class TestStencilNearTheEdge:
    """A theta inside the domain whose FD stencil leaves it is refused by
    name, before any table of the stencil is made."""

    @pytest.mark.parametrize("oracle, theta", [
        (lambda fam, th: _skew_duality(fam, th, 0.5), [0.3, -1e-5]),
        (lambda fam, th: _duality(fam, th, 0.5), [0.3, -1e-6]),
        (cross_duality_residual, [0.3, -1e-6]),
        (omega_closedness_residual, [0.3, -1e-6]),
        (lambda fam, th: flow_isometry_residual(fam, lambda x: x**3, th,
                                                fisher_metric(fam, th), 1.0), [0.3, -5e-5]),
    ], ids=["skew-duality", "duality", "cross-duality", "omega-closedness", "flow-isometry"])
    def test_names_the_callers_theta(self, oracle, theta):
        fam = family("normal")
        want = f"normal: {theta} lies within one difference step of the domain edge"
        with pytest.raises(DomainError, match=re.escape(want) + "$"):
            oracle(fam, theta)

    def test_names_the_row_of_a_stack(self):
        with pytest.raises(DomainError, match=re.escape("[0.3, -1e-06] lies within")
                           + ".* edge \\(row 1\\)$"):
            cross_duality_residual(family("normal"), [[0.3, -1.0], [0.3, -1e-6]])


class TestSingularMetric:
    """binomial:3 at theta = 800 has h below the float range, exactly 0."""

    @pytest.mark.parametrize("call", [
        lambda fam, th: fisher_metric(fam, th, "expectation"),
        lambda fam, th: christoffel_alpha(fam, th, 0.5, "expectation"),
        lambda fam, th: curvature_tensor(fam, th, 0.5),
        lambda fam, th: _duality(fam, th, 0.5),
        lambda fam, th: _skew_duality(fam, th, 0.5),
        cross_duality_residual,
        lambda fam, th: metric_gradient_fd(fam, lambda rows: rows[:, 0], th,
                                           fisher_metric(fam, th)),
    ], ids=["fisher-expectation", "christoffel-expectation", "curvature", "duality",
            "skew-duality", "cross-duality", "metric-gradient"])
    def test_raises_numerical_error_naming_the_row(self, call):
        fam = family("binomial:3")
        with pytest.raises(NumericalError, match=r"^binomial:3: .* is singular$"):
            call(fam, [800.0])
        with pytest.raises(NumericalError, match=r"^binomial:3: .* is singular \(row 1\)$"):
            call(fam, [[0.5], [800.0], [-0.5]])


class TestNonFiniteExpectationChart:
    """Tables past the float range where h is not singular: h^-1 overflows on
    binomial:3 at theta = -715, and B B B T (or B B B dh) on binomial:3 at -400
    and -700 and on categorical:3 at (-700, -700); no RuntimeWarning is emitted
    (the test configuration makes one an error)."""

    CHRISTOFFEL = [(name, theta, alpha)
                   for name, theta in (("binomial:3", [-400.0]), ("binomial:3", [-700.0]),
                                       ("categorical:3", [-700.0, -700.0]))
                   for alpha in (-1.0, 0.0, 0.5, 1.0)]

    @staticmethod
    def raises_naming_the_row(call, name, theta, what):
        fam = family(name)
        with pytest.raises(NumericalError, match=rf"^{name}: {what} is not finite$"):
            call(fam, theta)
        with pytest.raises(NumericalError, match=rf"^{name}: {what} is not finite \(row 1\)$"):
            call(fam, [np.full(fam.dim, 0.5), theta, np.full(fam.dim, -0.5)])

    def test_fisher_metric(self):
        self.raises_naming_the_row(lambda fam, th: fisher_metric(fam, th, "expectation"),
                                   "binomial:3", [-715.0], "inverse Fisher metric")

    @pytest.mark.parametrize("name, theta, alpha", CHRISTOFFEL)
    def test_christoffel_alpha(self, name, theta, alpha):
        self.raises_naming_the_row(
            lambda fam, th: christoffel_alpha(fam, th, alpha, "expectation"),
            name, theta, "expectation-chart Christoffel table")

    @pytest.mark.parametrize("call, theta, what", [
        (lambda fam, th: curvature_tensor(fam, th, 0.5), -715.0, "curvature table"),
        (lambda fam, th: _skew_duality(fam, th, 0.5), -715.0, "curvature table"),
        (lambda fam, th: _duality(fam, th, 0.5), -400.0, "duality defect table"),
        (lambda fam, th: _duality(fam, th, 0.5), -715.0, "duality defect table"),
    ], ids=["curvature", "skew-duality", "duality-400", "duality-715"])
    def test_fd_oracles(self, call, theta, what):
        self.raises_naming_the_row(call, "binomial:3", [theta], what)


class TestOneValidationPerCall:
    @pytest.mark.parametrize("call", [
        fisher_metric,
        lambda fam, th: fisher_metric(fam, th, "expectation"),
        lambda fam, th: christoffel_alpha(fam, th, 0.5, "expectation"),
        kahler_structure_at,
    ], ids=["fisher", "fisher-expectation", "christoffel", "kahler"])
    @pytest.mark.parametrize("name", BUILTIN_FAMILIES + ("bernoulli_spec",))
    def test_single_theta_checks_the_domain_once(self, call, name, request, monkeypatch):
        fam = (family(name) if name in BUILTIN_FAMILIES
               else family_from_dict(request.getfixturevalue(name)))
        theta = theta_grid(fam, 4)[1]
        calls = []
        original = ExponentialFamilySpec._check_theta

        def counted(self, x):
            calls.append(np.shape(x))
            return original(self, x)

        monkeypatch.setattr(ExponentialFamilySpec, "_check_theta", counted)
        monkeypatch.setattr(Box, "contains", lambda self, x: pytest.fail("a second check"))
        call(fam, theta)
        assert calls == [(fam.dim,)]


def _linear(fam):
    return LinearObservable(0.3, tuple(np.linspace(-1.0, 1.0, fam.dim)))


# oracle -> (call(fam, theta, h at theta), _check_theta calls, Box.contains calls (the
# FD stencils' own domain checks; _check_theta compares with the bounds itself),
# _cumulants tables, the oracle's own support tables), per single theta
ORACLE_COUNTS = {
    "curvature": (lambda fam, th, h: curvature_tensor(fam, th, 0.5), 1, 0, 1, 0),
    "duality": (lambda fam, th, h: _duality(fam, th, 0.5), 1, 1, 2, 0),
    "skew-duality": (lambda fam, th, h: _skew_duality(fam, th, 0.5), 1, 1, 1, 0),
    "cross-duality": (lambda fam, th, h: cross_duality_residual(fam, th), 1, 1, 1, 0),
    "omega-closedness": (lambda fam, th, h: omega_closedness_residual(fam, th), 1, 1, 1, 0),
    "metric-gradient": (lambda fam, th, h: metric_gradient_fd(fam, lambda r: r[:, 0], th, h),
                        1, 1, 0, 0),
    "flow-linear": (lambda fam, th, h: flow_isometry_residual(fam, _linear(fam), th, h, 1.0),
                    1, 1, 0, 1),
    "flow-cubic": (lambda fam, th, h: flow_isometry_residual(fam, lambda x: x**3, th, h, 1.0),
                   1, 1, 0, 1),
}


def _igk_caller():
    """The name of the innermost igk function outside ``igk.families`` on the stack."""
    frame = sys._getframe(2)
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("igk.") and module != "igk.families":
            return frame.f_code.co_name
        frame = frame.f_back
    return None


def count_validations_and_tables(monkeypatch):
    """Count the calls of ``_check_theta``, ``Box.contains``, ``_cumulants``
    and ``_support`` made from now on: the totals by routine, and a Counter by
    (routine, the igk function that made the call, ``_igk_caller``)."""
    counts, by_function = {}, Counter()
    for owner, name in ((ExponentialFamilySpec, "_check_theta"), (Box, "contains"),
                        (ExponentialFamilySpec, "_cumulants"),
                        (ExponentialFamilySpec, "_support")):
        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            counts[_name] += 1
            by_function[_name, _igk_caller()] += 1
            return _original(*args, **kwargs)

        counts[name] = 0
        monkeypatch.setattr(owner, name, counted)
    return counts, by_function


class TestOneValidationPerOracle:
    """Each oracle validates its theta once and tabulates each row once."""

    @pytest.mark.parametrize("oracle", ORACLE_COUNTS)
    @pytest.mark.parametrize("fam", [family("normal"), verify._user_real_family()],
                             ids=lambda f: f.name)
    def test_single_theta_counts(self, oracle, fam, monkeypatch):
        call, checks, domain, tables, means = ORACLE_COUNTS[oracle]
        theta = theta_grid(fam, 4)[1]
        h = fisher_metric(fam, theta)
        counts, _ = count_validations_and_tables(monkeypatch)
        call(fam, theta, h)
        # a spec family builds its moment tables from gated support tables
        support = means + (tables if fam.cumulants is None else 0)
        assert counts == {"_check_theta": checks, "contains": domain,
                          "_cumulants": tables, "_support": support}

    @pytest.mark.parametrize("oracle", ["flow-linear", "flow-cubic"])
    @pytest.mark.parametrize("fam", [family("normal"), verify._user_real_family()],
                             ids=lambda f: f.name)
    def test_three_row_stack_counts(self, oracle, fam, monkeypatch):
        # a stack is validated once and tabulated in one table, as one theta is
        call, checks, domain, tables, means = ORACLE_COUNTS[oracle]
        stack = theta_grid(fam, 4)[:3]
        h = fisher_metric(fam, stack)
        counts, _ = count_validations_and_tables(monkeypatch)
        assert call(fam, stack, h).shape == (3,)
        support = means + (tables if fam.cumulants is None else 0)
        assert counts == {"_check_theta": 1, "contains": domain,
                          "_cumulants": tables, "_support": support}

    def test_verify_run_validates_at_most_67_times(self, monkeypatch):
        counts, by_function = count_validations_and_tables(monkeypatch)
        assert verify.run_suite("all", seed=5).passed
        # 145 checks and 99 tables with one call per draw, 227 checks when
        # oracles validated again, 95 with one flow-additive step per draw; 59
        # tables when each family's Poisson check read a table of its own, 67 and
        # 55 when the FD oracles read their points' moments again, 63 and 39 when a
        # spec family's Newton start and independence margin tabulated the interior
        # point apart: 63 and 37 when dual-potential-agreement read no table, 63 and 36
        # now that the flow reads h on its stencil from its own support table
        assert counts["_check_theta"] <= 67
        assert counts["_cumulants"] <= 55
        # the oracles are handed h (and cross-duality eta) at their points, and
        # cross-duality's mean-map stencil shares the geometry suite's metric table
        for oracle, tables in (("metric_gradient_fd", 0), ("flow_isometry_residual", 0),
                               ("cross_duality_residual", 0), ("_cross_duality", 0)):
            assert by_function["_cumulants", oracle] == tables, oracle
        assert by_function["_check_theta", "_cross_duality"] == 0
        assert by_function["_cumulants", "_metric_derivative"] == 6 + 4  # geometry, closedness


class TestGeometrySuite:
    def test_picks_are_stacked_per_family(self, monkeypatch):
        calls = []
        original = ExponentialFamilySpec._cumulants

        def counted(self, theta, *rest):
            calls.append(self.name)
            return original(self, theta, *rest)

        monkeypatch.setattr(ExponentialFamilySpec, "_cumulants", counted)
        assert verify.run_suite("geometry", seed=5).passed
        assert len(calls) <= 40  # 116 with one stencil per pick

    def test_quadrature_calls_per_run_are_bounded(self, monkeypatch):
        # one gated table per grid and per stencil, one per spec-family pick,
        # and one per spec-family Newton pass; the builtins read closed-form
        # cumulants outside the grid
        calls = count_support_calls(monkeypatch)
        newton = {}
        original = ExponentialFamilySpec.expectation_to_natural

        def counted(self, eta):
            before = len(calls)
            try:
                return original(self, eta)
            finally:
                newton[self.name] = newton.get(self.name, 0) + len(calls) - before

        monkeypatch.setattr(ExponentialFamilySpec, "expectation_to_natural", counted)
        assert verify.run_suite("geometry", seed=5).passed
        assert len(calls) <= 44
        assert len(set(calls)) == len(calls)  # no theta is tabulated twice
        assert {n: newton[n] for n in BUILTIN_FAMILIES} == dict.fromkeys(BUILTIN_FAMILIES, 0)

    def test_spec_family_table_meets_an_independent_oracle(self, monkeypatch):
        # a table whose eta is off by 1e-6 must fail against FD of psi; a
        # suite that compared the table with itself would read 0 and pass
        original = ExponentialFamilySpec._moments

        def scaled(F, w, order=3):
            eta, *rest = original(F, w, order)
            return (eta * (1.0 + 1e-6), *rest)

        monkeypatch.setattr(ExponentialFamilySpec, "_moments", staticmethod(scaled))
        failed = {c.check_id for c in verify.run_suite("geometry", seed=5).checks
                  if not c.passed}
        assert {"geometry/mean-map-agreement/user-bernoulli",
                "geometry/mean-map-agreement/user-gauss-half"} <= failed


def _spec(psi, **extra):
    return family_from_dict({"kind": "finite", "n": 1, "points": [0, 1], "C": "0",
                             "F": ["x"], "psi": psi, **extra})


# psi off by theta1^2: the table sums to exp(-theta1^2), 1 only at theta1 = 0
_OFF_BY_SQUARE = "ln(1 + exp(theta1)) + theta1^2"
# psi is NaN at theta1 = 0, and so on the stencil row 1e-4 - 1e-4 of 1e-4
_POLE = "ln(1 + exp(theta1)) + 0*(1/theta1)"
# an order-4 rule on a fixed envelope: exact at 0, past it the two orders part
# (at 2) or both miss the density (at 30)
_COARSE_RULE = {"kind": "real_line", "n": 1, "C": "-(x^2)/2 - ln(2*pi)/2", "F": ["x"],
                "psi": "theta1^2/2", "quad_order": 4}


class TestRefusalRule:
    """One rule names the refused point: a single theta is not named, a stack
    names its point as " (row i)" at the end of the message, a one-row stack
    and the targets of ``expectation_to_natural`` included."""

    KINDS = {
        "outside-domain": (family("normal"), ExponentialFamilySpec.natural_to_expectation,
                           [0.3, -1.0], [0.3, 1.0], DomainError,
                           "[0.3, 1.0] outside the natural domain"),
        "nonfinite-theta": (family("normal"), ExponentialFamilySpec.natural_to_expectation,
                            [0.3, -1.0], [math.nan, -1.0], DomainError,
                            "natural parameters must be finite"),
        "nonfinite-psi": (_spec(_POLE), ExponentialFamilySpec.moment_tensors,
                          [0.5], [0.0], NumericalError, "log_partition is not finite"),
        "nonfinite-psi-on-a-stencil": (_spec(_POLE),
                                       lambda fam, th: _skew_duality(fam, th, 0.5),
                                       [0.5], [1e-4], NumericalError,
                                       "log_partition is not finite"),
        "not-normalized": (_spec(_OFF_BY_SQUARE), ExponentialFamilySpec.weighted_support,
                           [0.0], [0.5], NumericalError,
                           "density not normalized, |sum - 1| > 1e-09"),
        "not-normalized-real-line": (fixed_window(_COARSE_RULE),
                                     ExponentialFamilySpec.weighted_support, [0.0], [30.0],
                                     NumericalError,
                                     "density not normalized, |sum - 1| > 1e-07"),
        "quadrature-not-converged": (fixed_window(_COARSE_RULE),
                                     ExponentialFamilySpec.moment_tensors, [0.0], [2.0],
                                     NumericalError,
                                     "quadrature did not converge under order doubling"),
        "moment-table-past-the-float-range": (
            family("normal"), fisher_metric, [0.0, -1.0],
            [0.0, -1e-300], NumericalError, "moment table is not finite"),
        "singular-expectation-metric": (
            family("binomial:3"), lambda fam, th: fisher_metric(fam, th, "expectation"),
            [0.5], [800.0], NumericalError, "Fisher metric is singular"),
        "nonfinite-expectation-metric": (
            family("binomial:3"), lambda fam, th: fisher_metric(fam, th, "expectation"),
            [0.5], [-715.0], NumericalError, "inverse Fisher metric is not finite"),
        "stencil-past-the-edge": (
            family("normal"), cross_duality_residual, [0.3, -1.0], [0.3, -1e-6],
            DomainError, "[0.3, -1e-06] lies within one difference step of the domain edge"),
        "cross-duality-saturation": (
            family("binomial:3"), cross_duality_residual, [0.5], [30.0], NumericalError,
            "the mean map saturates past the reach of its FD Jacobian"),
    }

    @pytest.mark.parametrize("case, note", [("single", ""), ("one-row", " (row 0)"),
                                            ("three-rows", " (row 1)")])
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_names_the_callers_point(self, kind, case, note):
        fam, call, good, bad, error, what = self.KINDS[kind]
        theta = {"single": bad, "one-row": [bad], "three-rows": [good, bad, good]}[case]
        with np.errstate(all="ignore"), pytest.raises(error) as excinfo:
            call(fam, theta)
        assert str(excinfo.value) == f"{fam.name}: {what}{note}"

    @pytest.mark.parametrize("target, note", [
        ([[0.5], [0.6], [0.7]], " (row 2)"), ([[0.5], [0.5], [0.7]], " (row 2)"),
        ([[0.7]], " (row 0)"), ([0.7], ""),
    ], ids=["three-targets", "repeated-targets", "one-row", "single"])
    def test_newton_names_the_callers_target(self, target, note):
        # a candidate's table is refused; the target it serves is named
        fam = _spec(_OFF_BY_SQUARE)
        with pytest.raises(NumericalError) as excinfo:
            fam.expectation_to_natural(target)
        assert str(excinfo.value) == ("user-family: density not normalized, "
                                      f"|sum - 1| > 1e-09{note}")
        assert excinfo.value.residual > 0.1

    def test_one_routine_formats_the_row_note(self):
        # every other refusal of a point goes through ExponentialFamilySpec._row_error
        sites = []
        for path in sorted(Path(geometry.__file__).parent.glob("*.py")):
            owner = None
            for line in path.read_text(encoding="utf-8").splitlines():
                if line.lstrip().startswith("def "):
                    owner = line.split("def ", 1)[1].split("(", 1)[0]
                if "(row {" in line:
                    sites.append((path.name, owner))
        assert sites == [("families.py", "_row_error")]
