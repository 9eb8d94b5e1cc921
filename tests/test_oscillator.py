"""The Kähler plane, coherent states, and the oscillator quantization identity."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import poisson

from igk import oscillator, verify
from igk._oracles import plane_bracket_fd
from igk.errors import DomainError, NotKahlerError, NumericalError
from igk.oscillator import (
    GaussianSpectrum,
    PlaneKahlerFunction,
    PlanePoint,
    coherent_coefficients,
    coherent_state,
    gaussian_spectrum,
    oscillator_expectation,
    oscillator_expectation_residual,
    oscillator_operator,
    plane_bracket,
)

X = PlaneKahlerFunction(cx=1.0)
Y = PlaneKahlerFunction(cy=1.0)
R = PlaneKahlerFunction(cr=1.0)


def random_function(rng, quadratic=True):
    return PlaneKahlerFunction(
        c1=rng.normal(),
        cx=rng.normal(),
        cy=rng.normal(),
        cr=rng.normal() if quadratic else 0.0,
    )


class TestBrackets:
    def test_generating_relations(self):
        assert plane_bracket(X, Y).c1 == 1.0  # {x, y} = 1
        xr = plane_bracket(X, R)
        assert (xr.c1, xr.cx, xr.cy, xr.cr) == (0.0, 0.0, 1.0, 0.0)  # {x, r} = y
        yr = plane_bracket(Y, R)
        assert (yr.c1, yr.cx, yr.cy, yr.cr) == (0.0, -1.0, 0.0, 0.0)  # {y, r} = -x

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f, g = random_function(rng), random_function(rng)
            z = PlanePoint(rng.normal(), rng.normal())
            assert plane_bracket(f, g).value(z) == pytest.approx(
                plane_bracket_fd(f, g, z), abs=1e-6
            )

    def test_antisymmetry_and_closure(self):
        rng = np.random.default_rng(8)
        f, g = random_function(rng), random_function(rng)
        fg, gf = plane_bracket(f, g), plane_bracket(g, f)
        for field in ("c1", "cx", "cy", "cr"):
            assert getattr(fg, field) == -getattr(gf, field)
        assert fg.cr == 0.0  # the algebra closes without new quadratic terms

    def test_jacobi_identity(self):
        rng = np.random.default_rng(9)
        f, g, h = (random_function(rng) for _ in range(3))
        total = np.zeros(4)
        for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
            term = plane_bracket(a, plane_bracket(b, c))
            total += np.array([term.c1, term.cx, term.cy, term.cr])
        np.testing.assert_allclose(total, 0.0, atol=1e-12)


class TestSpectra:
    def test_affine_spectrum_is_gaussian(self):
        f = PlaneKahlerFunction(c1=2.0, cx=3.0, cy=-1.0)
        z = PlanePoint(1.0, 2.0)
        spec = gaussian_spectrum(f, z)
        assert spec.kind == "gaussian"
        assert spec.mean == pytest.approx(f.value(z))
        assert spec.variance == pytest.approx(3.0**2 + 1.0**2)
        grid = np.linspace(spec.mean - 30, spec.mean + 30, 20001)
        mass = np.trapezoid(spec.density(grid), grid)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_constant_is_a_point_mass(self):
        spec = gaussian_spectrum(PlaneKahlerFunction(c1=4.5), PlanePoint(0, 0))
        assert spec.kind == "point"
        assert spec.atom == 4.5
        with pytest.raises(DomainError):
            spec.density(0.0)

    def test_quadratic_part_has_no_affine_spectrum(self):
        with pytest.raises(NotKahlerError):
            gaussian_spectrum(PlaneKahlerFunction(cr=1.0), PlanePoint(0, 0))

    def test_point_mass_has_no_density(self):
        spec = GaussianSpectrum(kind="point", mean=1.0, variance=0.0)
        with pytest.raises(DomainError):
            spec.density(np.zeros(3))


class TestCoherentStates:
    def test_normalized(self):
        for x, y, hbar in ((0.0, 0.0, 1.0), (1.5, -2.0, 0.5)):
            z = PlanePoint(x, y)
            mass, _ = quad(
                lambda xi: abs(coherent_state(hbar, z, xi)) ** 2, -30, 30
            )
            assert mass == pytest.approx(1.0, abs=1e-10)

    def test_modulus_is_unit_gaussian(self):
        z = PlanePoint(0.7, 3.0)
        xi = np.linspace(-4, 6, 11)
        expected = np.exp(-0.5 * (xi - 0.7) ** 2) / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(
            np.abs(coherent_state(2.0, z, xi)) ** 2, expected, atol=1e-14
        )

    def test_hbar_must_be_positive(self):
        with pytest.raises(DomainError):
            coherent_state(0.0, PlanePoint(0, 0), 0.0)


class TestExpectationIdentity:
    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
    def test_basis_functions(self, hbar):
        for x in (-1.0, 0.0, 2.0):
            for y in (-2.0, 0.0, 1.0):
                z = PlanePoint(x, y)
                for f in (X, Y, R, PlaneKahlerFunction(c1=1.0)):
                    assert oscillator_expectation_residual(hbar, f, z) < 1e-12

    def test_general_functions(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            f = random_function(rng)
            z = PlanePoint(rng.normal(), rng.normal())
            hbar = rng.uniform(0.3, 3.0)
            assert oscillator_expectation_residual(hbar, f, z) < 1e-10

    def test_expectation_is_real_for_real_observables(self):
        val = oscillator_expectation(1.0, R, PlanePoint(1.0, -1.0))
        assert abs(val.imag) < 1e-12
        assert val.real == pytest.approx(1.0)  # r = (x^2 + y^2)/2 = 1


class TestHermiteMatrix:
    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
    def test_hermitian(self, hbar):
        rng = np.random.default_rng(17)
        op = oscillator_operator(hbar, random_function(rng))
        assert op.hermiticity_defect() < 1e-12

    def test_ground_state_expectations(self):
        # phi_0 is the coherent state at the origin: <x> = <y> = r = 0
        for hbar in (0.5, 1.0, 2.0):
            e0 = np.zeros(64)
            e0[0] = 1.0
            for f, target in ((X, 0.0), (Y, 0.0), (R, 0.0)):
                op = oscillator_operator(hbar, f)
                assert e0 @ (op.matrix @ e0) == pytest.approx(target, abs=1e-13)

    def test_matrix_reproduces_quadrature(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            hbar = rng.uniform(0.5, 2.0)
            z = PlanePoint(rng.uniform(-1, 1), rng.uniform(-1, 1))
            f = random_function(rng)
            coeffs = coherent_coefficients(hbar, z)
            op = oscillator_operator(hbar, f)
            matrix_value = np.vdot(coeffs, op.matrix @ coeffs)
            quad_value = oscillator_expectation(hbar, f, z)
            assert abs(matrix_value - quad_value) < 1e-7

    def test_coefficients_are_normalized(self):
        for hbar, x, y in ((1.0, 0.0, 0.0), (0.5, 1.0, -1.0), (2.0, -0.5, 2.0)):
            c = coherent_coefficients(hbar, PlanePoint(x, y))
            assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-10)

    def test_a_basis_too_small_is_refused_with_the_size_it_needs(self):
        # |a| = 10 truncated to the default 64 terms kept a norm of 0.00698, silently
        z = PlanePoint(20.0, 0.0)
        with pytest.raises(DomainError, match=r"basis of 64 .* needs size (\d+)$") as err:
            coherent_coefficients(1.0, z)
        need = int(err.value.args[0].rsplit(" ", 1)[1])
        with pytest.raises(DomainError, match=f"needs size {need}$"):
            coherent_coefficients(1.0, z, size=need - 1)
        c = coherent_coefficients(1.0, z, size=need)
        assert np.vdot(c, c).real == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("a2", [25.0, 100.0, 400.0, 1600.0, 1e4])
    def test_large_states_keep_their_norm_at_the_size_named(self, a2):
        # log-space magnitudes k ln|a| - ln(k!)/2 - |a|^2/2 lost up to 2e-10 here
        z = PlanePoint(2.0 * math.sqrt(a2), 0.0)
        with pytest.raises(DomainError, match=r"needs size (\d+)$") as err:
            coherent_coefficients(1.0, z, size=1)
        c = coherent_coefficients(1.0, z, size=int(err.value.args[0].rsplit(" ", 1)[1]))
        assert abs(1.0 - np.vdot(c, c).real) <= 1e-13
        k = int(a2)  # the mode: |c_k|^2 is the Poisson pmf, by scipy's own route
        assert abs(c[k]) ** 2 == pytest.approx(poisson.pmf(k, a2), rel=1e-12)

    @pytest.mark.parametrize("x", [2.0 ** 21.5, 2e150], ids=["a2-2^41", "a2-1e300"])
    def test_a_state_past_every_basis_is_refused_in_one_short_line(self, x):
        with pytest.raises(DomainError) as err:
            coherent_coefficients(1.0, PlanePoint(x, 0.0))
        message = err.value.args[0]
        assert message.startswith("no basis igk can build holds the coherent state")
        assert len(message) < 80

    def test_ladder_blocks_are_read_only(self):
        blocks = oscillator._ladder_blocks(64)
        assert blocks is oscillator._ladder_blocks(64)  # built once per size
        for block in blocks:
            assert not block.flags.writeable
        assert oscillator_operator(1.0, X, 64).matrix.flags.writeable

    @pytest.mark.parametrize("size", [64, 512])
    def test_operator_equals_an_uncached_assembly(self, size):
        c = np.sqrt((np.arange(size - 1) + 1.0) / 2.0)
        T, D, eye = np.diag(c, 1) + np.diag(c, -1), np.diag(c, 1) - np.diag(c, -1), np.eye(size)
        rng = np.random.default_rng(64)
        for hbar in (0.5, 1.3):
            f = random_function(rng)
            h2 = hbar ** 2
            Qr = -(h2 / 4.0) * (D @ D) + T @ T - (h2 / 8.0 + 0.5) * eye
            want = (f.c1 * eye + f.cx * (math.sqrt(2.0) * T)
                    + f.cy * ((1j * hbar / math.sqrt(2.0)) * D) + f.cr * Qr)
            for _ in range(2):  # the call that builds the blocks and one that reads them
                assert oscillator_operator(hbar, f, size).matrix.tobytes() == want.tobytes()

    def test_commutator_matches_bracket(self):
        # Q({f, g}) = (i / hbar) [Q(f), Q(g)]: check [Qx, Qy] = -i hbar I by hand
        rng = np.random.default_rng(23)
        hbar = 1.3
        size = 64
        for _ in range(5):
            f, g = random_function(rng), random_function(rng)
            Qf = oscillator_operator(hbar, f, size).matrix
            Qg = oscillator_operator(hbar, g, size).matrix
            Qfg = oscillator_operator(hbar, plane_bracket(f, g), size).matrix
            comm = 1j * (Qf @ Qg - Qg @ Qf) / hbar
            interior = np.s_[: size - 4, : size - 4]  # truncation-clean block
            np.testing.assert_allclose(comm[interior], Qfg[interior], atol=1e-10)


class TestStackedExpectation:
    def test_rows_match_single_points(self):
        rng = np.random.default_rng(29)
        points = rng.normal(size=(7, 2))
        for hbar in (0.5, 1.0, 2.0):
            f = random_function(rng)
            got = oscillator_expectation(hbar, f, points)
            assert got.shape == (7,)
            want = [oscillator_expectation(hbar, f, PlanePoint(*z)) for z in points]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)
            np.testing.assert_allclose(
                oscillator_expectation_residual(hbar, f, points), 0.0, atol=1e-12)

    def test_failing_row_raises_with_the_worst_residual(self, monkeypatch):
        # a doubled-order rule 1e-6 too heavy moves E[x] by 1e-6 x: the gate
        # fails at every row with x != 0, with the residual 1e-6 |x| / max(1, |x|)
        rule = oscillator.gauss_hermite

        def heavy(order):
            t, w = rule(order)
            return (t, w * (1.0 + 1e-6)) if order > oscillator._QUAD_ORDER else (t, w)

        monkeypatch.setattr(oscillator, "gauss_hermite", heavy)
        f = PlaneKahlerFunction(cx=1.0)
        oscillator_expectation(1.0, f, PlanePoint(0.0, 0.0))
        with pytest.raises(NumericalError) as single:
            oscillator_expectation(1.0, f, PlanePoint(0.9, 0.3))
        with pytest.raises(NumericalError) as stacked:
            oscillator_expectation(
                1.0, f, np.array([[0.0, 0.0], [0.5, -1.0], [0.9, 0.3], [0.2, 2.0]]))
        assert stacked.value.residual == pytest.approx(single.value.residual, rel=1e-9)
        assert stacked.value.residual == pytest.approx(0.9e-6, rel=1e-5)


def count_calls(monkeypatch, module, name):
    """Record every call of ``module.name`` from now on (its positional args)."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args + tuple(kwargs.values()))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestInputs:
    @pytest.mark.parametrize("make", [
        lambda: PlanePoint(math.nan, 0.0),
        lambda: PlanePoint(0.0, -math.inf),
        lambda: PlaneKahlerFunction(cx=math.nan),
        lambda: PlaneKahlerFunction(c1=math.inf),
    ], ids=["point-nan", "point-inf", "function-nan", "function-inf"])
    def test_non_finite_records_are_refused(self, make):
        with pytest.raises(DomainError, match="must be finite"):
            make()

    @pytest.mark.parametrize("size", [-1, 0])
    def test_a_basis_needs_a_positive_size(self, size):
        with pytest.raises(DomainError, match="size >= 1"):
            oscillator_operator(1.0, X, size=size)

    @pytest.mark.parametrize("call", [
        lambda: oscillator_operator(1e308, X),
        lambda: oscillator_operator(1.0, PlaneKahlerFunction(cx=1e308)),
        lambda: coherent_coefficients(1.0, PlanePoint(1e308, 0.0)),
        lambda: coherent_coefficients(1e-300, PlanePoint(0.0, 1e10)),
        lambda: gaussian_spectrum(PlaneKahlerFunction(cx=1e308), PlanePoint(0.0, 0.0)),
        lambda: gaussian_spectrum(PlaneKahlerFunction(cx=10.0), PlanePoint(1e308, 0.0)),
        lambda: PlaneKahlerFunction(cr=1.0).value(PlanePoint(1e200, 0.0)),
        lambda: PlaneKahlerFunction(cr=1.0).value(np.array([[0.0, 0.0], [1e200, 0.0]])),
        lambda: PlaneKahlerFunction(cx=1e308).value(PlanePoint(10.0, 0.0)),
        lambda: PlaneKahlerFunction(cx=1e308).value(np.array([[0.0, 0.0], [10.0, 0.0]])),
    ], ids=["operator-hbar", "operator-coefficient", "coherent-x", "coherent-y",
            "spectrum-variance", "spectrum-mean", "value-radial-point",
            "value-radial-stack", "value-affine-point", "value-affine-stack"])
    def test_overflow_is_a_domain_error(self, call):
        with pytest.raises(DomainError, match="overflow"):
            call()


class TestOscillatorSuite:
    def test_one_expectation_call_per_hbar_and_function(self, monkeypatch):
        calls = count_calls(monkeypatch, oscillator, "oscillator_expectation")
        assert verify.run_suite("oscillator", seed=5).passed
        assert len(calls) <= 15  # 3 hbar x 5 functions, each over 25 grid points

    @pytest.mark.parametrize("seed", [677173, 440374])
    def test_cross_check_sizes_the_hermite_basis(self, seed):
        # coherent states with |a|^2 near 32 outgrow the 64-term basis
        checks = {c.check_id: c for c in verify.run_suite("oscillator", seed=seed).checks}
        assert checks["oscillator/operator-cross-check"].value <= 1e-12
        assert all(c.passed for c in checks.values())

    def test_hermite_basis_is_capped(self, monkeypatch):
        # no basis holds these coherent states: the check fails, within the cap
        calls = count_calls(monkeypatch, oscillator, "oscillator_operator")
        checks = {c.check_id: c for c in
                  verify.run_suite("oscillator", seed=0, hbar=0.001).checks}
        assert not checks["oscillator/operator-cross-check"].passed
        assert max(size for *_, size in calls) == 512
