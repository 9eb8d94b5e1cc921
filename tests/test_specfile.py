"""Spec-file expression language and family loader."""

import json
import math

import numpy as np
import pytest
from scipy.special import expit

from igk.errors import SpecFileError
from igk.geometry import theta_grid
from igk.specfile import (
    MAX_EXPRESSION_DEPTH,
    MAX_EXPRESSION_LENGTH,
    compile_expression,
    family_from_dict,
    load_family,
)


class TestExpressions:
    def test_arithmetic(self):
        f = compile_expression("2 + 3*4 - 5/2", ("x",))
        assert f({"x": 0.0}) == 2 + 3 * 4 - 5 / 2

    def test_variables_and_functions(self):
        f = compile_expression("exp(x) + ln(x) - x^2", ("x",))
        for v in (0.5, 1.0, 2.7):
            assert f({"x": v}) == pytest.approx(
                math.exp(v) + math.log(v) - v**2, rel=1e-15
            )

    def test_power_is_right_associative(self):
        f = compile_expression("2^3^2", ("x",))
        assert f({"x": 0.0}) == 512.0

    def test_unary_minus_and_parens(self):
        f = compile_expression("-(x + 1)^2", ("x",))
        assert f({"x": 2.0}) == -9.0

    def test_pi_constant(self):
        f = compile_expression("2*pi", ("x",))
        assert f({"x": 0.0}) == pytest.approx(2 * math.pi, rel=1e-16)

    def test_vectorized(self):
        f = compile_expression("x^2 + 1", ("x",))
        np.testing.assert_allclose(
            f({"x": np.array([1.0, 2.0, 3.0])}), [2.0, 5.0, 10.0]
        )

    def test_multiple_variables(self):
        f = compile_expression("theta1*theta2 - theta1", ("theta1", "theta2"))
        assert f({"theta1": 3.0, "theta2": 4.0}) == 9.0

    @pytest.mark.parametrize(
        "source",
        [
            "exp((x",  # unbalanced parenthesis
            "x +",  # dangling operator
            "sin(x)",  # unknown function
            "x + y",  # unknown variable
            "2 $ 3",  # bad token
            "",  # empty
        ],
    )
    def test_errors_carry_positions(self, source):
        with pytest.raises(SpecFileError) as err:
            compile_expression(source, ("x",))
        assert err.value.column is not None
        assert "column" in str(err.value)


    def test_constant_subexpressions_fold_to_the_same_bits(self):
        x = np.linspace(-9.0, 9.0, 37)
        f = compile_expression("-(x^2)/2 - ln(2*pi)/2", ("x",))
        want = -(x ** 2.0) / 2.0 - np.log(2.0 * math.pi) / 2.0
        np.testing.assert_array_equal(f({"x": x}), want)
        assert compile_expression("2^-1 + exp(0)", ("x",))({"x": 0.0}) == 1.5

    @pytest.mark.parametrize("source, column", [
        ("x + 1/0", 6), ("0*10^400", 5), ("ln(0)", 1), ("ln(-1) + x", 1),
        ("-exp(1000)", 2)])
    def test_nonfinite_constant_is_refused_at_its_column(self, source, column):
        with pytest.raises(SpecFileError, match="not finite") as err:
            compile_expression(source, ("x",), where="C")
        assert err.value.column == column

    def test_nesting_and_length_limits(self):
        d = MAX_EXPRESSION_DEPTH
        assert compile_expression("(" * d + "x" + ")" * d, {"x"})({"x": 2.0}) == 2.0
        assert compile_expression("-" * d + "x", {"x"})({"x": 2.0}) == 2.0
        for source in ("(" * (d + 1) + "x" + ")" * (d + 1),
                       "(" * 5000 + "x" + ")" * 5000,
                       "-" * (d + 1) + "x",
                       "2^" * (d + 1) + "1"):
            with pytest.raises(SpecFileError) as err:
                compile_expression(source, {"x"}, where="psi")
            assert err.value.column is not None
        longest = " x" + "+x" * (MAX_EXPRESSION_LENGTH // 2 - 1)
        assert len(longest) == MAX_EXPRESSION_LENGTH
        assert compile_expression(longest, {"x"})({"x": 1.0}) == len(longest) // 2
        with pytest.raises(SpecFileError) as err:
            compile_expression(longest + "+x", {"x"})
        assert err.value.column == MAX_EXPRESSION_LENGTH + 1


class TestFamilyFromDict:
    def test_finite_family_densities(self, bernoulli_spec):
        fam = family_from_dict(bernoulli_spec)
        assert fam.name == "coin"
        assert fam.dim == 1
        assert fam.is_finite
        for theta in (-1.0, 0.0, 0.8):
            p = expit(theta)
            np.testing.assert_allclose(
                fam.probabilities([theta]), [1 - p, p], atol=1e-14
            )

    def test_real_line_family_density(self, half_gauss_spec):
        fam = family_from_dict(half_gauss_spec)
        assert not fam.is_finite
        # C + theta x/2 - psi completes the square to log N(theta/2, 1)
        theta = 1.2
        xs = np.linspace(-2, 3, 7)
        expected = np.exp(-0.5 * (xs - theta / 2.0) ** 2) / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(fam.density([theta], xs), expected, rtol=1e-12)

    @pytest.mark.parametrize("envelope", [{"center": 0, "scale": 1}, "not an envelope"],
                             ids=["fixed-window", "malformed"])
    def test_an_envelope_key_is_ignored(self, half_gauss_spec, envelope):
        # a fixed window at 0 made eta fail order doubling from theta = 30 on; the table
        # now settles or moves as without the key: eta = theta / 4
        half_gauss_spec["envelope"] = envelope
        fam = family_from_dict(half_gauss_spec)
        assert fam.envelope is None
        theta = np.array([[30.0], [40.0], [50.0]])
        np.testing.assert_allclose(fam.natural_to_expectation(theta), theta / 4,
                                   rtol=0, atol=1e-9)

    def test_labels_and_points(self, bernoulli_spec):
        fam = family_from_dict(bernoulli_spec)
        assert fam.space.labels == ("tails", "heads")
        np.testing.assert_allclose(fam.space.values(), [0.0, 1.0])

    def test_domain_box_respected(self, bernoulli_spec):
        bernoulli_spec["domain"] = {"lo": [-1.0], "hi": [1.0]}
        fam = family_from_dict(bernoulli_spec)
        with pytest.raises(Exception):
            fam.probabilities([1.5])

    @pytest.mark.parametrize("lo, hi", [(5.0, 10.0), (1.0, 5.0), (-1e300, -3.0)])
    def test_domain_missing_the_unit_box_gets_an_inner_point_and_box(
        self, bernoulli_spec, lo, hi
    ):
        bernoulli_spec["domain"] = {"lo": [lo], "hi": [hi]}
        fam = family_from_dict(bernoulli_spec)
        assert fam.domain.contains(fam._interior_point())
        box = fam.sample_box
        assert lo < box.lo[0] < box.hi[0] < hi
        assert fam.statistic_independence_margin() > 0.0
        grid = theta_grid(fam, 5)
        assert fam.domain.contains(grid).all()
        eta = fam.natural_to_expectation(grid)
        back = fam.expectation_to_natural(eta)
        np.testing.assert_allclose(
            fam.natural_to_expectation(back), eta, rtol=0, atol=1e-12)
        np.testing.assert_allclose(back, grid, rtol=0, atol=1e-6)

    def test_default_sample_box_is_the_clipped_domain_less_five_percent(
        self, bernoulli_spec
    ):
        bernoulli_spec["domain"] = {"lo": [-1.0], "hi": [math.inf]}
        box = family_from_dict(bernoulli_spec).sample_box
        assert box.lo == (-1.0 + 0.05 * 3.0,) and box.hi == (2.0 - 0.05 * 3.0,)

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d.pop("kind"), "kind"),
            (lambda d: d.update(kind="weird"), "kind"),
            (lambda d: d.pop("n"), "n"),
            (lambda d: d.update(n=0), "n"),
            (lambda d: d.pop("psi"), "psi"),
            (lambda d: d.update(F=["x", "x"]), "F"),
            (lambda d: d.update(F=["exp((x"]), "expected"),
            (lambda d: d.update(points=[1.0]), "points"),
            (lambda d: d.update(domain={"lo": [0.0]}), "domain"),
        ],
    )
    def test_invalid_specs_rejected(self, bernoulli_spec, mutate, needle):
        mutate(bernoulli_spec)
        with pytest.raises(SpecFileError) as err:
            family_from_dict(bernoulli_spec)
        assert needle in str(err.value)


class TestLoadFamily:
    def test_load_from_file(self, bernoulli_spec_file):
        fam = load_family(bernoulli_spec_file)
        assert fam.name == "coin"
        np.testing.assert_allclose(
            fam.probabilities([0.0]), [0.5, 0.5], atol=1e-15
        )

    def test_invalid_json_is_annotated(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  'single': quotes\n}")
        with pytest.raises(SpecFileError) as err:
            load_family(path)
        assert "line" in str(err.value)

    def test_expression_errors_name_the_key(self, tmp_path, bernoulli_spec):
        bernoulli_spec["psi"] = "ln(1 + exp(theta1)"
        path = tmp_path / "badpsi.json"
        path.write_text(json.dumps(bernoulli_spec))
        with pytest.raises(SpecFileError) as err:
            load_family(path)
        assert "psi" in str(err.value)
        assert err.value.column is not None
