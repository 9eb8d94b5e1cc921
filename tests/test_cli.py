"""CLI behaviour: payload shapes, schemas, exit codes, and byte determinism."""

import json
import math
import re
import shutil
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from igk import __version__, projective, spin, verify
from igk.cli import MAX_SPIN_N, main
from igk.errors import NumericalError
from igk.families import ExponentialFamilySpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    text = resources.files("igk.schemas").joinpath(name).read_text(encoding="utf-8")
    return json.loads(text)


class TestFamilyShow:
    def test_binomial_density(self, capsys):
        code, out, _ = run_cli(
            capsys, "family", "show", "--family", "binomial:2", "--theta", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["tool"] == "igk"
        assert payload["version"] == __version__
        assert payload["kind"] == "finite"
        np.testing.assert_allclose(payload["probabilities"], [0.25, 0.5, 0.25])
        jsonschema.validate(payload, load_schema("family_show.schema.json"))

    def test_categorical_uniform(self, capsys):
        code, out, _ = run_cli(
            capsys, "family", "show", "--family", "categorical:3", "--theta", "0,0"
        )
        assert code == 0
        payload = json.loads(out)
        np.testing.assert_allclose(payload["probabilities"], [1 / 3] * 3)
        np.testing.assert_allclose(payload["eta"], [1 / 3] * 2)

    @pytest.mark.parametrize("theta", ["3e7,3e7", "1e308,1e308"])
    def test_categorical_tie_past_psi_digits(self, capsys, theta):
        # psi = theta1 + ln 2 keeps no digit of ln 2 at 1e308, and its rounding at 3e7 moved
        # a probability by 1.8e-9: the table is normalized logits, psi only gated
        code, out, _ = run_cli(
            capsys, "family", "show", "--family", "categorical:3", f"--theta={theta}"
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["eta"], payload["probabilities"]) == ([0.5, 0.5], [0.5, 0.5, 0.0])

    def test_theta_defaults_to_origin(self, capsys):
        _, explicit, _ = run_cli(
            capsys, "family", "show", "--family", "categorical:3", "--theta", "0,0"
        )
        _, default, _ = run_cli(capsys, "family", "show", "--family", "categorical:3")
        assert default == explicit

    def test_theta_defaults_to_an_interior_point(self, capsys):
        # the origin lies on the edge of the normal family's domain
        code, out, _ = run_cli(capsys, "family", "show", "--family", "normal")
        assert code == 0
        payload = json.loads(out)
        assert payload["theta"] == [0.0, -0.5]
        jsonschema.validate(payload, load_schema("family_show.schema.json"))

    def test_continuous_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "family", "show", "--family", "normal", "--theta", "2,-0.5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "real_line"
        # theta = (mu/s2, -1/(2 s2)) so mu = 2, s2 = 1
        assert payload["mean"] == pytest.approx(2.0)
        assert payload["variance"] == pytest.approx(1.0)
        assert len(payload["density_sample"]) == 5
        peak = payload["density_sample"][2]
        assert peak["x"] == pytest.approx(2.0)
        assert peak["density"] == pytest.approx(1 / np.sqrt(2 * np.pi))
        assert payload["natural_domain"]["hi"] == [None, 0.0]
        jsonschema.validate(payload, load_schema("family_show.schema.json"))

    def test_spec_file_family(self, capsys, bernoulli_spec_file):
        code, out, _ = run_cli(
            capsys, "family", "show", "--spec", str(bernoulli_spec_file),
            "--theta", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "coin"
        assert payload["labels"] == ["tails", "heads"]
        np.testing.assert_allclose(payload["probabilities"], [0.5, 0.5])
        jsonschema.validate(payload, load_schema("family_show.schema.json"))

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "family", "show", "--family", "binomial:2",
            "--theta", "0", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# tool=igk version=")
        assert "command=family-show" in lines[0]
        assert lines[1] == "index,label,point,probability"
        probs = [float(line.split(",")[3]) for line in lines[2:]]
        np.testing.assert_allclose(probs, [0.25, 0.5, 0.25])

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "family", "show", "--family", "binomial:2", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["command"] == "family show"

    def test_unknown_family_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "family", "show", "--family", "poisson")
        assert code == 2
        assert out == ""
        assert "poisson" in err

    @pytest.mark.parametrize("name", ["categorical:1025", "binomial:1025"])
    def test_family_above_size_cap_exits_2(self, capsys, name):
        code, out, err = run_cli(capsys, "family", "show", "--family", name)
        assert code == 2
        assert out == ""
        assert err.startswith("igk: error:") and err.count("\n") == 1
        assert "1024" in err

    def test_malformed_spec_exits_2_with_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "name": "broken", "kind": "finite", "n": 1,
                    "points": [0.0, 1.0], "C": "0", "F": ["x +"],
                    "psi": "ln(1 + exp(theta1))",
                }
            ),
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "family", "show", "--spec", str(bad))
        assert code == 2
        assert "column" in err

    def test_theta_outside_domain_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "family", "show", "--family", "normal", "--theta", "0,1"
        )
        assert code == 2
        assert "igk: error:" in err

    def test_negative_theta_after_a_space(self, capsys):
        code, spaced, _ = run_cli(
            capsys, "family", "show", "--family", "normal", "--theta", "-0.5,-1"
        )
        _, joined, _ = run_cli(
            capsys, "family", "show", "--family", "normal", "--theta=-0.5,-1"
        )
        assert code == 0 and spaced == joined
        assert json.loads(spaced)["theta"] == [-0.5, -1.0]

    @pytest.mark.parametrize("value", ["-0.5,zap", "--format"])
    def test_theta_without_reals_keeps_the_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["family", "show", "--family", "normal", "--theta", value])
        assert excinfo.value.code == 2
        assert "argument --theta: expected one argument" in capsys.readouterr().err

    def test_unparseable_theta_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "family", "show", "--family", "normal", "--theta", "1,zap"
        )
        assert code == 2
        assert "--theta" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "psi, kind, theta, needle",
        [
            # psi contradicts C and F: p = (0.607, 1.0) at theta = 0.5
            ("theta1", "finite", "0.5", "not normalized"),
            ("ln(1 + exp(theta1)) + 1e-6", "finite", "0.5", "(residual 1e-06)"),
            # psi overflows to inf, eta to NaN, the table to zeros
            ("ln(1 + exp(theta1))", "finite", "800", "not finite"),
            # a real-line psi off by a factor of two
            ("theta1^2/4", "real_line", "0.5", "not normalized"),
            # psi divides by zero, or overflows in ^, at this theta
            ("ln(1 + exp(theta1)) + 0*(1/theta1)", "finite", "0", "not finite"),
            ("ln(1 + exp(theta1)) + 0*(10^(theta1*400))", "finite", "2",
             "not finite"),
        ],
    )
    def test_wrong_or_nonfinite_table_exits_1(
        self, capsys, tmp_path, fmt, psi, kind, theta, needle
    ):
        spec = {"name": "bad-psi", "kind": kind, "n": 1, "psi": psi}
        if kind == "finite":
            spec.update(points=[0, 1], C="0", F=["x"])
        else:
            spec.update(C="-(x^2)/2 - ln(2*pi)/2", F=["x/2"])
        path = tmp_path / "bad-psi.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "family", "show", "--spec", str(path), "--theta", theta,
            "--format", fmt,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("igk: error:") and err.count("\n") == 1
        assert needle in err

    @pytest.mark.parametrize("key, expr, column", [
        ("psi", "ln(1 + exp(theta1)) + 0*10^400", 27),
        ("C", "1/0", 2),
    ])
    def test_nonfinite_spec_constant_exits_2(self, capsys, tmp_path, key, expr, column):
        # a theta- and x-free subexpression is folded when the spec is read
        spec = {"name": "bad-constant", "kind": "finite", "n": 1, "points": [0, 1],
                "C": "0", "F": ["x"], "psi": "ln(1 + exp(theta1))", key: expr}
        path = tmp_path / "bad-constant.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "family", "show", "--spec", str(path), "--theta", "0.3")
        assert code == 2
        assert out == ""
        assert err == (f"igk: error: {path}:{key}: constant subexpression is not "
                       f"finite (inf) (column {column})\n")

    @pytest.mark.parametrize("changes, message", [
        ({"F": ["x*1e400"]}, ":F[0]: number is not finite (1e400) (column 3)"),
        ({"F": [5]}, ":F[0]: expression must be a string"),
        ({"F": [None]}, ":F[0]: expression must be a string"),
        ({"labels": 5}, ": bad points or labels: labels must be a list or tuple of strings"),
        ({"labels": [1, 2]}, ": bad points or labels: labels must be a list or tuple of strings"),
        ({"labels": "ab"}, ": bad points or labels: labels must be a list or tuple of strings"),
        ({"kind": "real_line", "quad_order": 100000000},
         ": quad_order must be a positive integer: quadrature order must be at least 1 and "
         "at most 185, got 100000000"),
    ], ids=["numeral-past-float64", "statistic-number", "statistic-null", "labels-number",
            "labels-numbers", "labels-string", "quad-order-huge"])
    def test_malformed_spec_document_exits_2(self, capsys, tmp_path, changes, message):
        spec = {"name": "malformed", "kind": "finite", "n": 1, "points": [0, 1], "C": "0",
                "F": ["x"], "psi": "ln(1 + exp(theta1))", **changes}
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, err = run_cli(capsys, "family", "show", "--spec", str(path))
        assert (code, out) == (2, "")
        assert err == f"igk: error: {path}{message}\n"

    def test_numerical_error_line_shows_residual(self, capsys, tmp_path):
        # two narrow modes at x = -5, 5: Gauss-Hermite fails order doubling
        spec = {"name": "bimodal", "kind": "real_line", "n": 1,
                "C": "-(x^2 - 25)^2/2", "F": ["x"], "psi": "0"}
        path = tmp_path / "bimodal.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, err = run_cli(capsys, "family", "show", "--spec", str(path))
        assert code == 1
        assert out == ""
        assert re.fullmatch(
            r"igk: error: bimodal: quadrature did not converge under order "
            r"doubling \(residual [0-9.e+-]+\)\n",
            err,
        )

    def test_unevaluable_density_is_one_line(self, capsys, tmp_path):
        # ln(x) is NaN on the negative half of the grid: the gates refuse it
        spec = {"name": "odd", "kind": "real_line", "n": 1,
                "C": "-x^2/2 + ln(x)", "F": ["x"], "psi": "0"}
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, err = run_cli(capsys, "family", "show", "--spec", str(path))
        assert code == 1
        assert out == ""
        assert err == "igk: error: odd: quadrature weights not finite\n"


class TestSpinTable:
    def test_orthogonal_state(self, capsys):
        code, out, _ = run_cli(
            capsys, "spin", "table", "--n", "1",
            "--axis", "1,0,0", "--point", "0,0,1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "state"
        assert [row["k"] for row in payload["rows"]] == [0, 1]
        assert [row["eigenvalue"] for row in payload["rows"]] == [-1.0, 1.0]
        np.testing.assert_allclose(
            [row["probability"] for row in payload["rows"]], [0.5, 0.5]
        )
        jsonschema.validate(payload, load_schema("spin_table.schema.json"))

    def test_axis_is_normalized(self, capsys):
        _, raw, _ = run_cli(
            capsys, "spin", "table", "--n", "2",
            "--axis", "0,0,5", "--point", "1,0,0",
        )
        _, unit, _ = run_cli(
            capsys, "spin", "table", "--n", "2",
            "--axis", "0,0,1", "--point", "1,0,0",
        )
        assert raw == unit

    def test_transition_pi_thirds(self, capsys):
        # devices at angle pi/3, max incoming eigenstate
        code, out, _ = run_cli(
            capsys, "spin", "table", "--n", "2",
            "--axis", "0.8660254037844386,0,0.5",
            "--axis2", "0,0,1", "--m1", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "transition"
        assert payload["incoming"]["m1"] == 2
        np.testing.assert_allclose(
            [row["probability"] for row in payload["rows"]],
            [1 / 16, 6 / 16, 9 / 16],
            atol=1e-12,
        )
        jsonschema.validate(payload, load_schema("spin_table.schema.json"))

    def test_aligned_devices_are_deterministic(self, capsys):
        code, out, _ = run_cli(
            capsys, "spin", "table", "--n", "3",
            "--axis", "0,1,0", "--axis2", "0,1,0", "--m1", "1",
        )
        assert code == 0
        payload = json.loads(out)
        probs = [row["probability"] for row in payload["rows"]]
        np.testing.assert_allclose(probs, [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_largest_table_keeps_its_tiniest_probability(self, capsys):
        # max spin along z measured along x: P(0) = 2^-1024, a subnormal float
        code, out, _ = run_cli(
            capsys, "spin", "table", "--n", str(MAX_SPIN_N), "--axis=0,0,1",
            "--axis2=1,0,0", "--m1", str(MAX_SPIN_N), "--format", "csv",
        )
        assert code == 0 and MAX_SPIN_N == 1024
        k, _, probability = out.splitlines()[2].split(",")
        assert k == "0"
        assert float(probability) == pytest.approx(2.0 ** -1024, rel=1e-10, abs=0)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "spin", "table", "--n", "1",
            "--axis", "1,0,0", "--point", "0,0,1", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert "command=spin-table" in lines[0]
        assert "mode=state" in lines[0]
        assert lines[1] == "k,eigenvalue,probability"
        rows = [line.split(",") for line in lines[2:]]
        assert [row[0] for row in rows] == ["0", "1"]
        assert [float(row[1]) for row in rows] == [-1.0, 1.0]
        np.testing.assert_allclose([float(row[2]) for row in rows], [0.5, 0.5])

    @pytest.mark.parametrize("spaced, joined", [
        (("--axis", "-1,0,0", "--point", "0,0,-1"), ("--axis=-1,0,0", "--point=0,0,-1")),
        (("--axis", "0,-1,0", "--axis2", "-1,0,0", "--m1", "1"),
         ("--axis=0,-1,0", "--axis2=-1,0,0", "--m1", "1")),
    ], ids=["state", "transition"])
    def test_negative_vectors_after_a_space(self, capsys, spaced, joined):
        code, out, _ = run_cli(capsys, "spin", "table", "--n", "2", *spaced)
        _, want, _ = run_cli(capsys, "spin", "table", "--n", "2", *joined)
        assert code == 0 and out == want
        assert -1.0 in json.loads(out)["axis"]

    def test_zero_axis_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "spin", "table", "--n", "1",
            "--axis", "0,0,0", "--point", "0,0,1",
        )
        assert code == 2
        assert "zero vector" in err

    def test_state_and_transition_flags_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "spin", "table", "--n", "1", "--axis", "1,0,0",
            "--point", "0,0,1", "--axis2", "0,0,1", "--m1", "0",
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_missing_mode_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "spin", "table", "--n", "1", "--axis", "1,0,0")
        assert code == 2
        assert "--point" in err

    def test_bad_incoming_index_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "spin", "table", "--n", "2",
            "--axis", "1,0,0", "--axis2", "0,0,1", "--m1", "7",
        )
        assert code == 2

    def test_nonpositive_n_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "spin", "table", "--n", "0",
            "--axis", "1,0,0", "--point", "0,0,1",
        )
        assert code == 2
        assert "--n" in err

    def test_n_above_cap_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "spin", "table", "--n", str(MAX_SPIN_N + 1),
            "--axis", "1,0,0", "--axis2", "0,0,1", "--m1", "0",
        )
        assert code == 2
        assert out == ""
        assert "--n" in err


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("value", ["nan", "inf", "1e308"])
    @pytest.mark.parametrize("flag", ["--axis", "--point", "--axis2"])
    def test_nonfinite_or_overflowing_vector_exits_2(self, capsys, flag, value, fmt):
        bad = f"{value},{value},0"
        if flag == "--axis2":
            vectors = ["--axis", "0,0,1", "--axis2", bad, "--m1", "1"]
        else:
            good = {"--axis": "0,0,1", "--point": "1,0,0", flag: bad}
            vectors = ["--axis", good["--axis"], "--point", good["--point"]]
        code, out, err = run_cli(
            capsys, "spin", "table", "--n", "2", *vectors, "--format", fmt
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"igk: error: {flag}:") and err.count("\n") == 1


def _su2_basis_with_nan(n, basis=spin.su2_basis):
    L = np.array(basis(n))
    L[0, 0, 0] = np.nan
    return tuple(L)


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "spin", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == "spin"
        assert payload["seed"] == 7
        assert payload["generator"] == "numpy-pcg64"
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])
        assert any(c["id"] == "spin/commutator" for c in payload["checks"])
        jsonschema.validate(payload, load_schema("verify_report.schema.json"))

    def test_all_suites_deterministic(self, capsys):
        code, first, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "1")
        assert code == 0
        _, second, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "1")
        assert first == second

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_failing_check_exits_1_with_its_report(self, capsys, fmt):
        # at hbar = 0.001 no Hermite basis within the cap holds the coherent states
        code, out, err = run_cli(
            capsys, "verify", "--suite", "oscillator", "--hbar", "0.001", "--format", fmt
        )
        assert code == 1 and err == ""
        if fmt == "json":
            payload = json.loads(out)
            jsonschema.validate(payload, load_schema("verify_report.schema.json"))
            passed = payload["passed"]
            failing = [(c["id"], c["value"]) for c in payload["checks"] if not c["passed"]]
        else:
            head, _, *rows = out.splitlines()
            passed = "passed=true" in head.split()
            failing = [(check_id, float(value)) for check_id, value, *_, ok in
                       (row.split(",") for row in rows) if ok == "false"]
        assert passed is False
        assert failing == [("oscillator/operator-cross-check", 1.0)]

    def test_a_flag_check_whose_call_does_not_raise_fails(self):
        out = verify._Collector()
        out.expect_raise("oscillator/quadratic-not-decomposable", ValueError, float, "1")
        (check,) = out.sorted_checks()
        assert (check.value, check.passed) == (0.0, False)

    def test_check_without_rule_raises_naming_it(self):
        out = verify._Collector()
        with pytest.raises(KeyError, match="spin/no-such-check"):
            out.add("spin/no-such-check", 0.0)
        with pytest.raises(KeyError, match="oscillator/no-such-flag"):
            out.expect_raise("oscillator/no-such-flag", ValueError, int, "x")

    def test_every_rule_names_a_reported_check(self):
        ids = {c.check_id for c in verify.run_suite("all", seed=0).checks}
        reported = ids | {i.rsplit("/", 1)[0] for i in ids}
        assert set(verify._CHECKS) - reported == set()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_the_report_ignores_the_environment(self, capsys, monkeypatch, fmt):
        # each check has one threshold: a tolerance variable in the environment is inert
        argv = ("verify", "--suite", "spin", "--format", fmt)
        code, plain, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        for value in ("fd", "sloppy"):
            monkeypatch.setenv("IGK_TOL_PROFILE", value)
            assert run_cli(capsys, *argv) == (0, plain, "")

    def test_extra_hbar(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "oscillator", "--hbar", "3.5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["hbar"] == 3.5
        jsonschema.validate(payload, load_schema("verify_report.schema.json"))

    @pytest.mark.parametrize("hbar", [
        "nan", "inf", "1e308",
        pytest.param("1e-310", marks=pytest.mark.filterwarnings("error")),
    ])
    def test_nonfinite_or_overflowing_hbar_exits_2(self, capsys, hbar):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "oscillator", "--hbar", hbar
        )
        assert code == 2
        assert out == ""
        assert err.startswith("igk: error:") and err.count("\n") == 1

    def test_a_large_hbar_meets_the_expectation_identity(self, capsys):
        # the closed-form expectation: an order-doubling gate refused this run with exit 1
        code, out, err = run_cli(
            capsys, "verify", "--suite", "oscillator", "--hbar", "1e4"
        )
        assert code == 0 and err == ""
        checks = {c["id"]: c for c in json.loads(out)["checks"]}
        assert checks["oscillator/expectation-identity"]["passed"]

    def test_a_failing_expectation_identity_exits_1_with_its_report(self, capsys):
        # hbar = 1e5, the least power of ten whose rounding of hbar^2 / 8 beats the gate
        code, out, err = run_cli(
            capsys, "verify", "--suite", "oscillator", "--hbar", "1e5"
        )
        assert code == 1 and err == ""
        failing = [c["id"] for c in json.loads(out)["checks"] if not c["passed"]]
        assert failing == ["oscillator/expectation-identity"]

    @pytest.mark.parametrize("target, name, fake, suite, check_id", [
        (projective, "cramer_rao_residual", lambda obs, z: math.nan,
         "projective", "projective/cramer-rao-random"),
        (projective, "cramer_rao_residual", lambda obs, z: math.inf,
         "projective", "projective/cramer-rao-random"),
        (spin, "spin_law", lambda n, t: np.full(n + 1, np.nan),
         "spin", "spin/spin-law"),
        (ExponentialFamilySpec, "statistic_independence_margin", lambda self: math.nan,
         "geometry", "geometry/statistic-independence/categorical:3"),
        (spin, "su2_basis", _su2_basis_with_nan,
         "spin", "spin/su2-closure"),
    ], ids=["cramer-rao-nan", "cramer-rao-inf", "spin-law-nan", "independence-nan",
            "su2-closure-nan"])
    def test_nonfinite_sample_is_a_numerical_error(
        self, capsys, monkeypatch, target, name, fake, suite, check_id
    ):
        # max(0.0, nan) is 0.0: a dropped NaN would pass the check
        monkeypatch.setattr(target, name, fake)
        with pytest.raises(NumericalError, match=re.escape(check_id)) as excinfo:
            verify.run_suite(suite, seed=0)
        assert not math.isfinite(excinfo.value.residual)
        code, out, err = run_cli(capsys, "verify", "--suite", suite)
        assert code == 1
        assert out == ""
        assert err.startswith(f"igk: error: {check_id}:") and err.count("\n") == 1

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "projective", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert "command=verify" in lines[0]
        assert "passed=true" in lines[0]
        assert lines[1] == "check_id,value,threshold,comparator,passed"
        assert all(line.endswith(",true") for line in lines[2:])

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("igk: error:") and "--seed" in err
        assert "Traceback" not in err

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "nonsense"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("option, value", [
        ("--perturb", "spin/commutator"), ("--profile", "fd"), ("--profile", "strict")])
    def test_a_deleted_option_is_a_usage_error(self, option, value):
        proc = subprocess.run(
            [sys.executable, "-m", "igk.cli", "verify", option, value],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("usage: igk")
        assert f"unrecognized arguments: {option}" in proc.stderr
        assert "Traceback" not in proc.stderr


def _report_with_nan(suite, **_):
    return verify.SuiteReport(suite, 0, "numpy-pcg64", [
        verify.CheckResult("spin/commutator", math.nan, 1e-10, "<=")])


def _parsed(text, like):
    """A CSV cell read back as the type of its JSON counterpart ``like``."""
    if isinstance(like, list):
        return [_parsed(part, like[0]) for part in text.split(",")]
    if isinstance(like, bool):
        return {"true": True, "false": False}[text]
    return type(like)(text)


def _json_rows(payload):
    """The JSON records that a report's CSV rows tabulate, keyed by column."""
    if "checks" in payload:
        return [{"check_id": c["id"], **c} for c in payload["checks"]]
    if "labels" in payload:
        return [{"index": i, "label": label, "point": x, "probability": p}
                for i, (label, x, p) in enumerate(zip(
                    payload["labels"], payload["points"], payload["probabilities"]))]
    return payload.get("rows") or payload["density_sample"]


class TestReportWriter:
    """One writer: a NaN gate for every command, and CSV equal to JSON."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv, target, name, fake, field", [
        (("family", "show", "--family", "binomial:2", "--theta", "0"),
         ExponentialFamilySpec, "probabilities",
         lambda self, theta: np.array([0.25, np.nan, 0.25]),
         "binomial:2: probabilities[1]"),
        (("spin", "table", "--n", "2", "--axis", "0,0,1", "--point", "1,0,0"),
         spin, "spin_probabilities", lambda n, device, point: np.array([0.5, np.nan, 0.5]),
         "rows[1].probability"),
        (("verify", "--suite", "spin"), verify, "run_suite", _report_with_nan,
         "checks[0].value"),
    ], ids=["family-show", "spin-table", "verify"])
    def test_nonfinite_report_is_a_numerical_error(
        self, capsys, monkeypatch, fmt, argv, target, name, fake, field
    ):
        monkeypatch.setattr(target, name, fake)
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 1
        assert out == ""
        assert err == f"igk: error: {field} is not finite (nan)\n"

    @pytest.mark.parametrize("argv", [
        ("family", "show", "--family", "binomial:3", "--theta", "0.4"),
        ("family", "show", "--family", "normal", "--theta", "2,-0.5"),
        ("spin", "table", "--n", "3", "--axis", "0.3,-1,2", "--point", "0,1,1"),
        ("spin", "table", "--n", "3", "--axis", "0,0,1", "--axis2", "1,0,0", "--m1", "1"),
        ("verify", "--suite", "oscillator", "--hbar", "0.001"),
    ], ids=["family-finite", "family-real-line", "spin-state", "spin-transition",
            "verify-failing"])
    def test_csv_agrees_with_json(self, capsys, argv):
        json_code, out, _ = run_cli(capsys, *argv)
        payload = json.loads(out)
        csv_code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert csv_code == json_code
        head, columns, *rows = out.splitlines()
        assert head.startswith("# ")
        expected = {**payload, "command": payload["command"].replace(" ", "-")}
        if "incoming" in payload:
            expected.update(axis2=payload["incoming"]["axis"], m1=payload["incoming"]["m1"])
        fields = dict(item.split("=", 1) for item in head[2:].split(" "))
        # every set field outside the rows is in the head; natural_domain is JSON-only
        tabulated = {"rows", "checks", "density_sample", "labels", "points", "probabilities"}
        assert {k for k, v in expected.items() if v is not None} - tabulated - {
            "incoming", "natural_domain"} == fields.keys()
        for key, text in fields.items():
            assert _parsed(text, expected[key]) == expected[key], key
        records = _json_rows(payload)
        assert len(rows) == len(records)
        for row, record in zip(rows, records):
            cells = dict(zip(columns.split(","), row.split(",")))
            assert {k: _parsed(v, record[k]) for k, v in cells.items()} == {
                k: record[k] for k in cells}


class TestConsoleScript:
    def test_version(self):
        exe = shutil.which("igk")
        argv = [exe] if exe else [sys.executable, "-m", "igk.cli"]
        proc = subprocess.run(
            argv + ["--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"igk {__version__}"

    def test_cli_import_leaves_scipy_unloaded(self):
        code = (
            "import sys, igk.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_byte_identical_reports(self):
        exe = shutil.which("igk")
        argv = [exe] if exe else [sys.executable, "-m", "igk.cli"]
        cmd = argv + ["verify", "--suite", "spin", "--seed", "3"]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert len(first.stdout) > 0


# Runs one CLI invocation (none if no argument is given), then prints the
# igk and numpy modules it loaded as a JSON list on stderr.
_LOADED_MODULES = (
    "import json, sys, igk.cli\n"
    "if sys.argv[1:]:\n"
    "    try:\n"
    "        igk.cli.main(sys.argv[1:])\n"
    "    except SystemExit:\n"
    "        pass\n"
    "loaded = sorted(m for m in sys.modules\n"
    "                if m.split('.')[0] in ('igk', 'numpy', 'dataclasses'))\n"
    "print(json.dumps(loaded), file=sys.stderr)\n"
)

_HEAVY = {"igk.verify", "igk.spin", "igk.projective", "igk.geometry",
          "igk.oscillator", "igk.tangent_bundle"}


def loaded_modules(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *map(str, argv)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


class TestColdImports:
    """Each subcommand imports only the modules it runs."""

    def test_cli_import_loads_only_the_errors(self):
        assert loaded_modules() == {"igk", "igk.cli", "igk.errors"}

    @pytest.mark.parametrize("argv", [("--version",), ("--help",),
                                      ("verify", "--seed", "-1")])
    def test_start_up_and_usage_errors_load_no_numpy(self, argv):
        assert "numpy" not in loaded_modules(*argv)

    def test_family_show_loads_no_geometry_or_spin(self, bernoulli_spec_file):
        builtin = loaded_modules("family", "show", "--family", "normal")
        spec = loaded_modules("family", "show", "--spec", bernoulli_spec_file)
        assert "igk.families" in builtin and "igk.specfile" in spec
        assert not (builtin | spec) & _HEAVY

    def test_spin_table_loads_no_families(self):
        loaded = loaded_modules("spin", "table", "--n", "3", "--axis", "0,0,1",
                                "--point", "1,0,0")
        assert "igk.spin" in loaded
        assert not loaded & {"igk.verify", "igk.families", "igk.specfile"}

    @pytest.mark.parametrize("argv, runs", [
        (("spin", "table", "--n", "2", "--axis", "0,0,1", "--point", "1,0,0"), "igk.spin"),
        (("family", "show", "--family", "binomial:2"), "igk.families"),
    ], ids=["spin-table", "family-show"])
    def test_queries_load_no_fd_oracles(self, argv, runs):
        loaded = loaded_modules(*argv)
        assert runs in loaded and "igk._oracles" not in loaded

    def test_verify_loads_no_dataclasses_or_numpy_polynomial(self):
        # records are plain classes, and the Gauss-Hermite rule is igk's own
        loaded = loaded_modules("verify", "--suite", "all")
        assert "igk.verify" in loaded
        assert not {m for m in loaded
                    if m == "dataclasses" or m.startswith("numpy.polynomial")}

    def test_package_reexports_resolve(self):
        import igk
        from igk import errors, families, specfile

        for module, names in (
            (errors, ("DomainError", "NotKahlerError", "NumericalError",
                      "SpecFileError", "UndefinedProjectionError")),
            (families, ("BUILTIN_FAMILIES", "Box", "ExponentialFamilySpec",
                        "FiniteSpace", "RealLine", "family")),
            (specfile, ("family_from_dict", "load_family")),
        ):
            for name in names:
                assert getattr(igk, name) is getattr(module, name)
                assert name in dir(igk)
        assert verify.SUITES == igk.SUITES
        with pytest.raises(AttributeError, match="no_such_name"):
            igk.no_such_name


class TestGoldenFiles:
    """Frozen outputs: any byte drift in the report format is a regression."""

    def test_family_show_golden(self, capsys, golden_dir):
        _, out, _ = run_cli(
            capsys, "family", "show", "--family", "binomial:2", "--theta", "0"
        )
        assert out == (golden_dir / "family_binomial2.json").read_text(
            encoding="utf-8"
        )

    def test_family_show_csv_golden(self, capsys, golden_dir):
        _, out, _ = run_cli(
            capsys, "family", "show", "--family", "binomial:2", "--theta", "0",
            "--format", "csv",
        )
        assert out == (golden_dir / "family_binomial2.csv").read_text(
            encoding="utf-8"
        )

    def test_spin_table_golden(self, capsys, golden_dir):
        _, out, _ = run_cli(
            capsys, "spin", "table", "--n", "2", "--axis", "0,0,1",
            "--axis2", "1,0,0", "--m1", "2", "--format", "csv",
        )
        assert out == (golden_dir / "spin_transition_n2.csv").read_text(
            encoding="utf-8"
        )

    def test_verify_checks_golden(self, capsys, golden_dir):
        # ids, thresholds and comparators only: FD digits depend on the platform
        _, out, _ = run_cli(
            capsys, "verify", "--suite", "all", "--seed", "0", "--format", "csv",
        )
        rows = [line.split(",") for line in out.splitlines()[2:]]
        golden = (golden_dir / "verify_checks_seed0.csv").read_text(
            encoding="utf-8"
        ).splitlines()[1:]
        assert [f"{r[0]},{r[2]},{r[3]}" for r in rows] == golden

    def test_verify_golden(self, capsys):
        _, out, _ = run_cli(
            capsys, "verify", "--suite", "dombrowski", "--seed", "0",
            "--format", "csv",
        )
        lines = out.splitlines()
        assert "suite=dombrowski seed=0 generator=numpy-pcg64" in lines[0]
        assert "passed=true" in lines[0]
