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

    def test_theta_defaults_to_origin(self, capsys):
        _, explicit, _ = run_cli(
            capsys, "family", "show", "--family", "categorical:3", "--theta", "0,0"
        )
        _, default, _ = run_cli(capsys, "family", "show", "--family", "categorical:3")
        assert default == explicit

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


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "spin", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == "spin"
        assert payload["seed"] == 7
        assert payload["profile"] == "strict"
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

    def test_perturbed_check_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "spin", "--perturb", "spin/commutator"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["perturb"] == "spin/commutator"
        failing = [c["id"] for c in payload["checks"] if not c["passed"]]
        assert failing == ["spin/commutator"]
        jsonschema.validate(payload, load_schema("verify_report.schema.json"))

    def test_profile_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "geometry", "--profile", "fd"
        )
        assert code == 0
        assert json.loads(out)["profile"] == "fd"

    def test_profile_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("IGK_TOL_PROFILE", "fd")
        _, out, _ = run_cli(capsys, "verify", "--suite", "spin")
        assert json.loads(out)["profile"] == "fd"

    def test_profile_flag_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("IGK_TOL_PROFILE", "fd")
        _, out, _ = run_cli(capsys, "verify", "--suite", "spin", "--profile", "strict")
        assert json.loads(out)["profile"] == "strict"

    def test_bad_environment_profile_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("IGK_TOL_PROFILE", "sloppy")
        code, _, err = run_cli(capsys, "verify", "--suite", "spin")
        assert code == 2
        assert "sloppy" in err

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

    def test_unconverged_oscillator_quadrature_exits_1(self, capsys):
        # a finite result that fails order doubling is a numerical error
        code, out, err = run_cli(
            capsys, "verify", "--suite", "oscillator", "--hbar", "1e4"
        )
        assert code == 1
        assert out == ""
        assert re.fullmatch(
            r"igk: error: oscillator quadrature did not converge under order "
            r"doubling \(residual [0-9.e+-]+\)\n",
            err,
        )

    @pytest.mark.parametrize("target, name, fake, suite, check_id", [
        (projective, "cramer_rao_residual", lambda obs, z: math.nan,
         "projective", "projective/cramer-rao-random"),
        (projective, "cramer_rao_residual", lambda obs, z: math.inf,
         "projective", "projective/cramer-rao-random"),
        (spin, "spin_law", lambda n, t: np.full(n + 1, np.nan),
         "spin", "spin/spin-law"),
        (ExponentialFamilySpec, "statistic_independence_margin", lambda self: math.nan,
         "geometry", "geometry/statistic-independence/categorical:3"),
    ], ids=["cramer-rao-nan", "cramer-rao-inf", "spin-law-nan", "independence-nan"])
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


class TestGoldenFiles:
    """Frozen outputs: any byte drift in the report format is a regression."""

    def test_family_show_golden(self, capsys, golden_dir):
        _, out, _ = run_cli(
            capsys, "family", "show", "--family", "binomial:2", "--theta", "0"
        )
        assert out == (golden_dir / "family_binomial2.json").read_text(
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

    @pytest.mark.parametrize("profile", ["strict", "fd"])
    def test_verify_checks_golden(self, capsys, golden_dir, profile):
        # ids, thresholds and comparators only: FD digits depend on the platform
        _, out, _ = run_cli(
            capsys, "verify", "--suite", "all", "--seed", "0",
            "--profile", profile, "--format", "csv",
        )
        rows = [line.split(",") for line in out.splitlines()[2:]]
        golden = (golden_dir / "verify_checks_seed0.csv").read_text(
            encoding="utf-8"
        ).splitlines()[1:]
        assert [f"{profile},{r[0]},{r[2]},{r[3]}" for r in rows] == [
            line for line in golden if line.startswith(f"{profile},")
        ]

    def test_verify_golden(self, capsys):
        _, out, _ = run_cli(
            capsys, "verify", "--suite", "dombrowski", "--seed", "0",
            "--format", "csv",
        )
        lines = out.splitlines()
        assert "suite=dombrowski seed=0 profile=strict" in lines[0]
        assert "generator=numpy-pcg64" in lines[0]
        assert "passed=true" in lines[0]
