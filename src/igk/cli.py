"""Command-line surface: family inspection, spin tables, verification suites.

Every report is machine readable (JSON or CSV), carries the tool name and
version, and — for randomized sweeps — the PRNG algorithm, so golden files
survive platform changes.  Identical invocations produce identical output
bytes.  Exit codes: 0 success, 1 verification or computation failure,
2 usage / parse errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__, families, spin, verify
from .errors import (
    DomainError,
    NotKahlerError,
    NumericalError,
    SpecFileError,
    UndefinedProjectionError,
)
from .specfile import load_family

_FLOAT_FMT = "%.17g"  # bit-stable CSV numbers, locale independent

# Largest ``spin table --n``: transition mode diagonalizes a dense
# (n+1) x (n+1) complex matrix, so memory and time grow as n^2 and n^3.
MAX_SPIN_N = 1024


def _fmt(value):
    return _FLOAT_FMT % float(value)


def _join(values):
    return ",".join(_fmt(v) for v in values)


def _json_bool(flag):
    return "true" if flag else "false"


def _bound(value):
    """JSON-safe box bound: finite floats stay, infinities become null."""
    v = float(value)
    return v if math.isfinite(v) else None


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A fully parsed invocation.

    ``family`` holds a builtin name, or a spec-file path when ``from_spec``
    is set.  ``parameters`` carries the command-specific numbers and vectors;
    ``profile`` overrides the tolerance profile (else the environment, else
    strict).  Identical configurations emit identical output bytes.
    """

    command: str
    family: Optional[str] = None
    from_spec: bool = False
    parameters: dict = dataclasses.field(default_factory=dict)
    fmt: str = "json"
    out: Optional[str] = None
    profile: Optional[str] = None
    seed: int = 0


# ----- argument parsing ---------------------------------------------------------


def _parse_reals(text, what):
    try:
        values = tuple(float(part) for part in str(text).split(","))
    except ValueError as exc:
        raise DomainError(
            f"{what}: could not parse {text!r} as comma-separated reals"
        ) from exc
    return values


def _parse_unit3(text, what):
    vec = _parse_reals(text, what)
    if len(vec) != 3:
        raise DomainError(f"{what}: need exactly three components, got {len(vec)}")
    arr = np.asarray(vec, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(arr))
    if not math.isfinite(norm):  # a NaN or inf component, or an overflow
        raise DomainError(f"{what}: the vector or its norm is not finite")
    if norm < 1e-12:
        raise DomainError(f"{what}: zero vector")
    return tuple(arr / norm)


def _add_output_options(parser):
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="output format (default: json)",
    )
    parser.add_argument(
        "--out", metavar="PATH", help="write the report to PATH instead of stdout"
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="igk",
        description=(
            "Inspect exponential families, tabulate spin measurements, and "
            "run the geometric verification suites."
        ),
    )
    parser.add_argument("--version", action="version", version=f"igk {__version__}")
    topics = parser.add_subparsers(dest="topic", required=True, metavar="command")

    fam = topics.add_parser("family", help="exponential-family inspection")
    fam_actions = fam.add_subparsers(dest="action", required=True, metavar="action")
    show = fam_actions.add_parser(
        "show", help="density table and mean parameters at a natural point"
    )
    ref = show.add_mutually_exclusive_group(required=True)
    ref.add_argument(
        "--family",
        metavar="NAME",
        help="builtin family: categorical:N, binomial:N, normal, normal_fixed_sigma",
    )
    ref.add_argument("--spec", metavar="FILE", help="JSON family spec file")
    show.add_argument(
        "--theta",
        metavar="V1,V2,...",
        help="natural parameters (default: the origin)",
    )
    _add_output_options(show)

    sp = topics.add_parser("spin", help="spin measurement tables")
    sp_actions = sp.add_subparsers(dest="action", required=True, metavar="action")
    table = sp_actions.add_parser(
        "table", help="spectrum and outcome probabilities of a spin device"
    )
    table.add_argument(
        "--n",
        type=int,
        required=True,
        help=f"number of constituent spins, 1..{MAX_SPIN_N}",
    )
    table.add_argument(
        "--axis",
        required=True,
        metavar="U,V,W",
        help="measurement axis (normalized internally)",
    )
    table.add_argument(
        "--point", metavar="X,Y,Z", help="sphere point of the prepared coherent state"
    )
    table.add_argument(
        "--axis2", metavar="U,V,W", help="axis of the preparing device (transition mode)"
    )
    table.add_argument(
        "--m1",
        type=int,
        metavar="INT",
        help="eigenstate index 0..n passed on by the preparing device",
    )
    _add_output_options(table)

    ver = topics.add_parser("verify", help="run an invariant suite")
    ver.add_argument(
        "--suite",
        default="all",
        choices=verify.SUITES + ("all",),
        help="which suite to run (default: all)",
    )
    ver.add_argument(
        "--seed", type=int, default=0, help="seed for the randomized sweeps"
    )
    ver.add_argument(
        "--profile",
        choices=verify.PROFILES,
        help="tolerance profile (default: $IGK_TOL_PROFILE, else strict)",
    )
    ver.add_argument(
        "--perturb",
        metavar="KEY",
        help="named corruption hook, for failure-path testing",
    )
    ver.add_argument(
        "--hbar",
        type=float,
        help="extra Planck constant appended to the oscillator sweep",
    )
    _add_output_options(ver)
    return parser


def _config_from_args(args):
    if args.topic == "family":
        pars = {}
        if args.theta is not None:
            pars["theta"] = _parse_reals(args.theta, "--theta")
        return RunConfig(
            command="family show",
            family=args.family if args.family is not None else args.spec,
            from_spec=args.spec is not None,
            parameters=pars,
            fmt=args.format,
            out=args.out,
        )
    if args.topic == "spin":
        pars = {"n": int(args.n), "axis": _parse_unit3(args.axis, "--axis")}
        transition = args.axis2 is not None or args.m1 is not None
        if args.point is not None and transition:
            raise DomainError("--point and --axis2/--m1 are mutually exclusive")
        if args.point is not None:
            pars["point"] = _parse_unit3(args.point, "--point")
        elif args.axis2 is not None and args.m1 is not None:
            pars["axis2"] = _parse_unit3(args.axis2, "--axis2")
            pars["m1"] = int(args.m1)
        else:
            raise DomainError(
                "need --point for a state table, or both --axis2 and --m1 "
                "for a transition table"
            )
        return RunConfig(
            command="spin table", parameters=pars, fmt=args.format, out=args.out
        )
    if args.seed < 0:
        raise DomainError("--seed must be a nonnegative integer")
    pars = {"suite": args.suite}
    if args.perturb is not None:
        pars["perturb"] = args.perturb
    if args.hbar is not None:
        pars["hbar"] = float(args.hbar)
    return RunConfig(
        command="verify",
        parameters=pars,
        fmt=args.format,
        out=args.out,
        profile=args.profile,
        seed=int(args.seed),
    )


# ----- output -------------------------------------------------------------------


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(payload, out_path):
    _emit(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        out_path,
    )


# ----- family show --------------------------------------------------------------

def _check_finite(fam, payload):
    """Raise ``NumericalError`` if a reported number is NaN or infinite."""
    for key in ("eta", "log_partition", "probabilities", "mean", "variance",
                "density_sample"):
        values = payload.get(key, ())
        if key == "density_sample":
            values = [v for row in values for v in (row["x"], row["density"])]
        for v in np.atleast_1d(values):
            if not math.isfinite(v):
                raise NumericalError(
                    f"{fam.name}: {key} is not finite ({float(v)}) at this theta"
                )


def cmd_family_show(config):
    # Overflow in a user psi is judged by the gates below, not warned about.
    with np.errstate(all="ignore"):
        payload = _family_payload(config)
    if config.fmt == "json":
        _emit_json(payload, config.out)
    else:
        _emit(_family_csv(payload), config.out)
    return 0


def _family_payload(config):
    """The family-show report; raises ``NumericalError`` rather than emit a
    table that is not normalized or holds a non-finite number."""
    fam = (
        load_family(config.family)
        if config.from_spec
        else families.family(config.family)
    )
    theta = np.asarray(
        config.parameters.get("theta", (0.0,) * fam.dim), dtype=float
    )
    eta = fam.natural_to_expectation(theta)  # validates shape and domain
    psi = float(fam.log_partition(np.atleast_1d(theta)))
    payload = {
        "tool": "igk",
        "version": __version__,
        "command": "family show",
        "family": fam.name,
        "kind": "finite" if fam.is_finite else "real_line",
        "dim": fam.dim,
        "natural_domain": {
            "lo": [_bound(b) for b in fam.domain.lo],
            "hi": [_bound(b) for b in fam.domain.hi],
        },
        "theta": [float(t) for t in np.atleast_1d(theta)],
        "eta": [float(e) for e in eta],
        "log_partition": psi,
    }
    if fam.is_finite:
        payload["points"] = [float(p) for p in fam.space.values()]
        payload["labels"] = list(fam.space.labels)
        payload["probabilities"] = [float(p) for p in fam.probabilities(theta)]
    else:
        mean, var = fam.mean_and_variance(theta, lambda x: x)
        scale = math.sqrt(max(var, 0.0)) or 1.0
        xs = mean + scale * np.arange(-2.0, 2.5)
        dens = fam.density(theta, xs)
        payload["mean"] = mean
        payload["variance"] = var
        payload["density_sample"] = [
            {"x": float(a), "density": float(d)} for a, d in zip(xs, dens)
        ]
    _check_finite(fam, payload)
    return payload


def _family_csv(payload):
    head = (
        f"# tool={payload['tool']} version={payload['version']}"
        f" command=family-show family={payload['family']}"
        f" kind={payload['kind']} dim={payload['dim']}"
        f" theta={_join(payload['theta'])} eta={_join(payload['eta'])}"
        f" log_partition={_fmt(payload['log_partition'])}"
    )
    lines = [head]
    if payload["kind"] == "finite":
        lines.append("index,label,point,probability")
        rows = zip(payload["labels"], payload["points"], payload["probabilities"])
        for i, (label, point, prob) in enumerate(rows):
            lines.append(f"{i},{label},{_fmt(point)},{_fmt(prob)}")
    else:
        lines.append("x,density")
        for row in payload["density_sample"]:
            lines.append(f"{_fmt(row['x'])},{_fmt(row['density'])}")
    return "\n".join(lines) + "\n"


# ----- spin table ---------------------------------------------------------------


def cmd_spin_table(config):
    pars = config.parameters
    n = pars["n"]
    if not 1 <= n <= MAX_SPIN_N:
        raise DomainError(f"--n must be between 1 and {MAX_SPIN_N}, got {n}")
    device = spin.SphereFunction(0.0, pars["axis"])
    lam = spin.spin_spectrum(n, device)
    payload = {
        "tool": "igk",
        "version": __version__,
        "command": "spin table",
        "n": n,
        "axis": [float(c) for c in pars["axis"]],
    }
    if "point" in pars:
        probs = spin.spin_probabilities(n, device, pars["point"])
        payload["mode"] = "state"
        payload["point"] = [float(c) for c in pars["point"]]
    else:
        preparer = spin.SphereFunction(0.0, pars["axis2"])
        probs = spin.stern_gerlach_transition(n, preparer, pars["m1"], device)
        payload["mode"] = "transition"
        payload["incoming"] = {
            "axis": [float(c) for c in pars["axis2"]],
            "m1": pars["m1"],
        }
    payload["rows"] = [
        {"k": int(k), "eigenvalue": float(lam[k]), "probability": float(probs[k])}
        for k in range(n + 1)
    ]
    if config.fmt == "json":
        _emit_json(payload, config.out)
    else:
        _emit(_spin_csv(payload), config.out)
    return 0


def _spin_csv(payload):
    head = (
        f"# tool={payload['tool']} version={payload['version']}"
        f" command=spin-table n={payload['n']} axis={_join(payload['axis'])}"
        f" mode={payload['mode']}"
    )
    if payload["mode"] == "state":
        head += f" point={_join(payload['point'])}"
    else:
        head += (
            f" axis2={_join(payload['incoming']['axis'])}"
            f" m1={payload['incoming']['m1']}"
        )
    lines = [head, "k,eigenvalue,probability"]
    for row in payload["rows"]:
        lines.append(
            f"{row['k']},{_fmt(row['eigenvalue'])},{_fmt(row['probability'])}"
        )
    return "\n".join(lines) + "\n"


# ----- verify -------------------------------------------------------------------


def cmd_verify(config):
    pars = config.parameters
    report = verify.run_suite(
        pars["suite"],
        seed=config.seed,
        profile=config.profile,
        perturb=pars.get("perturb"),
        hbar=pars.get("hbar"),
    )
    payload = {
        "tool": "igk",
        "version": __version__,
        "command": "verify",
        "suite": report.suite,
        "seed": report.seed,
        "profile": report.profile,
        "generator": report.generator,
        "perturb": pars.get("perturb"),
        "hbar": pars.get("hbar"),
        "passed": report.passed,
        "checks": [
            {
                "id": c.check_id,
                "value": c.value,
                "threshold": c.threshold,
                "comparator": c.comparator,
                "passed": c.passed,
            }
            for c in report.checks
        ],
    }
    if config.fmt == "json":
        _emit_json(payload, config.out)
    else:
        _emit(_verify_csv(payload), config.out)
    return 0 if report.passed else 1


def _verify_csv(payload):
    head = (
        f"# tool={payload['tool']} version={payload['version']} command=verify"
        f" suite={payload['suite']} seed={payload['seed']}"
        f" profile={payload['profile']} generator={payload['generator']}"
    )
    if payload["perturb"] is not None:
        head += f" perturb={payload['perturb']}"
    if payload["hbar"] is not None:
        head += f" hbar={_fmt(payload['hbar'])}"
    head += f" passed={_json_bool(payload['passed'])}"
    lines = [head, "check_id,value,threshold,comparator,passed"]
    for c in payload["checks"]:
        lines.append(
            f"{c['id']},{_fmt(c['value'])},{_fmt(c['threshold'])},"
            f"{c['comparator']},{_json_bool(c['passed'])}"
        )
    return "\n".join(lines) + "\n"


# ----- entry point --------------------------------------------------------------


_HANDLERS = {
    "family show": cmd_family_show,
    "spin table": cmd_spin_table,
    "verify": cmd_verify,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        return _HANDLERS[config.command](config)
    except (DomainError, SpecFileError, OSError) as exc:
        print(f"igk: error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, NotKahlerError, UndefinedProjectionError) as exc:
        residual = getattr(exc, "residual", None)
        shown = "" if residual is None else f" (residual {residual:.3g})"
        print(f"igk: error: {exc}{shown}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
