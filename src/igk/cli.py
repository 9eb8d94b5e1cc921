"""Command-line surface: family inspection, spin tables, verification suites.

Every report is machine readable (JSON or CSV), carries the tool name and
version, and — for randomized sweeps — the PRNG algorithm, so golden files
survive platform changes.  Identical invocations produce identical output
bytes.  A CSV report is one ``# key=value`` head line, the column names and
the rows, with floats as ``%.17g``, lists comma-joined and booleans as
``true``/``false``.  No report holds a NaN or infinity: one is an exit-1
error that names its field.  Exit codes: 0 success, 1 verification or
computation failure, 2 usage / parse errors.

Each command handler imports the modules it runs, so a cold ``igk spin
table`` loads neither the families nor ``verify``, and start-up, ``--help``,
``--version`` and usage errors load no numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import SUITES, __version__
from .errors import (
    DomainError,
    NotKahlerError,
    NumericalError,
    SpecFileError,
    UndefinedProjectionError,
)

_FLOAT_FMT = "%.17g"  # bit-stable CSV numbers, locale independent

# Largest ``spin table --n``: from n = 24 a transition row is one eigenvector of a
# tridiagonal matrix, in O(n) time and memory (under 1 ms at n = 1024).
MAX_SPIN_N = 1024


def _bound(value):
    """JSON-safe box bound: finite floats stay, infinities become null."""
    v = float(value)
    return v if math.isfinite(v) else None


# ----- argument parsing ---------------------------------------------------------

_VECTOR_OPTIONS = ("--theta", "--axis", "--axis2", "--point")
_NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_REALS = rf"{_NUMBER}(?:,{_NUMBER})*"  # compiled on first use


def _parse_reals(text, what):
    try:
        values = tuple(float(part) for part in str(text).split(","))
    except ValueError as exc:
        raise DomainError(
            f"{what}: could not parse {text!r} as comma-separated reals"
        ) from exc
    return values


def _parse_unit3(text, what):
    import numpy as np
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
        help="natural parameters (default: the origin, else an interior point)",
    )
    _add_output_options(show)
    show.set_defaults(handler=cmd_family_show)

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
    table.set_defaults(handler=cmd_spin_table)

    ver = topics.add_parser("verify", help="run an invariant suite")
    ver.add_argument(
        "--suite",
        default="all",
        choices=SUITES + ("all",),
        help="which suite to run (default: all)",
    )
    ver.add_argument(
        "--seed", type=int, default=0, help="seed for the randomized sweeps"
    )
    ver.add_argument(
        "--hbar",
        type=float,
        help="extra Planck constant appended to the oscillator sweep",
    )
    _add_output_options(ver)
    ver.set_defaults(handler=cmd_verify)
    return parser


# ----- output -------------------------------------------------------------------


def _payload(command, **fields):
    """A report: the shared ``tool``/``version``/``command`` prefix plus ``fields``."""
    return {"tool": "igk", "version": __version__, "command": command, **fields}


def _leaves(value, path=""):
    """``(path, leaf)`` pairs of a payload, e.g. ``("rows[2].probability", 0.5)``."""
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _leaves(v, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, value


def _cell(value):
    """CSV text of a value: floats as ``%.17g``, lists comma-joined, true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT_FMT % value
    if isinstance(value, list):
        return ",".join(_cell(v) for v in value)
    return str(value)


def _write(args, payload, head, columns, rows):
    """Write a report to stdout or ``--out``: sorted-key JSON, or CSV.

    The CSV is one ``# key=value`` line (the payload's tool, version and
    command, then ``head``'s fields, ``None`` ones left out), the
    ``columns`` line and ``rows``.  A NaN or infinity anywhere in the payload
    is a ``NumericalError`` naming its field, in either format.
    """
    for path, v in _leaves(payload):
        if isinstance(v, float) and not math.isfinite(v):
            where = f"{payload['family']}: " if "family" in payload else ""
            raise NumericalError(f"{where}{path} is not finite ({v})")
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        head = {"tool": payload["tool"], "version": payload["version"],
                "command": payload["command"].replace(" ", "-"), **head}
        lines = ["# " + " ".join(f"{k}={_cell(v)}" for k, v in head.items()
                                 if v is not None), ",".join(columns)]
        lines += [",".join(_cell(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ----- family show --------------------------------------------------------------


def cmd_family_show(args):
    import numpy as np
    # Overflow in a user psi is judged by the gates, not warned about.
    with np.errstate(all="ignore"):
        payload = _family_payload(args)
    if payload["kind"] == "finite":
        columns = ("index", "label", "point", "probability")
        rows = [(i, *row) for i, row in enumerate(zip(
            payload["labels"], payload["points"], payload["probabilities"]))]
    else:
        columns = ("x", "density")
        rows = [(r["x"], r["density"]) for r in payload["density_sample"]]
    # a real-line family's mean and variance too; natural_domain is JSON-only
    head = {k: payload.get(k) for k in ("family", "kind", "dim", "theta", "eta",
                                        "log_partition", "mean", "variance")}
    _write(args, payload, head, columns, rows)
    return 0


def _family_payload(args):
    """The family-show report; raises ``NumericalError`` rather than build a
    table that is not normalized."""
    import numpy as np
    theta = None if args.theta is None else _parse_reals(args.theta, "--theta")
    if args.spec is not None:
        from .specfile import load_family as load
    else:
        from .families import family as load
    fam = load(args.family if args.spec is None else args.spec)
    theta = fam._interior_point() if theta is None else np.asarray(theta, dtype=float)
    eta = fam.natural_to_expectation(theta)  # validates shape and domain
    psi = float(fam.log_partition(theta[None])[0])
    if fam.is_finite:
        fields = {
            "points": [float(p) for p in fam.space.values()],
            "labels": list(fam.space.labels),
            "probabilities": [float(p) for p in fam.probabilities(theta)],
        }
    else:
        mean, var = fam.mean_and_variance(theta, lambda x: x)
        scale = math.sqrt(max(var, 0.0)) or 1.0
        xs = mean + scale * np.arange(-2.0, 2.5)
        fields = {"mean": mean, "variance": var, "density_sample": [
            {"x": float(a), "density": float(d)}
            for a, d in zip(xs, fam.density(theta, xs))]}
    return _payload(
        "family show",
        family=fam.name,
        kind="finite" if fam.is_finite else "real_line",
        dim=fam.dim,
        natural_domain={
            "lo": [_bound(b) for b in fam.domain.lo],
            "hi": [_bound(b) for b in fam.domain.hi],
        },
        theta=[float(t) for t in np.atleast_1d(theta)],
        eta=[float(e) for e in eta],
        log_partition=psi,
        **fields,
    )


# ----- spin table ---------------------------------------------------------------


def cmd_spin_table(args):
    axis = _parse_unit3(args.axis, "--axis")
    transition = args.axis2 is not None or args.m1 is not None
    if args.point is not None and transition:
        raise DomainError("--point and --axis2/--m1 are mutually exclusive")
    if args.point is not None:
        point = _parse_unit3(args.point, "--point")
    elif args.axis2 is not None and args.m1 is not None:
        axis2 = _parse_unit3(args.axis2, "--axis2")
    else:
        raise DomainError(
            "need --point for a state table, or both --axis2 and --m1 "
            "for a transition table"
        )
    n = args.n
    if not 1 <= n <= MAX_SPIN_N:
        raise DomainError(f"--n must be between 1 and {MAX_SPIN_N}, got {n}")
    from . import spin

    device = spin.SphereFunction(0.0, axis)
    lam = spin.spin_spectrum(n, device)
    fields = {"n": n, "axis": [float(c) for c in axis]}
    if args.point is not None:
        probs = spin.spin_probabilities(n, device, point)
        fields.update(mode="state", point=[float(c) for c in point])
        head = fields
    else:
        preparer = spin.SphereFunction(0.0, axis2)
        probs = spin.stern_gerlach_transition(n, preparer, args.m1, device)
        fields["mode"] = "transition"
        head = {**fields, "axis2": [float(c) for c in axis2], "m1": args.m1}
        fields["incoming"] = {"axis": head["axis2"], "m1": args.m1}
    rows = [(k, float(lam[k]), float(probs[k])) for k in range(n + 1)]
    payload = _payload("spin table", **fields, rows=[
        {"k": k, "eigenvalue": e, "probability": p} for k, e, p in rows])
    _write(args, payload, head, ("k", "eigenvalue", "probability"), rows)
    return 0


# ----- verify -------------------------------------------------------------------


def cmd_verify(args):
    if args.seed < 0:
        raise DomainError("--seed must be a nonnegative integer")
    from . import verify

    report = verify.run_suite(
        args.suite,
        seed=args.seed,
        hbar=args.hbar,
    )
    rows = [(c.check_id, c.value, c.threshold, c.comparator, c.passed)
            for c in report.checks]
    head = {
        "suite": report.suite,
        "seed": report.seed,
        "generator": report.generator,
        "hbar": args.hbar,
        "passed": report.passed,
    }
    columns = ("check_id", "value", "threshold", "comparator", "passed")
    payload = _payload("verify", **head, checks=[
        dict(zip(("id",) + columns[1:], row)) for row in rows])
    _write(args, payload, head, columns, rows)
    return 0 if report.passed else 1


# ----- entry point --------------------------------------------------------------


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse takes "-0.5,-1" for an option
        if argv[i - 1] in _VECTOR_OPTIONS and re.fullmatch(_REALS, argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
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
