"""The igk benchmark: one workload per call, outputs checked, metrics printed.

Usage (from the root of an igk checkout):

    python3 bench/run.py --workload {verify-all,cli-queries,library-sweep}
                         --seed N --seconds S --trace {0,1}

igk is measured from its working tree: children run with ``src`` on
PYTHONPATH.  Every workload is a closed loop with one client and at most one
child process at a time, all pinned to one CPU with one BLAS thread.  The
work of a run is fixed by the seed and by ``--seconds`` (ops per second at a
nominal speed, ``OPS_PER_SECOND``), so two runs with the same arguments do
the same ops; times are reported at a fixed reference speed (see
``speed``).  The full report (provenance, static numbers, op
counts, every failure with its input) is printed first; the last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import checks
import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = BENCH / ".work"
PY = sys.executable

WORKLOADS = ("verify-all", "cli-queries", "library-sweep")
SETUP_REPEATS = 5
# Ops per second of --seconds; a run takes about --seconds at the nominal speed.
OPS_PER_SECOND = {"verify-all": 0.4, "cli-queries": 0.7, "library-sweep": 9.0}
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many samples above it
CHILD_TIMEOUT_S = 120.0
VERIFY_SEEDS = 1_000_000
BUILTINS = ("categorical:3", "binomial:3", "normal", "normal_fixed_sigma")
GOLDEN_FAMILY = ["family", "show", "--family", "binomial:2", "--theta", "0"]
GOLDEN_SPIN = ["spin", "table", "--n", "2", "--axis", "0,0,1", "--axis2", "1,0,0",
               "--m1", "2", "--format", "csv"]

# Per-layer metrics: the public functions whose calls and self time are reported.
LAYER_FUNCTIONS = {
    "specfile": ("family_from_dict",),
    "families": ("weighted_support", "statistic_matrix", "log_density",
                 "natural_to_expectation", "log_partition_hessian",
                 "expectation_to_natural", "moment_tensors"),
    "numerics": ("fd_gradient", "fd_jacobian", "fd_hessian"),
    "geometry": ("fisher_metric", "christoffel_alpha", "curvature_tensor",
                 "duality_residual", "skew_duality_residual", "cross_duality_residual"),
    "tangent_bundle": ("kahler_structure_at", "omega_closedness_residual",
                       "flow_isometry_residual", "metric_gradient_fd"),
    "projective": ("fd_chart_gradient", "spectrum_and_probabilities", "cramer_rao_residual",
                   "pullback_scaling_check", "lie_morphism_residual"),
    "spin": ("pi_sphere", "spin_probabilities", "q_matrix", "stern_gerlach_transition"),
    "oscillator": ("oscillator_expectation", "oscillator_operator"),
}
SUITES = ("geometry", "dombrowski", "projective", "spin", "oscillator")
IMPORT_PACKAGES = ("numpy", "scipy", "igk")


# ----- child processes ---------------------------------------------------------


class Timeout(Exception):
    pass


class Deadline:
    """Raise ``Timeout`` in the block after ``seconds`` of wall time."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        def expire(signum, frame):
            raise Timeout()

        self.old = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.old)
        return False


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: str
    wall_s: float
    rss_mb: float


def child_env():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def reap(proc):
    """Wait for a child and return its exit code and peak RSS in MB."""
    try:
        with Deadline(CHILD_TIMEOUT_S):
            _, status, usage = os.wait4(proc.pid, 0)
    except Timeout:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_child(argv):
    """Run one child to completion; stdout and stderr go through files."""
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        code, rss = reap(proc)
        wall = time.perf_counter() - start
    return Child(code, out_path.read_bytes(),
                 err_path.read_text(encoding="utf-8", errors="replace"), wall, rss)


def split_importtime(stderr):
    """Separate ``-X importtime`` lines from the rest of stderr.

    Returns (other stderr, {package: self seconds}) where package is numpy,
    scipy, igk or other.
    """
    rest, totals = [], dict.fromkeys(IMPORT_PACKAGES + ("other",), 0.0)
    for line in stderr.splitlines(keepends=True):
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the column header
        top = parts[2].strip().split(".")[0]
        totals[top if top in IMPORT_PACKAGES else "other"] += int(parts[0]) * 1e-6
    return "".join(rest), totals


# ----- ops and their checks ----------------------------------------------------


@dataclass
class Op:
    """One CLI invocation with the exit code its input calls for."""

    label: str
    args: list
    expect: int = 0
    check: Optional[Callable] = None  # stdout -> failure reasons


@dataclass
class Tally:
    """Outcomes and raw times of one run.

    ``setup_refs`` and ``op_refs`` hold the reference time before each set-up
    (op) and after the last one; ``op_nominal`` is the nominal time of the
    reference that brackets the ops.
    """

    attempted: int = 0
    wrong: int = 0
    failures: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    setup_refs: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    op_refs: list = field(default_factory=list)
    op_nominal: float = speed.COLD_NOMINAL_S
    rss_mb: list = field(default_factory=list)

    def record(self, label, reasons, wrong=False):
        self.attempted += 1
        if reasons:
            self.wrong += bool(wrong)
            self.failures.append({"op": label, "reasons": reasons})

    @property
    def failed(self):
        return len(self.failures)


def judge(op, child):
    """Failure reasons of one CLI op, and whether the output was wrong.

    An error (wrong exit code, traceback, no ``igk: error:`` line) fails the
    op; a wrong output (failed content check, changed bytes) also makes the
    run incorrect.
    """
    errors, wrong = [], []
    if checks.TRACEBACK in child.stderr:
        errors.append("traceback on stderr: " + child.stderr.strip().splitlines()[-1][:200])
    if child.code != op.expect:
        errors.append(f"exit code {child.code}, expected {op.expect}")
    if op.expect != 0 and "igk: error:" not in child.stderr:
        errors.append("no 'igk: error:' line on stderr")
    if op.expect == 0 and (child.stdout or child.code == 0):
        try:
            wrong += op.check(child.stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            wrong.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return errors + wrong, bool(wrong)


def fmt_reals(values):
    return ",".join(repr(float(v)) for v in values)


def verify_ops(rng, ctx):
    """Cold ``verify --suite all`` runs; the second op repeats the first seed.

    Every run of the first seed, traced or not, must give the same bytes.
    """
    first_seed, first_out = rng.randrange(VERIFY_SEEDS), []

    def op(seed):
        def check(out):
            bad = checks.check_verify_report(out, ctx.schemas, ctx.verify_ids)
            if seed == first_seed:
                first_out.append(out)
                if out != first_out[0]:
                    bad.append("output differs from the first run with the same seed")
            return bad

        return Op(f"verify --suite all --seed {seed}",
                  ["verify", "--suite", "all", f"--seed={seed}"], check=check)

    yield op(first_seed)
    yield op(first_seed)
    while True:
        yield op(rng.randrange(VERIFY_SEEDS))


def cli_query_ops(rng, ctx):
    """Short cold CLI queries; one op in ten is an invalid invocation.

    The invalid kinds come round in turn, ``verify --seed -1`` first, so every
    run of ten ops or more meets that known defect (a traceback where exit 2
    is documented).
    """

    def box(name):
        lo, hi = checks.SAMPLE_BOX[name]
        return [rng.uniform(a, b) for a, b in zip(lo, hi)]

    def vec3():
        return [rng.gauss(0.0, 1.0) for _ in range(3)]

    def family_op(name, source):
        theta, fmt = box(name), rng.choice(("json", "csv"))
        return Op(f"family show {name} theta={theta} {fmt}",
                  ["family", "show", *source, f"--theta={fmt_reals(theta)}", "--format", fmt],
                  check=lambda out: checks.check_family_show(name, theta, fmt, out, ctx.schemas))

    def valid():
        kind = rng.choices(("builtin", "spec", "state", "transition", "golden"),
                           weights=(4, 2, 2, 2, 1))[0]
        if kind == "builtin":
            name = rng.choice(BUILTINS)
            return family_op(name, ["--family", name])
        if kind == "spec":
            name = rng.choice(tuple(checks.SPEC_FAMILIES))
            return family_op(name, ["--spec", str(ctx.spec_paths[name])])
        n, axis, fmt = rng.randint(1, 64), vec3(), rng.choice(("json", "csv"))
        if kind == "state":
            point = vec3()
            return Op(f"spin table n={n} axis={axis} point={point} {fmt}",
                      ["spin", "table", "--n", str(n), f"--axis={fmt_reals(axis)}",
                       f"--point={fmt_reals(point)}", "--format", fmt],
                      check=lambda out: checks.check_spin_table(
                          n, axis, fmt, out, ctx.schemas, point=point))
        if kind == "transition":
            axis2, m1 = vec3(), rng.randint(0, n)
            return Op(f"spin table n={n} axis={axis} axis2={axis2} m1={m1} {fmt}",
                      ["spin", "table", "--n", str(n), f"--axis={fmt_reals(axis)}",
                       f"--axis2={fmt_reals(axis2)}", "--m1", str(m1), "--format", fmt],
                      check=lambda out: checks.check_spin_table(
                          n, axis, fmt, out, ctx.schemas, axis2=axis2, m1=m1))
        if rng.random() < 0.5:
            golden = (ROOT / "tests/golden/family_binomial2.json").read_bytes()
            return Op("golden family show binomial:2", GOLDEN_FAMILY, check=lambda out: (
                checks.check_family_show("binomial:2", [0.0], "json", out, ctx.schemas)
                + ([] if out == golden else ["differs from tests/golden/family_binomial2.json"])))
        golden = (ROOT / "tests/golden/spin_transition_n2.csv").read_bytes()
        return Op("golden spin transition n=2", GOLDEN_SPIN, check=lambda out: (
            checks.check_spin_table(2, [0, 0, 1], "csv", out, ctx.schemas, axis2=[1, 0, 0], m1=2)
            + ([] if out == golden else ["differs from tests/golden/spin_transition_n2.csv"])))

    def seed_minus_one():
        return Op("verify --seed -1", ["verify", "--seed=-1"], expect=2)

    def unknown_family():
        name = rng.choice(("poisson", "gamma:2", "binomial:x", "categorical"))
        return Op(f"unknown family {name}", ["family", "show", "--family", name], expect=2)

    def theta_outside():
        theta = [rng.uniform(-2.0, 2.0), rng.uniform(0.0, 3.0)]
        return Op(f"normal theta={theta} outside the domain",
                  ["family", "show", "--family", "normal", f"--theta={fmt_reals(theta)}"],
                  expect=2)

    def zero_axis():
        return Op("spin table with a zero axis",
                  ["spin", "table", "--n", str(rng.randint(1, 64)), "--axis=0,0,0",
                   f"--point={fmt_reals(vec3())}"], expect=2)

    def spec_parse_error():
        return Op("spec parse error", ["family", "show", "--spec", str(ctx.spec_paths["bad"])],
                  expect=2)

    invalid = [unknown_family, theta_outside, zero_axis, spec_parse_error]
    rng.shuffle(invalid)
    invalid.insert(0, seed_minus_one)
    for block in range(sys.maxsize):
        slot = rng.randrange(10)
        for i in range(10):
            yield invalid[block % len(invalid)]() if i == slot else valid()


# ----- workloads ---------------------------------------------------------------


class Context:
    """What the cold workloads need: schemas, spec files, verify ids."""

    def __init__(self):
        self.schemas = checks.Schemas(SRC / "igk" / "schemas")
        self.verify_ids = (BENCH / "verify_check_ids.txt").read_text().split()
        self.spec_paths = {}
        for name, doc in checks.SPEC_FAMILIES.items():
            self.spec_paths[name] = WORK / f"{name}.json"
            self.spec_paths[name].write_text(json.dumps(doc))
        bad = dict(checks.SPEC_FAMILIES["user-bernoulli"], psi="ln(1 + exp(theta1)")
        self.spec_paths["bad"] = WORK / "bad-spec.json"
        self.spec_paths["bad"].write_text(json.dumps(bad))


def cold_ref():
    """Wall time of the cold reference child (see ``speed``)."""
    child = run_child(speed.COLD_ARGV)
    if child.code != 0:
        raise RuntimeError(f"reference child failed: {child.stderr.strip()[-500:]}")
    return child.wall_s


def cold_setup(tally):
    """Fresh interpreters importing igk.cli, each between two cold references."""
    tally.setup_refs.append(cold_ref())
    for _ in range(SETUP_REPEATS):
        child = run_child([PY, "-c", "import igk.cli"])
        if child.code != 0:
            raise RuntimeError(f"import igk.cli failed: {child.stderr.strip()[-500:]}")
        tally.setup_s.append(child.wall_s)
        tally.setup_refs.append(cold_ref())


def run_cold(ops, count, trace, tally, layers):
    """Closed loop of ``count`` cold CLI ops, each between two cold references.

    Traced runs run every op twice, traced and plain.
    """
    traced_s = []
    tally.op_refs.append(cold_ref())
    for _ in range(count):
        op = next(ops)
        for traced in ((True, False) if trace else (False,)):
            if traced:
                spans = WORK / "spans.npz"
                child = run_child([PY, "-X", "importtime", str(BENCH / "coldchild.py"),
                                   str(spans)] + op.args)
                child.stderr, imports = split_importtime(child.stderr)
            else:
                child = run_child([PY, "-m", "igk.cli"] + op.args)
            reasons, wrong = judge(op, child)
            tally.record(op.label + (" [traced]" if traced else ""), reasons, wrong)
            if traced:
                traced_s.append(child.wall_s)
                if spans.exists():
                    layers.add_op(spans, imports, child)
                    spans.unlink()
            else:
                tally.op_s.append(child.wall_s)
                tally.rss_mb.append(child.rss_mb)
        tally.op_refs.append(cold_ref())
    if trace:
        layers.overhead_s = statistics.median(traced_s) - statistics.median(tally.op_s)


def run_sweep(seed, passes, trace, tally, layers):
    """library-sweep: set-up-only children between cold references, then one
    child runs the passes, each between two warm references."""
    argv = [PY]
    spans = WORK / "sweep-spans.npz"
    if trace:
        argv += ["-X", "importtime"]
    argv += [str(BENCH / "sweep.py"), "--seed", str(seed), "--passes", str(passes)]
    tally.setup_refs.append(cold_ref())
    for i in range(SETUP_REPEATS + 1):
        if i < SETUP_REPEATS:
            cmd = argv + ["--setup-only"]
        else:
            cmd = argv + ([f"--trace={spans}"] if trace else [])
        err_path = WORK / "sweep.err"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=child_env(), cwd=ROOT)
            try:
                with Deadline(CHILD_TIMEOUT_S):
                    ready = proc.stdout.readline()
                    if i < SETUP_REPEATS:
                        tally.setup_s.append(time.perf_counter() - start)
                    rest = proc.stdout.read()
            except Timeout:
                proc.kill()
                ready, rest = b"", b""
            finally:
                proc.stdout.close()
            code, rss = reap(proc)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        if ready.strip() != b"ready" or code != 0:
            raise RuntimeError(f"sweep child failed (exit {code}): {stderr.strip()[-800:]}")
        if i < SETUP_REPEATS:
            tally.setup_refs.append(cold_ref())
    result = json.loads(rest.decode().strip().splitlines()[-1])
    by_pass = {}
    for f in result["failures"]:
        by_pass.setdefault(f["pass"], []).append(f"{f['input']}: {f['reason']}")
    tally.record("warm-up pass", by_pass.pop(0, []), wrong=True)
    for i, elapsed in enumerate(result["op_s"], start=1):
        tally.record(f"pass {i}", by_pass.get(i, []), wrong=True)
        tally.op_s.append(elapsed)
    tally.op_refs, tally.op_nominal = result["ref_s"], speed.WARM_NOMINAL_S
    tally.rss_mb.append(rss)
    if trace:
        _, imports = split_importtime(stderr)
        traced = [t for t, on in zip(result["op_s"], result["traced"]) if on]
        plain = [t for t, on in zip(result["op_s"], result["traced"]) if not on]
        layers.add_run(spans, imports, traced)
        layers.overhead_s = statistics.median(traced) - statistics.median(plain)
        spans.unlink()


# ----- per-layer metrics -------------------------------------------------------


class Layers:
    """Accumulates traced ops into per-op per-layer metrics."""

    def __init__(self):
        self.ops = 0
        self.calls, self.self_s = {}, {}
        self.imports = dict.fromkeys(IMPORT_PACKAGES + ("other",), 0.0)
        self.import_ops = 0
        self.distinct_thetas = 0
        self.gh = [0, 0]
        self.mean_map_evals = 0
        self.unattributed_s = 0.0
        self.python_s = 0.0
        self.cli_errors = 0
        self.cli_tracebacks = 0
        self.overhead_s = 0.0
        self.decomposition = None
        self.suites = dict.fromkeys(SUITES, 0.0)

    def _add(self, spans_path, imports):
        summary = tracing.summarize(*tracing.load(spans_path))
        for name, n in summary["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + n
            self.self_s[name] = self.self_s.get(name, 0.0) + summary["self_s"][name]
        for k, v in imports.items():
            self.imports[k] += v
        self.import_ops += 1
        self.distinct_thetas += summary["distinct_thetas"]
        self.gh = [a + b for a, b in zip(self.gh, summary["gauss_hermite"])]
        self.mean_map_evals += summary["mean_map_evals"]
        return summary

    def add_op(self, spans_path, imports, child):
        """One traced cold op: imports, spans and the child's exit."""
        summary = self._add(spans_path, imports)
        self.ops += 1
        self.unattributed_s += (child.wall_s - sum(imports.values())
                                - sum(summary["self_s"].values()))
        self.cli_errors += child.code != 0
        self.cli_tracebacks += checks.TRACEBACK in child.stderr
        if self.decomposition is None:
            by_module = {}
            for name, s in summary["self_s"].items():
                module = name.split(".")[0]
                by_module[module] = by_module.get(module, 0.0) + s
            attributed = sum(imports.values()) + sum(by_module.values())
            self.decomposition = {
                "op_wall_s": child.wall_s,
                "import_self_s": imports,
                "span_self_s": by_module,
                "unattributed_s": child.wall_s - attributed,
                "note": "import_self_s + span_self_s + unattributed_s = op_wall_s; "
                        "unattributed is interpreter start-up and exit, code outside "
                        "any span, and writing the spans",
            }

    def add_run(self, spans_path, imports, traced_op_s):
        """The traced passes of one warm library-sweep child."""
        summary = self._add(spans_path, imports)
        self.ops += len(traced_op_s)
        self.unattributed_s += sum(traced_op_s) - sum(summary["self_s"].values())

    def metrics(self):
        per_op = max(self.ops, 1)
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        put("import.python_s", self.python_s, "s")
        for pkg in IMPORT_PACKAGES:
            put(f"import.{pkg}_s", self.imports[pkg] / max(self.import_ops, 1), "s")
        put("cli.main.self_s", self.self_s.get("cli.main", 0.0) / per_op, "s/op")
        put("cli.error_exits", self.cli_errors / per_op, "count/op")
        put("cli.tracebacks", self.cli_tracebacks / per_op, "count/op")
        for module, names in LAYER_FUNCTIONS.items():
            for fn in names:
                key = f"{module}.{fn}"
                put(f"{key}.calls", self.calls.get(key, 0) / per_op, "count/op")
                put(f"{key}.self_s", self.self_s.get(key, 0.0) / per_op, "s/op")
        ws = self.calls.get("families.weighted_support", 0)
        put("families.weighted_support.calls_per_theta",
            ws / self.distinct_thetas if self.distinct_thetas else 0.0, "calls/theta")
        e2n = self.calls.get("families.expectation_to_natural", 0)
        put("families.expectation_to_natural.mean_map_evals_per_call",
            self.mean_map_evals / e2n if e2n else 0.0, "evals/call")
        lookups = sum(self.gh)
        put("numerics.gauss_hermite.hit_ratio", self.gh[0] / lookups if lookups else 0.0,
            "ratio")
        geometry_self = sum(s for n, s in self.self_s.items() if n.startswith("geometry."))
        put("geometry.self_s", geometry_self / per_op, "s/op")
        for suite in SUITES:
            put(f"verify.run_suite.{suite}.s", self.suites[suite], "s")
        put("trace.unattributed_s", self.unattributed_s / per_op, "s/op")
        put("trace.overhead_s", self.overhead_s, "s/op")
        return out


def bare_python_s():
    return statistics.median(run_child([PY, "-c", "pass"]).wall_s for _ in range(3))


def suite_times(seed, tally):
    """In-process time of igk.verify.run_suite per suite, in one warm child."""
    child = run_child([PY, str(BENCH / "suites.py"), str(seed)])
    reasons = [] if child.code == 0 else [f"exit {child.code}: {child.stderr.strip()[-300:]}"]
    times = {}
    if not reasons:
        for suite, (elapsed, passed) in json.loads(child.stdout).items():
            times[suite] = elapsed
            if not passed:
                reasons.append(f"run_suite({suite!r}) not passed")
    tally.record(f"run_suite per suite, seed {seed}", reasons, wrong=bool(reasons))
    return times


# ----- report ------------------------------------------------------------------


def tail(values):
    """Highest percentile of ``values`` with TAIL_BEYOND samples above it.

    Returns (value, percentile, samples above it).  The percentile is never
    taken below the median: with 2 * TAIL_BEYOND samples or fewer no
    percentile above the median has that many samples beyond it, and the
    median (the upper middle value) is returned.
    """
    ordered = sorted(values)
    i = max(len(ordered) // 2, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - i - 1


def provenance(seed):
    def git_commit():
        if not (ROOT / ".git").exists():
            return None
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    probe = run_child([PY, str(BENCH / "probe.py")])
    versions = json.loads(probe.stdout) if probe.code == 0 else {"error": probe.stderr[-300:]}
    digest = hashlib.sha256()
    for path in sorted((SRC / "igk").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def static_numbers():
    lines = sum(len(p.read_bytes().splitlines()) for p in (SRC / "igk").glob("*.py"))
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"].get("dependencies", [])
    return {"static.src_lines": {"value": lines, "unit": "lines"},
            "static.runtime_deps": {"value": len(deps), "unit": "count"}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "igk" / "cli.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"bench: {ROOT} is not an igk checkout (no src/igk/cli.py or tests/golden)",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(args.seed)}
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # children inherit it
    report["provenance"]["pinned_cpu"] = cpu
    count = max(2, round(args.seconds * OPS_PER_SECOND[args.workload]))
    rng = random.Random(f"{args.workload}/{args.seed}")
    tally = Tally()
    layers = Layers() if args.trace else None
    if args.workload == "library-sweep":
        run_sweep(args.seed, count, args.trace, tally, layers)
    else:
        cold_setup(tally)
        ctx = Context()
        ops = (verify_ops if args.workload == "verify-all" else cli_query_ops)(rng, ctx)
        run_cold(ops, count, args.trace, tally, layers)
        if args.trace and args.workload == "verify-all":
            layers.suites.update(suite_times(args.seed, tally))
    report["provenance"]["loadavg_end"] = list(os.getloadavg())
    report["static"] = static_numbers()

    setups = speed.scale(tally.setup_s, tally.setup_refs, speed.COLD_NOMINAL_S)
    op_s = speed.scale(tally.op_s, tally.op_refs, tally.op_nominal)
    tail_s, tail_pct, beyond = tail(op_s)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "op_p50_s": {"value": statistics.median(op_s), "unit": "s"},
        "op_tail_s": {"value": tail_s, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(tally.rss_mb), "unit": "MB"},
    }
    report["end_to_end"] = metrics
    report["op_tail"] = {"percentile": round(tail_pct, 2), "samples_beyond": beyond,
                         "samples": len(op_s)}
    report["wall"] = {
        "note": "medians of the raw wall times, before scaling to the reference speed",
        "setup_s": statistics.median(tally.setup_s),
        "op_p50_s": statistics.median(tally.op_s),
        "setup_reference_s": statistics.median(tally.setup_refs),
        "setup_reference_nominal_s": speed.COLD_NOMINAL_S,
        "op_reference_s": statistics.median(tally.op_refs),
        "op_reference_nominal_s": tally.op_nominal,
    }
    report["ops"] = {"attempted": tally.attempted, "failed": tally.failed,
                     "fail_frac": tally.failed / max(tally.attempted, 1),
                     "wrong_outputs": tally.wrong, "failures": tally.failures}
    if layers is not None:
        layers.python_s = bare_python_s()
        per_layer = {**layers.metrics(), **report["static"]}
        report["per_layer"] = per_layer
        report["decomposition"] = layers.decomposition
        report["traced_ops"] = layers.ops
        metrics = per_layer
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
