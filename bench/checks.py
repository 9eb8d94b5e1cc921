"""Closed forms and output checks shared by the benchmark's workloads.

The oracles here are written independently of igk: the log-partition, mean,
Fisher metric and third cumulant of every family the benchmark drives, the
binomial spin law, and exact moments of Stern-Gerlach transition tables.
Every check returns a list of failure reasons (empty when the output is
right), so a failed op is listed with its input and why it failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

TRACEBACK = "Traceback (most recent call last)"

# The two user spec families that igk's verify suites build, as spec files.
SPEC_FAMILIES = {
    "user-bernoulli": {
        "name": "user-bernoulli",
        "kind": "finite",
        "n": 1,
        "points": [0, 1],
        "C": "0",
        "F": ["x"],
        "psi": "ln(1 + exp(theta1))",
    },
    "user-gauss-half": {
        "name": "user-gauss-half",
        "kind": "real_line",
        "n": 1,
        "C": "-(x^2)/2 - ln(2*pi)/2",
        "F": ["x/2"],
        "psi": "theta1^2/8",
    },
}

# Sample boxes of the natural parameters (igk's own boxes; the spec families
# get igk's default box of [-2, 2] shrunk by 5% on each side).
SAMPLE_BOX = {
    "categorical:3": ((-2.0, -2.0), (2.0, 2.0)),
    "binomial:3": ((-2.0,), (2.0,)),
    "normal": ((-2.0, -3.0), (2.0, -0.3)),
    "normal_fixed_sigma": ((-2.0,), (2.0,)),
    "user-bernoulli": ((-1.8,), (1.8,)),
    "user-gauss-half": ((-1.8,), (1.8,)),
}

# Families whose mean map and metric igk finite-differences (spec families).
FD_ROUTE = ("user-bernoulli", "user-gauss-half")


def _sigmoid(t):
    return 1.0 / (1.0 + math.exp(-t))


def closed_form(name, theta):
    """Log-partition, mean, Fisher metric and third cumulant at theta.

    Returns ``(psi, eta, h, T)`` with ``T[i, j, k]`` the third derivative of
    the log-partition.
    """
    th = np.asarray(theta, dtype=float)
    base, _, arg = name.partition(":")
    if base == "categorical":
        e = np.exp(th)
        z = 1.0 + e.sum()
        p = e / z
        d = np.eye(p.size)
        T = (
            np.einsum("ij,ik,i->ijk", d, d, p)
            - np.einsum("ij,i,k->ijk", d, p, p)
            - np.einsum("ik,i,j->ijk", d, p, p)
            - np.einsum("jk,i,j->ijk", d, p, p)
            + 2.0 * np.einsum("i,j,k->ijk", p, p, p)
        )
        return math.log(z), p, np.diag(p) - np.outer(p, p), T
    if base in ("binomial", "user-bernoulli"):
        n = int(arg) if arg else 1
        t = float(th[0])
        s = _sigmoid(t)
        var = s * (1.0 - s)
        psi = n * (max(t, 0.0) + math.log1p(math.exp(-abs(t))))
        return (psi, np.array([n * s]), np.array([[n * var]]),
                np.array([[[n * var * (1.0 - 2.0 * s)]]]))
    if name == "normal":
        t1, t2 = float(th[0]), float(th[1])
        mu, var = -t1 / (2.0 * t2), -1.0 / (2.0 * t2)
        h = np.array([
            [var, t1 / (2.0 * t2 * t2)],
            [t1 / (2.0 * t2 * t2), 1.0 / (2.0 * t2 * t2) - t1 * t1 / (2.0 * t2 ** 3)],
        ])
        T = np.zeros((2, 2, 2))
        T[0, 0, 1] = T[0, 1, 0] = T[1, 0, 0] = 1.0 / (2.0 * t2 * t2)
        T[0, 1, 1] = T[1, 0, 1] = T[1, 1, 0] = -t1 / t2 ** 3
        T[1, 1, 1] = 1.5 * t1 * t1 / t2 ** 4 - 1.0 / t2 ** 3
        psi = -t1 * t1 / (4.0 * t2) + 0.5 * math.log(-math.pi / t2)
        return psi, np.array([mu, mu * mu + var]), h, T
    if name == "normal_fixed_sigma":
        t = float(th[0])
        return (0.5 * t * t + 0.5 * math.log(2.0 * math.pi), np.array([t]),
                np.array([[1.0]]), np.zeros((1, 1, 1)))
    if name == "user-gauss-half":
        t = float(th[0])
        return t * t / 8.0, np.array([t / 4.0]), np.array([[0.25]]), np.zeros((1, 1, 1))
    raise ValueError(f"no closed form for {name!r}")


def statistics(name, x):
    """Sufficient statistics F(x), shape (dim, len(x))."""
    x = np.asarray(x, dtype=float)
    base, _, arg = name.partition(":")
    if base == "categorical":
        return np.stack([(x == float(i)).astype(float) for i in range(1, int(arg))])
    if name == "normal":
        return np.stack([x, x * x])
    if name == "user-gauss-half":
        return (x / 2.0)[None, :]
    return x[None, :]


def amari_curvature(h, T, alpha):
    """Lowered alpha-curvature of an exponential family in the natural chart.

    R_ijkl = (1 - alpha^2)/4 h^mn (T_ikm T_jln - T_ilm T_jkn)  (Amari &
    Nagaoka, Methods of Information Geometry, ch. 2-3).
    """
    hinv = np.linalg.inv(h)
    return 0.25 * (1.0 - alpha * alpha) * (
        np.einsum("mn,ikm,jln->ijkl", hinv, T, T)
        - np.einsum("mn,ilm,jkn->ijkl", hinv, T, T))


def coherent_coefficients(hbar, x, y, size):
    """Hermite-basis coefficients e^{-|a|^2/2} a^k / sqrt(k!), a = x/2 - i y/hbar."""
    a = 0.5 * x - 1j * y / hbar
    out = np.empty(size, dtype=complex)
    out[0] = math.exp(-0.5 * abs(a) ** 2)
    for k in range(1, size):
        out[k] = out[k - 1] * a / math.sqrt(k)
    return out


def finite_table(name, theta):
    """(points, probabilities) of a finite family at theta."""
    th = np.asarray(theta, dtype=float)
    base, _, arg = name.partition(":")
    if base == "categorical":
        e = np.append(np.exp(th), 1.0)
        return np.arange(1.0, e.size + 1.0), e / e.sum()
    n = int(arg) if arg else 1
    s = _sigmoid(float(th[0]))
    k = np.arange(n + 1)
    return k.astype(float), np.array(
        [math.comb(n, int(i)) * s ** i * (1.0 - s) ** (n - i) for i in k])


def gaussian_of(name, theta):
    """(mean, variance) of the law of x for a real-line family at theta."""
    th = np.asarray(theta, dtype=float)
    if name == "normal":
        return -th[0] / (2.0 * th[1]), -1.0 / (2.0 * th[1])
    if name == "normal_fixed_sigma":
        return float(th[0]), 1.0
    if name == "user-gauss-half":
        return float(th[0]) / 2.0, 1.0
    raise ValueError(f"{name!r} is not a real-line family")


def binomial_law(n, c):
    """Spin law binom(n, k) ((1+c)/2)^k ((1-c)/2)^(n-k), in log space."""
    p = min(max((1.0 + c) / 2.0, 0.0), 1.0)
    out = np.zeros(n + 1)
    for k in range(n + 1):
        if (p == 0.0 and k > 0) or (p == 1.0 and k < n):
            continue
        lp = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
              + (k * math.log(p) if k else 0.0)
              + ((n - k) * math.log1p(-p) if n - k else 0.0))
        out[k] = math.exp(lp)
    return out


def transition_moment_defects(n, m1, cos_beta, probs):
    """Defects of the exact first two moments of a transition table.

    An eigenstate with magnetic number m = m1 - n/2 along one axis, measured
    along an axis at angle beta, has outcome mean m cos(beta) and second
    moment m^2 cos^2(beta) + (j(j+1) - m^2) sin^2(beta) / 2, j = n/2.
    """
    j = n / 2.0
    m = m1 - j
    k = np.arange(n + 1) - j
    mean = float(probs @ k)
    second = float(probs @ (k * k))
    want = m * m * cos_beta ** 2 + (j * (j + 1.0) - m * m) * (1.0 - cos_beta ** 2) / 2.0
    return abs(mean - m * cos_beta), abs(second - want)


def close(got, want, tol):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    return bool(np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ----- CLI outputs -----------------------------------------------------------------


class Schemas:
    """jsonschema validators for igk's report schemas, built once."""

    def __init__(self, schema_dir):
        import jsonschema

        self._validators = {}
        for name in ("family_show", "spin_table", "verify_report"):
            schema = json.loads((Path(schema_dir) / f"{name}.schema.json").read_text())
            cls = jsonschema.validators.validator_for(schema)
            self._validators[name] = cls(schema)

    def errors(self, name, payload):
        return [f"schema {name}: {e.message}"
                for e in self._validators[name].iter_errors(payload)][:3]


def _csv_report(text):
    """Split an igk CSV report into its header fields and its rows."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("missing '# ' provenance header")
    head = dict(part.split("=", 1) for part in lines[0][2:].split(" "))
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    return head, rows


def _reals(text):
    return [float(v) for v in text.split(",")]


def family_show_payload(fmt, stdout, schemas):
    """Decode a ``family show`` report into the JSON payload's shape."""
    text = stdout.decode()
    if fmt == "json":
        payload = json.loads(text)
        return payload, schemas.errors("family_show", payload)
    head, rows = _csv_report(text)
    payload = {
        "family": head["family"], "kind": head["kind"], "dim": int(head["dim"]),
        "theta": _reals(head["theta"]), "eta": _reals(head["eta"]),
        "log_partition": float(head["log_partition"]),
    }
    if head["kind"] == "finite":
        payload["points"] = [float(r["point"]) for r in rows]
        payload["probabilities"] = [float(r["probability"]) for r in rows]
    else:
        payload["density_sample"] = [
            {"x": float(r["x"]), "density": float(r["density"])} for r in rows]
    return payload, []


def check_family_show(family_name, theta, fmt, stdout, schemas):
    payload, bad = family_show_payload(fmt, stdout, schemas)
    if bad:
        return bad
    if payload["family"] != family_name:
        bad.append(f"family {payload['family']!r} != {family_name!r}")
    if not close(payload["theta"], theta, 0.0):
        bad.append("theta not echoed exactly")
    psi, eta, _, _ = closed_form(family_name, theta)
    tol = 1e-7 if family_name in FD_ROUTE else 1e-12
    if not close(payload["eta"], eta, tol):
        bad.append(f"eta {payload['eta']} != closed form {eta.tolist()}")
    if not close(payload["log_partition"], psi, 1e-12):
        bad.append(f"log_partition {payload['log_partition']} != closed form {psi}")
    if payload["kind"] == "finite":
        points, probs = finite_table(family_name, theta)
        got = np.asarray(payload["probabilities"], dtype=float)
        if np.any(got < 0.0) or abs(got.sum() - 1.0) > 1e-12:
            bad.append(f"probabilities not a distribution (sum {got.sum()!r})")
        if not close(payload["points"], points, 0.0) or not close(got, probs, 1e-12):
            bad.append("probability table != closed form")
    else:
        mean, var = gaussian_of(family_name, theta)
        if fmt == "json" and not (close(payload["mean"], mean, 1e-9)
                                  and close(payload["variance"], var, 1e-9)):
            bad.append(f"mean/variance {payload['mean']}/{payload['variance']}"
                       f" != {mean}/{var}")
        for row in payload["density_sample"]:
            want = math.exp(-0.5 * (row["x"] - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)
            if abs(row["density"] - want) > 1e-10 * max(want, 1e-300):
                bad.append(f"density at {row['x']} is {row['density']}, want {want}")
                break
    return bad


def check_spin_table(n, axis, fmt, stdout, schemas, point=None, axis2=None, m1=None):
    text = stdout.decode()
    if fmt == "json":
        payload = json.loads(text)
        bad = schemas.errors("spin_table", payload)
        if bad:
            return bad
        rows = [(r["k"], r["eigenvalue"], r["probability"]) for r in payload["rows"]]
    else:
        _, csv_rows = _csv_report(text)
        rows = [(int(r["k"]), float(r["eigenvalue"]), float(r["probability"]))
                for r in csv_rows]
        bad = []
    if [r[0] for r in rows] != list(range(n + 1)):
        return bad + ["rows are not k = 0..n"]
    eig = np.array([r[1] for r in rows])
    probs = np.array([r[2] for r in rows])
    if not close(eig, -1.0 + 2.0 * np.arange(n + 1) / n, 1e-12):
        bad.append("eigenvalues != -1 + 2k/n")
    if np.any(probs < 0.0) or abs(probs.sum() - 1.0) > 1e-12:
        bad.append(f"probabilities not a distribution (sum {probs.sum()!r})")
    if point is not None:
        law = binomial_law(n, float(_unit(axis) @ _unit(point)))
        if not np.all(np.abs(probs - law) <= 1e-12):
            bad.append("state probabilities != binomial spin law")
    else:
        d1, d2 = transition_moment_defects(n, m1, float(_unit(axis) @ _unit(axis2)), probs)
        if d1 > 1e-9 * max(1.0, n) or d2 > 1e-9 * max(1.0, n * n):
            bad.append(f"transition moments off by {d1:.2e}, {d2:.2e}")
    return bad


def check_verify_report(stdout, schemas, expected_ids):
    payload = json.loads(stdout.decode())
    bad = schemas.errors("verify_report", payload)
    if bad:
        return bad
    if payload["passed"] is not True:
        failing = [c["id"] for c in payload["checks"] if not c["passed"]]
        bad.append(f"report not passed: {failing[:5]}")
    missing = set(expected_ids) - {c["id"] for c in payload["checks"]}
    if missing:
        bad.append(f"{len(missing)} check ids missing, e.g. {sorted(missing)[:3]}")
    return bad
