"""Warm library-sweep child: set up once, then time passes over igk's API.

Usage: python sweep.py --seed S --passes N [--trace SPANS.npz] [--setup-only]

Set-up is the imports, the construction of the six families and one warm-up
pass; the child prints ``ready`` when it is done.  Each op is then one pass
of public calls on freshly seeded inputs; every call gets its own theta (or
state), so a cache keyed on theta cannot hit.  Only the calls are timed; the
outputs are checked after each pass against closed forms.  A warm
reference (``speed.warm``) runs before the first pass and after each pass,
so the harness can put pass times on a fixed speed.  With --trace,
passes alternate between plain and traced (spans around igk's public
boundary, see ``tracing``); the two kinds give the tracing overhead.  The
last stdout line is one JSON object with the pass times, the reference
times and the failures, each listed with its input.
"""

import argparse
import json
import sys
import time

import numpy as np

from igk import geometry, oscillator, projective, spin, tangent_bundle
from igk.families import BUILTIN_FAMILIES, family
from igk.specfile import family_from_dict

import checks
import speed
import tracing

ALPHAS = (-1.0, 0.0, 0.5, 1.0)
CURVATURE_ALPHAS = (0.0, 0.5, 1.0)
ORACLE_FAMILIES = ("categorical:3", "normal")  # curvature vs Amari at alpha = 0.5
SPIN_MAX_N = 128
PROJECTIVE_MAX_M = 6
OPERATOR_SIZE = 64
HBARS = (0.5, 1.0, 2.0)


def build_families():
    fams = [family(name) for name in BUILTIN_FAMILIES]
    fams += [family_from_dict(doc, source="<bench>")
             for doc in checks.SPEC_FAMILIES.values()]
    return fams


def draw_inputs(fams, rng):
    """Every input of one pass; nothing here calls igk."""

    def theta(name):
        lo, hi = checks.SAMPLE_BOX[name]
        return rng.uniform(lo, hi)

    def unit3():
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)

    def hermitian(m):
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        return 0.5 * (a + a.conj().T)

    def ray(m):
        return rng.normal(size=m) + 1j * rng.normal(size=m)

    calls = []
    for fam in fams:
        name = fam.name
        calls.append(("weighted_support", fam, theta(name)))
        for chart in geometry.CHARTS:
            calls.append(("fisher_metric", fam, theta(name), chart))
        for chart in geometry.CHARTS:
            for alpha in ALPHAS:
                calls.append(("christoffel_alpha", fam, theta(name), alpha, chart))
        for alpha in CURVATURE_ALPHAS:
            oracle = alpha == 0.5 and name in ORACLE_FAMILIES
            kind = "curvature_oracle" if oracle else "curvature_tensor"
            calls.append((kind, fam, theta(name), alpha))
        calls.append(("chart_roundtrip", fam, theta(name)))
        calls.append(("kahler_structure_at", fam, theta(name)))
    for _ in range(2):
        calls.append(("pi_sphere", int(rng.integers(1, SPIN_MAX_N + 1)), unit3()))
        calls.append(("spin_probabilities", int(rng.integers(1, SPIN_MAX_N + 1)),
                      float(rng.normal()), rng.normal(size=3), unit3()))
    n = int(rng.integers(1, SPIN_MAX_N + 1))
    calls.append(("stern_gerlach_transition", n, unit3(), int(rng.integers(0, n + 1)),
                  unit3()))
    for _ in range(2):
        for kind in ("spectrum_and_probabilities", "cramer_rao_residual",
                     "eigenmanifold_projection"):
            m = int(rng.integers(2, PROJECTIVE_MAX_M + 1))
            calls.append((kind, hermitian(m), ray(m), int(rng.integers(0, m))))
        for kind in ("oscillator_expectation", "oscillator_operator"):
            # |a|^2 = (x/2)^2 + (y/hbar)^2 <= 5 keeps the coherent state's
            # weight beyond the 64-term basis negligible for the cross-check
            hbar = float(rng.choice(HBARS))
            calls.append((kind, hbar, tuple(rng.normal(size=4)),
                          (rng.uniform(-2.0, 2.0), hbar * rng.uniform(-2.0, 2.0))))
    return calls


def run_call(call):
    """One public igk call; returns its output."""
    kind, args = call[0], call[1:]
    if kind == "weighted_support":
        fam, th = args
        return fam.weighted_support(th)
    if kind == "fisher_metric":
        fam, th, chart = args
        return geometry.fisher_metric(fam, th, chart)
    if kind == "christoffel_alpha":
        fam, th, alpha, chart = args
        return geometry.christoffel_alpha(fam, th, alpha, chart)
    if kind == "curvature_tensor":
        fam, th, alpha = args
        return geometry.curvature_tensor(fam, th, alpha)
    if kind == "curvature_oracle":
        fam, th, alpha = args
        return (geometry.curvature_tensor(fam, th, alpha),
                geometry.fisher_metric(fam, th), fam.moment_tensors(th))
    if kind == "chart_roundtrip":
        fam, th = args
        eta = fam.natural_to_expectation(th)
        return eta, fam.expectation_to_natural(eta)
    if kind == "kahler_structure_at":
        fam, th = args
        return tangent_bundle.kahler_structure_at(fam, th)
    if kind == "pi_sphere":
        n, s = args
        return spin.pi_sphere(n, s)
    if kind == "spin_probabilities":
        n, u0, vec, s = args
        return spin.spin_probabilities(n, spin.SphereFunction(u0, tuple(vec)), s)
    if kind == "stern_gerlach_transition":
        n, a1, m1, a2 = args
        return spin.stern_gerlach_transition(
            n, spin.SphereFunction(0.0, tuple(a1)), m1, spin.SphereFunction(0.0, tuple(a2)))
    if kind in ("spectrum_and_probabilities", "cramer_rao_residual",
                "eigenmanifold_projection"):
        H, z, k = args
        obs = projective.observable_from_hermitian(H)
        point = projective.ProjectivePoint(z)
        if kind == "spectrum_and_probabilities":
            return projective.spectrum_and_probabilities(obs, point)
        if kind == "cramer_rao_residual":
            return projective.cramer_rao_residual(obs, point)
        return projective.eigenmanifold_projection(obs, obs.eigenvalues[k], point)
    hbar, c, (x, y) = args
    f = oscillator.PlaneKahlerFunction(*c)
    if kind == "oscillator_expectation":
        return oscillator.oscillator_expectation(hbar, f, oscillator.PlanePoint(x, y))
    return oscillator.oscillator_operator(hbar, f, size=OPERATOR_SIZE)


def check_call(call, out):
    """Failure reasons for one call's output (empty when it is right)."""
    kind, args = call[0], call[1:]
    close = checks.close
    if kind in ("spectrum_and_probabilities", "cramer_rao_residual",
                "eigenmanifold_projection"):
        H, z, k = args
        lam, vecs = np.linalg.eigh(H)
        probs = np.abs(vecs.conj().T @ z) ** 2 / np.vdot(z, z).real
        if kind == "spectrum_and_probabilities":
            if not (close(out.levels, lam, 1e-10) and close(out.probabilities, probs, 1e-10)):
                return ["levels/probabilities != eigendecomposition of H"]
            return []
        if kind == "cramer_rao_residual":
            return [] if out <= 1e-5 else [f"Cramer-Rao residual {out:.3e} > 1e-5"]
        cos2 = np.cos(out[1]) ** 2
        return [] if abs(cos2 - probs[k]) <= 1e-10 else [
            f"cos^2(distance) {cos2!r} != probability {probs[k]!r}"]
    if kind in ("oscillator_expectation", "oscillator_operator"):
        hbar, c, (x, y) = args
        value = c[0] + c[1] * x + c[2] * y + 0.5 * c[3] * (x * x + y * y)
        if kind == "oscillator_expectation":
            return [] if abs(out - value) <= 1e-7 else [
                f"expectation {out!r} != f(z) {value!r}"]
        M = out.matrix
        coef = checks.coherent_coefficients(hbar, x, y, OPERATOR_SIZE)
        got = np.vdot(coef, M @ coef).real
        bad = [] if np.max(np.abs(M - M.conj().T)) <= 1e-10 else ["operator not Hermitian"]
        if abs(got - value) > 1e-6:
            bad.append(f"<c|Q(f)|c> {got!r} != f(z) {value!r}")
        return bad
    if kind == "pi_sphere":
        n, s = args
        return [] if np.max(np.abs(out - checks.binomial_law(n, s[0]))) <= 1e-12 else [
            "pi_sphere != binomial spin law"]
    if kind == "spin_probabilities":
        n, _, vec, s = args
        law = checks.binomial_law(n, float(vec @ s / np.linalg.norm(vec)))
        return [] if np.max(np.abs(out - law)) <= 1e-12 else ["spin probabilities != law"]
    if kind == "stern_gerlach_transition":
        n, a1, m1, a2 = args
        if np.any(out < 0.0) or abs(out.sum() - 1.0) > 1e-10:
            return [f"not a distribution (sum {out.sum()!r})"]
        d1, d2 = checks.transition_moment_defects(n, m1, float(a1 @ a2), out)
        return [] if d1 <= 1e-9 * n and d2 <= 1e-9 * n * n else [
            f"transition moments off by {d1:.2e}, {d2:.2e}"]

    fam, th = args[0], args[1]
    name = fam.name
    _, eta, h, T = checks.closed_form(name, th)
    if kind == "weighted_support":
        x, w = out
        tol = 1e-9 if fam.is_finite else 1e-7
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > tol:
            return [f"weights not normalized (sum {w.sum()!r})"]
        return [] if close(checks.statistics(name, x) @ w, eta, tol) else [
            "weighted statistic mean != closed-form eta"]
    if kind == "fisher_metric":
        want = h if args[2] == "natural" else np.linalg.inv(h)
        return [] if close(out, want, 1e-7) else [f"{args[2]} metric != closed form"]
    if kind == "christoffel_alpha":
        alpha, chart = args[2], args[3]
        if chart == "natural":
            want = 0.5 * (1.0 - alpha) * T
        else:
            B = np.linalg.inv(h)
            want = -0.5 * (1.0 + alpha) * np.einsum("au,bv,cw,uvw->abc", B, B, B, T)
        return [] if close(out, want, 1e-7) else [f"{chart} Christoffel != closed form"]
    if kind == "curvature_tensor":
        R = np.einsum("ijkm,ml->ijkl", out, h)
        err = float(np.max(np.abs(R - checks.amari_curvature(h, T, args[2]))))
        return [] if err <= 1e-5 else [f"curvature off the closed form by {err:.2e}"]
    if kind == "curvature_oracle":
        R, metric, (m_eta, m_h, m_T) = out
        bad = [] if (close(m_eta, eta, 1e-9) and close(m_h, h, 1e-7)
                     and close(m_T, T, 1e-7)) else ["moment_tensors != closed form"]
        err = float(np.max(np.abs(np.einsum("ijkm,ml->ijkl", R, metric)
                                  - checks.amari_curvature(m_h, m_T, args[2]))))
        return bad + ([] if err <= 1e-5 else [f"curvature off Amari's form by {err:.2e}"])
    if kind == "chart_roundtrip":
        got_eta, back = out
        tol = 1e-7 if name in checks.FD_ROUTE else 1e-12
        bad = [] if close(got_eta, eta, tol) else ["mean map != closed form"]
        err = float(np.max(np.abs(back - th)))
        return bad + ([] if err <= 1e-8 else [f"chart round trip off by {err:.2e}"])
    # kahler_structure_at
    n = th.size
    J, G, Om = out.complex_structure, out.metric, out.omega
    bad = [] if close(G, np.kron(np.eye(2), h), 1e-7) else ["Kahler metric != Fisher blocks"]
    if np.max(np.abs(J @ J + np.eye(2 * n))) > 1e-12 or np.max(np.abs(Om - J.T @ G)) > 1e-12:
        bad.append("J^2 != -1 or omega != J^T G")
    return bad


def describe(call):
    """A JSON-ready description of a call's input, for the failure list."""
    def plain(v):
        if hasattr(v, "name") and hasattr(v, "dim"):
            return v.name
        if isinstance(v, np.ndarray):
            return np.round(v, 6).tolist() if not np.iscomplexobj(v) else "complex array"
        return v
    return [plain(v) for v in call]


def run_pass(fams, seed, index):
    """Time one pass; returns (seconds, calls, outputs)."""
    calls = draw_inputs(fams, np.random.default_rng([seed, index]))
    outs = []
    start = time.perf_counter()
    for call in calls:
        try:
            outs.append(run_call(call))
        except Exception as exc:  # an error on valid input fails the op
            outs.append(exc)
    return time.perf_counter() - start, calls, outs


def check_pass(index, calls, outs):
    failures = []
    for call, out in zip(calls, outs):
        reasons = ([f"raised {type(out).__name__}: {out}"] if isinstance(out, Exception)
                   else check_call(call, out))
        for reason in reasons:
            failures.append({"pass": index, "input": describe(call), "reason": reason})
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=2)
    ap.add_argument("--trace", metavar="SPANS")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    fams = build_families()
    _, calls, outs = run_pass(fams, args.seed, 0)  # pass 0 is the warm-up
    print("ready", flush=True)
    if args.setup_only:
        return 0
    failures = check_pass(0, calls, outs)

    op_s, traced, ref_s = [], [], [speed.warm()]
    recorder = tracing.Recorder() if args.trace else None
    while len(op_s) < max(2, args.passes):
        tracing_on = recorder is not None and len(op_s) % 2 == 1
        if tracing_on:
            recorder.install()
        elapsed, calls, outs = run_pass(fams, args.seed, len(op_s) + 1)
        if tracing_on:
            recorder.uninstall()
        ref_s.append(speed.warm())
        op_s.append(elapsed)
        traced.append(tracing_on)
        failures += check_pass(len(op_s), calls, outs)
    if recorder is not None:
        recorder.dump(args.trace)
    print(json.dumps({"op_s": op_s, "ref_s": ref_s, "traced": traced, "failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
