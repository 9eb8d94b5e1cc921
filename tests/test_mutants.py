"""Mutation gate: each one-line mutant of a closed form must fail named checks.

Every row monkeypatches one private routine with a deliberately wrong
version, or ``verify.family`` with one that hands out a family whose
``cumulants`` hook is wrong, runs its suite through ``run_suite(suite,
seed=5)`` and requires the listed check ids to fail.  A mutant that every check lets pass shows a claim
that ``igk verify`` does not test.
"""

import numpy as np
import pytest

from igk import geometry, projective, spin, tangent_bundle, verify
from igk.families import ExponentialFamilySpec


def _bumped_q(orig):
    # Q(f)[0, 0] + 1e-3, in the bands that every Q matrix and transition frame is built from
    def q_bands(n, u0, u, vw):
        diag, off = orig(n, u0, u, vw)
        diag[:, 0] += 1e-3
        return diag, off
    return q_bands


def _conjugated_q(orig):
    return lambda n, u0, vec: orig(n, u0, vec).conj()


def _scaled_spectrum(orig):
    return lambda n, f: orig(n, f) * 1.001


def _decomposed_with(edit):
    """``_decompose`` with its (alpha, beta, axis) passed through ``edit``."""
    return lambda orig: lambda n, u0, vec: edit(*orig(n, u0, vec))


def _flipped_natural_alpha(orig):
    return lambda T, alpha, B=None: orig(T, -alpha if B is None else alpha, B)


def _doubled_natural(orig):
    # (1 - alpha) T in place of (1 - alpha)/2 T
    return lambda T, alpha, B=None: orig(T, alpha, B) * (2.0 if B is None else 1.0)


def _negated_expectation(orig):
    return lambda T, alpha, B=None: orig(T, alpha, B) * (1.0 if B is None else -1.0)


def _first_curvature_term(orig):
    # h^mn T_ikm T_jln without its - T_ilm T_jkn
    return lambda hinv, T, alpha: 0.25 * (1.0 - alpha * alpha) * np.einsum(
        "...mn,...ikm,...jln->...ijkl", hinv, T, T)


def _reversed_fiber(orig):
    return lambda p, u: orig(p, -u)


def _full_phase(orig):
    # exp(i u) in place of exp(i u / 2)
    return lambda p, u: orig(p, 2.0 * u)


def _negated_azimuth(orig):
    return lambda n, colatitude, azimuth: orig(n, colatitude, -np.asarray(azimuth))


def _negated_j(orig):
    def structure(h):
        s = orig(h)
        return tangent_bundle.TangentKahlerStructure(
            s.base_metric, s.metric, -s.omega, -s.complex_structure)
    return structure


def _structure_with(fiber=lambda h: h, omega=lambda J, G: J.T @ G):
    """``_structure`` with G's fiber block ``fiber(h)`` and Omega ``omega(J, G)``."""
    def mutate(orig):
        def structure(h):
            s = orig(h)
            n = h.shape[-1]
            G = s.metric.copy()
            G[..., n:, n:] = fiber(h)
            J = s.complex_structure
            return tangent_bundle.TangentKahlerStructure(h, G, omega(J, G), J)
        return structure
    return mutate


def _family_cumulants(name, edit):
    """``verify.family`` with the cumulants (eta, h, T) of family ``name``
    passed through ``edit``."""
    def mutate(orig):
        good = orig(name)

        def cumulants(rows, order):
            return edit(*good.cumulants(rows, 3))[:order]

        bad = ExponentialFamilySpec(good.name, good.space, good.carrier, good.statistics,
                                    good.log_partition, good.domain, good.mean_inverse,
                                    good.envelope, good.sample_box, cumulants)
        return lambda n: bad if n == name else orig(n)
    return mutate


def _no_diagonal_term(eta, h, T):
    # T = -h eta - eta h without its delta_ij h_il term
    T = T.copy()
    diag = np.arange(h.shape[-1])
    T[:, diag, diag] -= h
    return eta, h, T


MUTANTS = [
    (spin, "_q_bands", _bumped_q, "spin", [
        "spin/commutator", "spin/expectation-identity", "spin/hat-scaling",
        "spin/rotation-invariance", "spin/stern-gerlach", "spin/su2-closure",
        "spin/casimir-scalar"]),
    (spin, "_q_stack", _conjugated_q, "spin", [
        "spin/commutator", "spin/expectation-identity", "spin/hat-scaling",
        "spin/su2-closure"]),
    # the two fixed-variance Gaussians have T = 0, so the sign cannot show there
    (geometry, "_christoffel", _flipped_natural_alpha, "geometry", [
        f"geometry/e-flat-natural/{name}" for name in (
            "categorical:3", "binomial:3", "normal", "user-bernoulli")]),
    (projective, "_lift", _reversed_fiber, "projective", [
        "projective/pullback-omega/categorical:3",
        "projective/pullback-omega/categorical:4"]),
    # J -> -J passes the structure identities: the lift's pullback and holomorphy see it
    (tangent_bundle, "_structure", _negated_j, "projective", [
        "projective/pullback-omega/categorical:3",
        "projective/pullback-omega/categorical:4"]),
    (tangent_bundle, "_structure", _negated_j, "dombrowski", [
        "dombrowski/lift-holomorphic/categorical:3", "dombrowski/lift-holomorphic/binomial:3"]),
    (geometry, "_christoffel", _doubled_natural, "geometry", [
        f"geometry/duality/{name}" for name in (
            "categorical:3", "binomial:3", "normal", "user-bernoulli")]),
    (geometry, "_christoffel", _negated_expectation, "geometry", [
        f"geometry/duality-expectation/{name}" for name in (
            "categorical:3", "binomial:3", "normal", "user-bernoulli")]),
    (verify, "family", _family_cumulants("binomial:3", lambda eta, h, T: (eta, h, -T)),
     "geometry", [
        "geometry/duality/binomial:3", "geometry/duality-expectation/binomial:3",
        "geometry/third-cumulant-agreement/binomial:3"]),
    # the one-line mutant scales h where T = h (1 - 2 s) is built from it
    (verify, "family", _family_cumulants(
        "binomial:3", lambda eta, h, T: (eta, 1.001 * h, 1.001 * T)), "geometry", [
        "geometry/metric-agreement/binomial:3", "geometry/cross-duality/binomial:3",
        "geometry/third-cumulant-agreement/binomial:3"]),
    (verify, "family", _family_cumulants("categorical:3", _no_diagonal_term), "geometry", [
        "geometry/third-cumulant-agreement/categorical:3", "geometry/duality/categorical:3",
        "geometry/duality-expectation/categorical:3", "geometry/curvature-flat/categorical:3",
        "geometry/curvature-analytic-vs-fd/categorical:3",
        "geometry/skew-duality/categorical:3"]),
    # the Gaussians of fixed variance have T = 0, where both terms vanish
    (geometry, "_amari_curvature", _first_curvature_term, "geometry", [
        f"geometry/curvature-analytic-vs-fd/{name}" for name in (
            "categorical:3", "binomial:3", "normal", "user-bernoulli")]),
    (tangent_bundle, "_structure", _structure_with(fiber=lambda h: 2.0 * h), "dombrowski", [
        f"dombrowski/structure-identities/{name}" for name in (
            "categorical:3", "binomial:3", "normal", "normal_fixed_sigma")]),
    # normal_fixed_sigma has h = I, where the mutant changes nothing
    (tangent_bundle, "_structure",
     _structure_with(fiber=lambda h: np.broadcast_to(np.eye(h.shape[-1]), h.shape)),
     "dombrowski", [
        f"dombrowski/structure-identities/{name}" for name in (
            "categorical:3", "binomial:3", "normal")]),
    (tangent_bundle, "_structure", _structure_with(omega=lambda J, G: J @ G), "dombrowski", [
        f"dombrowski/structure-identities/{name}" for name in (
            "categorical:3", "binomial:3", "normal", "normal_fixed_sigma")]),
    (projective, "_lift", _full_phase, "projective", [
        f"projective/pullback-{form}/categorical:{m}"
        for form in ("metric", "omega") for m in (3, 4)]),
    # |Psi_k|^2 drops the phase: only the expectation identity sees its sign
    (spin, "psi_embedding", _negated_azimuth, "spin", ["spin/expectation-identity"]),
    # both sides of rotation-invariance and of the Stern-Gerlach law carry these
    (spin, "spin_spectrum", _scaled_spectrum, "spin", ["spin/decomposition-identity"]),
    (spin, "_decompose", _decomposed_with(lambda a, b, axis: (a, b / 2, axis)), "spin",
     ["spin/decomposition-identity"]),
    (spin, "_decompose", _decomposed_with(lambda a, b, axis: (a, b, -axis)), "spin",
     ["spin/decomposition-identity"]),
]


@pytest.mark.parametrize(
    "target, name, mutate, suite, must_fail", MUTANTS,
    ids=["q-bump", "q-conjugate", "christoffel-alpha-sign", "lift-fiber-sign",
         "j-sign", "j-sign-holomorphic", "christoffel-half", "christoffel-expectation-sign",
         "binomial-t-sign", "binomial-h-scale", "categorical-t-diagonal",
         "curvature-one-term",
         "g-fiber-2h", "g-fiber-identity", "omega-jg", "lift-full-phase",
         "spin-azimuth-sign", "spin-spectrum-scale", "spin-half-gap",
         "spin-axis-sign"])
def test_mutant_fails_its_checks(monkeypatch, target, name, mutate, suite, must_fail):
    clean = verify.run_suite(suite, seed=5)
    assert all(c.passed for c in clean.checks)
    monkeypatch.setattr(target, name, mutate(getattr(target, name)))
    failing = {c.check_id for c in verify.run_suite(suite, seed=5).checks if not c.passed}
    assert set(must_fail) <= failing
