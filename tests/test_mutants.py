"""Mutation gate: each one-line mutant of a closed form must fail named checks.

Every row monkeypatches one private routine with a deliberately wrong
version, runs its suite through ``run_suite(suite, seed=5)`` and requires the
listed check ids to fail.  A mutant that every check lets pass shows a claim
that ``igk verify`` does not test.
"""

import dataclasses

import pytest

from igk import geometry, projective, spin, tangent_bundle, verify


def _bumped_q(orig):
    def q_stack(n, u0, vec):
        Q = orig(n, u0, vec)
        Q[:, 0, 0] += 1e-3
        return Q
    return q_stack


def _conjugated_q(orig):
    return lambda n, u0, vec: orig(n, u0, vec).conj()


def _flipped_natural_alpha(orig):
    return lambda T, alpha, B=None: orig(T, -alpha if B is None else alpha, B)


def _reversed_fiber(orig):
    return lambda p, u: orig(p, -u)


def _negated_j(orig):
    def structure(h):
        s = orig(h)
        return dataclasses.replace(s, complex_structure=-s.complex_structure,
                                   omega=-s.omega)
    return structure


MUTANTS = [
    (spin, "_q_stack", _bumped_q, "spin", [
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
    # J -> -J passes every dombrowski check: only the lift's pullback sees it
    (tangent_bundle, "_structure", _negated_j, "projective", [
        "projective/pullback-omega/categorical:3",
        "projective/pullback-omega/categorical:4"]),
]


@pytest.mark.parametrize(
    "target, name, mutate, suite, must_fail", MUTANTS,
    ids=["q-bump", "q-conjugate", "christoffel-alpha-sign", "lift-fiber-sign",
         "j-sign"])
def test_mutant_fails_its_checks(monkeypatch, target, name, mutate, suite, must_fail):
    clean = verify.run_suite(suite, seed=5)
    assert all(c.passed for c in clean.checks)
    monkeypatch.setattr(target, name, mutate(getattr(target, name)))
    failing = {c.check_id for c in verify.run_suite(suite, seed=5).checks if not c.passed}
    assert set(must_fail) <= failing
