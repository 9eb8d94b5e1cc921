"""Mutation gate: each one-line mutant of a closed form must fail named checks.

Every row monkeypatches one private routine with a deliberately wrong
version, or ``verify.family`` with one that hands out a family whose
``cumulants`` hook is wrong, runs its suite through ``run_suite(suite,
seed=5)`` and requires the listed check ids to fail.  A mutant that every check lets pass shows a claim
that ``igk verify`` does not test.

The zeroing sweep multiplies the float outputs of every module-level function of
the closed-form modules by 0, one function at a time: ``run_suite("all", seed=5)``
must then fail a check or raise an igk error.
"""

import numpy as np
import pytest

from igk import geometry, oscillator, projective, spin, tangent_bundle, verify
from igk.errors import (
    DomainError,
    NotKahlerError,
    NumericalError,
    SpecFileError,
    UndefinedProjectionError,
)
from igk.families import ExponentialFamilySpec


def _times_zero(value, zeroed):
    """``value`` with its floats, complex numbers and float or complex arrays, also
    inside tuples, multiplied by 0; each one zeroed is noted in ``zeroed``."""
    if isinstance(value, (float, complex)) or (
            isinstance(value, np.ndarray) and value.dtype.kind in "fc"):
        zeroed.append(value)
        return value * 0
    if type(value) is tuple:
        return tuple(_times_zero(v, zeroed) for v in value)
    return value


def _bumped_q(orig):
    # Q(f)[0, 0] + 1e-3, in the bands that every Q matrix and transition frame is built from
    def q_bands(n, u0, u, vw):
        diag, off = orig(n, u0, u, vw)
        diag[:, 0] += 1e-3
        return diag, off
    return q_bands


def _negated_eigenvalue(orig):
    # the eigenvector of -lambda = n/2 - m: the row of eigenstate n - m
    return lambda n, c, s, m: orig(n, c, s, n - m)


def _scaled_lift(orig):
    return lambda p, u: orig(p, u) * 1.001


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


def _flow_time(scale):
    """``hamiltonian_flow_step`` run at time ``scale`` * t."""
    return lambda orig: lambda fam, obs, theta, v, t: orig(fam, obs, theta, v, scale * t)


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
                                    good.envelope, good.sample_box, cumulants, good.dual)
        return lambda n: bad if n == name else orig(n)
    return mutate


def _family_dual(name, edit):
    """``verify.family`` with the ``dual`` table of family ``name`` at rows and order
    passed through ``edit(rows, order, table)``."""
    def mutate(orig):
        good = orig(name)
        bad = ExponentialFamilySpec(*good._values()[:-1], lambda rows, order: edit(
            rows, order, good.dual(rows, order)))
        return lambda n: bad if n == name else orig(n)
    return mutate


def _family_psi(name, shift):
    """``verify.family`` with family ``name``'s psi hook + ``shift`` and its normalization
    gate a no-op: a wrong psi must fail a check by its value, not through a raised gate."""
    def mutate(orig):
        good = orig(name)
        values = good._values()
        bad = ExponentialFamilySpec(*values[:4], lambda rows: good.log_partition(rows) + shift,
                                    *values[5:])
        object.__setattr__(bad, "_normalized", lambda theta, residual: None)
        return lambda n: bad if n == name else orig(n)
    return mutate


def _flipped_phi3(rows, order, table):
    return -table if order == 3 else table


def _no_reference_term(rows, order, table):
    # categorical phi'' = diag(1/eta) without its + 1/eta_0 = 1 + sum e^theta
    return table - (1.0 + np.exp(rows).sum(axis=1))[:, None, None] if order == 2 else table


def _scaled_mixed_phi3(rows, order, table):
    # normal phi'''_abc with both eta_1 and eta_2 among a, b, c scaled by 1.001
    slots = np.add.outer(np.add.outer(np.arange(2), np.arange(2)), np.arange(2))
    return table * np.where((slots == 1) | (slots == 2), 1.001, 1.0) if order == 3 else table


def _no_diagonal_term(eta, h, T):
    # T = -h eta - eta h without its delta_ij h_il term
    T = T.copy()
    diag = np.arange(h.shape[-1])
    T[:, diag, diag] -= h
    return eta, h, T


def _no_radial_constant(orig):
    # Q(r) without its constant -(hbar^2/8 + 1/2)
    return lambda hbar, f, z: orig(hbar, f, z) + f.cr * (hbar * hbar / 8.0 + 0.5)


def _doubled_second_derivative(orig):
    # Q(r) with -(hbar^2/2) D @ D in place of -(hbar^2/4) D @ D
    def operator(hbar, f, size=64):
        op = orig(hbar, f, size)
        DD = oscillator._ladder_blocks(size)[2]
        return oscillator.OscillatorOperator(
            op.hbar, op.matrix - f.cr * (hbar * hbar / 4.0) * DD)
    return operator


# a flow at the wrong time breaks Hamilton's equation v - v_1 = grad f at t = 1
GRADIENT_CROSS_CHECK = [f"dombrowski/gradient-cross-check/{name}" for name in (
    "categorical:3", "binomial:3", "normal", "normal_fixed_sigma")]

# a wrong G or Omega is no longer a quarter of what the lift pulls back
LIFT_PULLBACK = [f"dombrowski/lift-pullback/{name}" for name in ("categorical:3", "binomial:3")]

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
        "dombrowski/lift-holomorphic/categorical:3", "dombrowski/lift-holomorphic/binomial:3",
        *LIFT_PULLBACK]),
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
    # the dual hook of the expectation chart against h^-1 and -B B B T of the table
    (verify, "family", _family_dual("categorical:3", _flipped_phi3), "geometry",
     ["geometry/dual-potential-agreement/categorical:3"]),
    (verify, "family", _family_dual("binomial:3", _flipped_phi3), "geometry",
     ["geometry/dual-potential-agreement/binomial:3"]),
    (verify, "family", _family_dual("categorical:3", _no_reference_term), "geometry",
     ["geometry/dual-potential-agreement/categorical:3"]),
    (verify, "family", _family_dual("normal", _scaled_mixed_phi3), "geometry",
     ["geometry/dual-potential-agreement/normal"]),
    # the Gaussians of fixed variance have T = 0, where both terms vanish
    (geometry, "_amari_curvature", _first_curvature_term, "geometry", [
        f"geometry/curvature-analytic-vs-fd/{name}" for name in (
            "categorical:3", "binomial:3", "normal", "user-bernoulli")]),
    (tangent_bundle, "_structure", _structure_with(fiber=lambda h: 2.0 * h), "dombrowski", [
        f"dombrowski/structure-identities/{name}" for name in (
            "categorical:3", "binomial:3", "normal", "normal_fixed_sigma")] + LIFT_PULLBACK),
    # normal_fixed_sigma has h = I, where the mutant changes nothing
    (tangent_bundle, "_structure",
     _structure_with(fiber=lambda h: np.broadcast_to(np.eye(h.shape[-1]), h.shape)),
     "dombrowski", [
        f"dombrowski/structure-identities/{name}" for name in (
            "categorical:3", "binomial:3", "normal")] + LIFT_PULLBACK),
    (tangent_bundle, "_structure", _structure_with(omega=lambda J, G: J @ G), "dombrowski", [
        f"dombrowski/structure-identities/{name}" for name in (
            "categorical:3", "binomial:3", "normal", "normal_fixed_sigma")] + LIFT_PULLBACK),
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
    (tangent_bundle, "hamiltonian_flow_step", _flow_time(-1.0), "dombrowski",
     GRADIENT_CROSS_CHECK),
    (tangent_bundle, "hamiltonian_flow_step", _flow_time(2.0), "dombrowski",
     GRADIENT_CROSS_CHECK),
    # zero matrices commute and are scalar: only the Casimir's value sees them
    (spin, "su2_basis", lambda orig: lambda n: _times_zero(orig(n), []), "spin",
     ["spin/casimir-value"]),
    (oscillator, "oscillator_expectation", _no_radial_constant, "oscillator",
     ["oscillator/expectation-identity"]),
    # the Hermite-matrix route is the closed-form expectation's independent partner
    (oscillator, "oscillator_operator", _doubled_second_derivative, "oscillator",
     ["oscillator/operator-cross-check"]),
    # the rows from n = spin._TWISTED_N on; only the Wigner law reaches them
    (spin, "_twisted_row", _negated_eigenvalue, "spin", ["spin/stern-gerlach-wigner"]),
    # every other projective check reads a lift up to its scale
    (projective, "tau", _scaled_lift, "projective", ["projective/tau-normalized"]),
    # every other oscillator check reads the scaled hbar on both of its sides
    (oscillator, "_check_hbar", lambda orig: lambda hbar: orig(hbar) * 1.001, "oscillator",
     ["oscillator/spectrum-ladder", "oscillator/coherent-phase"]),
    # Q(r) and the ladder read hbar^2: only the coherent state's phase sees its sign
    (oscillator, "_check_hbar", lambda orig: lambda hbar: -orig(hbar), "oscillator",
     ["oscillator/coherent-phase"]),
    # a finite table is normalized logits, its weights sum to 1 whatever psi is: the check
    # reads the hook's own table
    (verify, "family", _family_psi("categorical:3", 1e-6), "geometry",
     ["geometry/normalization/categorical:3"]),
]


@pytest.mark.parametrize(
    "target, name, mutate, suite, must_fail", MUTANTS,
    ids=["q-bump", "q-conjugate", "christoffel-alpha-sign", "lift-fiber-sign",
         "j-sign", "j-sign-holomorphic", "christoffel-half", "christoffel-expectation-sign",
         "binomial-t-sign", "binomial-h-scale", "categorical-t-diagonal",
         "dual-phi3-sign-categorical", "dual-phi3-sign-binomial", "dual-no-reference-term",
         "dual-normal-mixed-scale", "curvature-one-term",
         "g-fiber-2h", "g-fiber-identity", "omega-jg", "lift-full-phase",
         "spin-azimuth-sign", "spin-spectrum-scale", "spin-half-gap",
         "spin-axis-sign", "flow-time-sign", "flow-time-double", "su2-basis-zero",
         "oscillator-radial-constant", "oscillator-second-derivative",
         "twisted-eigenvalue-sign", "tau-scale", "hbar-scale", "hbar-sign", "psi-shift-ungated"])
def test_mutant_fails_its_checks(monkeypatch, target, name, mutate, suite, must_fail):
    clean = verify.run_suite(suite, seed=5)
    assert all(c.passed for c in clean.checks)
    monkeypatch.setattr(target, name, mutate(getattr(target, name)))
    failing = {c.check_id for c in verify.run_suite(suite, seed=5).checks if not c.passed}
    assert set(must_fail) <= failing


# ----- the zeroing sweep --------------------------------------------------------

SWEPT = (geometry, tangent_bundle, projective, spin, oscillator)
IGK_ERRORS = (DomainError, NotKahlerError, NumericalError, SpecFileError,
              UndefinedProjectionError)
SWEEP = {f"{module.__name__.removeprefix('igk.')}.{name}": (module, name)
         for module in SWEPT for name, obj in sorted(vars(module).items())
         if callable(obj) and not isinstance(obj, type)
         and getattr(obj, "__module__", None) == module.__name__}
# the functions that a zero passes, each with its reason
ZERO_SURVIVORS = {
    "projective.cramer_rao_residual": "a defect, not a closed form; it stays beside the "
    "observables because bench/sweep.py calls it there",
}


def test_the_sweep_sees_every_module():
    assert {module for module, _ in SWEEP.values()} == set(SWEPT)


@pytest.mark.parametrize("function", SWEEP)
def test_zeroed_function_fails_a_check(monkeypatch, function):
    module, name = SWEEP[function]
    fun, zeroed = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda *a, **k: _times_zero(fun(*a, **k), zeroed))
    try:
        passed = verify.run_suite("all", seed=5).passed
    except IGK_ERRORS:
        passed = False
    if function in ZERO_SURVIVORS:
        assert zeroed and passed  # else the entry is stale
    else:  # a function that returns no float in the run changes nothing
        assert not (zeroed and passed)
