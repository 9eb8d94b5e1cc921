"""One reader per input kind: every public reader of a quantum point or a real input refuses
what is not a real (or, for a ray, complex) number with one ``DomainError`` and no warning;
a single point comes out as an array, equal to its stack row to the bit."""

import math
import warnings

import numpy as np
import pytest

from igk import _oracles, oscillator, projective, spin, verify
from igk.errors import DomainError
from igk.families import Box, FiniteSpace, family
from igk.oscillator import PlaneKahlerFunction, PlanePoint
from igk.projective import KahlerObservableCP

P, U, M = [0.5, 0.5], [0.1, -0.1], [1.0, 0.0]
OBS = KahlerObservableCP([0.0, 1.0], np.eye(2))
RAY = [1.0, 1.0j]
F = PlaneKahlerFunction(0.3, -0.7, 1.1, 0.4)
SPHERE_F = spin.SphereFunction(0.2, (0.3, -0.4, 0.5))
SPECTRUM = oscillator.gaussian_spectrum(PlaneKahlerFunction(cx=1.0), [0.5, 0.3])

# The bad inputs, each made from the entry point's valid real input ``good``: complex with
# a small imaginary part (a numpy array, or Python complex numbers), the numbers as strings,
# a ragged sequence, and NaN where the reader requires finite numbers.
BAD = {
    "complex-array": lambda good: np.asarray(good) + 1e-3j,
    "complex-python": lambda good: (np.asarray(good) + 1e-3j).tolist(),
    "string": lambda good: np.asarray(good).astype(str).tolist(),
    "ragged": lambda good: [np.ravel(good).tolist(), [np.ravel(good).tolist()]],
    "nan": lambda good: np.full(np.shape(good), np.nan).tolist(),
}

# (entry point, call of the one bad input, the valid input, the kinds read, how 90b8454 failed
# on each kind in order).  Parent codes: W = ComplexWarning and a value read at the real part,
# A = accepted without a word (a wrong value, or NaN out), T / V / I / X = a bare TypeError /
# ValueError / IndexError / AttributeError, D = a DomainError already.
RAYS = ("string", "ragged", "nan")
ALL = tuple(BAD)
REAL = ALL[:-1]  # NaN is a value of these readers, not a refusal
ENTRY_POINTS = [
    ("tau-p", lambda x: projective.tau(x, U), P, ALL, "W T A V D"),
    ("tau-u", lambda x: projective.tau(P, x), U, ALL, "W T A V D"),
    ("deck_shift-p", lambda x: projective.deck_shift(x, U, M), P, REAL, "W T A V"),
    ("deck_shift-u", lambda x: projective.deck_shift(P, x, M), U, REAL, "W T A V"),
    ("deck_shift-m", lambda x: projective.deck_shift(P, U, x), M, ALL, "W T A V A"),
    ("observable-eigenvalues", lambda x: KahlerObservableCP(x, np.eye(2)), M, ALL,
     "W T A V D"),
    ("projection-level", lambda x: projective.eigenmanifold_projection(OBS, x, RAY), 1.0,
     ALL, "W T A V D"),
    ("projection-ray", lambda x: projective.eigenmanifold_projection(OBS, 1.0, x), RAY,
     RAYS, "A V D"),
    ("pi_projection", projective.pi_projection, RAY, RAYS, "A V D"),
    ("fubini_study_distance", lambda x: projective.fubini_study_distance(x, RAY), RAY,
     RAYS, "A V D"),
    ("spectrum_and_probabilities", lambda x: projective.spectrum_and_probabilities(OBS, x),
     RAY, RAYS, "A V D"),
    ("xi_value", lambda x: projective.xi_value(np.diag([1j, -1j]), x), RAY, RAYS,
     "A V D"),
    ("pi_sphere", lambda x: spin.pi_sphere(3, x), [1.0, 0.0, 0.0], ALL, "W T A V D"),
    ("spin_probabilities", lambda x: spin.spin_probabilities(3, SPHERE_F, x),
     [1.0, 0.0, 0.0], ALL, "W T A V D"),
    ("sphere_point_angles", spin.sphere_point_angles, [1.0, 0.0, 0.0], ALL, "W T A V D"),
    ("expectation_identity_residual",
     lambda x: spin.expectation_identity_residual(3, SPHERE_F, x), [1.0, 0.0, 0.0], ALL,
     "W T A V D"),
    ("sphere_function-value", SPHERE_F.value, [1.0, 0.0, 0.0], REAL, "W T A V"),
    ("psi_embedding-colatitude", lambda x: spin.psi_embedding(2, x, 0.1), 0.3, ALL,
     "W T A V D"),
    ("psi_embedding-azimuth", lambda x: spin.psi_embedding(2, 0.3, x), 0.1, ALL,
     "W T A V D"),
    ("spin_law", lambda x: spin.spin_law(3, x), 0.3, ALL, "W T A T D"),
    ("sphere_from_tangent-theta", lambda x: spin.sphere_from_tangent(x, 0.1), 0.3, ALL,
     "W T A T D"),
    ("sphere_from_tangent-fiber", lambda x: spin.sphere_from_tangent(0.3, x), 0.1, ALL,
     "W T A T D"),
    ("stern_gerlach-index", lambda x: spin.stern_gerlach_transition(
        2, SPHERE_F, x, SPHERE_F), 1.0, ALL, "D D D D D"),
    ("plane_function-value", F.value, [0.5, 0.3], ALL, "W T A V D"),
    ("oscillator_expectation", lambda x: oscillator.oscillator_expectation(1.0, F, x),
     [[0.5, 0.3]], ALL, "W T A V D"),
    ("oscillator_expectation_residual",
     lambda x: oscillator.oscillator_expectation_residual(1.0, F, x), [[0.5, 0.3]], ALL,
     "W T A V D"),
    ("gaussian_spectrum", lambda x: oscillator.gaussian_spectrum(PlaneKahlerFunction(
        cx=1.0), x), [0.5, 0.3], ALL, "W T A V D"),
    ("coherent_state-point", lambda x: oscillator.coherent_state(1.0, x, 0.5), [0.5, 0.3],
     ALL, "X X X X X"),
    ("coherent_state-xi", lambda x: oscillator.coherent_state(1.0, PlanePoint(0.5, 0.3), x),
     0.5, ALL, "W T A V D"),
    ("coherent_coefficients", lambda x: oscillator.coherent_coefficients(1.0, x),
     [0.5, 0.3], ALL, "X X X X X"),
    ("gaussian_spectrum-density", SPECTRUM.density, 0.5, REAL, "W T A V"),
    ("hbar", lambda x: oscillator.oscillator_operator(x, F, size=4), 1.0, ALL,
     "W T A T D"),
    ("plane_bracket_fd", lambda x: _oracles.plane_bracket_fd(F, F, x), [0.5, 0.3], ALL,
     "X X X X X"),
    ("box-contains", Box((0.0,), (1.0,)).contains, [0.5], REAL, "W T A V"),
    ("statistic_matrix", family("binomial:3").statistic_matrix, [0.5, 1.0], REAL,
     "W T A V"),
    ("box-bounds", lambda x: Box(x, (1.0,)), [0.0], ALL, "D D D D A"),
    ("finite_space", FiniteSpace, [0.0, 1.0], ALL, "D D D D A"),
    ("value_table", lambda x: family("binomial:3").mean_and_variance([0.1], x),
     [0.0, 1.0, 2.0, 3.0], ALL, "D D D D A"),
]
ROWS = [pytest.param(call, BAD[kind](good), id=f"{name}-{kind}")
        for name, call, good, kinds, _ in ENTRY_POINTS for kind in kinds]


def test_the_table_notes_every_row():
    assert all(len(parent.split()) == len(kinds) for *_, kinds, parent in ENTRY_POINTS)


@pytest.mark.parametrize("call, good", [
    pytest.param(call, good, id=name) for name, call, good, *_ in ENTRY_POINTS])
def test_the_valid_input_is_read(call, good):
    call(good)  # a refusal of a bad input is then the reader's, not the call's


@pytest.mark.parametrize("call, bad", ROWS)
def test_a_bad_input_is_one_domain_error_and_no_warning(call, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call(bad)


class TestOpenFounds:
    def test_complex_values_of_a_callable_observable(self):
        # the mean was read at the real part with a ComplexWarning
        with pytest.raises(DomainError, match="^binomial:3: observable values must be real"):
            family("binomial:3").mean_and_variance([0.1], lambda x: x * 1j)

    @pytest.mark.parametrize("observable", [
        [np.nan, 0.0, 0.0, 0.0],
        lambda x: np.where(x > 1.0, np.inf, x),
        lambda x: np.log(x - 1.0),  # NaN and -inf, with no RuntimeWarning
    ], ids=["table-nan", "callable-inf", "callable-nan"])
    def test_non_finite_observable_values(self, observable):
        # mean_and_variance returned (nan, nan) or inf
        with pytest.raises(DomainError, match="^binomial:3: observable values must be finite$"):
            family("binomial:3").mean_and_variance([0.1], observable)

    @pytest.mark.parametrize("lo, hi", [((np.nan,), (1.0,)), ((0.0,), (np.nan,))])
    def test_a_nan_box_bound(self, lo, hi):
        # built a box that holds no theta
        with pytest.raises(DomainError, match="nonempty interior"):
            Box(lo, hi)

    @pytest.mark.parametrize("points", [(np.nan, 1.0), (0.0, np.inf)])
    def test_a_non_finite_point_of_a_finite_space(self, points):
        # built, and a spec family on it was refused only by its normalization gate
        with pytest.raises(DomainError, match="must be finite"):
            FiniteSpace(points)


class TestSinglePointsAreArrays:
    def test_tau(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.2, 1.0, size=(6, 4))
        p /= p.sum(axis=1, keepdims=True)
        u = rng.normal(size=(6, 4))
        u -= np.vecdot(p, u)[:, None]
        stack = projective.tau(p, u)
        for i in range(6):
            single = projective.tau(p[i], u[i])
            assert type(single) is np.ndarray and single.shape == (4,)
            np.testing.assert_array_equal(single, stack[i])

    def test_psi_embedding(self):
        rng = np.random.default_rng(4)
        a, b = rng.uniform(0.0, math.pi, size=7), rng.uniform(-3.0, 3.0, size=7)
        stack = spin.psi_embedding(5, a, b)
        for i in range(7):
            single = spin.psi_embedding(5, a[i], b[i])
            assert type(single) is np.ndarray and single.shape == (6,)
            np.testing.assert_array_equal(single, stack[i])

    def test_eigenmanifold_projection(self):
        rng = np.random.default_rng(5)
        H = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        obs = [projective.observable_from_hermitian(h + h.conj().T) for h in H]
        stack = KahlerObservableCP(np.array([o.eigenvalues for o in obs]),
                                   np.array([o.frame for o in obs]))
        z = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        levels = stack.eigenvalues[:, 1]
        rays, dist = projective.eigenmanifold_projection(stack, levels, z)
        for i in range(5):
            single, d = projective.eigenmanifold_projection(obs[i], levels[i], z[i])
            assert type(single) is np.ndarray and single.shape == (3,)
            np.testing.assert_array_equal(single, rays[i])
            assert d == dist[i]

    def test_a_projective_point_is_one_ray(self):
        with pytest.raises(DomainError, match="one ray"):
            projective.ProjectivePoint([[1.0, 0.0], [0.0, 1.0]])


PLANE_ROUTINES = {
    "value": lambda z: F.value(z),
    "oscillator_expectation": lambda z: oscillator.oscillator_expectation(0.7, F, z),
    "oscillator_expectation_residual":
        lambda z: oscillator.oscillator_expectation_residual(0.7, F, z),
    "gaussian_spectrum": lambda z: oscillator.gaussian_spectrum(
        PlaneKahlerFunction(1.0, 0.5, -2.0), z)._values(),
    "coherent_state": lambda z: oscillator.coherent_state(0.7, z, np.linspace(-3.0, 3.0, 9)),
    "coherent_coefficients": lambda z: oscillator.coherent_coefficients(0.7, z, size=32),
    "plane_bracket_fd": lambda z: _oracles.plane_bracket_fd(F, PlaneKahlerFunction(
        0.1, 0.2, 0.3, 0.4), z),
}


class TestPlanePoints:
    @pytest.mark.parametrize("routine", PLANE_ROUTINES.values(), ids=PLANE_ROUTINES)
    def test_a_record_and_a_pair_give_one_result(self, routine):
        x, y = 0.8, -1.3
        a, b = routine(PlanePoint(x, y)), routine(np.array([x, y]))
        assert type(a) is type(b)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("routine", ["gaussian_spectrum", "coherent_state",
                                         "coherent_coefficients", "plane_bracket_fd"])
    def test_a_stack_where_one_point_is_read_is_refused(self, routine):
        with pytest.raises(DomainError, match=r"^a plane point is a pair \(x, y\), got shape"):
            PLANE_ROUTINES[routine](np.zeros((3, 2)))

    @pytest.mark.parametrize("z", [np.zeros(3), np.zeros((2, 2, 2)), 0.5])
    def test_a_plane_point_has_two_coordinates(self, z):
        with pytest.raises(DomainError, match="a plane point is a pair"):
            F.value(z)


def test_a_verify_run_constructs_no_point_record(monkeypatch):
    made = []
    for record in (projective.ProjectivePoint, oscillator.PlanePoint):
        init = record.__init__
        monkeypatch.setattr(record, "__init__", lambda self, *a, init=init, **k: (
            made.append(type(self).__name__), init(self, *a, **k))[1])
    assert verify.run_suite("all", seed=5).passed
    assert made == []

