"""One reader per input kind: every public reader of a quantum point, a matrix or a real input
refuses what is not a real (or, for a ray or a matrix, complex) number with one
``DomainError`` and no warning; a single point comes out as an array, equal to its stack row
to the bit."""

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
SKEW = [[1j, 0.5], [-0.5, -1j]]
HERMITIAN = [[1.0, 0.5j], [-0.5j, 2.0]]
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
    # a matrix without its last column
    "non-square": lambda good: np.asarray(good)[..., :-1].tolist(),
    # a matrix or a ray with one more zero row and column, or coordinate, than its partner
    "wrong-m": lambda good: np.pad(np.asarray(good), [(0, 1)] * np.ndim(good)).tolist(),
    "zero": lambda good: np.zeros(np.shape(good)).tolist(),
}

# (entry point, call of the one bad input, the valid input, the kinds read, how 90b8454 failed
# on each kind in order).  Parent codes: W = ComplexWarning and a value read at the real part,
# A = accepted without a word (a wrong value, or NaN out), T / V / I / X = a bare TypeError /
# ValueError / IndexError / AttributeError, D = a DomainError already.
RAYS = ("string", "ragged", "nan")
ALL = ("complex-array", "complex-python", "string", "ragged", "nan")
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
     lambda x: _oracles.expectation_identity_residual(3, SPHERE_F, x), [1.0, 0.0, 0.0], ALL,
     "W T A V D"),
    ("sphere_function-value", SPHERE_F.value, [1.0, 0.0, 0.0], ALL, "W T A V A"),
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
     lambda x: _oracles.oscillator_expectation_residual(1.0, F, x), [[0.5, 0.3]], ALL,
     "W T A V D"),
    ("gaussian_spectrum", lambda x: oscillator.gaussian_spectrum(PlaneKahlerFunction(
        cx=1.0), x), [0.5, 0.3], ALL, "W T A V D"),
    ("coherent_state-point", lambda x: oscillator.coherent_state(1.0, x, 0.5), [0.5, 0.3],
     ALL, "X X X X X"),
    ("coherent_state-xi", lambda x: oscillator.coherent_state(1.0, PlanePoint(0.5, 0.3), x),
     0.5, ALL, "W T A V D"),
    ("coherent_coefficients", lambda x: oscillator.coherent_coefficients(1.0, x),
     [0.5, 0.3], ALL, "X X X X X"),
    ("gaussian_spectrum-density", SPECTRUM.density, 0.5, ALL, "W T A V A"),
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
# The matrices of ``projective`` and the rays that meet a matrix or another ray, with how
# 0d5eda2 failed on each kind in order (R = a RuntimeWarning and NaN out).  Kinds that
# 0d5eda2 already refused with a DomainError (a NaN matrix, for one) are left out.
MATRIX_ENTRY_POINTS = [
    ("observable_from_hermitian", projective.observable_from_hermitian, HERMITIAN,
     ("string", "ragged"), "A V"),
    ("observable-frame", lambda x: KahlerObservableCP([0.0, 1.0], x), np.eye(2).tolist(),
     ("string", "ragged"), "A V"),
    ("xi_value-matrix", lambda x: projective.xi_value(x, RAY), SKEW,
     ("string", "ragged", "wrong-m"), "A V V"),
    ("xi_value-ray", lambda x: projective.xi_value(SKEW, x), RAY, ("wrong-m", "zero"), "V R"),
    ("lie_morphism-a", lambda x: _oracles.lie_morphism_residual(x, SKEW, RAY), SKEW,
     ("string", "ragged", "non-square", "wrong-m"), "A V V V"),
    ("lie_morphism-b", lambda x: _oracles.lie_morphism_residual(SKEW, x, RAY), SKEW,
     ("string", "ragged", "non-square", "wrong-m"), "A V V V"),
    ("lie_morphism-ray", lambda x: _oracles.lie_morphism_residual(SKEW, SKEW, x), RAY,
     ("wrong-m",), "V"),
    ("observable-value", OBS.value, RAY, ("wrong-m",), "V"),
    ("spectrum_and_probabilities-length", lambda x: projective.spectrum_and_probabilities(
        OBS, x), RAY, ("wrong-m",), "V"),
    ("projection-ray-length", lambda x: projective.eigenmanifold_projection(OBS, 1.0, x), RAY,
     ("wrong-m",), "V"),
    ("cramer_rao_residual", lambda x: projective.cramer_rao_residual(OBS, x), RAY,
     ("wrong-m",), "V"),
    ("fubini_study_distance-length", lambda x: projective.fubini_study_distance(x, RAY), RAY,
     ("wrong-m",), "V"),
]
ROWS = [pytest.param(call, BAD[kind](good), id=f"{name}-{kind}")
        for name, call, good, kinds, _ in ENTRY_POINTS + MATRIX_ENTRY_POINTS
        for kind in kinds]


def test_the_table_notes_every_row():
    assert all(len(parent.split()) == len(kinds)
               for *_, kinds, parent in ENTRY_POINTS + MATRIX_ENTRY_POINTS)


@pytest.mark.parametrize("call, good", [
    pytest.param(call, good, id=name)
    for name, call, good, *_ in ENTRY_POINTS + MATRIX_ENTRY_POINTS])
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

    def test_rays_keep_their_leading_axes(self):
        # pi_projection(np.ones((2, 2, 2))) was one table of 8 probabilities
        table = projective.pi_projection(np.ones((2, 2, 2)))
        assert table.shape == (2, 2, 2)
        np.testing.assert_array_equal(table, np.broadcast_to(projective.pi_projection(
            [1.0, 1.0]), (2, 2, 2)))

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: spin.spin_spectrum(2, (1.0, (1, 0, 0))), "a SphereFunction or",
                     id="spectrum-of-coefficients"),  # an AttributeError
        pytest.param(lambda: spin.spin_spectrum(2, 1.0), "a SphereFunction or",
                     id="spectrum-of-a-number"),  # a TypeError
        pytest.param(lambda: spin.spin_probabilities(2, [SPHERE_F] * 2, [1.0, 0.0, 0.0]),
                     "one sphere point per sphere function", id="probabilities"),  # ValueError
        pytest.param(lambda: spin.stern_gerlach_transition(2, [SPHERE_F] * 2, 0, [SPHERE_F]),
                     "one per first function", id="stern_gerlach"),  # an IndexError
        pytest.param(lambda: _oracles.commutator_residual(2, [SPHERE_F] * 2, [SPHERE_F]),
                     "one per first function", id="commutator"),  # g broadcast silently
    ])
    def test_sphere_functions_and_points_in_matching_numbers(self, call, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                call()


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
        lambda z: _oracles.oscillator_expectation_residual(0.7, F, z),
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


class TestSpherePoints:
    def test_a_stack_gives_one_value_per_row(self):
        # the 3 x 3 stack was a matrix product: [0, 1, 0], its first column
        f = spin.SphereFunction(0.0, (1.0, 0.0, 0.0))
        assert f.value([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]).tolist() == [
            0.0, 0.0, 1.0]

    def test_rows_equal_single_points_to_the_bit(self):
        # a (2, 3) stack raised numpy's bare ValueError from matmul
        s = np.random.default_rng(6).normal(size=(2, 3))
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        assert SPHERE_F.value(s).tolist() == [SPHERE_F.value(row) for row in s]

    @pytest.mark.parametrize("s, message", [
        ([1.0, 0.0], "a sphere point is a 3-vector"),  # a bare ValueError from matmul
        ([1.0, 1.0, 0.0], "off the unit sphere"),  # evaluated as it stood
        ([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]], "off the unit sphere"),
    ], ids=["2-vector", "off-sphere", "off-sphere-row"])
    def test_a_value_reads_its_point_as_a_sphere_point(self, s, message):
        with pytest.raises(DomainError, match=message):
            SPHERE_F.value(s)

    @pytest.mark.parametrize("call, shape", [
        pytest.param(lambda s: spin.pi_sphere(2, s), (0, 3), id="pi_sphere"),
        pytest.param(lambda s: np.stack(spin.sphere_point_angles(s)), (2, 0),
                     id="sphere_point_angles"),
        pytest.param(lambda s: _oracles.sphere_bracket_fd(2, [], [], s), (0,),
                     id="sphere_bracket_fd"),
        pytest.param(SPHERE_F.value, (0,), id="sphere_function-value"),
        # a reshape of the empty amplitudes to (0, -1) raised numpy's bare ValueError
        pytest.param(lambda s: spin.psi_embedding(3, *spin.sphere_point_angles(s)), (0, 4),
                     id="psi_embedding"),
    ])
    def test_an_empty_stack_gives_empty_results(self, call, shape):
        # the sphere tolerance's max() raised numpy's bare ValueError on no points
        assert np.shape(call(np.zeros((0, 3)))) == shape


def test_a_verify_run_constructs_no_point_record(monkeypatch):
    made = []
    for record in (projective.ProjectivePoint, oscillator.PlanePoint):
        init = record.__init__
        monkeypatch.setattr(record, "__init__", lambda self, *a, init=init, **k: (
            made.append(type(self).__name__), init(self, *a, **k))[1])
    assert verify.run_suite("all", seed=5).passed
    assert made == []



# ----- the stack contract --------------------------------------------------------------

_RNG = np.random.default_rng(8)


def _hermitian(*shape):
    a = _RNG.normal(size=shape) + 1j * _RNG.normal(size=shape)
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


OBS2 = projective.observable_from_hermitian(_hermitian(2, 3, 3))
OBS1 = projective.observable_from_hermitian(_hermitian(3, 3))
RAYS3 = _RNG.normal(size=(3, 3)) + 1j * _RNG.normal(size=(3, 3))
SKEW2, SKEW3 = 1j * _hermitian(2, 3, 3), 1j * _hermitian(3, 3, 3)

# paired inputs whose leading axes differ, both sides stacked, and what the refusal names:
# each raised numpy's bare ValueError (a broadcast, a reshape or a matmul of the two
# stacks) before the rule
UNPAIRED = {
    "spectrum_and_probabilities": (
        lambda: projective.spectrum_and_probabilities(OBS2, RAYS3), ("(2, 3, 3)", "(3, 3)")),
    "cramer_rao_residual": (
        lambda: projective.cramer_rao_residual(OBS2, RAYS3), ("(2, 3, 3)", "(3, 3)")),
    "eigenmanifold_projection": (lambda: projective.eigenmanifold_projection(
        OBS2, OBS2.eigenvalues[:, 0], RAYS3), ("(2, 3, 3)", "(3, 3)")),
    "eigenmanifold_projection-levels": (lambda: projective.eigenmanifold_projection(
        OBS1, OBS1.eigenvalues[:2], RAYS3), ("(2, 1)", "(3, 3)")),
    "fubini_study_distance": (lambda: projective.fubini_study_distance(
        RAYS3[:2, :2], RAYS3[:, :2]), ("(2, 2)", "(3, 2)")),
    "xi_value": (lambda: projective.xi_value(SKEW2, RAYS3[:, None, :]),
                 ("(2, 3, 3)", "(3, 1, 3)")),
    "observable-value": (lambda: OBS2.value(RAYS3), ("(2, 3, 3)", "(3, 3)")),
    "lie_morphism_residual": (lambda: _oracles.lie_morphism_residual(SKEW2, SKEW2, RAYS3),
                              ("(2, 3, 3)", "(3, 3)")),
    "lie_morphism_residual-matrices": (lambda: _oracles.lie_morphism_residual(
        SKEW2, SKEW3, RAYS3[0]), ("(2, 3, 3)", "(3, 3, 3)")),
    # as in spin: one ray per sphere function, the single function and ray included
    "hat_scaling_residual": (lambda: _oracles.hat_scaling_residual(
        2, [SPHERE_F] * 2, [SPHERE_F] * 2, RAYS3), ("(3, 3)", "2 function")),
}


@pytest.mark.parametrize("call, shapes", UNPAIRED.values(), ids=UNPAIRED)
def test_unpaired_stacks_are_one_domain_error_naming_both_shapes(call, shapes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as excinfo:
            call()
    assert type(excinfo.value) is DomainError
    assert all(shape in str(excinfo.value) for shape in shapes)


# one side with no leading axes pairs with every row of the other: rows equal single calls
ONE_SIDED = {
    # one observable, three rays (a bare ValueError from take_along_axis before)
    "spectrum_and_probabilities": (
        lambda: projective.spectrum_and_probabilities(OBS1, RAYS3).probabilities,
        [lambda i: projective.spectrum_and_probabilities(OBS1, RAYS3[i]).probabilities] * 3),
    # two observables, one ray (a bare ValueError from the stencil before)
    "cramer_rao_residual": (
        lambda: projective.cramer_rao_residual(OBS2, RAYS3[0]),
        [lambda i: projective.cramer_rao_residual(KahlerObservableCP(
            OBS2.eigenvalues[i], OBS2.frame[i]), RAYS3[0])] * 2),
    "eigenmanifold_projection": (
        lambda: projective.eigenmanifold_projection(OBS1, OBS1.eigenvalues[1], RAYS3)[1],
        [lambda i: projective.eigenmanifold_projection(
            OBS1, OBS1.eigenvalues[1], RAYS3[i])[1]] * 3),
    # two matrices, one ray (a bare ValueError from the stencil before)
    "lie_morphism_residual": (
        lambda: _oracles.lie_morphism_residual(SKEW2, SKEW2, RAYS3[0]),
        [lambda i: _oracles.lie_morphism_residual(SKEW2[i], SKEW2[i], RAYS3[0])] * 2),
}


@pytest.mark.parametrize("stacked, singles", ONE_SIDED.values(), ids=ONE_SIDED)
def test_one_side_without_leading_axes_pairs_with_every_row(stacked, singles):
    got = stacked()
    assert len(got) == len(singles)
    for i, single in enumerate(singles):
        np.testing.assert_allclose(got[i], single(i), rtol=1e-12, atol=1e-15)


def _count_reads(monkeypatch):
    """The argument of every ``_rays`` and ``_matrices`` call from now on, by id."""
    reads = []
    for name in ("_rays", "_matrices"):
        original = getattr(projective, name)
        monkeypatch.setattr(projective, name, lambda x, *a, _f=original, **k: (
            reads.append(id(x)), _f(x, *a, **k))[1])
    return reads


@pytest.mark.parametrize("call", ["observable_from_hermitian", "cramer_rao_residual",
                                  "eigenmanifold_projection"])
def test_each_input_is_read_once(call, monkeypatch):
    # observable_from_hermitian read its H and then eigh's frame in the constructor;
    # cramer_rao_residual and eigenmanifold_projection read their ray twice
    H = _hermitian(3, 3)
    obs, ray = projective.observable_from_hermitian(H), RAYS3[0]
    reads = _count_reads(monkeypatch)
    if call == "observable_from_hermitian":
        projective.observable_from_hermitian(H)
        assert reads == [id(H)]
    elif call == "cramer_rao_residual":
        # the ray, then inside the stencil's xi_value its rays and matrix
        projective.cramer_rao_residual(obs, ray)
        assert len(reads) == 3 and reads[0] == id(ray)
    else:
        projective.eigenmanifold_projection(obs, obs.eigenvalues[0], ray)
        assert reads.count(id(ray)) == 1
