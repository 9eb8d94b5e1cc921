"""igk's records are immutable: every field refuses assignment and deletion."""

import numpy as np
import pytest

from igk import families, oscillator, projective, specfile, spin, tangent_bundle, verify
from igk.errors import DomainError
from igk.numerics import Record

RECORDS = [
    families.FiniteSpace((0.0, 1.0)),
    families.RealLine(),
    families.Box((0.0,), (1.0,)),
    families.family("normal"),
    oscillator.PlanePoint(0.0, 1.0),
    oscillator.PlaneKahlerFunction(cx=1.0),
    oscillator.GaussianSpectrum("point", 0.0, 0.0),
    oscillator.OscillatorOperator(1.0, np.eye(2)),
    projective.ProjectivePoint([1.0, 1.0j]),
    projective.KahlerObservableCP([0.0, 1.0], np.eye(2)),
    projective.SpectralReport(np.zeros(1), np.ones(1)),
    spin.SphereFunction(0.0, (0.0, 0.0, 1.0)),
    spin.SphereDecomposition(0.0, 1.0, (0.0, 0.0, 1.0)),
    tangent_bundle.TangentKahlerStructure(*[np.eye(2)] * 4),
    tangent_bundle.LinearObservable(0.0, (1.0,)),
    verify.CheckResult("geometry/normalization", 0.0, 1e-9, "<="),
    verify.SuiteReport("geometry", 0, "PCG64", ()),
    specfile._Token("number", "1", 1),
]


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_classes(sub)


def test_every_record_class_is_listed():
    assert {type(r) for r in RECORDS} == set(_record_classes())


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_fields_refuse_assignment(record):
    assert record._fields
    for name in record._fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(record, name)
        assert getattr(record, name) is value


# the records whose __init__ is Record's: their fields bind by position or keyword
BOUND = [r for r in RECORDS if type(r).__init__ is Record.__init__]


def test_the_bound_records_are_the_plain_ones():
    assert {type(r).__name__ for r in BOUND} == {
        "GaussianSpectrum", "OscillatorOperator", "SpectralReport", "SphereDecomposition",
        "TangentKahlerStructure", "CheckResult", "SuiteReport", "_Token"}


@pytest.mark.parametrize("record", BOUND, ids=[type(r).__name__ for r in BOUND])
def test_fields_bind_by_position_and_keyword(record):
    cls, values = type(record), record._values()
    named = dict(zip(record._fields, values))
    for built in (cls(*values), cls(**named), cls(values[0], **dict(list(named.items())[1:]))):
        assert all(getattr(built, f) is v for f, v in named.items())


@pytest.mark.parametrize("record", BOUND, ids=[type(r).__name__ for r in BOUND])
def test_a_wrong_call_is_a_type_error(record):
    cls, values = type(record), record._values()
    first = record._fields[0]
    for args, kwargs, wrong in (
        (values[:-1], {}, f"{len(values) - 1} value(s)"),  # missing
        (values + (None,), {}, f"{len(values) + 1} value(s)"),  # one too many
        (values, {first: values[0]}, f"{len(values)} value(s) and the keyword(s) {first}"),
        (values, {"nonesuch": 0}, f"{len(values)} value(s) and the keyword(s) nonesuch"),
    ):
        with pytest.raises(TypeError) as exc:
            cls(*args, **kwargs)
        assert str(exc.value) == (f"{cls.__name__} takes the fields "
                                  f"{', '.join(record._fields)} once each, got {wrong}")


@pytest.mark.parametrize("build, message", [
    (lambda: tangent_bundle.LinearObservable(0.0, 5),
     "observable coefficients must be a sequence, got 5"),
    (lambda: families.Box(("a",), (1.0,)), "box bounds must be sequences of real numbers"),
    (lambda: families.FiniteSpace((1j, 2)),
     "points of a finite measured space must be real numbers"),
], ids=["linear-observable", "box", "finite-space"])
def test_a_malformed_field_is_a_domain_error(build, message):
    # these raised a bare TypeError, ValueError and TypeError
    with pytest.raises(DomainError) as exc:
        build()
    assert str(exc.value) == message


_H, _Z = np.array([[1.0, 0.5j], [-0.5j, 2.0]]), np.array([1.0, 1.0j])
# each record kind that holds arrays, built from fixed inputs
ARRAY_RECORDS = {
    "KahlerObservableCP": lambda: projective.observable_from_hermitian(_H),
    "SpectralReport": lambda: projective.spectrum_and_probabilities(
        projective.observable_from_hermitian(_H), _Z),
    "TangentKahlerStructure": lambda: tangent_bundle.kahler_structure_at(
        families.family("normal"), [0.0, -0.5]),
    "OscillatorOperator": lambda: oscillator.oscillator_operator(
        1.0, oscillator.PlaneKahlerFunction(cx=1.0), size=4),
    "SphereDecomposition": lambda: spin.decompose_sphere_function(3, [
        spin.SphereFunction(0.2, (0.0, 0.0, 1.0)), spin.SphereFunction(0.3, (0.6, 0.0, 0.8))]),
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_records_with_array_fields_compare_by_value(name):
    # == raised numpy's "truth value of an array ... is ambiguous" ValueError
    a, b = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert a is not b and a == b and not a != b
    array = next(f for f in a._fields if isinstance(getattr(a, f), np.ndarray))
    changed = dict(zip(a._fields, a._values()))
    changed[array] = np.full_like(changed[array], np.nan)
    nan = object.__new__(type(a))
    Record.__init__(nan, **changed)
    assert a != nan and nan != nan  # NaN is never equal, not even to its own record
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_a_record_never_equals_another_type():
    space = families.RealLine()
    assert space != (64,) and not space == 64 and space != families.Box((0.0,), (1.0,))
