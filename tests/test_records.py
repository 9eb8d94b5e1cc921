"""igk's records are immutable: every field refuses assignment and deletion."""

import numpy as np
import pytest

from igk import families, oscillator, projective, specfile, spin, tangent_bundle, verify
from igk.numerics import Record

RECORDS = [
    families.FiniteSpace((0.0, 1.0)),
    families.RealLine(),
    families.Box((0.0,), (1.0,)),
    families._ChartPoint((0.0,)),
    families.NaturalPoint((0.0,)),
    families.ExpectationPoint((0.5,)),
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
    verify.SuiteReport("geometry", 0, "PCG64", "strict", ()),
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
