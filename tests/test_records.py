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
    tangent_bundle.TangentBundlePoint((0.0,), (1.0,)),
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
