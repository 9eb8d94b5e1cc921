"""Refusals that no other test reaches: one row per refusal, with its error and message."""

import numpy as np
import pytest

from igk import geometry, oscillator, projective, verify
from igk.cli import main
from igk.errors import DomainError, SpecFileError
from igk.families import (MAX_QUAD_ORDER, Box, ExponentialFamilySpec, FiniteSpace, RealLine,
                          family)
from igk.specfile import family_from_dict


def _spec(**changes):
    spec = {"kind": "real_line", "n": 1, "C": "-x^2/2", "F": ["x"], "psi": "theta1^2/2"}
    return {**spec, **changes}


def _user_family(statistics=(np.sin,), dim=1):
    return ExponentialFamilySpec("user", RealLine(), lambda x: 0.0 * x, statistics,
                                 lambda rows: 0.0 * rows[:, 0], Box.unbounded(dim))


REFUSALS = [
    ("spec-not-an-object", lambda: family_from_dict([1, 2]), SpecFileError,
     "spec must be a JSON object"),
    ("spec-key-type", lambda: family_from_dict(_spec(n="1")), SpecFileError,
     "key 'n' has the wrong type"),
    ("spec-name", lambda: family_from_dict(_spec(name=3)), SpecFileError,
     "name must be a string"),
    ("spec-domain", lambda: family_from_dict(_spec(domain={"lo": [1.0], "hi": [0.0]})),
     SpecFileError, "bad domain: box must have nonempty interior"),
    ("spec-domain-dim", lambda: family_from_dict(_spec(domain={"lo": [0, 0], "hi": [1, 1]})),
     SpecFileError, "domain dimension must equal n"),
    ("spec-quad-order", lambda: family_from_dict(_spec(quad_order=0)), SpecFileError,
     "quad_order must be a positive integer"),
    ("spec-quad-order-past-the-rule", lambda: family_from_dict(_spec(quad_order=186)),
     SpecFileError, "quadrature order must be at least 1 and at most 185, got 186"),
    ("spec-quad-order-bool", lambda: family_from_dict(_spec(quad_order=True)), SpecFileError,
     "quad_order must be a positive integer"),
    ("finite-2d-points", lambda: FiniteSpace([[0.0, 1.0], [1.0, 2.0]]), DomainError,
     "must be real numbers"),
    ("finite-repeated-points", lambda: FiniteSpace([0.0, 1.0, 0.0]), DomainError,
     "must be distinct"),
    ("finite-labels", lambda: FiniteSpace([0.0, 1.0], ("a",)), DomainError,
     "labels must match points one to one"),
    ("real-line-order", lambda: RealLine(0), DomainError, "quadrature order must be at least 1"),
    ("real-line-order-past-the-rule", lambda: RealLine(MAX_QUAD_ORDER + 1), DomainError,
     "quadrature order must be at least 1 and at most 185, got 186"),
    ("finite-labels-string", lambda: FiniteSpace([0.0, 1.0], "ab"), DomainError,
     "labels must be a list or tuple of strings"),
    ("box-lengths", lambda: Box((0.0, 0.0), (1.0,)), DomainError,
     "box bounds must have equal length"),
    ("box-2d-bounds", lambda: Box([[0.0]], [[1.0]]), DomainError,
     "box bounds must be sequences of real numbers"),
    ("family-no-statistic", lambda: _user_family(()), DomainError,
     "needs at least one statistic"),
    ("family-domain-dim", lambda: _user_family(dim=2), DomainError,
     "domain dimension must match the number of statistics"),
    ("expectation-nan", lambda: family("normal").expectation_to_natural([np.nan, 1.0]),
     DomainError, "expected 2 finite expectation parameters"),
    ("expectation-normal-variance",
     lambda: family("normal").expectation_to_natural([1.0, 1.0]), DomainError,
     r"need E\[x\^2\] > E\[x\]\^2"),
    ("fisher-metric-chart", lambda: geometry.fisher_metric(family("normal"), [0.0, -0.5],
                                                            chart="polar"),
     DomainError, "chart must be one of"),
    ("gaussian-atom", lambda: oscillator.GaussianSpectrum("gaussian", 0.0, 1.0).atom,
     DomainError, "only a point spectrum has an atom"),
    ("tau-shapes", lambda: projective.tau([0.5, 0.5], [0.0, 0.0, 0.0]), DomainError,
     "tau needs matching probability and angle vectors"),
    ("observable-frame-shape",
     lambda: projective.KahlerObservableCP([0.0, 1.0], np.eye(3)), DomainError,
     "frame must be square and match the eigenvalues"),
    ("run-suite-suite", lambda: verify.run_suite("nonesuch"), DomainError,
     "unknown suite 'nonesuch'"),
    ("run-suite-perturbation", lambda: verify.run_suite("spin", perturb="spin/nonesuch"),
     DomainError, "unknown perturbation 'spin/nonesuch'"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_cli_axis_of_two_components(capsys):
    code = main(["spin", "table", "--n", "2", "--axis=1,2", "--point", "0,0,1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "igk: error: --axis: need exactly three components, got 2\n"
