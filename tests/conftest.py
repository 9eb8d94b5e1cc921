"""Shared fixtures: user-defined family specs in dict and file form; the hypothesis profile
of the property tests: derandomized, a fixed number of examples, no example database; the
``pytester`` fixture, which runs a test file in a pytest of its own."""

import json
import pathlib

import pytest
from hypothesis import settings

settings.register_profile("igk", derandomize=True, max_examples=100, deadline=None,
                          database=None)
settings.load_profile("igk")

pytest_plugins = ["pytester"]

BERNOULLI_SPEC = {
    "name": "coin",
    "kind": "finite",
    "n": 1,
    "points": [0, 1],
    "labels": ["tails", "heads"],
    "C": "0",
    "F": ["x"],
    "psi": "ln(1 + exp(theta1))",
}

HALF_GAUSS_SPEC = {
    "name": "halfgauss",
    "kind": "real_line",
    "n": 1,
    "C": "-(x^2)/2 - ln(2*pi)/2",
    "F": ["x/2"],
    "psi": "theta1^2/8",
}


@pytest.fixture
def bernoulli_spec():
    return dict(BERNOULLI_SPEC)


@pytest.fixture
def half_gauss_spec():
    return dict(HALF_GAUSS_SPEC)


@pytest.fixture
def bernoulli_spec_file(tmp_path):
    path = tmp_path / "coin.json"
    path.write_text(json.dumps(BERNOULLI_SPEC))
    return path


@pytest.fixture
def golden_dir():
    return pathlib.Path(__file__).parent / "golden"
