"""igk: information-geometric Kähler structures.

Exponential families carry a dually flat geometry (Fisher metric plus a
one-parameter pencil of flat affine connections); their tangent bundles carry
a Kähler structure (``igk verify`` checks J by the holomorphy of the lift into
projective space, ``dombrowski/lift-holomorphic``, and the metric and form by
its pullback (G + iΩ)/4 on categorical, ``projective/pullback-*``); and that
lift turns statistical observables into quantum-style spectral data.  This
package implements that pipeline end to end with verifiable numerics: finite
families, Gaussians, the spin (binomial) model, and the harmonic-oscillator
(Gaussian location) model, together with a deterministic verification CLI.

``import igk`` loads only the error types; the family and spec-file names
below are imported on first use, so a CLI command loads only what it runs.
"""

import importlib

from .errors import (
    DomainError,
    NotKahlerError,
    NumericalError,
    SpecFileError,
    UndefinedProjectionError,
)

__version__ = "0.1.0"

# The suites and tolerance profiles of ``igk verify``; defined here so that
# the CLI parser can offer them without importing ``verify``.
SUITES = ("geometry", "dombrowski", "projective", "spin", "oscillator")
PROFILES = ("strict", "fd")

_LAZY = {
    "BUILTIN_FAMILIES": "families",
    "Box": "families",
    "ExpectationPoint": "families",
    "ExponentialFamilySpec": "families",
    "FiniteSpace": "families",
    "NaturalPoint": "families",
    "RealLine": "families",
    "family": "families",
    "family_from_dict": "specfile",
    "load_family": "specfile",
}

__all__ = [
    "DomainError",
    "NotKahlerError",
    "NumericalError",
    "SpecFileError",
    "UndefinedProjectionError",
    "SUITES",
    "PROFILES",
    *_LAZY,
]


def __getattr__(name):
    """Import a re-exported name from its module on first use (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
