"""The package surface that the benchmark in ``perfbench/`` calls and traces.

The tracer rebinds the names listed in its ``BOUNDARIES`` table; a name that
no longer resolves would break every traced benchmark run, so each one is
resolved here without installing the tracer.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import fbmquad
from fbmquad import GeneratorKind, HurstGrid, Polynomial, generate

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BOUNDARIES = _load_tracer().BOUNDARIES


@pytest.mark.parametrize(
    "binding", sorted(b for bindings in BOUNDARIES.values() for b in bindings)
)
def test_tracer_binding_resolves(binding):
    module_name, _, path = binding.partition(":")
    assert module_name == "fbmquad" or module_name.startswith("fbmquad.")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_simpson_decomposition_name_telescopes():
    path = generate(HurstGrid(0.1, 64), GeneratorKind.CIRCULANT_EMBEDDING, 7)
    f = Polynomial([0, 0, 0, 0, 0, Fraction(1, 120)])
    expected = f(float(path.values[-1])) - f(0.0)
    got = fbmquad.simpson_error_decomposition(path, f, 1.0).telescoped()
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)
