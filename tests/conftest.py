import numpy as np
import pytest
from hypothesis import settings

from fbmquad import GeneratorKind, HurstGrid, generate

# Every run draws the same examples, and slow first calls (cache fills) never
# count as a deadline failure.
settings.register_profile("fbmquad", derandomize=True, deadline=None)
settings.load_profile("fbmquad")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20260401))


@pytest.fixture
def rough_grid():
    """Small grid at the Simpson-critical Hurst exponent."""
    return HurstGrid(0.1, 64)


@pytest.fixture
def brownian_grid():
    return HurstGrid(0.5, 64)


def make_paths(H, n, seeds, kind=GeneratorKind.CIRCULANT_EMBEDDING, T=1.0):
    grid = HurstGrid(H, n, T=T)
    return [generate(grid, kind, s) for s in seeds]
