import numpy as np
import pytest
from hypothesis import settings

from obrs import FiniteDist, bimodal_target, single_gaussian

# one profile for every property test: reproducible runs, no example database
# on disk, no per-example deadline on slow shared machines
settings.register_profile("obrs", deadline=None, database=None, derandomize=True)
settings.load_profile("obrs")


@pytest.fixture
def two_point():
    """The worked two-point instance used throughout: target vs skewed model."""
    target = FiniteDist([0, 1], [0.5, 0.5])
    model = FiniteDist([0, 1], [0.8, 0.2])
    return target, model


@pytest.fixture
def mixture_pair():
    """1D pair with both clipped and scaled acceptance regimes at budget 2."""
    return bimodal_target(), single_gaussian(0.0, 1.5)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
