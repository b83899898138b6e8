import numpy as np
import pytest

from tegraph import precision
from tegraph.tensor import _stack


@pytest.fixture(autouse=True)
def verify_precision():
    """Every test starts in 64-bit verify mode with a clean tape stack."""
    precision.set_mode("verify")
    yield
    assert not _stack(), "a test leaked an open Tape"
    precision.set_mode("verify")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
