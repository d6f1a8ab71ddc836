"""The error measure that the other tests use."""

import numpy as np
import pytest

from helpers import rel_err


def test_rel_err_compares_complex_values():
    # the imaginary part counts: a pure-imaginary gap is a full error
    assert rel_err(np.array([1j]), np.zeros(1)) == 1.0
    assert rel_err(np.array([3 + 4j]), np.array([3 - 4j])) == pytest.approx(1.6)
