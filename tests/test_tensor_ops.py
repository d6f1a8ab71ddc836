"""The dense mode-product oracle and the error measure that the other
tests use."""

import numpy as np
import pytest

from helpers import mode_multiply, rel_err


def test_identity_leaves_tensor_unchanged():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((3, 2))
    for axis in (0, 1):
        out = mode_multiply(np.eye(u.shape[axis]), u, axis)
        assert np.array_equal(out, u)


def test_permutation_swaps_rows():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(mode_multiply(swap, u, 0), [[3.0, 4.0], [1.0, 2.0]])


def test_mass_matrix_on_ones_matches_dense_product():
    h = 0.25
    mass = (h / 6.0) * (4.0 * np.eye(3) + np.eye(3, k=1) + np.eye(3, k=-1))
    ones = np.ones(3)
    expected = mass @ ones  # row sums: 5, 6, 5 scaled by h/6
    out = mode_multiply(mass, ones, 0)
    assert np.allclose(out, expected, rtol=0, atol=1e-15)
    assert np.allclose(out, [0.25 * 5 / 6, 0.25, 0.25 * 5 / 6], rtol=1e-14)


def test_mode_multiply_is_linear():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 4))
    u = rng.standard_normal((4, 3))
    v = rng.standard_normal((4, 3))
    a, b = 0.7, -1.3
    lhs = mode_multiply(m, a * u + b * v, 0)
    rhs = a * mode_multiply(m, u, 0) + b * mode_multiply(m, v, 0)
    assert rel_err(lhs, rhs) < 1e-14


def test_mode_products_on_distinct_axes_commute():
    rng = np.random.default_rng(2)
    for shape in [(5, 7), (4, 6, 8), (8, 3, 5)]:
        u = rng.standard_normal(shape)
        m = rng.standard_normal((shape[0], shape[0]))
        n = rng.standard_normal((shape[1], shape[1]))
        one_way = mode_multiply(n, mode_multiply(m, u, 0), 1)
        other = mode_multiply(m, mode_multiply(n, u, 1), 0)
        assert rel_err(one_way, other) < 1e-13


def test_mode_multiply_shape_errors():
    u = np.ones((3, 2))
    with pytest.raises(ValueError):
        mode_multiply(np.eye(2), u, 0)
    with pytest.raises(ValueError):
        mode_multiply(np.eye(3), u, 2)
    with pytest.raises(ValueError):
        mode_multiply(np.ones((3, 2)), u, 0)


def test_rel_err_compares_complex_values():
    # the imaginary part counts: a pure-imaginary gap is a full error
    assert rel_err(np.array([1j]), np.zeros(1)) == 1.0
    assert rel_err(np.array([3 + 4j]), np.array([3 - 4j])) == pytest.approx(1.6)
