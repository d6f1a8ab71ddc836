"""Streamed two-tap Gauss evaluation against the dense matrix oracle."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import expfem.analysis as analysis
import expfem.quadrature as quadrature
from expfem.analysis import _modal_quadratics, discrete_energy, error_norms
from expfem.mesh import Dirichlet, Periodic, dof_shape, extend_nodal

from helpers import (dense_discrete_energy, dense_error_norms,
                     dense_interpolant_on_gauss, dense_operator_matrices,
                     make_mesh, rel_err)

# five axis-0 elements: two per block leaves a one-element block at the end
SUBDIVISIONS = {1: [5], 2: [5, 4], 3: [5, 3, 4]}
T_EVAL = 0.37


def _trace(t, xs):
    return 0.4 * np.cos(sum(xs) + t)


def _exact(t, xs):
    out = np.sin(1.3 * xs[0] + t)
    for a, x in enumerate(xs[1:]):
        out = out * np.cos((a + 0.7) * x - 0.5 * t)
    return out


BOUNDARIES = {
    "periodic": Periodic(),
    "homogeneous": Dirichlet(),
    "dirichlet": Dirichlet(_trace),
}


def _mesh(dim, bc):
    bounds = [(0.0, 1.0), (-0.5, 1.5), (0.2, 0.9)][:dim]
    return make_mesh(bounds, SUBDIVISIONS[dim], BOUNDARIES[bc])


def _state(mesh, seed=7):
    rng = np.random.default_rng(seed)
    return 0.6 * np.tanh(rng.standard_normal(dof_shape(mesh)))


def _two_elements_per_block(monkeypatch, mesh, npts):
    per_element = npts * math.prod(p.n * npts for p in mesh.partitions[1:])
    monkeypatch.setattr(quadrature, "BLOCK_POINTS", 2 * per_element)


def _reassemble(slices, npts):
    """Stitch per-slice arrays, in the order `gauss_slices` yields them
    (blocks, then axis-0 Gauss points), back into the element-major Gauss
    grid.  A slice is (block elements, points of axes 1..d-1, elements of
    axes 1..d-1)."""
    dim = (slices[0].ndim + 1) // 2
    order = [0, 1] + [i for a in range(1, dim) for i in (dim + a, 1 + a)]
    blocks = []
    for i in range(0, len(slices), npts):
        stacked = np.stack(slices[i:i + npts], axis=1).transpose(order)
        sizes = stacked.shape
        blocks.append(stacked.reshape(
            [sizes[2 * a] * sizes[2 * a + 1] for a in range(dim)]))
    return np.concatenate(blocks)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("bc", list(BOUNDARIES))
@pytest.mark.parametrize("npts", [2, 3, 6])
@pytest.mark.parametrize("blocked", [False, True])
def test_gauss_blocks_match_dense_oracle(monkeypatch, dim, bc, npts, blocked):
    # the slices of `gauss_slices` reassemble to the whole Gauss grid; a
    # transverse slope and its weights are broadcast along its own
    # length-1 point axis first
    mesh = _mesh(dim, bc)
    if blocked:
        _two_elements_per_block(monkeypatch, mesh, npts)
    U = _state(mesh)
    full = extend_nodal(U, mesh, T_EVAL)
    vals, slopes, coords, weights = [], [], [], []
    for v, grads, grid, wts in quadrature.gauss_slices(
            full, mesh.partitions, npts, slopes=True):
        vals.append(v.copy())
        slopes.append([np.broadcast_to(g.copy(), v.shape) for g in grads])
        coords.append([np.broadcast_to(c, v.shape) for c in grid])
        weights.append([np.broadcast_to(wts(f).reshape(f.shape[1:]), v.shape)
                        for f in (v,) + grads])
    assert len(vals) == npts * (3 if blocked else 1)
    want_vals, want_grads, want_grid, want_weights = (
        dense_interpolant_on_gauss(U, mesh, T_EVAL, npts))
    assert rel_err(_reassemble(vals, npts), want_vals) < 1e-13
    for a in range(dim):
        got = _reassemble([g[a] for g in slopes], npts)
        assert rel_err(got, want_grads[a]) < 1e-13
    for a, want in enumerate(np.broadcast_arrays(*want_grid)):
        assert np.array_equal(_reassemble([c[a] for c in coords], npts), want)
    # values and the axis-0 slope on the whole grid; a transverse slope
    # along axis a with weight h_a
    for field in range(dim + 1):
        factors = [np.full_like(wt, p.h) if 0 < a == field - 1 else wt
                   for a, (wt, p) in enumerate(zip(want_weights,
                                                   mesh.partitions))]
        assert np.array_equal(_reassemble([w[field] for w in weights], npts),
                              functools.reduce(np.multiply.outer, factors))


def test_gauss_blocks_values_only_by_default():
    mesh = _mesh(2, "periodic")
    full = extend_nodal(_state(mesh), mesh)
    slices = list(quadrature.gauss_slices(full, mesh.partitions))
    assert len(slices) == 3
    for vals, slopes, *_ in slices:
        assert slopes == () and vals.shape == (5, 3, 4)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("bc", list(BOUNDARIES))
@pytest.mark.parametrize("npts", [2, 3, 6])
def test_error_norms_match_dense_oracle(monkeypatch, dim, bc, npts):
    mesh = _mesh(dim, bc)
    _two_elements_per_block(monkeypatch, mesh, npts)
    monkeypatch.setattr(analysis, "GAUSS_POINTS", npts)
    U = _state(mesh)
    got = error_norms(U, mesh, _exact, T_EVAL)
    want = dense_error_norms(U, mesh, _exact, T_EVAL, npts)
    assert rel_err(got[0], want[0]) < 1e-12
    assert rel_err(got[1], want[1]) < 1e-12


def _exact_along_axis_0(t, xs):
    return np.sin(1.3 * xs[0] + t)


def _exact_transverse(t, xs):
    out = 0.4 + 0.0 * t
    for a, x in enumerate(xs[1:]):
        out = out * np.cos((a + 0.7) * x - 0.5 * t)
    return out


EXACT_PATTERNS = {
    "all_axes": _exact,
    "axis_0": _exact_along_axis_0,
    "transverse": _exact_transverse,
    "constant": lambda t, xs: 0.7,
}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("bc", list(BOUNDARIES))
@pytest.mark.parametrize("npts", [2, 3, 6])
@pytest.mark.parametrize("pattern", list(EXACT_PATTERNS))
def test_error_norms_match_dense_oracle_for_every_dependence(
        monkeypatch, dim, bc, npts, pattern):
    # a slope difference keeps a length-1 point axis where the exact
    # gradient does not vary along it, and widens where it does
    mesh = _mesh(dim, bc)
    _two_elements_per_block(monkeypatch, mesh, npts)
    U = _state(mesh)
    full = extend_nodal(U, mesh, T_EVAL)
    for vals, slopes, _, _ in quadrature.gauss_slices(
            full, mesh.partitions, npts, slopes=True):
        assert vals.shape[1:dim] == (npts,) * (dim - 1)
        for a, slope in enumerate(slopes[1:], 1):
            assert slope.shape[a] == 1
            assert slope.shape[:a] + slope.shape[a + 1:] == (
                vals.shape[:a] + vals.shape[a + 1:])
    exact = EXACT_PATTERNS[pattern]
    monkeypatch.setattr(analysis, "GAUSS_POINTS", npts)
    got = error_norms(U, mesh, exact, T_EVAL)
    want = dense_error_norms(U, mesh, exact, T_EVAL, npts)
    assert rel_err(got[0], want[0]) < 1e-12
    assert rel_err(got[1], want[1]) < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("bc", ["periodic", "homogeneous"])
@pytest.mark.parametrize("npts", [2, 3, 6])
def test_discrete_energy_matches_dense_oracle(monkeypatch, dim, bc, npts):
    mesh = _mesh(dim, bc)
    _two_elements_per_block(monkeypatch, mesh, npts)
    monkeypatch.setattr(analysis, "GAUSS_POINTS", npts)
    U = _state(mesh)
    params = (0.3, 0.8, 1.6)
    want = dense_discrete_energy(U, mesh, *params, npts)
    assert abs(want) > 1e-3
    assert rel_err(discrete_energy(U, mesh, *params), want) < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_discrete_energy_rejects_lifted_mesh(dim):
    # Parseval sees the owned nodes only, not the lifted boundary values
    mesh = _mesh(dim, "dirichlet")
    with pytest.raises(ValueError, match="lifted"):
        discrete_energy(_state(mesh), mesh, 0.3, 0.8, 1.6)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_discrete_energy_near_bound_matches_dense_oracle(monkeypatch, dim):
    # states up to 0.99 in magnitude, where the artanh form of the mixing
    # potential is steepest
    mesh = _mesh(dim, "periodic")
    _two_elements_per_block(monkeypatch, mesh, 3)
    rng = np.random.default_rng(12)
    U = 0.99 * np.tanh(3.0 * rng.standard_normal(dof_shape(mesh)))
    want = dense_discrete_energy(U, mesh, 0.3, 0.8, 1.6)
    assert rel_err(discrete_energy(U, mesh, 0.3, 0.8, 1.6), want) < 1e-12


@given(first=st.integers(2, 7), rest=st.lists(st.integers(2, 4), max_size=2),
       bc=st.sampled_from(list(BOUNDARIES)), npts=st.sampled_from([2, 3]),
       seed=st.integers(0, 2**32 - 1))
@example(first=7, rest=[], bc="dirichlet", npts=3, seed=0)
@example(first=5, rest=[3], bc="periodic", npts=2, seed=1)
@example(first=5, rest=[2, 3], bc="homogeneous", npts=3, seed=2)
def test_block_size_does_not_change_norms_or_energy(first, rest, bc, npts,
                                                    seed):
    # blocks of 1, 2 or 3 axis-0 elements (the last one partial unless the
    # count divides the elements), or one block for the whole grid: the
    # layer that each block carries into the next must join them seamlessly;
    # the energy raises on a lifted mesh, so only the norms see that one
    bounds = [(0.0, 1.0), (-0.5, 1.5), (0.2, 0.9)][:1 + len(rest)]
    mesh = make_mesh(bounds, [first] + rest, BOUNDARIES[bc])
    U = _state(mesh, seed)
    per_element = npts * math.prod(p.n * npts for p in mesh.partitions[1:])

    def evaluate(elements_per_block):
        with mock.patch.object(quadrature, "BLOCK_POINTS",
                               elements_per_block * per_element), \
                mock.patch.object(analysis, "GAUSS_POINTS", npts):
            norms = error_norms(U, mesh, _exact, T_EVAL)
            if bc == "dirichlet":
                return norms
            return (*norms, discrete_energy(U, mesh, 0.01, 0.8, 1.6))

    whole = evaluate(first)
    for elements_per_block in (1, 2, 3):
        got = evaluate(elements_per_block)
        for value, want in zip(got, whole):
            assert rel_err(value, want) < 1e-13


@pytest.mark.parametrize("bc", ["periodic", "homogeneous"])
@pytest.mark.parametrize("subdivisions", [[7], [5, 6], [3, 4, 5], [4, 2],
                                          [3, 2, 2]])
def test_modal_quadratics_match_dense_kron(bc, subdivisions):
    # last axes of odd and even length, and of 2 cells, whose periodic half
    # spectrum is k = 0 and the Nyquist column alone
    bounds = [(0.0, 1.0), (-0.5, 1.5), (0.2, 0.9)][:len(subdivisions)]
    mesh = make_mesh(bounds, subdivisions, BOUNDARIES[bc])
    U = _state(mesh)
    mass, stiff = dense_operator_matrices(mesh)
    u = U.ravel()
    sq, grad_sq = _modal_quadratics(U, mesh)
    assert rel_err(sq, u @ mass @ u) < 1e-13
    assert rel_err(grad_sq, u @ stiff @ u) < 1e-13


@pytest.mark.parametrize("dim, axis",
                         [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
@pytest.mark.parametrize("rows", [2, 4, 7])
def test_apply_matrix_matches_einsum(dim, axis, rows):
    # a rectangular mode product along one axis keeps the others in place;
    # the dense oracles build every Gauss-grid tensor with it
    rng = np.random.default_rng(3)
    shape = (4, 3, 5)[:dim]
    tensor = rng.standard_normal(shape)
    matrix = rng.standard_normal((rows, shape[axis]))
    letters = "abc"[:dim]
    out = letters[:axis] + "z" + letters[axis + 1:]
    want = np.einsum(f"z{letters[axis]},{letters}->{out}", matrix, tensor)
    got = quadrature.apply_matrix(matrix, tensor, axis)
    assert got.shape == want.shape
    assert rel_err(got, want) < 1e-14
