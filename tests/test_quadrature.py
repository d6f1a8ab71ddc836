"""Blocked two-tap Gauss evaluation and its adjoint, the projection load,
against the dense matrix oracle."""

import math
import tracemalloc

import numpy as np
import pytest

import expfem.quadrature as quadrature
from expfem.analysis import _nodal_quadratics, discrete_energy, error_norms
from expfem.assembly import initial_state
from expfem.mesh import (Dirichlet, HomogeneousDirichlet, Periodic, dof_shape,
                         extend_nodal)
from expfem.problems import Problem

from helpers import (_dense_full_axis_matrices, dense_discrete_energy,
                     dense_error_norms, dense_gauss_load,
                     dense_interpolant_on_gauss, dense_projection, make_mesh,
                     rel_err)

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
    "homogeneous": HomogeneousDirichlet(),
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


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("bc", list(BOUNDARIES))
@pytest.mark.parametrize("npts", [2, 3, 6])
@pytest.mark.parametrize("blocked", [False, True])
def test_gauss_blocks_match_dense_oracle(monkeypatch, dim, bc, npts, blocked):
    mesh = _mesh(dim, bc)
    if blocked:
        _two_elements_per_block(monkeypatch, mesh, npts)
    U = _state(mesh)
    full = extend_nodal(U, mesh, T_EVAL)
    blocks = list(quadrature.gauss_blocks(full, mesh.partitions, npts,
                                          slopes=True))
    assert len(blocks) == (3 if blocked else 1)
    vals, grads, grid, weights = dense_interpolant_on_gauss(
        U, mesh, T_EVAL, npts)
    assert rel_err(np.concatenate([b.values for b in blocks]), vals) < 1e-13
    for a in range(dim):
        got = np.concatenate([b.slopes[a] for b in blocks])
        assert rel_err(got, grads[a]) < 1e-13
    assert np.array_equal(
        np.concatenate([np.ravel(b.coords[0]) for b in blocks]),
        np.ravel(grid[0]))
    assert np.array_equal(
        np.concatenate([b.weights[0] for b in blocks]), weights[0])
    for blk in blocks:
        for a in range(1, dim):
            assert np.array_equal(np.ravel(blk.coords[a]), np.ravel(grid[a]))
            assert np.array_equal(blk.weights[a], weights[a])


def test_gauss_blocks_values_only_by_default():
    mesh = _mesh(2, "periodic")
    full = extend_nodal(_state(mesh), mesh)
    (blk,) = quadrature.gauss_blocks(full, mesh.partitions)
    assert blk.slopes == () and blk.values.shape == (15, 12)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("bc", list(BOUNDARIES))
@pytest.mark.parametrize("npts", [2, 3, 6])
def test_error_norms_match_dense_oracle(monkeypatch, dim, bc, npts):
    mesh = _mesh(dim, bc)
    _two_elements_per_block(monkeypatch, mesh, npts)
    U = _state(mesh)
    got = error_norms(U, mesh, _exact, T_EVAL, npts)
    want = dense_error_norms(U, mesh, _exact, T_EVAL, npts)
    assert rel_err(got[0], want[0]) < 1e-12
    assert rel_err(got[1], want[1]) < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("bc", list(BOUNDARIES))
@pytest.mark.parametrize("npts", [2, 3, 6])
def test_discrete_energy_matches_dense_oracle(monkeypatch, dim, bc, npts):
    mesh = _mesh(dim, bc)
    _two_elements_per_block(monkeypatch, mesh, npts)
    U = _state(mesh)
    params = (0.3, 0.8, 1.6)
    want = dense_discrete_energy(U, mesh, *params, npts)
    assert abs(want) > 1e-3
    assert rel_err(discrete_energy(U, mesh, *params, npts), want) < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("nodes_per_block", [1, 2, 10**6])
def test_nodal_quadratics_match_full_grid_kron(monkeypatch, dim,
                                               nodes_per_block):
    # slabs of one or two axis-0 elements (five in all), or the whole grid
    mesh = _mesh(dim, "dirichlet")
    full = extend_nodal(_state(mesh), mesh, T_EVAL)
    plane = full[0].size
    monkeypatch.setattr(quadrature, "BLOCK_POINTS", nodes_per_block * plane)
    mats = [_dense_full_axis_matrices(p) for p in mesh.partitions]
    mass = np.array([[1.0]])
    for m, _ in mats:
        mass = np.kron(mass, m)
    stiff = np.zeros_like(mass)
    for slot in range(dim):
        term = np.array([[1.0]])
        for a, (m, k) in enumerate(mats):
            term = np.kron(term, k if a == slot else m)
        stiff += term
    u = full.ravel()
    sq, grad_sq = _nodal_quadratics(full, [p.h for p in mesh.partitions])
    assert rel_err(sq, u @ mass @ u) < 1e-13
    assert rel_err(grad_sq, u @ stiff @ u) < 1e-13


def _datum(xs):
    return _exact(0.0, xs) + 0.3


def _projected(mesh):
    return Problem(name="inline", diffusion=1.0, f=lambda t, u, xs: 0.0 * u,
                   domain=tuple((p.a, p.b) for p in mesh.partitions),
                   u0=_datum)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("npts", [2, 3, 6])
@pytest.mark.parametrize("blocked", [False, True])
def test_gauss_load_matches_dense_oracle(monkeypatch, dim, npts, blocked):
    mesh = _mesh(dim, "periodic")
    if blocked:
        _two_elements_per_block(monkeypatch, mesh, npts)
    got = quadrature.gauss_load(_datum, mesh.partitions, npts)
    assert rel_err(got, dense_gauss_load(_datum, mesh, npts)) < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("bc", list(BOUNDARIES))
@pytest.mark.parametrize("blocked", [False, True])
def test_projection_matches_dense_oracle(monkeypatch, dim, bc, blocked):
    mesh = _mesh(dim, bc)
    if blocked:
        _two_elements_per_block(monkeypatch, mesh, 3)
    got = initial_state(_projected(mesh), mesh, mode="project")
    assert rel_err(got, dense_projection(_projected(mesh), mesh)) < 1e-12


@pytest.mark.parametrize("bc", list(BOUNDARIES))
def test_projection_memory_stays_block_sized(bc):
    # the dense quadrature matrices peaked at 34-46x this bound
    mesh = make_mesh([(0.0, 1.0)] * 3, [48] * 3, BOUNDARIES[bc])
    nodal_bytes = 8 * 49 ** 3
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        initial_state(_projected(mesh), mesh, mode="project")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * nodal_bytes
