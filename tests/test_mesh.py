import numpy as np
import pytest

from expfem.mesh import (Dirichlet, Partition1D, Periodic, TensorMesh,
                         dof_shape, element_pair, extend_nodal,
                         interior_mass_stencil, node_grids)
from expfem.quadrature import apply_matrix

from helpers import make_mesh, rel_err


def test_dof_shape_by_definition():
    mesh = make_mesh([(0, 1), (0, 1)], [8, 4], Dirichlet())
    assert dof_shape(mesh) == [7, 3]
    mesh3 = make_mesh([(0, 1)] * 3, [128] * 3, Periodic())
    assert dof_shape(mesh3) == [128, 128, 128]
    tiny = make_mesh([(0, 1)], [2], Dirichlet())
    assert dof_shape(tiny) == [1]


def test_owned_nodes_strictly_interior_for_dirichlet():
    mesh = make_mesh([(0.5, 2.5), (0, 1)], [8, 4], Dirichlet())
    x, y = (np.ravel(g) for g in node_grids(mesh))
    assert x.size == 7 and y.size == 3
    assert np.all((0.5 < x) & (x < 2.5)) and np.all((0 < y) & (y < 1))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition1D(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        Partition1D(0.0, 1.0, 1)
    p = Partition1D(0.0, 1.0, 4)
    assert abs(p.h * p.n - (p.b - p.a)) < 1e-14


def test_extend_nodal_homogeneous_pads_zeros():
    mesh = make_mesh([(0, 1), (0, 1)], [4, 4], Dirichlet())
    U = np.ones((3, 3))
    full = extend_nodal(U, mesh)
    assert full.shape == (5, 5)
    assert np.all(full[0] == 0) and np.all(full[-1] == 0)
    assert np.all(full[:, 0] == 0) and np.all(full[:, -1] == 0)
    assert np.all(full[1:-1, 1:-1] == 1)


def test_extend_nodal_dirichlet_trace():
    g = lambda t, xs: xs[0] + 10.0 * t
    mesh = make_mesh([(0, 1)], [4], Dirichlet(g))
    full = extend_nodal(np.zeros(3), mesh, t=0.5)
    assert full[0] == 0.0 + 5.0 and full[-1] == 1.0 + 5.0


def test_extend_nodal_periodic_wraps():
    mesh = make_mesh([(0, 1)], [4], Periodic())
    U = np.array([3.0, 1.0, 4.0, 1.5])
    full = extend_nodal(U, mesh)
    assert full.shape == (5,)
    assert full[-1] == U[0]


def test_mesh_dimension_limits():
    with pytest.raises(ValueError):
        TensorMesh(tuple(Partition1D(0, 1, 2) for _ in range(4)),
                   Dirichlet())


@pytest.mark.parametrize("h", [0.25, 0.1, 3.0])
def test_element_pair_matches_assembled_element_matrices(h):
    # full-grid matrices of 4 cells summed from the P1 element matrices
    n = 4
    full_mass, full_stiff = np.zeros((n + 1, n + 1)), np.zeros((n + 1, n + 1))
    for e in range(n):
        cell = slice(e, e + 2)
        full_mass[cell, cell] += (h / 6) * np.array([[2.0, 1.0], [1.0, 2.0]])
        full_stiff[cell, cell] += (1 / h) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    for rows, full in zip(element_pair(h), (full_mass, full_stiff)):
        want = rows.factor * (rows.diag * np.eye(n + 1)
                              + rows.off * (np.eye(n + 1, k=1)
                                            + np.eye(n + 1, k=-1)))
        # the interior rows; an end row's node lies on one cell only
        assert np.allclose(want[1:-1], full[1:-1], rtol=1e-15,
                           atol=1e-15 / h)


@pytest.mark.parametrize("shape", [(5, 4, 3), (3, 7), (6,)])
def test_interior_mass_stencil_matches_tridiagonal_rows(shape):
    rng = np.random.default_rng(8)
    x = rng.standard_normal(shape)
    for axis, n in enumerate(shape):
        # the interior rows of the full-grid matrix over its off-diagonal
        M = (4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1))[1:-1]
        expected = apply_matrix(M, x, axis)
        assert rel_err(interior_mass_stencil(x, axis), expected) < 1e-14
        # a transposed (non-contiguous) view gives the same rows
        xt = x.T
        got = interior_mass_stencil(xt, xt.ndim - 1 - axis)
        assert rel_err(got, expected.T) < 1e-14


@pytest.mark.parametrize("subs", [(2,), (5,), (2, 2), (4, 3), (2, 3, 2),
                                  (3, 4, 5)])
def test_boundary_faces_cover_each_boundary_node_once(subs):
    # the shares of the boundary that the trace is evaluated on: every
    # full-grid boundary node in exactly one face grid, no interior node
    bounds = [(0.0, 1.0), (-0.5, 1.5), (0.0, 0.3)][:len(subs)]
    mesh = make_mesh(bounds, subs, Dirichlet(lambda t, xs: 0.0 * xs[0]))
    counts = np.zeros([n + 1 for n in subs], dtype=int)
    for face, shape in mesh.boundary_faces:
        nodes = [np.rint((np.ravel(x) - p.a) / p.h).astype(int)
                 for x, p in zip(face, mesh.partitions)]
        assert tuple(map(len, nodes)) == shape
        counts[np.ix_(*nodes)] += 1
    boundary = np.ones_like(counts)
    boundary[(slice(1, -1),) * mesh.dim] = 0
    assert np.array_equal(counts, boundary)
