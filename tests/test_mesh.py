import numpy as np
import pytest

from expfem.mesh import (Dirichlet, HomogeneousDirichlet, Partition1D,
                         Periodic, TensorMesh, dof_shape, extend_nodal,
                         node_grids)

from helpers import make_mesh


def test_dof_shape_by_definition():
    mesh = make_mesh([(0, 1), (0, 1)], [8, 4], HomogeneousDirichlet())
    assert dof_shape(mesh) == [7, 3]
    mesh3 = make_mesh([(0, 1)] * 3, [128] * 3, Periodic())
    assert dof_shape(mesh3) == [128, 128, 128]
    tiny = make_mesh([(0, 1)], [2], HomogeneousDirichlet())
    assert dof_shape(tiny) == [1]


def test_owned_nodes_strictly_interior_for_dirichlet():
    mesh = make_mesh([(0.5, 2.5), (0, 1)], [8, 4], HomogeneousDirichlet())
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
    mesh = make_mesh([(0, 1), (0, 1)], [4, 4], HomogeneousDirichlet())
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
                   HomogeneousDirichlet())
