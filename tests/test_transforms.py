import numpy as np
import pytest

from expfem.mesh import (HomogeneousDirichlet, Partition1D, Periodic,
                         TensorMesh, dof_shape)
from expfem.transforms import (axis_spectrum, forward_transform,
                               inverse_transform, modal_shape)

from helpers import (basis_matrix, build_axis_matrices, make_mesh,
                     mode_multiply, rel_err)

BCS = [HomogeneousDirichlet(), Periodic()]


def test_axis_matrices_single_interior_node():
    A, B = build_axis_matrices(Partition1D(0, 1, 2), HomogeneousDirichlet())
    assert np.allclose(A, [[1.0 / 3.0]], rtol=1e-15)
    assert np.allclose(B, [[4.0]], rtol=1e-15)


def test_axis_matrices_dirichlet_tridiagonal():
    p = Partition1D(0, 1, 4)
    A, B = build_axis_matrices(p, HomogeneousDirichlet())
    h = p.h
    assert np.allclose(A, (h / 6) * np.array(
        [[4, 1, 0], [1, 4, 1], [0, 1, 4]]), rtol=1e-15)
    assert np.allclose(B, (1 / h) * np.array(
        [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]), rtol=1e-15)


def test_axis_matrices_periodic_corners():
    p = Partition1D(0, 1, 4)
    A, B = build_axis_matrices(p, Periodic())
    assert B[0, 3] == B[3, 0] == -1.0 / p.h
    assert A[0, 3] == A[3, 0] == p.h / 6.0
    assert np.allclose(B.sum(axis=1), 0.0, atol=1e-15)


def test_axis_spectrum_single_mode():
    sp = axis_spectrum(Partition1D(0, 1, 2), HomogeneousDirichlet())
    assert np.allclose(sp.mass, [1.0 / 3.0], rtol=1e-14)
    assert np.allclose(sp.stiffness, [4.0], rtol=1e-14)


def test_axis_spectrum_matches_dense_eigendecomposition():
    for bc in BCS:
        for n in range(2, 33):
            p = Partition1D(0.0, 1.0, n)
            A, B = build_axis_matrices(p, bc)
            sp = axis_spectrum(p, bc)
            assert np.max(np.abs(np.sort(sp.mass) - np.linalg.eigvalsh(A))) < 1e-10
            assert np.max(np.abs(np.sort(sp.stiffness) - np.linalg.eigvalsh(B))) < 1e-10


def test_periodic_constant_mode_is_stationary():
    sp = axis_spectrum(Partition1D(0, 1, 4), Periodic())
    assert sp.stiffness[0] == 0.0
    assert np.count_nonzero(sp.stiffness == 0.0) == 1


def test_dirichlet_spectrum_value():
    p = Partition1D(0, 1, 4)
    sp = axis_spectrum(p, HomogeneousDirichlet())
    assert abs(sp.stiffness[0] - 16 * np.sin(np.pi / 8) ** 2) < 1e-12


def test_simultaneous_diagonalization():
    for bc in BCS:
        for n in range(2, 33):
            p = Partition1D(0.0, 2.0, n)
            A, B = build_axis_matrices(p, bc)
            P = basis_matrix(p, bc)
            sp = axis_spectrum(p, bc)
            assert np.max(np.abs(A @ P - P @ np.diag(sp.mass))) < 1e-10
            assert np.max(np.abs(B @ P - P @ np.diag(sp.stiffness))) < 1e-10


# the first orthonormal sine vector on 4 cells: sqrt(2/4) sin(j pi / 4)
SINE_MODE_1 = np.sqrt(0.5) * np.array(
    [np.sin(np.pi / 4), 1.0, np.sin(3 * np.pi / 4)])


def test_forward_unit_vector():
    mesh = make_mesh([(0, 1)], [4], HomogeneousDirichlet())
    out = forward_transform(np.array([1.0, 0.0, 0.0]), mesh)
    assert np.allclose(out, SINE_MODE_1, rtol=1e-14)


def test_forward_twice_is_identity():
    rng = np.random.default_rng(5)
    for n in (2, 3, 8, 17, 32):
        mesh = make_mesh([(0, 1)], [n], HomogeneousDirichlet())
        u = rng.standard_normal(dof_shape(mesh))
        twice = forward_transform(forward_transform(u, mesh), mesh)
        assert rel_err(twice, u) < 1e-13


def test_transform_of_zeros():
    for bc in BCS:
        mesh = make_mesh([(0, 1), (0, 1)], [4, 8], bc)
        z = np.zeros(dof_shape(mesh))
        zhat = np.zeros(modal_shape(mesh))
        assert np.array_equal(forward_transform(z, mesh), zhat)
        assert np.array_equal(inverse_transform(zhat, mesh), z)


def test_round_trip_inverse():
    rng = np.random.default_rng(6)
    cases = [
        ([(0, 1)], [9]),
        ([(0, 2), (-1, 1)], [12, 7]),
        ([(0, 1), (0, 1), (0, 1)], [8, 5, 6]),
    ]
    for bc in BCS:
        for bounds, subs in cases:
            mesh = make_mesh(bounds, subs, bc)
            u = rng.standard_normal(dof_shape(mesh))
            back = inverse_transform(forward_transform(u, mesh), mesh)
            assert rel_err(back, u) < 1e-12
            # sine example round-trips back to the unit vector too
    mesh = make_mesh([(0, 1)], [4], HomogeneousDirichlet())
    assert rel_err(inverse_transform(SINE_MODE_1, mesh), [1.0, 0.0, 0.0]) < 1e-13


def test_fast_transforms_match_dense_realization():
    rng = np.random.default_rng(7)
    for bc in BCS:
        mesh = make_mesh([(0, 1), (0, 3), (2, 4)], [6, 4, 5], bc)
        u = rng.standard_normal(dof_shape(mesh))
        fast = forward_transform(u, mesh)
        dense = u
        for a, p in enumerate(mesh.partitions):
            dense = mode_multiply(basis_matrix(p, bc).conj().T, dense, a)
        # rfftn keeps the half spectrum on the last axis
        dense = dense[..., :modal_shape(mesh)[-1]]
        assert rel_err(fast, dense) < 1e-12


def test_transform_shape_mismatch():
    mesh = make_mesh([(0, 1)], [4], HomogeneousDirichlet())
    with pytest.raises(ValueError):
        forward_transform(np.zeros(4), mesh)
    with pytest.raises(ValueError):
        inverse_transform(np.zeros(2), mesh)


def test_spectral_positivity_ratio():
    # stiffness/mass ratios strictly positive for every Dirichlet mode
    for n in (2, 5, 16, 32):
        sp = axis_spectrum(Partition1D(0, 1, n), HomogeneousDirichlet())
        assert np.all(sp.stiffness / sp.mass > 0)
