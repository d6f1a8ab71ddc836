import numpy as np
import pytest
import scipy.fft

from expfem import transforms
from expfem.mesh import Dirichlet, Partition1D, Periodic, dof_shape
from expfem.transforms import (DENSE_DST_POINTS, axis_spectrum,
                               forward_transform, inverse_transform,
                               modal_shape, sine_transform)

from helpers import (basis_matrix, build_axis_matrices, make_mesh,
                     mode_multiply, rel_err)

BCS = [Dirichlet(), Periodic()]


def test_axis_matrices_single_interior_node():
    A, B = build_axis_matrices(Partition1D(0, 1, 2), Dirichlet())
    assert np.allclose(A, [[1.0 / 3.0]], rtol=1e-15)
    assert np.allclose(B, [[4.0]], rtol=1e-15)


def test_axis_matrices_dirichlet_tridiagonal():
    p = Partition1D(0, 1, 4)
    A, B = build_axis_matrices(p, Dirichlet())
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
    mass, stiffness = axis_spectrum(Partition1D(0, 1, 2),
                                    Dirichlet())
    assert np.allclose(mass, [1.0 / 3.0], rtol=1e-14)
    assert np.allclose(stiffness, [4.0], rtol=1e-14)


def test_axis_spectrum_matches_dense_eigendecomposition():
    for bc in BCS:
        for n in range(2, 33):
            p = Partition1D(0.0, 1.0, n)
            A, B = build_axis_matrices(p, bc)
            mass, stiffness = axis_spectrum(p, bc)
            assert np.max(np.abs(np.sort(mass) - np.linalg.eigvalsh(A))) < 1e-10
            assert np.max(np.abs(np.sort(stiffness) - np.linalg.eigvalsh(B))) < 1e-10


def test_periodic_constant_mode_is_stationary():
    _, stiffness = axis_spectrum(Partition1D(0, 1, 4), Periodic())
    assert stiffness[0] == 0.0
    assert np.count_nonzero(stiffness == 0.0) == 1


def test_dirichlet_spectrum_value():
    p = Partition1D(0, 1, 4)
    _, stiffness = axis_spectrum(p, Dirichlet())
    assert abs(stiffness[0] - 16 * np.sin(np.pi / 8) ** 2) < 1e-12


def test_simultaneous_diagonalization():
    for bc in BCS:
        for n in range(2, 33):
            p = Partition1D(0.0, 2.0, n)
            A, B = build_axis_matrices(p, bc)
            P = basis_matrix(p, bc)
            mass, stiffness = axis_spectrum(p, bc)
            assert np.max(np.abs(A @ P - P @ np.diag(mass))) < 1e-10
            assert np.max(np.abs(B @ P - P @ np.diag(stiffness))) < 1e-10


# the first orthonormal sine vector on 4 cells: sqrt(2/4) sin(j pi / 4)
SINE_MODE_1 = np.sqrt(0.5) * np.array(
    [np.sin(np.pi / 4), 1.0, np.sin(3 * np.pi / 4)])


def test_forward_unit_vector():
    mesh = make_mesh([(0, 1)], [4], Dirichlet())
    out = forward_transform(np.array([1.0, 0.0, 0.0]), mesh)
    assert np.allclose(out, SINE_MODE_1, rtol=1e-14)


def test_forward_twice_is_identity():
    rng = np.random.default_rng(5)
    for n in (2, 3, 8, 17, 32):
        mesh = make_mesh([(0, 1)], [n], Dirichlet())
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
    mesh = make_mesh([(0, 1)], [4], Dirichlet())
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
    mesh = make_mesh([(0, 1)], [4], Dirichlet())
    with pytest.raises(ValueError):
        forward_transform(np.zeros(4), mesh)
    with pytest.raises(ValueError):
        inverse_transform(np.zeros(2), mesh)


def test_spectral_positivity_ratio():
    # stiffness/mass ratios strictly positive for every Dirichlet mode
    for n in (2, 5, 16, 32):
        mass, stiffness = axis_spectrum(Partition1D(0, 1, n),
                                        Dirichlet())
        assert np.all(stiffness / mass > 0)


# axis lengths on both sides of the dense/FFT cutoff
LENGTHS = [1, 7, 23, DENSE_DST_POINTS, DENSE_DST_POINTS + 1, 127, 255]


def _reference_dst(x, axes=None):
    return scipy.fft.dstn(x, type=1, norm="ortho", axes=axes)


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("dim, axis", [(1, 0), (2, 0), (2, 1),
                                       (3, 0), (3, 1), (3, 2)])
def test_sine_transform_matches_dstn(n, dim, axis):
    shape = [4, 3, 5][:dim]
    shape[axis] = n
    x = np.random.default_rng(n + 10 * axis).standard_normal(shape)
    kept = x.copy()
    for axes in (None, [axis]):
        assert rel_err(sine_transform(x, axes), _reference_dst(x, axes)) < 1e-14
    assert np.array_equal(x, kept)


@pytest.mark.parametrize("shape", [(23, 2, 70), (23, 2, 7)])
def test_sine_transform_of_a_moved_axis_view(shape):
    # the lifting transforms np.moveaxis views, which are not contiguous;
    # (23, 2, 7) has only short axes left, (23, 2, 70) a long one too
    base = np.random.default_rng(3).standard_normal(shape)
    kept = base.copy()
    view = np.moveaxis(base, 1, 0)
    assert not view.flags.c_contiguous
    got = sine_transform(view, axes=(1, 2))
    assert rel_err(got, _reference_dst(view, axes=(1, 2))) < 1e-14
    assert np.array_equal(base, kept)


@pytest.mark.parametrize("shape", [(23, 7), (199, 7), (8, 3, 70)])
def test_sine_transform_of_a_read_only_input(shape):
    x = np.random.default_rng(4).standard_normal(shape)
    kept = x.copy()
    x.flags.writeable = False
    assert rel_err(sine_transform(x), _reference_dst(x)) < 1e-14
    assert np.array_equal(x, kept)


@pytest.mark.parametrize("chunk", [1, 5, 12])
@pytest.mark.parametrize("shape", [(6, 7, 5), (30, 9), (5, 2, 3)])
def test_sine_transform_in_chunks_matches_dstn(monkeypatch, shape, chunk):
    # chunks far below the inputs' size run every loop of the products
    monkeypatch.setattr(transforms, "_CHUNK", chunk)
    x = np.random.default_rng(chunk).standard_normal(shape)
    assert rel_err(sine_transform(x), _reference_dst(x)) < 1e-14


def test_sine_transform_sends_only_long_axes_to_the_fft(monkeypatch):
    seen = []
    original = scipy.fft.dstn

    def spy(x, *args, **kwargs):
        seen.append(kwargs.get("axes"))
        return original(x, *args, **kwargs)
    monkeypatch.setattr(scipy.fft, "dstn", spy)
    sine_transform(np.zeros((255, 23, 23)))
    sine_transform(np.zeros((23, 23)))
    sine_transform(np.zeros((255, 127)))
    assert seen == [[0], None]


@pytest.mark.parametrize("n", range(1, DENSE_DST_POINTS + 1))
def test_sine_matrix_is_symmetric_and_its_own_inverse(n):
    S = transforms._sine_matrix(n)
    assert np.array_equal(S, S.T)
    assert np.max(np.abs(S @ S - np.eye(n))) < 1e-15


def test_mixed_short_and_long_axes_match_dense_realization():
    rng = np.random.default_rng(8)
    bc = Dirichlet()
    mesh = make_mesh([(0, 1), (0, 2)], [200, 8], bc)
    u = rng.standard_normal(dof_shape(mesh))
    dense = u
    for a, p in enumerate(mesh.partitions):
        dense = mode_multiply(basis_matrix(p, bc).T, dense, a)
    assert rel_err(forward_transform(u, mesh), dense) < 1e-13
    # the basis is symmetric and orthogonal: the inverse is the same map
    assert rel_err(inverse_transform(dense, mesh), u) < 1e-13
