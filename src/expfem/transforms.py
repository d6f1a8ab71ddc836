"""Fast orthonormal transforms diagonalizing the 1D mass/stiffness pairs.

For a uniform partition into N cells the P1 mass and stiffness matrices
(`mesh.element_pair`) are tridiagonal Toeplitz on the interior nodes
(Dirichlet) or their circulant closures on all N nodes (periodic).
Both pairs share one orthonormal eigenbasis, and each boundary kind has
one transform convention, a single scipy call over all axes:

- Dirichlet: the type-I sine basis sqrt(2/N) sin(i j pi / N), applied by
  `dstn(type=1, norm="ortho")`; it is symmetric and its own inverse, so
  the modal state is real with the nodal shape.
- Periodic: the Fourier basis exp(2 pi i j k / N) / sqrt(N), applied by
  `rfftn`/`irfftn` with `norm="ortho"`.  The nodal data are real, so the
  modal state is the complex half spectrum: N // 2 + 1 entries on the
  last axis, the full N on the others.
"""

import numpy as np
import scipy.fft

from .mesh import dof_shape, element_pair, is_periodic


def axis_spectrum(p, bc):
    """Eigenvalues (mass, stiffness), aligned with the transform basis.

    A tridiagonal Toeplitz or circulant matrix factor * (off, diag, off)
    (`mesh.element_pair`) has the eigenvalues
    factor * (diag + 2 off - 4 off sin^2(theta / 2)): theta = i pi / N for
    Dirichlet mode i (1-based), theta = 2 k pi / N for periodic mode k
    (0-based, Fourier), symmetric under k <-> N - k.
    """
    if is_periodic(bc):
        k = np.arange(p.n)
        s2 = np.sin(k * np.pi / p.n) ** 2
    else:
        i = np.arange(1, p.n)
        s2 = np.sin(i * np.pi / (2 * p.n)) ** 2
    return tuple(m.factor * ((m.diag + 2 * m.off) - (4 * m.off) * s2)
                 for m in element_pair(p.h))


def modal_shape(mesh):
    """Shape of the modal coefficient tensor: the dof shape, with the
    last axis halved to N // 2 + 1 on periodic meshes."""
    shape = dof_shape(mesh)
    if is_periodic(mesh.bc):
        shape[-1] = shape[-1] // 2 + 1
    return shape


def forward_transform(U, mesh):
    """Transform a nodal tensor to modal coefficients."""
    U = np.asarray(U, dtype=float)
    if list(U.shape) != dof_shape(mesh):
        raise ValueError(
            f"shape {U.shape} does not match mesh dof shape {dof_shape(mesh)}")
    if is_periodic(mesh.bc):
        return scipy.fft.rfftn(U, norm="ortho")
    return scipy.fft.dstn(U, type=1, norm="ortho")


def inverse_transform(U, mesh):
    """Exact inverse of `forward_transform` up to round-off."""
    U = np.asarray(U)
    if list(U.shape) != modal_shape(mesh):
        raise ValueError(
            f"shape {U.shape} does not match mesh modal shape {modal_shape(mesh)}")
    if is_periodic(mesh.bc):
        return scipy.fft.irfftn(U, s=dof_shape(mesh), norm="ortho")
    return scipy.fft.dstn(U, type=1, norm="ortho")
