"""Fast orthonormal transforms diagonalizing the 1D mass/stiffness pairs.

For a uniform partition into N cells the P1 mass and stiffness matrices
are, up to h-scaling, tridiag(1,4,1) and tridiag(-1,2,-1) on the interior
nodes (Dirichlet) or their circulant closures on all N nodes (periodic).
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

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .mesh import dof_shape, is_periodic


@dataclass(frozen=True)
class AxisSpectrum:
    """Eigenvalues of one axis' mass and stiffness matrices, index-aligned
    with the transform basis columns."""

    mass: np.ndarray
    stiffness: np.ndarray

    def __post_init__(self):
        if np.any(self.mass <= 0):
            raise ValueError("mass eigenvalues must be positive")
        if np.any(self.stiffness < 0):
            raise ValueError("stiffness eigenvalues must be nonnegative")


def axis_spectrum(p, bc):
    """Closed-form eigenvalues, aligned with the transform basis columns.

    Dirichlet mode i (1-based): mass (h/6)(6 - 4 sin^2(i pi / 2N)),
    stiffness (4/h) sin^2(i pi / 2N).  Periodic mode k (0-based, Fourier):
    mass (h/6)(6 - 4 sin^2(k pi / N)), stiffness (4/h) sin^2(k pi / N);
    both are symmetric under k <-> N - k.
    """
    if is_periodic(bc):
        k = np.arange(p.n)
        s2 = np.sin(k * np.pi / p.n) ** 2
    else:
        i = np.arange(1, p.n)
        s2 = np.sin(i * np.pi / (2 * p.n)) ** 2
    return AxisSpectrum(
        mass=(p.h / 6.0) * (6.0 - 4.0 * s2),
        stiffness=(4.0 / p.h) * s2,
    )


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
