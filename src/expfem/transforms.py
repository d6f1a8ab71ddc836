"""Fast orthonormal transforms diagonalizing the 1D mass/stiffness pairs.

For a uniform partition into N cells the P1 mass and stiffness matrices
(`mesh.element_pair`) are tridiagonal Toeplitz on the interior nodes
(Dirichlet) or their circulant closures on all N nodes (periodic).
Both pairs share one orthonormal eigenbasis, and each boundary kind has
one transform convention, which its `fourier` flag picks:

- Dirichlet (`fourier` False): the type-I sine basis
  sqrt(2/N) sin(i j pi / N), applied by `sine_transform`; it is
  symmetric and its own inverse, so the modal state is real with the
  nodal shape.  Axes of at most `DENSE_DST_POINTS` owned nodes are one
  BLAS product with that matrix, longer axes one
  `dstn(type=1, norm="ortho")` call: on one thread the product took 1.7
  to 8 times less time than pocketfft up to 64 points, about as long
  from 127 to 159, and more from 191.
- Periodic (`fourier` True): the Fourier basis
  exp(2 pi i j k / N) / sqrt(N), applied by one `rfftn`/`irfftn` call
  over all axes with `norm="ortho"`.  The nodal data are real, so the
  modal state is the complex half spectrum: N // 2 + 1 entries on the
  last axis, the full N on the others.

This is the one module of the package that calls `scipy.fft`.
"""

import functools
import math

import numpy as np
import scipy.fft

from .mesh import axis_layout, dof_shape, element_pair

# longest axis whose sine transform is a dense product, not an FFT
DENSE_DST_POINTS = 64
# entries per block of the chunked products here and in the lifting's
# add along a middle axis (`assembly`), so no state-sized temporary is
# built
_CHUNK = 1 << 14


def axis_spectrum(p, bc):
    """Eigenvalues (mass, stiffness), aligned with the transform basis.

    A tridiagonal Toeplitz or circulant matrix factor * (off, diag, off)
    (`mesh.element_pair`) has the eigenvalues
    factor * (diag + 2 off - 4 off sin^2(theta / 2)), theta = 2 pi j / P
    for the mode j of each owned node index and P the period of the
    boundary kind's extension (`mesh.axis_layout`): Dirichlet modes
    i = 1..N-1 with P = 2N, periodic (Fourier) modes k = 0..N-1 with
    P = N, symmetric under k <-> N - k.
    """
    nodes, period = axis_layout(p, bc)
    s2 = np.sin(np.arange(nodes.start, nodes.stop) * np.pi / period) ** 2
    return tuple(m.factor * ((m.diag + 2 * m.off) - (4 * m.off) * s2)
                 for m in element_pair(p.h))


def modal_shape(mesh):
    """Shape of the modal coefficient tensor: the dof shape, with the
    last axis halved to N // 2 + 1 on periodic meshes."""
    shape = dof_shape(mesh)
    if mesh.bc.fourier:
        shape[-1] = shape[-1] // 2 + 1
    return shape


def forward_transform(U, mesh):
    """Transform a nodal tensor to modal coefficients."""
    U = np.asarray(U, dtype=float)
    if list(U.shape) != dof_shape(mesh):
        raise ValueError(
            f"shape {U.shape} does not match mesh dof shape {dof_shape(mesh)}")
    if mesh.bc.fourier:
        return scipy.fft.rfftn(U, norm="ortho")
    return sine_transform(U)


def inverse_transform(U, mesh):
    """Exact inverse of `forward_transform` up to round-off."""
    U = np.asarray(U)
    if list(U.shape) != modal_shape(mesh):
        raise ValueError(
            f"shape {U.shape} does not match mesh modal shape {modal_shape(mesh)}")
    if mesh.bc.fourier:
        return scipy.fft.irfftn(U, s=dof_shape(mesh), norm="ortho")
    return sine_transform(U)


def sine_transform(x, axes=None):
    """Orthonormal type-I sine transform of x over `axes` (all by default).

    Equal to `scipy.fft.dstn(x, type=1, norm="ortho", axes=axes)` up to
    round-off, and likewise it never writes into x.  Axes of at most
    `DENSE_DST_POINTS` points are applied after the others, in place on
    the output, as products with the symmetric sine matrix.
    """
    picked = range(x.ndim) if axes is None else axes
    short = [a for a in picked if x.shape[a] <= DENSE_DST_POINTS]
    if not short:
        return scipy.fft.dstn(x, type=1, norm="ortho", axes=axes)
    long = [a for a in picked if x.shape[a] > DENSE_DST_POINTS]
    # a fresh C-contiguous array, so the reshapes below are views of it
    if long:
        out = np.ascontiguousarray(
            scipy.fft.dstn(x, type=1, norm="ortho", axes=long))
    else:
        out = np.array(x, dtype=np.result_type(x, 1.0), order="C")
    for a in short:
        _dense_sine_axis(out, a)
    return out


@functools.cache
def _sine_matrix(n):
    """sqrt(2/(n+1)) sin(i j pi / (n+1)), i, j = 1..n: symmetric, orthogonal
    and its own inverse.  The phases i j are reduced mod 2 (n+1) in
    integers, so sin sees arguments below 2 pi.  Read-only: the cache
    hands the same array to every caller."""
    ij = np.outer(np.arange(1, n + 1), np.arange(1, n + 1)) % (2 * (n + 1))
    S = math.sqrt(2.0 / (n + 1)) * np.sin(ij * (np.pi / (n + 1)))
    S.flags.writeable = False
    return S


def _dense_sine_axis(out, a):
    """Apply the sine matrix along axis a of the C-contiguous array out,
    in place, in blocks of about `_CHUNK` entries.

    out is viewed as (before a, points, after a); each block is a stack
    of (points, columns) matrices taking S from the left, or along the
    last axis a (rows, points) matrix taking S from the right.  matmul
    copies a block it overwrites before reading it.
    """
    n = out.shape[a]
    S = _sine_matrix(n)
    pre, post = math.prod(out.shape[:a]), math.prod(out.shape[a + 1:])
    if post == 1:
        rows = out.reshape(pre, n)
        span = max(1, _CHUNK // n)
        for r in range(0, pre, span):
            block = rows[r:r + span]
            np.matmul(block, S, out=block)
        return
    modes = out.reshape(pre, n, post)
    span = max(1, _CHUNK // (n * post))
    cols = max(1, _CHUNK // n)
    for p in range(0, pre, span):
        for q in range(0, post, cols):
            block = modes[p:p + span, :, q:q + cols]
            np.matmul(S, block, out=block)
