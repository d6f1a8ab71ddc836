"""Fast orthonormal transforms diagonalizing the 1D mass/stiffness pairs.

For a uniform partition into N cells the P1 mass and stiffness matrices
(`mesh.element_pair`) are tridiagonal Toeplitz on the interior nodes
(Dirichlet) or their circulant closures on all N nodes (periodic).
Both pairs share one orthonormal eigenbasis, and each boundary kind has
one transform convention, which its `fourier` flag picks:

- Dirichlet (`fourier` False): the type-I sine basis
  sqrt(2/N) sin(i j pi / N), applied by `sine_transform`; it is
  symmetric and its own inverse, so the modal state is real with the
  nodal shape.  `sine_transform` copies its input once and transforms
  the copy in place: axes of more than `DENSE_DST_POINTS` owned nodes
  by one `dstn(type=1, norm="ortho", overwrite_x=True)` call, the
  others by BLAS products with that matrix.  On one thread, over every
  axis of an n^3 cube, the product took 1.4 to 3.6 times less time
  than the in-place pocketfft from 7 to 63 points, about as long from
  95 to 127, and more from 159.
- Periodic (`fourier` True): the Fourier basis
  exp(2 pi i j k / N) / sqrt(N).  The nodal data are real, so the
  modal state is the complex half spectrum: N // 2 + 1 entries on the
  last axis, the full N on the others.  The forward transform is one
  `rfftn(norm="ortho")` call.  The inverse copies its input once, runs
  the unscaled complex FFTs of the leading axes in place on the copy,
  writes the output with the last axis's complex-to-real FFT and scales
  it once, in place (`_inverse_fourier`): the bits of `irfftn` without
  the out-of-place temporary of its leading axes.

Both transforms are tensor products of per-axis transforms, so a tensor
that is constant along some axes transforms as its core on the other
axes times each constant axis's transform of ones (a length-1 axis
transforms to itself).  `forward_transform` reads that structure from
the strides: an axis of more than one point and stride 0, as a
broadcast view has, is left out of the transform and multiplied in
after.  The x-only initial datum of the Allen-Cahn wave then costs a
transform along x alone, not a full-size one.

This is the one module of the package that calls `scipy.fft`.
"""

import functools
import math

import numpy as np
import scipy.fft

from .mesh import axis_layout, dof_shape, element_pair

# longest axis whose sine transform is a dense product, not an FFT
DENSE_DST_POINTS = 64
# entries per block of the dense sine products, so they build no
# state-sized temporary
CHUNK = 1 << 14


def axis_spectrum(p, bc):
    """Eigenvalues (mass, stiffness), aligned with the transform basis.

    A tridiagonal Toeplitz or circulant matrix factor * (off, diag, off)
    (`mesh.element_pair`) has the eigenvalues
    factor * (diag + 2 off - 4 off sin^2(theta / 2)), theta = 2 pi j / P
    for the mode j of each owned node index and P the period of the
    boundary kind's extension (`mesh.axis_layout`): Dirichlet modes
    i = 1..N-1 with P = 2N, periodic (Fourier) modes k = 0..N-1 with
    P = N.  Since sin^2(theta / 2) is symmetric under j <-> P - j, s^2
    is evaluated at min(j, P - j): the periodic spectrum is then
    mirror-exact, its modes k and N - k equal bit for bit, so the step
    weights are formed once per distinct rate (`stepper.StepWeights`),
    and a Dirichlet mode, with j < P / 2, keeps the bits of
    sin^2(j pi / P).
    """
    nodes, period = axis_layout(p, bc)
    j = np.arange(nodes.start, nodes.stop)
    s2 = np.sin(np.minimum(j, period - j) * np.pi / period) ** 2
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
    """Transform a nodal tensor to modal coefficients.

    The axes along which U has stride 0 and more than one point (a
    broadcast view, constant along them) are left out of the transform:
    U's core, index 0 along them, is transformed, and the result is
    multiplied by each such axis's transform of ones (see the module
    docstring).  With no such axis this is one `rfftn` or
    `sine_transform` call of U."""
    U = np.asarray(U, dtype=float)
    if list(U.shape) != dof_shape(mesh):
        raise ValueError(
            f"shape {U.shape} does not match mesh dof shape {dof_shape(mesh)}")
    # the core: index 0 along each axis U is broadcast along
    core = U[tuple(slice(None) if s else slice(1) for s in U.strides)]
    if mesh.bc.fourier:
        out = scipy.fft.rfftn(core, norm="ortho")
    else:
        out = sine_transform(core)
    for a, (n, kept) in enumerate(zip(U.shape, core.shape)):
        if kept < n:
            ones = _ones_modes(n, mesh.bc.fourier, a == U.ndim - 1)
            out = out * ones.reshape((-1,) + (1,) * (U.ndim - 1 - a))
    return out


def _ones_modes(n, fourier, last):
    """The transform of n ones along one axis of the kind: the half
    spectrum on the last Fourier axis."""
    if not fourier:
        return sine_transform(np.ones(n))
    return (scipy.fft.rfft if last else scipy.fft.fft)(np.ones(n),
                                                        norm="ortho")


def inverse_transform(U, mesh):
    """Exact inverse of `forward_transform` up to round-off; U is never
    written.  The periodic inverse is `irfftn(norm="ortho")` bit for bit,
    from one copy of U transformed in place (`_inverse_fourier`)."""
    U = np.asarray(U)
    if list(U.shape) != modal_shape(mesh):
        raise ValueError(
            f"shape {U.shape} does not match mesh modal shape {modal_shape(mesh)}")
    if mesh.bc.fourier:
        return _inverse_fourier(U, dof_shape(mesh))
    return sine_transform(U)


def _inverse_fourier(U, shape):
    """Real nodal tensor of the given shape from its half spectrum U.

    Equal bit for bit to `scipy.fft.irfftn(U, s=shape, norm="ortho")`,
    and like it never writes into U.  U is copied once; the complex
    transforms over the leading axes run in place on the copy, and the
    last axis's complex-to-real transform writes the output.  Both are
    unscaled, and the output is multiplied once, in place, by 1/sqrt(N)
    for N nodes, computed as pocketfft computes its "ortho" factor (in
    long double, then rounded to double).  irfftn too scales each value
    once, at the end; a factor split between the two calls would round
    twice and change the last bits.
    """
    # a fresh C-contiguous array this function owns: the FFT overwrites it
    out = np.array(U, dtype=complex, order="C")
    out = scipy.fft.ifftn(out, axes=range(out.ndim - 1), norm="forward",
                          overwrite_x=True)
    out = scipy.fft.irfft(out, n=shape[-1], norm="forward", overwrite_x=True)
    out *= float(1 / np.sqrt(np.longdouble(math.prod(shape))))
    return out


def sine_transform(x, axes=None):
    """Orthonormal type-I sine transform of x over `axes` (all by default).

    Equal to `scipy.fft.dstn(x, type=1, norm="ortho", axes=axes)` up to
    round-off (bit for bit where every picked axis is long), and likewise
    it never writes into x.  x is copied once into the output, which the
    FFT then overwrites along the axes of more than `DENSE_DST_POINTS`
    points; the other axes follow, in place on the output too, as
    products with the symmetric sine matrix.
    """
    picked = range(x.ndim) if axes is None else axes
    short = [a for a in picked if x.shape[a] <= DENSE_DST_POINTS]
    long = [a for a in picked if x.shape[a] > DENSE_DST_POINTS]
    # a fresh C-contiguous array this function owns: the FFT overwrites
    # it, and the reshapes below are views of it
    out = np.array(x, dtype=np.result_type(x, 1.0), order="C")
    if long:
        out = scipy.fft.dstn(out, type=1, norm="ortho", axes=long,
                             overwrite_x=True)
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
    in place, in blocks of about `CHUNK` entries.

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
        span = max(1, CHUNK // n)
        for r in range(0, pre, span):
            block = rows[r:r + span]
            np.matmul(block, S, out=block)
        return
    modes = out.reshape(pre, n, post)
    span = max(1, CHUNK // (n * post))
    cols = max(1, CHUNK // n)
    for p in range(0, pre, span):
        for q in range(0, post, cols):
            block = modes[p:p + span, :, q:q + cols]
            np.matmul(S, block, out=block)
