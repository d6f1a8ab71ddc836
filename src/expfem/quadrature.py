"""Per-axis Gauss rules, the streamed two-tap evaluation of the
interpolant and its closed Q1 forms.

Norms and energies integrate functions of the multilinear interpolant on
a tensor-product Gauss grid.  Each Gauss value depends on only two nodes
per axis, so `gauss_slices` evaluates the interpolant axis by axis from
`lo` and `hi - lo` (slopes as `(hi - lo) / h`).  It streams the grid
along axis 0 in blocks of axis-0 elements of about `BLOCK_POINTS`
points.  Each axis-0 node layer is interpolated along the other axes
once, point-major (Gauss point outer, element inner, so every tap writes
contiguous runs), and a block carries its last interpolated layer into
the next.  The block is then handed out one axis-0 Gauss point at a
time, as contiguous (block elements x transverse Gauss points) slices,
so its arrays stay in cache: O(npts^d N^d) work and block-sized memory.
A slice comes with one weights array, on the values' grid; a transverse
slope, constant along its own axis within an element, keeps that point
axis at length 1 until the caller widens it.  `q1_squares` takes the
mass and stiffness forms of the interpolant of a full-grid tensor
exactly, as sums over elements of squared elementwise sums and
differences, streamed over the same `element_blocks`.  The error norms
(`analysis`) take every slope of the mesh they stream, the energy none;
both integrate over its slices and take `q1_squares`.  `apply_matrix`
applies a rectangular matrix along one axis into a new array; the
Dirichlet lifting adds its faces with it (`assembly`).  The sine
transform's dense axes apply their square matrix in place and in blocks
(`transforms._dense_sine_axis`).
"""

import functools
import math

import numpy as np

# Gauss points per block; a block holds at least one axis-0 element
BLOCK_POINTS = 1 << 16


def gauss_rule(npts):
    """Gauss-Legendre nodes and weights on the unit interval."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


def apply_matrix(matrix, tensor, axis):
    """Rectangular mode product: the (rows, n) `matrix` applied along one
    axis of `tensor`, as one matrix product into a new C-contiguous
    array.  On the last axis it is a single (before, n) @ (n, rows)
    product; on any other axis a stack of (rows, n) @ (n, after) products
    over the axes before it.  `tensor` may be any strided view."""
    shape = tensor.shape
    rows, n = matrix.shape
    if axis == len(shape) - 1:
        out = tensor.reshape(-1, n) @ matrix.T
    else:
        out = matrix @ tensor.reshape(math.prod(shape[:axis]), n, -1)
    return out.reshape(shape[:axis] + (rows,) + shape[axis + 1:])


def _tap_ends(t, axis):
    lo = t[(slice(None),) * axis + (slice(None, -1),)]
    hi = t[(slice(None),) * axis + (slice(1, None),)]
    return lo, hi


def _two_tap(t, axis, xi):
    """Interpolant values at the Gauss points of every element of one axis,
    point-major: the points become a new axis 1, right after the node
    layers, so each point's output is one contiguous run per layer."""
    lo, hi = _tap_ends(t, axis)
    out = (hi - lo)[:, None] * xi.reshape((-1,) + (1,) * (lo.ndim - 1))
    out += lo[:, None]
    return out


def _slope_tap(t, axis, h):
    """Elementwise slope (hi - lo) / h of one axis, the same at every
    Gauss point: its point axis 1 has length 1 and broadcasts."""
    lo, hi = _tap_ends(t, axis)
    return ((hi - lo) / h)[:, None]


def element_blocks(n, per_element):
    """Ranges [e0, e1) of axis-0 elements, each worth about BLOCK_POINTS
    points at `per_element` points per element."""
    step = max(1, BLOCK_POINTS // per_element)
    return [(e0, min(e0 + step, n)) for e0 in range(0, n, step)]


def _transverse(layers, partitions, xi, slopes):
    """Interpolate axes d-1 ... 1 of a stack of axis-0 node layers: the
    values and, if `slopes`, d/dx_a for a = 1 ... d-1, each shaped (layers,
    points of axes 1 ... d-1, elements of axes 1 ... d-1).  The tapped node
    axis is always array axis d-1: each tap puts its points at axis 1."""
    d = len(partitions)
    vals, grads = layers, []
    for a in range(d - 1, 0, -1):
        if slopes:
            grads = ([_slope_tap(vals, d - 1, partitions[a].h)]
                     + [_two_tap(g, d - 1, xi) for g in grads])
        vals = _two_tap(vals, d - 1, xi)
    return [vals] + grads


def gauss_slices(full, partitions, npts, slopes):
    """Yield the interpolant on the Gauss grid one axis-0 Gauss point at a
    time: (values, slopes, coords, weights) per block of axis-0 elements
    and per point xi_k of axis 0.

    `full` holds nodal values on the full grid 0..N of every axis.  Each
    node layer of axis 0 is interpolated along axes d-1 ... 1 once
    (`_transverse`); a block keeps its last layer for the next one.  A
    slice's values are one contiguous buffer shaped (block elements,
    points of axes 1 ... d-1, elements of axes 1 ... d-1), written as
    hi - (1 - xi_k)(hi - lo) so that hi, the block's own layers, is one
    operand and the carried layer is never copied.  `slopes` (empty
    unless `slopes` is true, and then no slope is tapped) are d/dx_a per
    axis in the same layout, except that a transverse slope, constant
    along its own axis within an element, has length 1 on that point
    axis.  The axis-0 slope (hi - lo) / h is the same array for every k
    of a block and must not be written to.  `coords` is an open grid of
    the slice's points and `weights` the flat outer product of the Gauss
    weights of axes 1 ... d-1 over one block element, times w_k h, on the
    values' grid: a transverse slope is weighted only once it is widened
    to that grid.  The values and the other slopes are buffers that the
    next slice of the block overwrites.
    """
    xi, w = gauss_rule(npts)
    first, rest = partitions[0], partitions[1:]
    ndim = 2 * len(partitions) - 1
    coords, per_element = (), npts
    for a, p in enumerate(rest, 1):
        shape = [1] * ndim
        shape[a], shape[len(rest) + a] = npts, p.n
        coords += ((p.a + (np.arange(p.n) + xi[:, None]) * p.h).reshape(shape),)
        per_element *= p.n * npts
    tiles = math.prod(p.n for p in rest)
    weights = [np.repeat(np.ravel(functools.reduce(
        np.multiply.outer, [wk] + [w * p.h for p in rest])), tiles)
        for wk in w * first.h]
    carried = [t[0] for t in _transverse(full[:1], partitions, xi, slopes)]
    for e0, e1 in element_blocks(first.n, per_element):
        layers = _transverse(full[e0 + 1:e1 + 1], partitions, xi, slopes)
        diffs = []
        for hi, lo in zip(layers, carried):
            diff = np.empty_like(hi)
            np.subtract(hi[:1], lo, out=diff[:1])
            np.subtract(hi[1:], hi[:-1], out=diff[1:])
            diffs.append(diff)
        carried = [t[-1] for t in layers]
        fixed = (diffs[0] / first.h,) if slopes else ()
        bufs = [np.empty_like(hi) for hi in layers]
        elements = np.arange(e0, e1)
        for k, x in enumerate(xi):
            for hi, diff, buf in zip(layers, diffs, bufs):
                np.multiply(diff, x - 1.0, out=buf)
                buf += hi
            x0 = (first.a + (elements + x) * first.h).reshape(
                (-1,) + (1,) * (ndim - 1))
            yield bufs[0], fixed + tuple(bufs[1:]), (x0,) + coords, weights[k]


def q1_squares(full, mean, partitions, scale):
    """The L2 and H1 squares of the interpolant of w = full - mean times
    `scale`: w^T kron(M_0, ..., M_{d-1}) w and the sum over axes a of the
    same form with K_a in place of M_a, with M and K the P1 mass and
    stiffness of each axis, streamed over blocks of axis-0 elements
    (`element_blocks`), each a sum over its own elements
    (`_element_squares`)."""
    means = np.broadcast_to(mean, full.shape)
    l2_sq = grad_sq = 0.0
    for e0, e1 in element_blocks(partitions[0].n, full[0].size):
        w = full[e0:e1 + 1] - means[e0:e1 + 1]
        if scale != 1.0:
            w *= scale
        for mass, stiffness, square in _element_squares(w, partitions):
            l2_sq += mass * square
            grad_sq += mass * stiffness * square
    return l2_sq, grad_sq


def _element_squares(x, partitions):
    """Yield (mass, stiffness, |L x|^2) for each of the 2^d products L of
    the elementwise sum S (hi + lo) or difference D (hi - lo) along each
    axis of x, depth first so that at most d + 1 of them are held, and
    from the last axis to axis 0, whose slices are contiguous, so that
    most of them are taken along it.

    Per element of one axis the P1 mass is (h/6)[[2, 1], [1, 2]] =
    (h/4) S^T S + (h/12) D^T D and the stiffness (1/h) D^T D.  So the
    product of the masses is the sum of the |L x|^2 times the product of
    their h/4 or h/12 (`mass`), and a stiffness along axis a swaps h_a/12
    for 1/h_a: `stiffness` is the sum of 12/h_a^2 over the axes where L
    takes D.
    """
    if not partitions:
        yield 1.0, 0.0, float(np.vdot(x, x))
        return
    lo, hi = _tap_ends(x, len(partitions) - 1)
    h = partitions[-1].h
    for factor, stiffness, op in ((h / 4.0, 0.0, np.add),
                                  (h / 12.0, 12.0 / h**2, np.subtract)):
        for mass, rest, square in _element_squares(op(hi, lo),
                                                   partitions[:-1]):
            yield factor * mass, stiffness + rest, square
