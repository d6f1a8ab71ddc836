"""Per-axis Gauss rules and the streamed two-tap evaluation of the interpolant.

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
Every field keeps its own point grid through the stream: the slope along
a transverse axis is constant along that axis within an element, so its
point axis there has length 1, and the weights of a length-1 point axis
a are h_a, since the unit Gauss weights sum to 1.  The error norms
(`analysis`) take every slope of the mesh they stream, the energy none;
both integrate over its slices, and the norms' closed Q1 forms stream
over the same `element_blocks`.  `apply_matrix`
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


def gauss_slices(full, partitions, npts=3, slopes=False):
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
    unless requested, and then no slope is tapped) are d/dx_a per axis in
    the same layout, each on its own point grid: a transverse slope is
    constant along its own axis within an element, so that point axis has
    length 1.  The axis-0 slope (hi - lo) / h is the same array for every
    k of a block and must not be written to.  `coords` is an open grid of
    the slice's points.  `weights(field)` is the flat outer product of the
    Gauss weights of axes 1 ... d-1 over one block element, times w_k h,
    on the point grid of a field of the slice: h_a on a length-1 point
    axis a.  The values and the other slopes are buffers that the next
    slice of the block overwrites.
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

    @functools.cache
    def point_weights(k, points):
        factors = [(w * first.h)[k]] + [
            w * p.h if n > 1 else np.array([p.h]) for n, p in zip(points, rest)]
        return np.repeat(np.ravel(functools.reduce(np.multiply.outer,
                                                   factors)), tiles)

    def weights(k, field):
        return point_weights(k, field.shape[1:len(partitions)])

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
            yield (bufs[0], fixed + tuple(bufs[1:]), (x0,) + coords,
                   functools.partial(weights, k))
