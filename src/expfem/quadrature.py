"""Per-axis Gauss rules and blocked two-tap evaluation of the interpolant.

Norms and energies integrate functions of the multilinear interpolant on
a tensor-product Gauss grid.  Each Gauss value depends on only two nodes
per axis, so `gauss_blocks` evaluates the interpolant axis by axis as
`lo + (hi - lo) * xi` (slopes as `(hi - lo) / h`), streaming the Gauss
grid in blocks of axis-0 elements of about `BLOCK_POINTS` points so a
block's arrays stay in cache: O(npts^d N^d) work and block-sized memory.

`gauss_load`, the load of the L2 projection, is the adjoint of that
evaluation over the same blocks: per axis, a 2 x npts tap matrix folds
each element's weighted Gauss values onto its two nodes.  No dense
(npts N) x (N + 1) quadrature matrix is built anywhere.
"""

from typing import NamedTuple

import numpy as np

# Gauss points per block; a block holds at least one axis-0 element
BLOCK_POINTS = 1 << 16


def gauss_rule(npts):
    """Gauss-Legendre nodes and weights on the unit interval."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


def _axis_points(p, xi, w):
    """Gauss-point coordinates (element-major) and jacobian-scaled weights."""
    coords = (p.a + (np.arange(p.n)[:, None] + xi[None, :]) * p.h).ravel()
    return coords, np.tile(w * p.h, p.n)


def apply_matrix(matrix, tensor, axis):
    """Rectangular mode product: `matrix` applied along one axis."""
    out = np.tensordot(matrix, tensor, axes=(1, axis))
    return np.moveaxis(out, 0, axis)


def integrate(per_axis_weights, values):
    """Contract a Gauss-grid tensor against per-axis weight vectors."""
    out = np.asarray(values, dtype=float)
    for w in per_axis_weights:
        out = np.tensordot(w, out, axes=(0, 0))
    return float(out)


class GaussBlock(NamedTuple):
    """The interpolant on the Gauss points of a run of axis-0 elements."""

    values: np.ndarray
    slopes: tuple      # d/dx_a per axis; empty unless requested
    coords: tuple      # open (broadcastable) grid of the block's points
    weights: tuple     # per-axis weight vectors of the block's points


def _tap_ends(t, axis):
    lo = t[(slice(None),) * axis + (slice(None, -1),)]
    hi = t[(slice(None),) * axis + (slice(1, None),)]
    return lo, hi


def _two_tap(t, axis, xi):
    """Interpolant values at the Gauss points of every element of one axis."""
    lo, hi = _tap_ends(t, axis)
    diff = hi - lo
    out = np.empty(lo.shape[:axis + 1] + (xi.size,) + lo.shape[axis + 1:])
    # one pass per Gauss point keeps the inner loop over the long axes
    for k, x in enumerate(xi):
        point = out[(slice(None),) * (axis + 1) + (k,)]
        np.multiply(diff, x, out=point)
        point += lo
    return out.reshape(lo.shape[:axis] + (-1,) + lo.shape[axis + 1:])


def _slope_tap(t, axis, npts, h):
    """Elementwise slope (hi - lo) / h repeated over each element's points."""
    lo, hi = _tap_ends(t, axis)
    return np.repeat((hi - lo) / h, npts, axis=axis)


def element_blocks(n, per_element):
    """Ranges [e0, e1) of axis-0 elements, each worth about BLOCK_POINTS
    points at `per_element` points per element."""
    step = max(1, BLOCK_POINTS // per_element)
    return [(e0, min(e0 + step, n)) for e0 in range(0, n, step)]


def _block_grids(partitions, npts):
    """Yield (e0, e1, grid, weights) for blocks of axis-0 elements [e0, e1):
    the open grid of the block's Gauss points and per-axis weight vectors,
    element-major (element, Gauss point) along every axis."""
    xi, w = gauss_rule(npts)
    axes = [_axis_points(p, xi, w) for p in partitions]
    per_element = npts
    for p in partitions[1:]:
        per_element *= p.n * npts
    for e0, e1 in element_blocks(partitions[0].n, per_element):
        pts = slice(e0 * npts, e1 * npts)
        coords = [axes[0][0][pts]] + [c for c, _ in axes[1:]]
        weights = (axes[0][1][pts],) + tuple(wt for _, wt in axes[1:])
        grid = tuple(np.ix_(*coords)) if len(coords) > 1 else (coords[0],)
        yield e0, e1, grid, weights


def gauss_blocks(full, partitions, npts=3, slopes=False):
    """Yield `GaussBlock`s covering the tensor-product Gauss grid.

    `full` holds nodal values on the full grid 0..N of every axis.  Blocks
    partition the axis-0 elements; values are laid out element-major
    (element, Gauss point) along every axis.
    """
    xi, _ = gauss_rule(npts)
    for e0, e1, grid, weights in _block_grids(partitions, npts):
        vals, grads = full[e0:e1 + 1], []
        for a, p in enumerate(partitions):
            if slopes:
                grads = [_two_tap(g, a, xi) for g in grads]
                grads.append(_slope_tap(vals, a, npts, p.h))
            vals = _two_tap(vals, a, xi)
        yield GaussBlock(vals, tuple(grads), grid, weights)


def _tap_adjoint(v, axis, taps):
    """Adjoint of `_two_tap` along one axis: each element's npts Gauss
    values, contracted with the 2 x npts tap matrix, added onto the
    element's two nodes."""
    npts = taps.shape[1]
    head, tail = v.shape[:axis], v.shape[axis + 1:]
    els = v.shape[axis] // npts
    halves = apply_matrix(taps, v.reshape(head + (els, npts) + tail), axis + 1)
    out = np.zeros(head + (els + 1,) + tail)
    lo, hi = _tap_ends(out, axis)
    pick = (slice(None),) * (axis + 1)
    lo[...] = halves[pick + (0,)]
    hi += halves[pick + (1,)]
    return out


def gauss_load(fn, partitions, npts=3):
    """Integrals of fn(xs) against every full-grid nodal hat function, by
    the npts-point Gauss rule per axis, streamed over the blocks of
    `gauss_blocks`; the taps of an axis are the weighted hat values
    (w h (1 - xi), w h xi) at its Gauss points."""
    xi, w = gauss_rule(npts)
    taps = [np.stack([1.0 - xi, xi]) * (w * p.h) for p in partitions]
    out = np.zeros(tuple(p.n + 1 for p in partitions))
    for e0, e1, grid, _ in _block_grids(partitions, npts):
        shape = np.broadcast_shapes(*(g.shape for g in grid))
        vals = np.broadcast_to(np.asarray(fn(grid), dtype=float), shape)
        for a, tap in enumerate(taps):
            vals = _tap_adjoint(vals, a, tap)
        out[e0:e1 + 1] += vals
    return out
