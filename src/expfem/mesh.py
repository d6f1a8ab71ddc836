"""Uniform tensor-product meshes on rectangular boxes.

A mesh is a list of per-axis uniform partitions plus one boundary kind
applying to the whole boundary.  The paper's fast solve has one basis
per kind, and each kind states on its class what the program reads of
it: `ends`, how many nodes an axis leaves unowned at its start and at
its end; `fourier`, whether its basis is the real Fourier one; and
`trace`, the boundary values g(t, xs) to lift, None when they are zero
or there is no boundary.  `Dirichlet` meshes own the interior nodes
1..N-1 and step in the sine basis; `Periodic` meshes own nodes 0..N-1
(node N is identified with 0) and step in the Fourier basis.
`axis_layout` is the one rule of which nodes an axis owns and the
period of the kind's extension, 2N (odd) or N (Fourier); the dof
shape, the owned coordinates, the transforms' spectrum and the
lifting's boundary column all read it.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np


@dataclass(frozen=True)
class Partition1D:
    """Uniform partition of [a, b] into n subintervals of size h."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"empty interval [{self.a}, {self.b}]")
        if self.n < 2:
            raise ValueError(f"need at least 2 subintervals, got {self.n}")

    @property
    def h(self):
        return (self.b - self.a) / self.n


@dataclass(frozen=True)
class Dirichlet:
    """Prescribed boundary values: the trace g(t, xs), analytic in t, or
    zero values when `trace` is None."""

    trace: Optional[Callable] = None
    ends = (1, 1)
    fourier = False


@dataclass(frozen=True)
class Periodic:
    """Opposite faces identified; no trace."""

    ends = (0, 1)
    fourier = True
    trace = None


BoundaryKind = Union[Dirichlet, Periodic]


@dataclass(frozen=True)
class TensorMesh:
    partitions: tuple
    bc: BoundaryKind

    def __post_init__(self):
        if not 1 <= len(self.partitions) <= 3:
            raise ValueError(f"dimension must be 1..3, got {len(self.partitions)}")
        object.__setattr__(self, "partitions", tuple(self.partitions))

    @property
    def dim(self):
        return len(self.partitions)


def axis_layout(p, bc):
    """The owned nodes of partition p, as a range of node indices, and
    the period of the boundary kind's extension: nodes `ends[0]` to
    N - `ends[1]`, so 0..N-1 on periodic meshes, where node N is node 0,
    and 1..N-1 on Dirichlet ones; period N in the Fourier basis, 2N (the
    odd extension) in the sine one."""
    lo, hi = bc.ends
    return range(lo, p.n + 1 - hi), p.n if bc.fourier else 2 * p.n


def dof_shape(mesh):
    """Per-axis owned-node counts: N-1 on Dirichlet meshes, N on periodic."""
    return [len(axis_layout(p, mesh.bc)[0]) for p in mesh.partitions]


def owned_axis_coordinates(mesh, axis):
    """Coordinates of the owned nodes along one axis."""
    p = mesh.partitions[axis]
    nodes = axis_layout(p, mesh.bc)[0]
    return p.a + p.h * np.arange(nodes.start, nodes.stop)


def node_grids(mesh):
    """Owned-node coordinates as an open (broadcastable) grid."""
    return np.ix_(*(owned_axis_coordinates(mesh, a) for a in range(mesh.dim)))


def full_axis_coordinates(mesh, axis):
    """All node coordinates 0..N along one axis (node N closes the box)."""
    p = mesh.partitions[axis]
    return p.a + p.h * np.arange(p.n + 1)


def extend_nodal(U, mesh, t=0.0):
    """Extend an owned-node tensor to the full grid 0..N along every axis,
    by the kind's `ends`.

    Fourier fields wrap node N back to node 0; the other kinds fill their
    end nodes with the trace, or zeros when it is None.
    """
    U = np.asarray(U, dtype=float)
    if list(U.shape) != dof_shape(mesh):
        raise ValueError(f"nodal shape {U.shape} does not match mesh {dof_shape(mesh)}")
    out = np.pad(U, [mesh.bc.ends] * mesh.dim,
                 mode="wrap" if mesh.bc.fourier else "constant")
    if mesh.bc.trace is not None:
        _fill_boundary(out, mesh, t)
    return out


class ElementRows(NamedTuple):
    """A tridiagonal matrix of a uniform 1D grid: `factor` times the rows
    (off, diag, off)."""

    factor: float
    off: float
    diag: float


# the rows (off, diag) of the P1 pair, without their factors
_MASS_ROWS = (1.0, 4.0)
_STIFFNESS_ROWS = (-1.0, 2.0)


def element_pair(h):
    """The P1 mass and stiffness matrices of cells of size h, the one
    definition every module reads: the consistent mass
    (h/6) tridiag(1, 4, 1) and the stiffness (1/h) tridiag(-1, 2, -1)."""
    return (ElementRows(h / 6.0, *_MASS_ROWS),
            ElementRows(1.0 / h, *_STIFFNESS_ROWS))


def interior_mass_stencil(x, axis):
    """The interior rows of the 1D mass matrix over its off-diagonal
    entry, the scale its callers apply, for x over all nodes of the axis:
    tridiag(1, diag/off, 1), one entry shorter at each end of the axis."""
    off, diag = _MASS_ROWS
    head = (slice(None),) * axis
    out = (diag / off) * x[head + (slice(1, -1),)]
    out += x[head + (slice(None, -2),)]
    out += x[head + (slice(2, None),)]
    return out


def _boundary_faces(mesh):
    """The boundary split by axis: axis a holds the nodes of its two faces
    that lie on no face of an earlier axis.  Per axis an open coordinate
    grid (the interior nodes along earlier axes, both ends along a, every
    node along later axes) and its shape."""
    faces = []
    for a, p in enumerate(mesh.partitions):
        axes = ([owned_axis_coordinates(mesh, b) for b in range(a)]
                + [np.array([p.a, p.b])]
                + [full_axis_coordinates(mesh, b)
                   for b in range(a + 1, mesh.dim)])
        faces.append((np.ix_(*axes), tuple(x.size for x in axes)))
    return faces


def _fill_boundary(full, mesh, t):
    """Write the mesh's trace g(t, xs) onto the boundary of a full-grid
    Dirichlet tensor, one assignment per axis, each boundary node once."""
    for a, (face, shape) in enumerate(_boundary_faces(mesh)):
        ends = slice(None, None, mesh.partitions[a].n)
        full[(slice(1, -1),) * a + (ends,)] = np.broadcast_to(
            mesh.bc.trace(t, face), shape)


def aspect_ratio(mesh):
    """Ratio of the largest to the smallest subinterval size."""
    hs = [p.h for p in mesh.partitions]
    return max(hs) / min(hs)
