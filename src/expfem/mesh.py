"""Uniform tensor-product meshes on rectangular boxes.

A mesh is a list of per-axis uniform partitions plus one boundary kind
applying to the whole boundary.  Dirichlet meshes own the interior nodes
only; periodic meshes own nodes 0..N-1 (node N is identified with 0).
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

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
class HomogeneousDirichlet:
    """Zero trace on the whole boundary."""


@dataclass(frozen=True)
class Dirichlet:
    """Prescribed boundary trace g(t, xs), analytic in t."""

    trace: Callable


@dataclass(frozen=True)
class Periodic:
    """Opposite faces identified."""


BoundaryKind = Union[HomogeneousDirichlet, Dirichlet, Periodic]


def is_periodic(bc):
    return isinstance(bc, Periodic)


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


def dof_shape(mesh):
    """Per-axis owned-node counts: N-1 for Dirichlet kinds, N for periodic."""
    if is_periodic(mesh.bc):
        return [p.n for p in mesh.partitions]
    return [p.n - 1 for p in mesh.partitions]


def owned_axis_coordinates(mesh, axis):
    """Coordinates of the owned nodes along one axis."""
    p = mesh.partitions[axis]
    if is_periodic(mesh.bc):
        return p.a + p.h * np.arange(p.n)
    return p.a + p.h * np.arange(1, p.n)


def node_grids(mesh):
    """Owned-node coordinates as an open (broadcastable) grid."""
    return np.ix_(*(owned_axis_coordinates(mesh, a) for a in range(mesh.dim)))


def full_axis_coordinates(mesh, axis):
    """All node coordinates 0..N along one axis (node N closes the box)."""
    p = mesh.partitions[axis]
    return p.a + p.h * np.arange(p.n + 1)


def extend_nodal(U, mesh, t=0.0):
    """Extend an owned-node tensor to the full grid 0..N along every axis.

    Dirichlet boundaries take the trace values (zero for the homogeneous
    kind); periodic fields wrap node N back to node 0.
    """
    U = np.asarray(U, dtype=float)
    if list(U.shape) != dof_shape(mesh):
        raise ValueError(f"nodal shape {U.shape} does not match mesh {dof_shape(mesh)}")
    if is_periodic(mesh.bc):
        return np.pad(U, [(0, 1)] * mesh.dim, mode="wrap")
    out = np.zeros([n + 2 for n in U.shape])
    out[(slice(1, -1),) * mesh.dim] = U
    if isinstance(mesh.bc, Dirichlet):
        _fill_boundary(out, mesh, mesh.bc.trace, t)
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


def _fill_boundary(full, mesh, fn, t):
    """Write fn(t, xs) onto the boundary of a full-grid Dirichlet tensor,
    one assignment per axis, each boundary node once."""
    for a, (face, shape) in enumerate(_boundary_faces(mesh)):
        ends = slice(None, None, mesh.partitions[a].n)
        full[(slice(1, -1),) * a + (ends,)] = np.broadcast_to(fn(t, face), shape)


def aspect_ratio(mesh):
    """Ratio of the largest to the smallest subinterval size."""
    hs = [p.h for p in mesh.partitions]
    return max(hs) / min(hs)
