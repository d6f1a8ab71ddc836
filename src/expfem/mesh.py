"""Uniform tensor-product meshes on rectangular boxes.

A mesh is a list of per-axis uniform partitions plus one boundary kind
applying to the whole boundary.  Dirichlet meshes own the interior nodes
only; periodic meshes own nodes 0..N-1 (node N is identified with 0).
"""

from dataclasses import dataclass
from typing import Callable, Union

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
    arrays = [owned_axis_coordinates(mesh, a) for a in range(mesh.dim)]
    return tuple(np.ix_(*arrays)) if mesh.dim > 1 else (arrays[0],)


def full_axis_coordinates(mesh, axis):
    """All node coordinates 0..N along one axis (node N closes the box)."""
    p = mesh.partitions[axis]
    return p.a + p.h * np.arange(p.n + 1)


def full_grids(mesh):
    """Full-grid coordinates (including boundary/wrap nodes) as an open grid."""
    arrays = [full_axis_coordinates(mesh, a) for a in range(mesh.dim)]
    return tuple(np.ix_(*arrays)) if mesh.dim > 1 else (arrays[0],)


def extend_nodal(U, mesh, t=0.0):
    """Extend an owned-node tensor to the full grid 0..N along every axis.

    Dirichlet boundaries take the trace values (zero for the homogeneous
    kind); periodic fields wrap node N back to node 0.
    """
    U = np.asarray(U, dtype=float)
    if list(U.shape) != dof_shape(mesh):
        raise ValueError(f"nodal shape {U.shape} does not match mesh {dof_shape(mesh)}")
    if is_periodic(mesh.bc):
        out = U
        for a in range(mesh.dim):
            first = np.take(out, [0], axis=a)
            out = np.concatenate([out, first], axis=a)
        return out
    full_shape = tuple(p.n + 1 for p in mesh.partitions)
    out = np.zeros(full_shape)
    interior = tuple(slice(1, -1) for _ in range(mesh.dim))
    out[interior] = U
    if isinstance(mesh.bc, Dirichlet):
        _fill_boundary(out, mesh, mesh.bc.trace, t)
    return out


def _mass_stencil(x, axis):
    """Full-grid 1D P1 mass matrix over h/6, tridiag(1, 4, 1) with end
    diagonals 2, applied along one axis."""
    out = 4.0 * x
    src = np.moveaxis(x, axis, 0)
    dst = np.moveaxis(out, axis, 0)
    dst[1:] += src[:-1]
    dst[:-1] += src[1:]
    dst[0] -= 2.0 * src[0]
    dst[-1] -= 2.0 * src[-1]
    return out


def _boundary_faces(mesh):
    """Every boundary face as (axis, node index along it, open coordinate
    grid, face shape with length 1 along the axis), axis by axis, low
    face first."""
    grids = full_grids(mesh)
    full_shape = tuple(p.n + 1 for p in mesh.partitions)
    faces = []
    for a, p in enumerate(mesh.partitions):
        shape = full_shape[:a] + (1,) + full_shape[a + 1:]
        for j, coord in ((0, p.a), (p.n, p.b)):
            face = list(grids)
            face[a] = np.asarray(coord)
            faces.append((a, j, tuple(face), shape))
    return faces


def _fill_boundary(full, mesh, fn, t):
    """Write fn(t, xs) onto every boundary face of a full-grid tensor; a
    later face overwrites the edges it shares with an earlier one."""
    for a, j, face, shape in _boundary_faces(mesh):
        sel = [slice(None)] * mesh.dim
        sel[a] = slice(j, j + 1)
        full[tuple(sel)] = np.broadcast_to(fn(t, face), shape)


def aspect_ratio(mesh):
    """Ratio of the largest to the smallest subinterval size."""
    hs = [p.h for p in mesh.partitions]
    return max(hs) / min(hs)
