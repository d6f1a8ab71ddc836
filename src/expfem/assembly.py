"""Turning continuous data into tensors: initial states, loads, lifting.

The modal ODE reads d/dt(coeffs) + rates * coeffs = scale * fwd(F) with
F the load tensor.  Evaluating the reaction nodewise (interpolating
f(t, u_h) instead of integrating it against the basis) makes the scaled
load collapse to fwd(f_nodal) exactly, which is what `transformed_load`
computes.  Nonhomogeneous Dirichlet data enters as an extra load on the
boundary-adjacent layers: minus the mass coupling times dg/dt minus D
times the stiffness coupling times g, i.e. the usual elimination of the
known boundary column.  That load lives on one node layer per face, and
such a layer transforms as one basis column times a (d-1)-D transform of
the layer, so `boundary_correction` builds it from the traces on the
faces and adds it to the modal load directly, without a full-grid tensor
or a full-size transform.  The tests check all of this against a dense
kron-product oracle of the same semi-discretization.
"""

import functools
import math

import numpy as np
import scipy.fft

from .mesh import (Dirichlet, _boundary_faces, _mass_stencil, dof_shape,
                   extend_nodal, is_periodic, node_grids)
from .operator import build_operator
from .problems import COMPLEX_STEP
from .quadrature import gauss_load
from .transforms import axis_spectrum, forward_transform, inverse_transform

# entries of the modal load per chunk of the lifting's column x face add
_CHUNK = 1 << 14


class LoadContext:
    """Precomputed grids for evaluating loads on one problem/mesh pair.

    Lifted (nonhomogeneous Dirichlet) meshes also keep the boundary faces'
    coordinates and, per axis, the boundary column (the transform of a
    unit vector at the first owned node) times that axis' reciprocal mass
    eigenvalues, and the outer product of the other axes' reciprocal mass
    eigenvalues: together they make up `op.load_scale`.
    """

    def __init__(self, problem, mesh, op=None):
        self.problem = problem
        self.mesh = mesh
        self.op = op if op is not None else build_operator(mesh, problem.diffusion)
        self.grids = node_grids(mesh)
        self.lifted = isinstance(mesh.bc, Dirichlet)
        if self.lifted:
            self.faces = _boundary_faces(mesh)
            inv_mass = [1.0 / axis_spectrum(p, mesh.bc).mass
                        for p in mesh.partitions]
            self.columns = [
                w * scipy.fft.dst(np.eye(1, w.size)[0], type=1, norm="ortho")
                for w in inv_mass]
            self.face_scales = [
                functools.reduce(np.multiply.outer,
                                 inv_mass[:a] + inv_mass[a + 1:], np.ones(()))
                for a in range(mesh.dim)]


def _nodal_reaction(ctx, t, U):
    vals = ctx.problem.f(t, U, ctx.grids)
    return np.broadcast_to(np.asarray(vals, dtype=float), U.shape)


def transformed_load(ctx, t, U, workers=None):
    """Scaled modal load for nodal state U at time t."""
    G = forward_transform(_nodal_reaction(ctx, t, U), ctx.mesh, workers)
    if ctx.lifted:
        boundary_correction(ctx, t, G, workers)
    return G


def _trace_faces(ctx, t):
    """g and dg/dt on every boundary face: the real part and the complex
    step of one evaluation of the trace at time t + i h per face."""
    g, gdot = [], []
    for _, _, face, shape in ctx.faces:
        vals = np.broadcast_to(
            ctx.mesh.bc.trace(t + 1j * COMPLEX_STEP, face), shape)
        g.append(vals.real)
        gdot.append(vals.imag / COMPLEX_STEP)
    return g, gdot


def _slabs(ctx, fields, a):
    """Full-grid boundary data on the three node layers next to each face
    of axis a, zero at nodes off the boundary, for each field (a list of
    face values): shape (fields, 3, faces, full grid of the other axes),
    one face when axis a has a single owned layer."""
    mesh = ctx.mesh
    starts = sorted({0, mesh.partitions[a].n - 2})
    rest = [p.n + 1 for b, p in enumerate(mesh.partitions) if b != a]
    out = np.zeros([len(fields), 3, len(starts)] + rest)
    for f, values in enumerate(fields):
        for s, r0 in enumerate(starts):
            slab = np.moveaxis(out[f, :, s], 0, a)
            window = [slice(None)] * mesh.dim
            window[a] = slice(r0, r0 + 3)
            for (b, j, _, _), vals in zip(ctx.faces, values):
                sel = [slice(None)] * mesh.dim
                if b != a:
                    sel[b] = slice(j, j + 1)
                    slab[tuple(sel)] = vals[tuple(window)]
                elif r0 <= j < r0 + 3:
                    sel[a] = slice(j - r0, j - r0 + 1)
                    slab[tuple(sel)] = vals
    return out


def _layer_corrections(ctx, g, gdot, a):
    """Boundary elimination load on the owned layers next to each face of
    axis a, over the owned nodes of the other axes: shape (faces, ...).

    Along a the full-grid rows there are (h/6)(1, 4, 1) for the mass and
    (-1, 2, -1)/h for the stiffness; they collapse the three node layers
    to m (g massed along a) and q (dg/dt massed plus D times g stiffened
    along a).  On the owned rows of another axis c the stiffness is
    (6/h_c) I - (6/h_c^2) M_c, so with M the product of the other axes'
    full-grid masses the load is
    -M(q - kappa m) - D sum_c (6/h_c) M_(without c)(m),
    kappa = D sum_c 6/h_c^2.  The other axes' stencils apply one axis at a
    time to the pair (M m, partial load), with their h_c/6 factors taken
    out in front.
    """
    parts = ctx.mesh.partitions
    other = [b for b in range(ctx.mesh.dim) if b != a]
    h = parts[a].h
    diffusion = ctx.problem.diffusion
    kappa = diffusion * sum(6.0 / parts[c].h ** 2 for c in other)
    front = -np.prod([parts[c].h / 6.0 for c in other])
    mass = (h / 6.0) * np.array([1.0, 4.0, 1.0])
    stiff = (diffusion / h) * np.array([-1.0, 2.0, -1.0])
    # rows m and q - kappa m; columns the (g, dg/dt) x layer slabs
    rows = front * np.array([[mass, np.zeros(3)], [stiff - kappa * mass, mass]])
    slabs = _slabs(ctx, (g, gdot), a)
    pair = (rows.reshape(2, 6) @ slabs.reshape(6, -1)).reshape(
        (2,) + slabs.shape[2:])
    del slabs
    for j, c in enumerate(other):
        last = j == len(other) - 1
        swept = _mass_stencil(pair[1:] if last else pair, j + 2)
        swept[-1] += (36.0 * diffusion / parts[c].h ** 2) * pair[0]
        pair = swept
    return pair[-1][(slice(None),) + tuple(slice(1, -1) for _ in other)]


def boundary_correction(ctx, t, G, workers=None):
    """Add the scaled modal load from eliminating known Dirichlet boundary
    values to the modal load G, in place.

    The load is nonzero only on the owned layers next to the boundary.
    Each such node belongs to the layer of the first axis that has it on
    its boundary layer.  A layer at owned index 0 along axis a transforms
    as the boundary column of a times the (d-1)-D transform of the layer;
    the layer at the far end takes the same column times (-1)^k.  The
    reciprocal masses of load_scale fold into the column and the face.
    """
    g, gdot = _trace_faces(ctx, t)
    dim = ctx.mesh.dim
    for a in range(dim):
        layers = _layer_corrections(ctx, g, gdot, a)
        # nodes on an earlier axis' boundary layer belong to that layer
        for j in range(a):
            edge = np.moveaxis(layers, j + 1, 1)
            edge[:, 0] = 0.0
            edge[:, -1] = 0.0
        faces = ctx.face_scales[a] * scipy.fft.dstn(
            layers, type=1, norm="ortho", axes=range(1, dim), workers=workers)
        near, far = faces if len(faces) == 2 else (faces[0], 0.0 * faces[0])
        _add_column_faces(G, a, ctx.columns[a], near, far)


def _add_column_faces(G, a, column, near, far):
    """G += column (x) near + (column (-1)^k) (x) far along axis a, in place.

    G is viewed as (before a, modes, after a) and the rank-two product of
    the (modes, 2) columns with the (2, ...) faces is added chunk by chunk,
    each chunk a matrix product of about `_CHUNK` entries, so no
    state-sized temporary is built.  Along the last axis the products
    would be columns of one entry; there the roles swap, with the faces'
    rows as the columns and the column pair as one face.
    """
    n = G.shape[a]
    pre, post = math.prod(G.shape[:a]), math.prod(G.shape[a + 1:])
    cols = np.stack([column, np.resize([1.0, -1.0], n) * column], axis=1)
    faces = np.stack([near, far]).reshape(2, pre, post).swapaxes(0, 1)
    if post == 1:
        pre, n, post = 1, pre, n
        cols, faces = faces[:, :, 0], cols.T[None]
    modes = G.reshape(pre, n, post)
    span = max(1, _CHUNK // (n * post))
    rows = max(1, _CHUNK // post)
    for p0 in range(0, pre, span):
        for k0 in range(0, n, rows):
            modes[p0:p0 + span, k0:k0 + rows] += (
                cols[k0:k0 + rows] @ faces[p0:p0 + span])


def initial_state(problem, mesh, mode="interpolate"):
    """Nodal tensor of the initial datum.

    The default interpolates at the owned nodes; mode="project" computes
    the discrete L2 projection via Gauss quadrature of the datum against
    the basis.
    """
    if mode not in ("interpolate", "project"):
        raise ValueError(f"unknown initial-state mode {mode!r}")
    shape = tuple(dof_shape(mesh))
    if problem.u0_nodal is not None:
        U0 = np.asarray(problem.u0_nodal(mesh), dtype=float)
        if U0.shape != shape:
            raise ValueError(f"nodal initial data shape {U0.shape} != {shape}")
        return U0
    if problem.u0 is None:
        raise ValueError(f"problem {problem.name} defines no initial datum")
    if mode == "interpolate":
        vals = problem.u0(node_grids(mesh))
        return np.ascontiguousarray(
            np.broadcast_to(np.asarray(vals, dtype=float), shape))
    return _project_initial(problem, mesh)


def _project_initial(problem, mesh, npts=3):
    periodic = is_periodic(mesh.bc)
    b = gauss_load(problem.u0, mesh.partitions, npts)
    if isinstance(mesh.bc, Dirichlet):
        # move the mass coupling of the known trace to the right-hand side
        trace = extend_nodal(np.zeros(dof_shape(mesh)), mesh, 0.0)
        for a, p in enumerate(mesh.partitions):
            trace = (p.h / 6.0) * _mass_stencil(trace, a)
        b -= trace
    # fold node N onto node 0 for periodic, drop boundary rows otherwise
    for a in range(mesh.dim):
        if periodic:
            head = np.take(b, [0], axis=a) + np.take(b, [-1], axis=a)
            body = np.take(b, range(1, b.shape[a] - 1), axis=a)
            b = np.concatenate([head, body], axis=a)
        else:
            b = np.take(b, range(1, b.shape[a] - 1), axis=a)
    op = build_operator(mesh, problem.diffusion)
    return inverse_transform(op.load_scale * forward_transform(b, mesh), mesh)
