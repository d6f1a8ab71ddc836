"""Turning continuous data into tensors: initial states, loads, lifting.

The modal ODE reads d/dt(coeffs) + rates * coeffs = scale * fwd(F) with
F the load tensor.  Evaluating the reaction nodewise (interpolating
f(t, u_h) instead of integrating it against the basis) makes the scaled
load collapse to fwd(f_nodal) exactly, which is what `transformed_load`
computes.  Nonhomogeneous Dirichlet data enters as an extra load on the
boundary-adjacent layers: minus the mass coupling times dg/dt minus D
times the stiffness coupling times g, i.e. the usual elimination of the
known boundary column.  The tests check all of this against a dense
kron-product oracle of the same semi-discretization.
"""

import numpy as np

from .mesh import (Dirichlet, _fill_boundary, _mass_stencil, dof_shape,
                   is_periodic, node_grids)
from .operator import build_operator
from .quadrature import apply_matrix, axis_quadrature
from .transforms import forward_transform, inverse_transform


class LoadContext:
    """Precomputed grids for evaluating loads on one problem/mesh pair."""

    def __init__(self, problem, mesh, op=None):
        self.problem = problem
        self.mesh = mesh
        self.op = op if op is not None else build_operator(mesh, problem.diffusion)
        self.grids = node_grids(mesh)
        self.lifted = isinstance(mesh.bc, Dirichlet)


def _nodal_reaction(ctx, t, U):
    vals = ctx.problem.f(t, U, ctx.grids)
    return np.broadcast_to(np.asarray(vals, dtype=float), U.shape)


def transformed_load(ctx, t, U, workers=None):
    """Scaled modal load for nodal state U at time t."""
    G = forward_transform(_nodal_reaction(ctx, t, U), ctx.mesh, workers)
    if ctx.lifted:
        corr = boundary_correction(ctx, t)
        G = G + ctx.op.load_scale * forward_transform(corr, ctx.mesh, workers)
    return G


def _boundary_tensors(ctx, t):
    """Full-grid tensors holding g and dg/dt on the faces, zero inside."""
    mesh = ctx.mesh
    bc = mesh.bc
    full_shape = tuple(p.n + 1 for p in mesh.partitions)
    g_ext = np.zeros(full_shape)
    _fill_boundary(g_ext, mesh, bc.trace, t)
    gdot_ext = np.zeros(full_shape)
    if bc.trace_dt is not None:
        _fill_boundary(gdot_ext, mesh, bc.trace_dt, t)
    else:
        delta = 1e-6 * max(1.0, abs(t))
        lo = np.zeros(full_shape)
        hi = np.zeros(full_shape)
        _fill_boundary(lo, mesh, bc.trace, t - delta)
        _fill_boundary(hi, mesh, bc.trace, t + delta)
        gdot_ext = (hi - lo) / (2.0 * delta)
    return g_ext, gdot_ext


def boundary_correction(ctx, t):
    """Load correction from eliminating known Dirichlet boundary values.

    Only interior rows are kept.  There the full-grid 1D mass matrix is
    h/6 times the stencil, and the stiffness matrix maps x to
    (6 x - stencil(x)) / h.
    """
    g_ext, gdot_ext = _boundary_tensors(ctx, t)
    parts = ctx.mesh.partitions
    corr = gdot_ext
    mass = -1.0
    for a, p in enumerate(parts):
        corr = _mass_stencil(corr, a)
        mass *= p.h / 6.0
    corr *= mass
    for a, p in enumerate(parts):
        massed = g_ext
        scale = ctx.problem.diffusion / p.h
        for b, q in enumerate(parts):
            if b != a:
                massed = _mass_stencil(massed, b)
                scale *= q.h / 6.0
        corr -= scale * (6.0 * massed - _mass_stencil(massed, a))
    interior = tuple(slice(1, -1) for _ in parts)
    return np.ascontiguousarray(corr[interior])


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
    coords, load_mats = [], []
    for p in mesh.partitions:
        x, w, values = axis_quadrature(p, npts)
        coords.append(x)
        load_mats.append(values.T * w)
    grid = np.ix_(*coords) if mesh.dim > 1 else (coords[0],)
    gauss_shape = tuple(c.size for c in coords)
    vals = np.broadcast_to(
        np.asarray(problem.u0(grid), dtype=float), gauss_shape)
    b = vals
    for a, q in enumerate(load_mats):
        b = apply_matrix(q, b, a)
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
