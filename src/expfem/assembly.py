"""Turning continuous data into tensors: initial states, loads, lifting.

The modal ODE reads d/dt(coeffs) + rates * coeffs = scale * fwd(F) with
F the load tensor.  Evaluating the reaction nodewise (interpolating
f(t, u_h) instead of integrating it against the basis) makes the scaled
load collapse to fwd(f_nodal) exactly, which is what `transformed_load`
computes.  Nonhomogeneous Dirichlet data enters as an extra load on the
boundary-adjacent layers: minus the mass coupling times dg/dt minus D
times the stiffness coupling times g, i.e. the usual elimination of the
known boundary column.  A dense kron-product oracle of the same
semi-discretization backs the tests.
"""

import numpy as np

from .mesh import (Dirichlet, _fill_boundary, dof_shape, full_grids,
                   is_periodic, node_grids)
from .operator import build_operator
from .quadrature import apply_matrix, axis_quadrature
from .transforms import build_axis_matrices, forward_transform, inverse_transform

DENSE_ORACLE_MAX_DOF = 4096


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


def _tridiag_apply(x, axis, main, off):
    """Apply tridiag(off, main, off) along one axis (end rows not exact,
    callers discard them)."""
    out = main * x
    src = np.moveaxis(x, axis, 0)
    dst = np.moveaxis(out, axis, 0)
    dst[1:] += off * src[:-1]
    dst[:-1] += off * src[1:]
    return out


def _mass_apply_full(x, partitions):
    out = x
    for a, p in enumerate(partitions):
        out = _tridiag_apply(out, a, 4.0 * p.h / 6.0, p.h / 6.0)
    return out


def _stiffness_apply_full(x, partitions):
    total = 0.0
    for a_stiff, ps in enumerate(partitions):
        out = _tridiag_apply(x, a_stiff, 2.0 / ps.h, -1.0 / ps.h)
        for a, p in enumerate(partitions):
            if a != a_stiff:
                out = _tridiag_apply(out, a, 4.0 * p.h / 6.0, p.h / 6.0)
        total = total + out
    return total


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
    """Load correction from eliminating known Dirichlet boundary values."""
    g_ext, gdot_ext = _boundary_tensors(ctx, t)
    parts = ctx.mesh.partitions
    corr = -_mass_apply_full(gdot_ext, parts) \
        - ctx.problem.diffusion * _stiffness_apply_full(g_ext, parts)
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


def _dense_full_axis_matrices(p):
    n, h = p.n, p.h
    mass = 4.0 * np.eye(n + 1) + np.eye(n + 1, k=1) + np.eye(n + 1, k=-1)
    mass[0, 0] = mass[n, n] = 2.0
    stiff = 2.0 * np.eye(n + 1) - np.eye(n + 1, k=1) - np.eye(n + 1, k=-1)
    stiff[0, 0] = stiff[n, n] = 1.0
    return (h / 6.0) * mass, (1.0 / h) * stiff


def dense_operator_matrices(mesh):
    """Dense mass and stiffness matrices over the owned nodes (kron form)."""
    total = int(np.prod(dof_shape(mesh)))
    if total > DENSE_ORACLE_MAX_DOF:
        raise ValueError(
            f"dense oracle limited to {DENSE_ORACLE_MAX_DOF} dofs, got {total}")
    pairs = [build_axis_matrices(p, mesh.bc) for p in mesh.partitions]
    M = np.array([[1.0]])
    for a_m, _ in pairs:
        M = np.kron(M, a_m)
    K = np.zeros_like(M)
    for slot in range(len(pairs)):
        term = np.array([[1.0]])
        for a, (a_m, b_m) in enumerate(pairs):
            term = np.kron(term, b_m if a == slot else a_m)
        K += term
    return M, K


def dense_boundary_load(ctx, t):
    """Boundary elimination load via dense full-grid kron matrices."""
    g_ext, gdot_ext = _boundary_tensors(ctx, t)
    full_mats = [_dense_full_axis_matrices(p) for p in ctx.mesh.partitions]
    Mf = np.array([[1.0]])
    for m, _ in full_mats:
        Mf = np.kron(Mf, m)
    Kf = np.zeros_like(Mf)
    for slot in range(len(full_mats)):
        term = np.array([[1.0]])
        for a, (m, k) in enumerate(full_mats):
            term = np.kron(term, k if a == slot else m)
        Kf += term
    corr = -(Mf @ gdot_ext.ravel()) - ctx.problem.diffusion * (Kf @ g_ext.ravel())
    corr = corr.reshape(g_ext.shape)
    interior = tuple(slice(1, -1) for _ in ctx.mesh.partitions)
    return np.ascontiguousarray(corr[interior])


def dense_semidiscrete_rhs(ctx, t, U):
    """Oracle: dU/dt by direct mass solve on the kron-assembled system."""
    U = np.asarray(U, dtype=float)
    M, K = dense_operator_matrices(ctx.mesh)
    F = M @ _nodal_reaction(ctx, t, U).ravel()
    if ctx.lifted:
        F = F + dense_boundary_load(ctx, t).ravel()
    rhs = np.linalg.solve(M, F - ctx.problem.diffusion * (K @ U.ravel()))
    return rhs.reshape(U.shape)
