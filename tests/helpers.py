"""Shared test oracles.

The dense transform oracle realizes each axis' orthonormal eigenbasis as
a matrix: the sine basis for Dirichlet axes, the complex Fourier basis
for periodic ones.  The dense operator oracle assembles the mass and
stiffness matrices as kron products, over the owned nodes and, for the
boundary elimination load, over the full grid.  The dense step oracle
advances the semi-discrete system with a dense generalized
eigendecomposition (matrix exponential realized spectrally), fully
independent of the FFT solution path.  The dense quadrature oracle
evaluates the interpolant on the whole Gauss grid with per-axis
(n*npts) x (n+1) value and slope matrices; their transposes give the
load of the L2 projection, which the dense projection oracle solves
with the kron-assembled mass matrix.  The residual oracle
differentiates closed-form solutions with mpmath's arbitrary-precision
derivatives.
"""

import math

import mpmath as mp
import numpy as np
import scipy.linalg

from expfem.analysis import _exact_gradient
from expfem.assembly import _nodal_reaction
from expfem.mesh import (Dirichlet, Partition1D, TensorMesh, _fill_boundary,
                         dof_shape, extend_nodal, is_periodic)
from expfem.operator import phi
from expfem.quadrature import _axis_points, apply_matrix, gauss_rule, integrate


def make_mesh(bounds, subdivisions, bc):
    """Build a TensorMesh from per-axis (a, b) bounds and subinterval counts."""
    if len(bounds) != len(subdivisions):
        raise ValueError("bounds and subdivisions disagree on dimension")
    parts = tuple(Partition1D(a, b, n) for (a, b), n in zip(bounds, subdivisions))
    return TensorMesh(parts, bc)


def mode_multiply(matrix, tensor, axis):
    """Apply a square matrix to every line of `tensor` along `axis`."""
    u = np.asarray(tensor)
    m = np.asarray(matrix)
    if not 0 <= axis < u.ndim:
        raise ValueError(f"axis {axis} out of range for rank-{u.ndim} tensor")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[1] != u.shape[axis]:
        raise ValueError(
            f"matrix side {m.shape[1]} does not match extent "
            f"{u.shape[axis]} of axis {axis}")
    out = np.tensordot(m, u, axes=(1, axis))
    return np.ascontiguousarray(np.moveaxis(out, 0, axis))


# ---------------------------------------------------------------------------
# dense transform basis and kron-assembled operator

DENSE_ORACLE_MAX_DOF = 4096


def build_axis_matrices(p, bc):
    """Dense 1D mass and stiffness matrices (h/6- and 1/h-scaled)."""
    if is_periodic(bc):
        m = p.n
        mass = np.zeros((m, m))
        stiff = np.zeros((m, m))
        i = np.arange(m)
        mass[i, i] = 4.0
        mass[i, (i + 1) % m] += 1.0
        mass[i, (i - 1) % m] += 1.0
        stiff[i, i] = 2.0
        stiff[i, (i + 1) % m] += -1.0
        stiff[i, (i - 1) % m] += -1.0
    else:
        m = p.n - 1
        mass = 4.0 * np.eye(m) + np.eye(m, k=1) + np.eye(m, k=-1)
        stiff = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    return (p.h / 6.0) * mass, (1.0 / p.h) * stiff


def basis_matrix(p, bc):
    """Dense orthonormal eigenbasis, columns aligned with `axis_spectrum`:
    exp(2 pi i j k / N) / sqrt(N) for periodic axes, sqrt(2/N) sin(i j pi / N)
    for Dirichlet ones."""
    if is_periodic(bc):
        jk = np.outer(np.arange(p.n), np.arange(p.n))
        return np.exp(2j * np.pi * jk / p.n) / np.sqrt(p.n)
    ij = np.arange(1, p.n)
    return np.sqrt(2.0 / p.n) * np.sin(np.outer(ij, ij) * np.pi / p.n)


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


def _boundary_tensors(mesh, g, g_t, t):
    """Full-grid tensors holding g and dg/dt on the faces, zero inside."""
    full_shape = tuple(p.n + 1 for p in mesh.partitions)
    g_ext = np.zeros(full_shape)
    _fill_boundary(g_ext, mesh, g, t)
    gdot_ext = np.zeros(full_shape)
    _fill_boundary(gdot_ext, mesh, g_t, t)
    return g_ext, gdot_ext


def dense_boundary_load(ctx, t, g_t):
    """Boundary elimination load via dense full-grid kron matrices, with
    dg/dt from the analytic `g_t(t, xs)`."""
    g_ext, gdot_ext = _boundary_tensors(ctx.mesh, ctx.mesh.bc.trace, g_t, t)
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


def dense_semidiscrete_rhs(ctx, t, U, g_t=None):
    """Oracle: dU/dt by direct mass solve on the kron-assembled system;
    lifted meshes need the trace's analytic time derivative `g_t`."""
    U = np.asarray(U, dtype=float)
    M, K = dense_operator_matrices(ctx.mesh)
    F = M @ _nodal_reaction(ctx, t, U).ravel()
    if ctx.lifted:
        F = F + dense_boundary_load(ctx, t, g_t).ravel()
    rhs = np.linalg.solve(M, F - ctx.problem.diffusion * (K @ U.ravel()))
    return rhs.reshape(U.shape)


# ---------------------------------------------------------------------------
# dense exponential steps

def dense_modal_system(ctx):
    """Generalized eigendecomposition of (D*K, M) over the owned nodes."""
    M, K = dense_operator_matrices(ctx.mesh)
    lam, V = scipy.linalg.eigh(ctx.problem.diffusion * K, M)
    return M, lam, V


def _dense_load(ctx, t, U, g_t):
    M = dense_operator_matrices(ctx.mesh)[0]
    F = M @ _nodal_reaction(ctx, t, U).ravel()
    if ctx.lifted:
        F = F + dense_boundary_load(ctx, t, g_t).ravel()
    return F


def dense_euler_step(ctx, t, U, dt, g_t=None):
    """One exponential-Euler step computed densely."""
    M, lam, V = dense_modal_system(ctx)
    y = V.T @ (M @ U.ravel())
    g = V.T @ _dense_load(ctx, t, U, g_t)
    y1 = np.exp(-dt * lam) * y + dt * phi(1, -dt * lam) * g
    return (V @ y1).reshape(U.shape)


def dense_rk2_step(ctx, t, U, dt, c2=0.5, g_t=None):
    """One two-stage exponential RK step computed densely."""
    M, lam, V = dense_modal_system(ctx)
    y = V.T @ (M @ U.ravel())
    g1 = V.T @ _dense_load(ctx, t, U, g_t)
    ys = np.exp(-c2 * dt * lam) * y + c2 * dt * phi(1, -c2 * dt * lam) * g1
    Us = (V @ ys).reshape(U.shape)
    g2 = V.T @ _dense_load(ctx, t + c2 * dt, Us, g_t)
    p1, p2 = phi(1, -dt * lam), phi(2, -dt * lam)
    y1 = np.exp(-dt * lam) * y + dt * ((p1 - p2 / c2) * g1 + (p2 / c2) * g2)
    return (V @ y1).reshape(U.shape)


# ---------------------------------------------------------------------------
# dense Gauss-grid evaluation of the interpolant

def axis_quadrature(p, npts=3):
    """Quadrature data for one axis of a uniform partition.

    Returns (coords, weights, values): Gauss-point coordinates and
    jacobian-scaled weights (length n*npts), plus the dense matrix
    mapping n+1 nodal values to interpolant values at those points.
    """
    xi, w = gauss_rule(npts)
    coords, weights = _axis_points(p, xi, w)
    rows = np.arange(p.n * npts)
    els = rows // npts
    loc = np.tile(xi, p.n)
    values = np.zeros((p.n * npts, p.n + 1))
    values[rows, els] = 1.0 - loc
    values[rows, els + 1] = loc
    return coords, weights, values


def dense_axis_slopes(p, npts):
    """(n*npts) x (n+1) matrix mapping nodal values to d/dx at Gauss points."""
    rows = np.arange(p.n * npts)
    els = rows // npts
    slopes = np.zeros((p.n * npts, p.n + 1))
    slopes[rows, els] = -1.0 / p.h
    slopes[rows, els + 1] = 1.0 / p.h
    return slopes


def dense_interpolant_on_gauss(U, mesh, t, npts):
    """Interpolant values and per-axis slopes on the whole Gauss grid."""
    full = extend_nodal(U, mesh, t)
    coords, weights, val_mats = zip(
        *(axis_quadrature(p, npts) for p in mesh.partitions))
    slope_mats = [dense_axis_slopes(p, npts) for p in mesh.partitions]
    vals = full
    for a, m in enumerate(val_mats):
        vals = apply_matrix(m, vals, a)
    grads = []
    for a_diff in range(mesh.dim):
        g = full
        for a in range(mesh.dim):
            g = apply_matrix(slope_mats[a] if a == a_diff else val_mats[a], g, a)
        grads.append(g)
    grid = np.ix_(*coords) if mesh.dim > 1 else (coords[0],)
    return vals, grads, grid, weights


def dense_error_norms(U, mesh, exact, t, npts=3):
    vals, grads, grid, weights = dense_interpolant_on_gauss(U, mesh, t, npts)
    diff = vals - np.broadcast_to(np.asarray(exact(t, grid), dtype=float),
                                  vals.shape)
    l2_sq = integrate(weights, diff * diff)
    h1_sq = l2_sq
    for a in range(mesh.dim):
        dref = _exact_gradient(exact, t, grid, a)
        gdiff = grads[a] - np.broadcast_to(dref, grads[a].shape)
        h1_sq += integrate(weights, gdiff * gdiff)
    return math.sqrt(l2_sq), math.sqrt(h1_sq)


def dense_gauss_load(fn, mesh, npts=3):
    """Full-grid load of the L2 projection of fn: the weighted, transposed
    value matrices applied to fn on the whole Gauss grid."""
    coords, weights, mats = zip(
        *(axis_quadrature(p, npts) for p in mesh.partitions))
    grid = np.ix_(*coords) if mesh.dim > 1 else (coords[0],)
    b = np.broadcast_to(np.asarray(fn(grid), dtype=float),
                        tuple(c.size for c in coords))
    for a, (w, m) in enumerate(zip(weights, mats)):
        b = apply_matrix(m.T * w, b, a)
    return b


def dense_projection(problem, mesh, npts=3):
    """L2 projection of problem.u0 by a dense mass solve over the owned
    nodes, the known trace moved to the right-hand side."""
    b = dense_gauss_load(problem.u0, mesh, npts)
    if isinstance(mesh.bc, Dirichlet):
        g_ext = np.zeros(b.shape)
        _fill_boundary(g_ext, mesh, mesh.bc.trace, 0.0)
        for a, p in enumerate(mesh.partitions):
            g_ext = apply_matrix(_dense_full_axis_matrices(p)[0], g_ext, a)
        b = b - g_ext
    for a, p in enumerate(mesh.partitions):
        # owned rows: node N folds onto node 0 (periodic) or both ends drop
        if is_periodic(mesh.bc):
            restrict = np.eye(p.n, p.n + 1)
            restrict[0, p.n] = 1.0
        else:
            restrict = np.eye(p.n + 1)[1:-1]
        b = apply_matrix(restrict, b, a)
    M = dense_operator_matrices(mesh)[0]
    return np.linalg.solve(M, b.ravel()).reshape(b.shape)


def dense_discrete_energy(U, mesh, eps, theta, theta_c, npts=3):
    vals, grads, _, weights = dense_interpolant_on_gauss(U, mesh, 0.0, npts)
    mixing = (1.0 + vals) * np.log1p(vals) + (1.0 - vals) * np.log1p(-vals)
    density = 0.5 * theta * mixing - 0.5 * theta_c * vals * vals
    grad_sq = sum(g * g for g in grads)
    return integrate(weights, density + 0.5 * eps**2 * grad_sq)


# ---------------------------------------------------------------------------
# high-precision closed forms of the builtin exact solutions

def mp_linear_rd_exact(t, x, y):
    pi = mp.pi
    return mp.exp(-pi**2 * t) * (mp.sin(pi * x) - 1) * mp.sin(pi * y)


def mp_wave_exact(eps):
    speed = 3 / (mp.sqrt(2) * mp.mpf(eps))
    width = 2 * mp.sqrt(2) * mp.mpf(eps)

    def exact(t, x, *rest):
        return (1 - mp.tanh((x - speed * t) / width)) / 2

    return exact


def wave_exact_dt(eps=0.05):
    """Analytic time derivative of the Allen-Cahn traveling wave, the
    dg/dt of its Dirichlet trace."""
    speed = 3.0 / (math.sqrt(2.0) * eps)
    width = 2.0 * math.sqrt(2.0) * eps

    def exact_dt(t, xs):
        sech2 = 1.0 / np.cosh((xs[0] - speed * t) / width) ** 2
        return (0.5 * speed / width) * sech2

    return exact_dt


def pde_residual(problem, mp_exact, t, point, dps=40):
    """u_t - D*lap(u) - f(t, u, x) with mpmath derivatives of mp_exact."""
    with mp.workdps(dps):
        t = mp.mpf(t)
        point = [mp.mpf(c) for c in point]
        u_t = mp.diff(lambda tt: mp_exact(tt, *point), t)
        lap = mp.mpf(0)
        for i in range(len(point)):
            def along(v, i=i):
                shifted = list(point)
                shifted[i] = v
                return mp_exact(t, *shifted)
            lap += mp.diff(along, point[i], 2)
        u = mp_exact(t, *point)
    xs = tuple(np.asarray(float(c)) for c in point)
    f = float(np.asarray(problem.f(float(t), np.asarray(float(u)), xs)))
    return float(u_t) - problem.diffusion * float(lap) - f


def rel_err(a, b):
    """|a - b| scaled by the larger magnitude (absolute when both tiny);
    complex values compare by modulus."""
    a, b = np.asarray(a), np.asarray(b)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)
