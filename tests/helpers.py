"""Shared test oracles.

The dense transform oracle realizes each axis' orthonormal eigenbasis as
a matrix: the sine basis for Dirichlet axes, the complex Fourier basis
for periodic ones.  The dense operator oracle assembles the mass and
stiffness matrices as kron products, over the owned nodes and, for the
boundary elimination load, over the full grid.  The dense step oracle
advances the semi-discrete system with a dense generalized
eigendecomposition (matrix exponential realized spectrally), fully
independent of the FFT solution path; it takes the whole nodal
reaction, linear part included, from `full_reaction`.  The textbook
oracle shares none of the program's derivation: on periodic meshes it
assembles global Q1 mass and stiffness matrices cell by cell from Gauss
quadrature, interpolates the whole reaction at every node and steps
with phi functions from augmented matrix exponentials.
`manufactured_semilinear` is a 3D semilinear problem with an exact
solution on either unlifted kind.  The dense quadrature oracle
evaluates the interpolant on the whole Gauss grid with per-axis
(n*npts) x (n+1) value and slope matrices.  The residual oracle
differentiates closed-form solutions with mpmath's arbitrary-precision
derivatives.  `masked_phi` evaluates phi by boolean gathers and
scatters and `joined_snapshot` builds a snapshot's text as one string,
one `repr` per value: `operator.phi` and the streamed `write_snapshot`
must give their bits and bytes.  `readme_keys` reads the config keys of README's key table.
"""

import functools
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import scipy.linalg

from expfem.analysis import _exact_gradient
from expfem.assembly import transformed_load
from expfem.mesh import (Dirichlet, Partition1D, Periodic, TensorMesh,
                         dof_shape, extend_nodal, full_axis_coordinates)
from expfem.operator import PHI2_TAYLOR_CUTOFF, build_operator, phi
from expfem.problems import Problem
from expfem.quadrature import apply_matrix, gauss_rule
from expfem.transforms import axis_spectrum, modal_shape


def full_grids(mesh):
    """Full-grid coordinates (boundary and wrap nodes included) as an
    open grid."""
    return np.ix_(*(full_axis_coordinates(mesh, a) for a in range(mesh.dim)))


def make_mesh(bounds, subdivisions, bc):
    """Build a TensorMesh from per-axis (a, b) bounds and subinterval counts."""
    if len(bounds) != len(subdivisions):
        raise ValueError("bounds and subdivisions disagree on dimension")
    parts = tuple(Partition1D(a, b, n) for (a, b), n in zip(bounds, subdivisions))
    return TensorMesh(parts, bc)


# ---------------------------------------------------------------------------
# dense transform basis and kron-assembled operator

DENSE_ORACLE_MAX_DOF = 4096


def build_axis_matrices(p, bc):
    """Dense 1D mass and stiffness matrices (h/6- and 1/h-scaled)."""
    if isinstance(bc, Periodic):
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
    if isinstance(bc, Periodic):
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


def operator_of(ctx):
    """The modal rate tensor of a `LoadContext`'s problem and mesh, as
    `run` builds it for its weights (the context keeps none)."""
    return build_operator(ctx.mesh, ctx.problem.diffusion)


def inv_mass_product(mesh):
    """Reciprocal products of mass eigenvalues over the modal shape: the
    scale that turns transformed load coefficients into right-hand sides."""
    inv_mass = [1.0 / axis_spectrum(p, mesh.bc)[0][:m]
                for p, m in zip(mesh.partitions, modal_shape(mesh))]
    return functools.reduce(np.multiply.outer, inv_mass, np.ones(()))


def _boundary_tensor(mesh, fn, t):
    """fn(t, xs) on the full grid with the interior nodes zeroed."""
    full_shape = tuple(p.n + 1 for p in mesh.partitions)
    out = np.array(np.broadcast_to(fn(t, full_grids(mesh)), full_shape),
                   dtype=float)
    out[(slice(1, -1),) * mesh.dim] = 0.0
    return out


def dense_boundary_load(ctx, t, g_t):
    """Boundary elimination load via dense full-grid kron matrices, with
    dg/dt from the analytic `g_t(t, xs)`."""
    g_ext = _boundary_tensor(ctx.mesh, ctx.mesh.bc.trace, t)
    gdot_ext = _boundary_tensor(ctx.mesh, g_t, t)
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


def full_reaction(problem, t, U, xs):
    """The whole reaction linear * U + sum_j amplitude_j(t) profile_j(xs)
    + f(t, U, xs), built from the Problem fields alone: the oracles must
    not share the fast path's split, which leaves the linear part out of
    the load and transforms each profile once."""
    U = np.asarray(U, dtype=float)
    out = problem.linear * U
    for amplitude, profile in problem.source:
        out = out + amplitude(t) * profile(xs)
    if problem.f is not None:
        out = out + problem.f(t, U, xs)
    return np.broadcast_to(out, U.shape)


def dense_semidiscrete_rhs(ctx, t, U, g_t=None):
    """Oracle: dU/dt by direct mass solve on the kron-assembled system;
    lifted meshes need the trace's analytic time derivative `g_t`."""
    U = np.asarray(U, dtype=float)
    M, K = dense_operator_matrices(ctx.mesh)
    F = M @ full_reaction(ctx.problem, t, U, ctx.grids).ravel()
    if ctx.mesh.bc.trace is not None:
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
    F = M @ full_reaction(ctx.problem, t, U, ctx.grids).ravel()
    if ctx.mesh.bc.trace is not None:
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


def step_with_temporaries(scheme, coeffs, t, ctx, w):
    """A step's products in its order, written with a fresh array per
    product and, on rk2, the stage held through the second load: the
    steps, which keep their temporaries in the loads and the output
    buffer, must give the same bits.  Euler's step is rk2's first-stage
    combine alone."""
    G1 = transformed_load(ctx, t, coeffs)
    if scheme == "euler":
        return w.decay * coeffs + w.b1 * G1
    stage = w.stage_decay * coeffs + w.stage_phi1 * G1
    G2 = transformed_load(ctx, t + w.stage_dt, stage)
    return w.decay * coeffs + w.b1 * G1 + w.b2 * G2


# ---------------------------------------------------------------------------
# textbook method of lines on the full grid

def _q1_element_matrices(hs):
    """Mass and stiffness matrices of one Q1 element with sides hs, from
    the 3-point Gauss rule per axis: rows and columns run over the 2^d
    corners, corner bits b giving the basis prod_a (xi_a if b_a else
    1 - xi_a) on the unit cell."""
    x, w = np.polynomial.legendre.leggauss(3)
    xi, w = 0.5 * (x + 1.0), 0.5 * w
    dim = len(hs)
    corners = list(itertools.product((0, 1), repeat=dim))
    mass = np.zeros((len(corners),) * 2)
    stiff = np.zeros_like(mass)
    for q in itertools.product(range(3), repeat=dim):
        weight = math.prod(w[list(q)]) * math.prod(hs)
        # per corner and axis, the 1D factor and its slope at the point
        factor = np.array([[xi[q[a]] if b[a] else 1.0 - xi[q[a]]
                            for a in range(dim)] for b in corners])
        slope = np.array([[(1.0 if b[a] else -1.0) / hs[a]
                           for a in range(dim)] for b in corners])
        value = factor.prod(axis=1)
        grad = np.stack([slope[:, a] * np.delete(factor, a, axis=1).prod(
            axis=1) for a in range(dim)], axis=1)
        mass += weight * np.outer(value, value)
        stiff += weight * grad @ grad.T
    return mass, stiff


def textbook_periodic_matrices(mesh):
    """Global Q1 mass and stiffness matrices of a periodic mesh, assembled
    element by element over its cells, node N of each axis identified
    with node 0; rows in C order of the nodes 0..N-1 per axis."""
    shape = tuple(p.n for p in mesh.partitions)
    total = math.prod(shape)
    if total > DENSE_ORACLE_MAX_DOF:
        raise ValueError(
            f"dense oracle limited to {DENSE_ORACLE_MAX_DOF} dofs, got {total}")
    element = _q1_element_matrices([p.h for p in mesh.partitions])
    cells = np.indices(shape).reshape(len(shape), -1)
    nodes = [np.ravel_multi_index(
        [(cells[a] + b[a]) % n for a, n in enumerate(shape)], shape)
        for b in itertools.product((0, 1), repeat=len(shape))]
    M, K = np.zeros((total, total)), np.zeros((total, total))
    for out, local in zip((M, K), element):
        for i, rows in enumerate(nodes):
            for j, cols in enumerate(nodes):
                np.add.at(out, (rows, cols), local[i, j])
    return M, K


def textbook_periodic_nodes(mesh):
    """The distinct nodes 0..N-1 of a periodic mesh as an open grid."""
    return np.ix_(*(p.a + p.h * np.arange(p.n) for p in mesh.partitions))


def textbook_periodic_rhs(problem, mesh, t, U):
    """dU/dt of the textbook method of lines on a periodic mesh: the
    whole reaction interpolated at every node and tested against every
    hat function, M U' = M r(t, U) - D K U."""
    M, K = textbook_periodic_matrices(mesh)
    U = np.asarray(U, dtype=float)
    r = full_reaction(problem, t, U, textbook_periodic_nodes(mesh))
    rhs = np.linalg.solve(M, M @ r.ravel() - problem.diffusion * (K @ U.ravel()))
    return rhs.reshape(U.shape)


def _phi_combination(B, u, w1, w2):
    """e^B u + phi1(B) w1 + phi2(B) w2 from one `scipy.linalg.expm` of
    the matrix B augmented by the columns (w2, w1) and a 2x2 shift."""
    n = len(u)
    aug = np.zeros((n + 2, n + 2))
    aug[:n, :n] = B
    aug[:n, n], aug[:n, n + 1] = w2, w1
    aug[n, n + 1] = 1.0
    return (scipy.linalg.expm(aug) @ np.concatenate([u, [0.0, 1.0]]))[:n]


def textbook_periodic_step(problem, mesh, t, U, dt, scheme, c2=0.5):
    """One exponential Euler or rk2 step of the textbook method of lines
    on a periodic mesh, with the dense operator A = -D M^-1 K and the
    whole reaction as the load, its phi functions from augmented
    matrix exponentials."""
    M, K = textbook_periodic_matrices(mesh)
    A = -problem.diffusion * np.linalg.solve(M, K)
    nodes = textbook_periodic_nodes(mesh)
    u = np.asarray(U, dtype=float).ravel()
    r0 = full_reaction(problem, t, U, nodes).ravel()
    zero = np.zeros_like(u)
    if scheme == "euler":
        out = _phi_combination(dt * A, u, dt * r0, zero)
    else:
        stage = _phi_combination(c2 * dt * A, u, c2 * dt * r0, zero)
        r1 = full_reaction(problem, t + c2 * dt, stage.reshape(np.shape(U)),
                           nodes).ravel()
        out = _phi_combination(dt * A, u, dt * r0, dt * (r1 - r0) / c2)
    return out.reshape(np.shape(U))


# ---------------------------------------------------------------------------
# dense Gauss-grid evaluation of the interpolant

def integrate(per_axis_weights, values):
    """Contract a Gauss-grid tensor against per-axis weight vectors."""
    out = np.asarray(values, dtype=float)
    for w in per_axis_weights:
        out = np.tensordot(w, out, axes=(0, 0))
    return float(out)


def axis_quadrature(p, npts=3):
    """Quadrature data for one axis of a uniform partition.

    Returns (coords, weights, values): Gauss-point coordinates and
    jacobian-scaled weights (length n*npts), plus the dense matrix
    mapping n+1 nodal values to interpolant values at those points.
    """
    xi, w = gauss_rule(npts)
    coords = (p.a + (np.arange(p.n)[:, None] + xi[None, :]) * p.h).ravel()
    weights = np.tile(w * p.h, p.n)
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
    if isinstance(mesh.bc, Dirichlet) and mesh.bc.trace is not None:
        full = _boundary_tensor(mesh, mesh.bc.trace, t)
        full[(slice(1, -1),) * mesh.dim] = U
    else:
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
    """u_t - D*lap(u) - r(t, u, x) with mpmath derivatives of mp_exact,
    r the problem's whole reaction."""
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
    f = float(full_reaction(problem, float(t), float(u), xs))
    return float(u_t) - problem.diffusion * float(lap) - f


def rel_err(a, b):
    """|a - b| scaled by the larger magnitude (absolute when both tiny);
    complex values compare by modulus."""
    a, b = np.asarray(a), np.asarray(b)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)


# ---------------------------------------------------------------------------
# a manufactured semilinear problem with an exact solution

def manufactured_semilinear(bc, dim=3):
    """u_t = 0.1 lap(u) + u (1 - u^2) + s on the unit box with the exact
    solution u = 1/2 e^-t prod_a sin(k x_a) + c: k = pi and c = 0 under
    zero Dirichlet data, k = 2 pi and c = 1/4 on a periodic box.

    With w = u - c, u_t - D lap(u) = (D dim k^2 - 1) w, so the source
    s = (D dim k^2 - 2 + 3 c^2) w + 3 c w^2 + w^3 + c^3 - c; each power of
    w is separable, so s is all `source` terms and f is u (1 - u^2)."""
    diffusion = 0.1
    k, c = (2.0 * math.pi, 0.25) if isinstance(bc, Periodic) else (math.pi, 0.0)

    def profile(power):
        def fn(xs):
            out = 1.0
            for x in xs:
                out = out * np.sin(k * x)
            return out ** power
        return fn

    def exact(t, xs):
        return 0.5 * np.exp(-t) * profile(1)(xs) + c

    source = (
        (lambda t: (diffusion * dim * k * k - 2.0 + 3.0 * c * c)
         * 0.5 * math.exp(-t), profile(1)),
        (lambda t: 3.0 * c * 0.25 * math.exp(-2.0 * t), profile(2)),
        (lambda t: 0.125 * math.exp(-3.0 * t), profile(3)),
        (lambda t: c ** 3 - c, profile(0)),
    )
    return Problem(name="manufactured", diffusion=diffusion,
                   f=lambda t, u, xs: u * (1.0 - u * u),
                   domain=((0.0, 1.0),) * dim, bc=bc,
                   u0=lambda xs: exact(0.0, xs), exact=exact, source=source)


# ---------------------------------------------------------------------------
# bit- and byte-exact oracles of phi and the snapshot writer

_PHI2_SERIES = [1.0 / math.factorial(j + 2) for j in range(9)][::-1]


def masked_phi(k, z):
    """phi_k by boolean gathers and scatters: phi_1 as a masked divide into
    ones, phi_2's Taylor series on the gathered entries below the switch
    point and its closed form on the others."""
    z = np.asarray(z, dtype=float)
    if k == 1:
        out = np.ones_like(z)
        np.divide(np.expm1(z), z, out=out, where=z != 0)
    elif k == 2:
        out = np.empty_like(z)
        small = np.abs(z) < PHI2_TAYLOR_CUTOFF
        zs, zl = z[small], z[~small]
        acc = np.full_like(zs, _PHI2_SERIES[0])
        for c in _PHI2_SERIES[1:]:
            acc = acc * zs + c
        out[small] = acc
        out[~small] = (np.expm1(zl) - zl) / zl**2
    else:
        raise ValueError(f"phi order must be 1 or 2, got {k}")
    return out


def joined_snapshot(U, mesh, t):
    """A snapshot's whole text, joined into one string from an x-fastest
    (Fortran-order) copy of the full-grid field with one `repr` per
    value; a periodic field is wrapped here by indexing node N as node
    0."""
    if isinstance(mesh.bc, Periodic):
        full = np.asarray(U, dtype=float)[
            np.ix_(*(np.arange(n + 1) % n for n in np.shape(U)))]
    else:
        full = extend_nodal(U, mesh, t)
    dims = [1, 1, 1]
    origin = [0.0, 0.0, 0.0]
    spacing = [1.0, 1.0, 1.0]
    for a, p in enumerate(mesh.partitions):
        dims[a] = full.shape[a]
        origin[a] = p.a
        spacing[a] = p.h
    values = full.ravel(order="F")
    lines = [
        "# vtk DataFile Version 3.0",
        f"expfem snapshot t={float(t)!r}",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        "DIMENSIONS {} {} {}".format(*dims),
        "ORIGIN {} {} {}".format(*(repr(float(v)) for v in origin)),
        "SPACING {} {} {}".format(*(repr(float(v)) for v in spacing)),
        f"POINT_DATA {values.size}",
        "SCALARS u double",
        "LOOKUP_TABLE default",
    ]
    lines.extend(map(repr, values.tolist()))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# memory

def traced_peak(fn, *args):
    """tracemalloc's peak over the call fn(*args), less what it traced
    when the call began; the call's result is dropped."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# README

def readme_keys():
    """The backticked keys in the first column of README's key table."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    table = text.split("| key |", 1)[1].split("\n\n", 1)[0]
    return {key for row in table.splitlines()[2:]
            for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
