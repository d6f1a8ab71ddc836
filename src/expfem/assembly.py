"""Turning continuous data into tensors: initial states, loads, lifting.

The modal ODE reads d/dt(coeffs) + rates * coeffs = scale * fwd(F) with
F the load tensor.  Evaluating the reaction nodewise (interpolating
r(t, u_h) instead of integrating it against the basis) makes the scaled
load collapse to fwd(r_nodal) exactly.  Of the reaction
linear * u + source + f, `transformed_load` transforms source + f: the
linear part transforms to linear * coeffs, which the steps add in modal
space.  Nonhomogeneous Dirichlet data enters as an extra load on the
boundary-adjacent layers: minus the mass coupling times dg/dt minus D
times the stiffness coupling times g, i.e. the usual elimination of the
known boundary column.  The boundary data splits by axis, each boundary
node going to the first axis that has it on a face; each axis' share
loads only the owned node layer next to each of its two faces, and such
a layer transforms as one basis column times a (d-1)-D transform of the
layer.  So `boundary_correction` builds the load from one evaluation of
the trace per axis and adds it to the modal load directly, without a
full-grid tensor or a full-size transform.  The tests check all of this
against a dense kron-product oracle of the same semi-discretization.
"""

import functools
import math

import numpy as np

from .mesh import (Dirichlet, _boundary_faces, dof_shape, element_pair,
                   mass_stencil, node_grids)
from .operator import build_operator
from .problems import COMPLEX_STEP
from .transforms import _CHUNK, forward_transform, sine_transform


class LoadContext:
    """Precomputed grids for evaluating loads on one problem/mesh pair.

    Lifted (nonhomogeneous Dirichlet) meshes also keep the coordinates of
    each axis' share of the boundary and, per axis, the boundary column
    (the transform of a unit vector at the first owned node) times that
    axis' reciprocal mass eigenvalues, and the outer product of the other
    axes' reciprocal mass eigenvalues.
    """

    def __init__(self, problem, mesh):
        self.problem = problem
        self.mesh = mesh
        self.op = build_operator(mesh, problem.diffusion)
        self.grids = node_grids(mesh)
        self.shape = tuple(dof_shape(mesh))
        self.lifted = isinstance(mesh.bc, Dirichlet)
        if self.lifted:
            self.faces = _boundary_faces(mesh)
            inv_mass = [w.ravel() for w in self.op.inv_mass]
            # the first sine basis vector is sqrt(2/N) sin(k pi / N), k < N
            self.columns = [
                w * math.sqrt(2.0 / p.n)
                * np.sin(np.arange(1, p.n) * (np.pi / p.n))
                for w, p in zip(inv_mass, mesh.partitions)]
            self.face_scales = [
                functools.reduce(np.multiply.outer,
                                 inv_mass[:a] + inv_mass[a + 1:], np.ones(()))
                for a in range(mesh.dim)]


def _nodal_reaction(ctx, t, U):
    """source(t) + f(t, U) at the owned nodes; zero when neither is set."""
    problem = ctx.problem
    terms = []
    if problem.source is not None:
        terms.append(problem.source(t, ctx.grids))
    if problem.f is not None:
        terms.append(problem.f(t, U, ctx.grids))
    vals = functools.reduce(np.add, terms) if terms else 0.0
    return np.broadcast_to(np.asarray(vals, dtype=float), ctx.shape)


def transformed_load(ctx, t, U=None):
    """Scaled modal load at time t: the transform of source + f at nodal
    state U, plus the Dirichlet lifting.  The linear part of the reaction
    is left to the steps.  U may be None when the problem's f is None."""
    G = forward_transform(_nodal_reaction(ctx, t, U), ctx.mesh)
    if ctx.lifted:
        boundary_correction(ctx, t, G)
    return G


def _trace_faces(ctx, t):
    """g and dg/dt on each axis' share of the boundary: the real part and
    the complex step of one evaluation of the trace at time t + i h per
    axis."""
    g, gdot = [], []
    for face, shape in ctx.faces:
        vals = np.broadcast_to(
            ctx.mesh.bc.trace(t + 1j * COMPLEX_STEP, face), shape)
        g.append(vals.real)
        gdot.append(vals.imag / COMPLEX_STEP)
    return g, gdot


def _layer_corrections(ctx, g, gdot, a):
    """Boundary elimination load of axis a's share of the boundary data
    on the owned layers next to its two faces, over the owned nodes of
    the other axes: shape (2, owned nodes of the other axes).

    With the 1D pair of `mesh.element_pair`, the full-grid rows of the
    first owned layer along a reach the face alone, through the
    off-diagonal entries m_a of the mass and k_a of the stiffness:
    m = m_a g and q = m_a dg/dt + D k_a g.  On the owned rows of another
    axis c the stiffness is alpha_c I + beta_c M_c, with beta_c = k_c / m_c
    and alpha_c = (stiffness diagonal) - beta_c (mass diagonal).  So with
    M the product of the other axes' full-grid masses the load is
    -M(q + kappa m) - D sum_c alpha_c M_(without c)(m),
    kappa = D sum_c beta_c.  The pair spans the full grid of the other
    axes and is zero on the faces of earlier axes, which hold no share.
    The other axes' mass sweeps apply one axis at a time to the pair
    (M m, partial load), with their scales m_c taken out in front.
    """
    parts = ctx.mesh.partitions
    other = [c for c in range(ctx.mesh.dim) if c != a]
    diffusion = ctx.problem.diffusion
    scales, alphas, kappa = [], [], 0.0
    for c in other:
        mass, stiff = element_pair(parts[c].h)
        scales.append(mass.factor * mass.off)
        beta = stiff.factor * stiff.off / scales[-1]
        alphas.append(stiff.factor * stiff.diag
                      - beta * mass.factor * mass.diag)
        kappa += diffusion * beta
    front = -math.prod(scales)
    m_a, k_a = element_pair(parts[a].h)
    mass = front * m_a.factor * m_a.off
    stiff = front * diffusion * k_a.factor * k_a.off
    pair = np.zeros([2] + [2 if c == a else p.n + 1
                           for c, p in enumerate(parts)])
    share = pair[(slice(None),) + (slice(1, -1),) * a]
    share[0] = mass * g[a]
    share[1] = mass * gdot[a] + (stiff + kappa * mass) * g[a]
    for c, scale, alpha in zip(other, scales, alphas):
        swept = mass_stencil(pair[1:] if c == other[-1] else pair, c + 1)
        swept[-1] += (diffusion * alpha / scale) * pair[0]
        pair = swept
    owned = [slice(None) if c == a else slice(1, -1)
             for c in range(ctx.mesh.dim)]
    return np.moveaxis(pair[-1][tuple(owned)], a, 0)


def boundary_correction(ctx, t, G):
    """Add the scaled modal load from eliminating known Dirichlet boundary
    values to the modal load G, in place.

    The boundary data splits by axis as a telescoping sum,
    I - prod_b P_b = sum_a (prod_(b<a) P_b) E_a, with P_b keeping the
    nodes interior along b and E_a the two ends along a, so axis a lifts
    the nodes of its faces that lie on no face of an earlier axis.  Each
    share loads only the owned layers next to its two faces.  The layer
    at owned index 0 along a transforms as the boundary column of a
    times the (d-1)-D transform of the layer; the layer at the far end
    takes the same column times (-1)^k, which on an axis with one owned
    layer is the same column.  The reciprocal mass eigenvalues fold into
    the column and the face.
    """
    g, gdot = _trace_faces(ctx, t)
    for a in range(ctx.mesh.dim):
        layers = _layer_corrections(ctx, g, gdot, a)
        faces = ctx.face_scales[a] * sine_transform(
            layers, axes=range(1, ctx.mesh.dim))
        _add_column_faces(G, a, ctx.columns[a], *faces)


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


def initial_state(problem, mesh):
    """Nodal tensor of the initial datum u0 at the owned nodes, read-only
    whether or not it shares memory with the array u0 returned."""
    if problem.u0 is None:
        raise ValueError(f"problem {problem.name} defines no initial datum")
    vals = problem.u0(node_grids(mesh))
    U0 = np.ascontiguousarray(
        np.broadcast_to(np.asarray(vals, dtype=float), tuple(dof_shape(mesh))))
    U0.flags.writeable = False
    return U0
