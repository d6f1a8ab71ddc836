"""Turning continuous data into tensors: initial states, loads, lifting.

The modal ODE reads d/dt(coeffs) + rates * coeffs = scale * fwd(F)
with F the load tensor.  Evaluating the reaction nodewise
(interpolating r(t, u_h) instead of integrating it against the basis)
makes the scaled load collapse to fwd(r_nodal) exactly.  Of the
reaction linear * u + sum_j amplitude_j(t) profile_j + f,
`transformed_load` transforms f alone: the linear part transforms to
linear * coeffs, which the steps add in modal space, and each source
term to amplitude_j(t) times the transformed profile, which
`LoadContext` computes once per run.  Nonhomogeneous Dirichlet data
enters as an extra load on the boundary-adjacent layers: minus the
mass coupling times dg/dt minus D times the stiffness coupling times
g, i.e. the usual elimination of the known boundary column.  The
boundary data splits by axis, each boundary node going to the first
axis that has it on a face; each axis' share loads only the owned node
layer next to each of its two faces, and such a layer transforms as
one basis column times a (d-1)-D transform of the layer.  So
`boundary_correction` builds the load from one evaluation of the trace
per axis and adds it to the modal load directly, without a full-grid
tensor or a full-size transform; what stays the same from call to call
(scalars, basis columns, a zeroed buffer) is built once per run in
`LoadContext`.  The tests check all of this against a dense
kron-product oracle of the same semi-discretization.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .mesh import (_boundary_faces, axis_layout, dof_shape, element_pair,
                   interior_mass_stencil, node_grids)
from .operator import build_operator
from .problems import COMPLEX_STEP, check_admissible
from .transforms import _CHUNK, forward_transform, modal_shape, sine_transform


class LoadContext:
    """Precomputed grids for evaluating loads on one problem/mesh pair.

    Lifted (nonhomogeneous Dirichlet) meshes also keep the coordinates of
    each axis' share of the boundary and, in `lifts`, the per-run plan of
    each axis' lifting (`_AxisLift`).  The transformed source profiles,
    `source_modes`, are computed at the first load, not here.
    """

    def __init__(self, problem, mesh):
        self.problem = problem
        self.mesh = mesh
        self.op = build_operator(mesh, problem.diffusion)
        self.grids = node_grids(mesh)
        self.shape = tuple(dof_shape(mesh))
        self.lifted = mesh.bc.trace is not None
        if self.lifted:
            self.faces = _boundary_faces(mesh)
            self.lifts = [_axis_lift(mesh, problem.diffusion, self.op, a)
                          for a in range(mesh.dim)]

    @functools.cached_property
    def source_modes(self):
        """The transform of each source profile, in the order of the
        problem's terms; read-only, as every load of the run reads them."""
        modes = []
        for _, profile in self.problem.source:
            c = forward_transform(_owned(profile(self.grids), self.shape),
                                  self.mesh)
            c.flags.writeable = False
            modes.append(c)
        return tuple(modes)


def _owned(vals, shape):
    """vals, anything that broadcasts, as a read-only float view at the
    owned node shape."""
    return np.broadcast_to(np.asarray(vals, dtype=float), shape)


class _AxisLift(NamedTuple):
    """The constants of axis a's lifting, fixed for a run.

    `mass` and `stiff` scale the face rows of `_layer_corrections`, and
    `kappa` and the `sweeps` (pair rows swept, axis c, coefficient
    D alpha_c / m_c per other axis c) its other-axis sweeps.  `pair` is
    zero but for `share`, which each call overwrites.  `face_scale` is
    the outer product of the other axes' reciprocal mass eigenvalues,
    `columns` the F-ordered (modes, 2) pair of the boundary column (the
    transform of a unit vector at the first owned node, times a's
    reciprocal mass eigenvalues) and its (-1)^k twin, and `view` G's
    shape as (before a, modes, after a).
    """

    axis: int
    mass: float
    stiff: float
    kappa: float
    sweeps: tuple
    pair: np.ndarray
    share: np.ndarray
    face_scale: np.ndarray
    columns: np.ndarray
    view: tuple


def _axis_lift(mesh, diffusion, op, a):
    """Build axis a's `_AxisLift`; the scalars are those of
    `_layer_corrections`."""
    parts = mesh.partitions
    other = [c for c in range(mesh.dim) if c != a]
    scales, sweeps, kappa = [], [], 0.0
    for c in other:
        mass, stiff = element_pair(parts[c].h)
        scales.append(mass.factor * mass.off)
        beta = stiff.factor * stiff.off / scales[-1]
        alpha = stiff.factor * stiff.diag - beta * mass.factor * mass.diag
        # the last sweep keeps the partial load alone
        rows = slice(1, None) if c == other[-1] else slice(None)
        sweeps.append((rows, c, diffusion * alpha / scales[-1]))
        kappa += diffusion * beta
    front = -math.prod(scales)
    m_a, k_a = element_pair(parts[a].h)
    pair = np.zeros([2] + [2 if c == a else p.n + 1
                           for c, p in enumerate(parts)])
    inv_mass = [w.ravel() for w in op.inv_mass]
    N = parts[a].n
    # the first sine basis vector, sqrt(2/N) sin(k pi / N) at the owned k
    nodes = axis_layout(parts[a], mesh.bc)[0]
    column = inv_mass[a] * math.sqrt(2.0 / N) * np.sin(
        np.arange(nodes.start, nodes.stop) * (np.pi / N))
    twin = column.copy()
    twin[1::2] *= -1.0
    shape = dof_shape(mesh)
    return _AxisLift(
        axis=a,
        mass=front * m_a.factor * m_a.off,
        stiff=front * diffusion * k_a.factor * k_a.off,
        kappa=kappa,
        sweeps=tuple(sweeps),
        pair=pair,
        share=pair[(slice(None),) + (slice(1, -1),) * a],
        face_scale=functools.reduce(
            np.multiply.outer, inv_mass[:a] + inv_mass[a + 1:], np.ones(())),
        columns=np.array([column, twin]).T,
        view=(math.prod(shape[:a]), shape[a], math.prod(shape[a + 1:])))


def transformed_load(ctx, t, U=None):
    """Scaled modal load at time t: the transform of f at nodal state U,
    plus each source term's amplitude at t times its transformed profile,
    plus the Dirichlet lifting.  The linear part of the reaction is left
    to the steps.  U may be None when the problem's f is None; a load
    with no f makes no transform, and one with neither f nor a source is
    zero but for the lifting.

    This is the one place a reaction f is evaluated, and U is checked
    against the problem's `admissible_range` before f reads it (see
    `problems.check_admissible`), so a state outside it raises
    `NonlinearityDomainError` before any reaction sees it."""
    problem = ctx.problem
    loads = [amplitude(t) * modes for (amplitude, _), modes
             in zip(problem.source, ctx.source_modes)]
    if problem.f is not None:
        check_admissible(U, problem.admissible_range)
        loads.append(forward_transform(
            _owned(problem.f(t, U, ctx.grids), ctx.shape), ctx.mesh))
    if loads:
        G = functools.reduce(np.add, loads)
    else:
        G = np.zeros(modal_shape(ctx.mesh),
                     complex if ctx.mesh.bc.fourier else float)
    if ctx.lifted:
        boundary_correction(ctx, t, G)
    return G


def _trace_faces(ctx, t):
    """g and dg/dt on each axis' share of the boundary: the real part and
    the complex step of one evaluation of the trace at time t + i h per
    axis."""
    g, gdot = [], []
    for face, shape in ctx.faces:
        # broadcast last, so a trace constant along some face axes is
        # divided over its own values only
        vals = np.asarray(ctx.mesh.bc.trace(t + 1j * COMPLEX_STEP, face))
        g.append(np.broadcast_to(vals.real, shape))
        gdot.append(np.broadcast_to(vals.imag / COMPLEX_STEP, shape))
    return g, gdot


def _layer_corrections(lift, g, gdot):
    """Boundary elimination load of axis a's share g of the boundary data
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
    (M m, partial load), with their scales m_c taken out in front
    (`lift.mass` and `lift.stiff` carry -prod_c m_c); each keeps the
    owned rows of its axis alone.  The share is written in place into
    the plan's pair; the sweeps return new arrays.
    """
    share = lift.share
    np.multiply(g, lift.mass, out=share[0])
    # the mass term m_a dg/dt
    np.multiply(gdot, lift.mass, out=share[1])
    share[1] += (lift.stiff + lift.kappa * lift.mass) * g
    pair = lift.pair
    for rows, c, coef in lift.sweeps:
        swept = interior_mass_stencil(pair[rows], c + 1)
        swept[-1] += coef * pair[0][(slice(None),) * c + (slice(1, -1),)]
        pair = swept
    return np.moveaxis(pair[-1], lift.axis, 0)


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
    the column and, in place, the faces.  A call costs one trace
    evaluation, face-sized sweeps and transforms, and one in-place
    update of G per axis; G must be C-contiguous.
    """
    if not G.flags.c_contiguous:
        raise ValueError("the modal load G must be C-contiguous")
    g, gdot = _trace_faces(ctx, t)
    for lift, g_a, gdot_a in zip(ctx.lifts, g, gdot):
        # in 1D the transform over no axes hands back the plan's pair,
        # whose share the next call overwrites
        faces = sine_transform(_layer_corrections(lift, g_a, gdot_a),
                               axes=range(1, ctx.mesh.dim))
        faces *= lift.face_scale
        _add_column_faces(G, lift, faces)


def _add_column_faces(G, lift, faces):
    """G += columns[:, 0] (x) faces[0] + columns[:, 1] (x) faces[1] along
    the lift's axis, in place.

    G is viewed as (before a, modes, after a).  On the first or the last
    axis it is one matrix, C-ordered (modes, after a) or (before a,
    modes), which read F-ordered is its transpose; one `dgemm` with
    beta = 1 adds the rank-two product into that memory.  On a middle
    axis the product is added chunk by chunk, each a matrix product of
    about `_CHUNK` entries, so no state-sized temporary is built.
    """
    pre, n, post = lift.view
    if pre == 1 or post == 1:
        # imported here: scipy.linalg costs about 6 MiB of resident
        # memory, which runs without a lifting do not pay
        from scipy.linalg.blas import dgemm
        rows = faces.reshape(2, pre * post).T
        x, y = (lift.columns, rows) if post == 1 else (rows, lift.columns)
        dgemm(1.0, x, y, beta=1.0, c=G.reshape(len(y), len(x)).T,
              trans_b=1, overwrite_c=1)
        return
    modes = G.reshape(pre, n, post)
    faces = faces.reshape(2, pre, post).swapaxes(0, 1)
    span = max(1, _CHUNK // (n * post))
    step = max(1, _CHUNK // post)
    for p0 in range(0, pre, span):
        for k0 in range(0, n, step):
            modes[p0:p0 + span, k0:k0 + step] += (
                lift.columns[k0:k0 + step] @ faces[p0:p0 + span])


def initial_state(problem, mesh):
    """Nodal tensor of the initial datum u0 at the owned nodes, read-only
    whether or not it shares memory with the array u0 returned."""
    if problem.u0 is None:
        raise ValueError(f"problem {problem.name} defines no initial datum")
    U0 = np.ascontiguousarray(
        _owned(problem.u0(node_grids(mesh)), tuple(dof_shape(mesh))))
    U0.flags.writeable = False
    return U0
