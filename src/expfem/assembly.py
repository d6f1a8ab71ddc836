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
per axis (`mesh.trace_on_faces`) and adds it to the modal load as one
mode product per axis (`quadrature.apply_matrix`) of the basis columns
with the transformed faces, without a full-grid tensor or a full-size
transform; what stays the same from call to call (scalars and basis
columns) is built once per run in `LoadContext`, the basis columns by
`sine_transform` of unit vectors, so this module restates no basis, and
each call zeroes its own layer data.
The tests check all of this against a dense kron-product oracle of the
same semi-discretization.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .mesh import (dof_shape, element_pair, interior_mass_stencil, node_grids,
                   trace_on_faces)
from .problems import COMPLEX_STEP, check_admissible
from .quadrature import apply_matrix
from .transforms import (axis_spectrum, forward_transform, inverse_transform,
                         modal_shape, sine_transform)


class LoadContext:
    """What the loads of one problem/mesh pair read: the node grids and
    the owned node shape.

    Lifted (nonhomogeneous Dirichlet) meshes also keep, in `lifts`, the
    per-run plan of each axis' lifting (`_AxisLift`), built from each
    axis' 1D reciprocal mass eigenvalues; no modal rate tensor is kept,
    and the lifting reads its boundary faces from the mesh
    (`mesh.boundary_faces`).  The transformed source profiles,
    `source_modes`, are computed at the first load, not here.  A load
    takes modal coefficients and forms the nodal state its reaction
    reads, which it frees before its transform (`transformed_load`).
    """

    def __init__(self, problem, mesh):
        self.problem = problem
        self.mesh = mesh
        self.grids = node_grids(mesh)
        self.shape = tuple(dof_shape(mesh))
        if mesh.bc.trace is not None:
            inv_mass = [1.0 / axis_spectrum(p, mesh.bc)[0]
                        for p in mesh.partitions]
            self.lifts = [_axis_lift(mesh, problem.diffusion, inv_mass, a)
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

    `mass` and `layer` scale the face rows of `_layer_corrections`, and
    the `sweeps` (pair rows swept, axis c, coefficient D alpha_c / m_c
    per other axis c) give its other-axis sweeps.  `face_scale` is the
    outer product of the other axes' reciprocal mass eigenvalues, and
    `columns` the (modes, 2) boundary columns of axis a (the transforms
    of the unit vectors at its first and last owned node, times its
    reciprocal mass eigenvalues).
    """

    axis: int
    mass: float
    layer: float
    sweeps: tuple
    face_scale: np.ndarray
    columns: np.ndarray


def _axis_lift(mesh, diffusion, inv_mass, a):
    """Build axis a's `_AxisLift` from each axis' 1D reciprocal mass
    eigenvalues; the scalars are those of `_layer_corrections`."""
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
    lift_mass = front * m_a.factor * m_a.off
    ends = np.zeros((2, dof_shape(mesh)[a]))
    ends[0, 0] = ends[1, -1] = 1.0
    return _AxisLift(
        axis=a,
        mass=lift_mass,
        layer=front * diffusion * k_a.factor * k_a.off + kappa * lift_mass,
        sweeps=tuple(sweeps),
        face_scale=functools.reduce(
            np.multiply.outer, inv_mass[:a] + inv_mass[a + 1:], np.ones(())),
        columns=(sine_transform(ends, axes=(1,)) * inv_mass[a]).T)


def transformed_load(ctx, t, coeffs):
    """Scaled modal load at time t of the state with modal coefficients
    coeffs: the transform of f at that state's nodal values, plus each
    source term's amplitude at t times its transformed profile, plus the
    Dirichlet lifting.  The linear part of the reaction is left to the
    steps.  coeffs may be None when the problem's f is None; a load with
    no f reads no state and makes no transform, and one with neither f
    nor a source is zero but for the lifting.

    With an f, the load inverse-transforms coeffs and drops its
    reference to them, then frees the nodal state once the reaction has
    read it, so it is gone before the load's forward transform; a
    caller that passes coeffs as a call temporary, not a named local,
    has them freed before the reaction runs.

    This is the one place a reaction f is evaluated, and the nodal state
    is checked against the problem's `admissible_range` before f reads
    it (see `problems.check_admissible`), so a state outside it raises
    `NonlinearityDomainError` before any reaction sees it."""
    problem = ctx.problem
    loads = [amplitude(t) * modes for (amplitude, _), modes
             in zip(problem.source, ctx.source_modes)]
    if problem.f is not None:
        U = inverse_transform(coeffs, ctx.mesh)
        del coeffs
        check_admissible(U, problem.admissible_range)
        reaction = problem.f(t, U, ctx.grids)
        del U
        loads.append(forward_transform(_owned(reaction, ctx.shape), ctx.mesh))
        del reaction
    if loads:
        G = functools.reduce(np.add, loads)
    else:
        G = np.zeros(modal_shape(ctx.mesh),
                     complex if ctx.mesh.bc.fourier else float)
    if ctx.mesh.bc.trace is not None:
        boundary_correction(ctx, t, G)
    return G


def _trace_faces(ctx, t):
    """g and dg/dt on each axis' share of the boundary: the real part and
    the complex step of one evaluation of the trace at time t + i h per
    axis.  The step divides the values the trace evaluated (each axis
    they were broadcast along cut back to length 1) and is broadcast to
    the face after, so g and dg/dt keep the trace's zero strides."""
    g, gdot = [], []
    for v in trace_on_faces(ctx.mesh, t + 1j * COMPLEX_STEP):
        core = v[tuple(slice(None) if s else slice(1) for s in v.strides)]
        g.append(v.real)
        gdot.append(np.broadcast_to(core.imag / COMPLEX_STEP, v.shape))
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
    (`lift.mass` carries -prod_c m_c m_a and `lift.layer`
    -prod_c m_c (D k_a + kappa m_a)); each keeps the owned rows of its
    axis alone.  The share is written into a slice of a pair zeroed for
    this call; the sweeps return new arrays.
    """
    a = lift.axis
    pair = np.zeros((2,) + tuple(s + 2 for s in g.shape[:a]) + g.shape[a:])
    share = pair[(slice(None),) + (slice(1, -1),) * a]
    np.multiply(g, lift.mass, out=share[0])
    # the mass term m_a dg/dt
    np.multiply(gdot, lift.mass, out=share[1])
    share[1] += lift.layer * g
    for rows, c, coef in lift.sweeps:
        swept = interior_mass_stencil(pair[rows], c + 1)
        swept[-1] += coef * pair[0][(slice(None),) * c + (slice(1, -1),)]
        pair = swept
    return np.moveaxis(pair[-1], a, 0)


def boundary_correction(ctx, t, G):
    """Add the scaled modal load from eliminating known Dirichlet boundary
    values to the modal load G, in place.

    The boundary data splits by axis as a telescoping sum,
    I - prod_b P_b = sum_a (prod_(b<a) P_b) E_a, with P_b keeping the
    nodes interior along b and E_a the two ends along a, so axis a lifts
    the nodes of its faces that lie on no face of an earlier axis.  Each
    share loads only the owned layers next to its two faces.  The layer
    at owned index 0 along a transforms as the boundary column of a
    times the (d-1)-D transform of the layer, and the layer at the far
    end as the column of the last owned node; on an axis with one owned
    layer the two columns are the same.  The reciprocal mass eigenvalues
    fold into the columns and, in place, the faces.  A call costs one
    trace evaluation, face-sized sweeps and transforms per axis, and per
    axis one G-sized product of the (modes, 2) columns with the two faces
    (`quadrature.apply_matrix`), which is then added into G; G may be any
    writable strided array of the modal shape.
    """
    g, gdot = _trace_faces(ctx, t)
    for lift, g_a, gdot_a in zip(ctx.lifts, g, gdot):
        faces = sine_transform(_layer_corrections(lift, g_a, gdot_a),
                               axes=range(1, ctx.mesh.dim))
        faces *= lift.face_scale
        G += apply_matrix(lift.columns, np.moveaxis(faces, 0, lift.axis),
                          lift.axis)


def initial_state(problem, mesh):
    """Nodal tensor of the initial datum u0 at the owned nodes: a
    read-only broadcast view of the values u0 returned, with stride 0
    along each axis they do not read (length 1), so that
    `forward_transform` leaves those axes out of its transform."""
    if problem.u0 is None:
        raise ValueError(f"problem {problem.name} defines no initial datum")
    return _owned(problem.u0(node_grids(mesh)), tuple(dof_shape(mesh)))
