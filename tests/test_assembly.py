import numpy as np
import pytest

from expfem import assembly
from expfem.analysis import error_norms
from expfem.assembly import (LoadContext, boundary_correction, initial_state,
                             transformed_load)
from expfem.mesh import (Dirichlet, Periodic, dof_shape, extend_nodal,
                         node_grids)
from expfem.problems import (NonlinearityDomainError, Problem,
                             builtin_allen_cahn_wave, builtin_flory_huggins,
                             builtin_linear_rd, mesh_for)
from expfem.transforms import (DENSE_DST_POINTS, forward_transform,
                               inverse_transform, modal_shape)

from helpers import (build_axis_matrices, dense_boundary_load,
                     dense_semidiscrete_rhs, full_grids, inv_mass_product,
                     make_mesh, mode_multiply, rel_err, traced_peak,
                     wave_exact_dt)


def _homogeneous_problem(f, dim=1, diffusion=1.0, u0=None):
    return Problem(
        name="inline",
        diffusion=diffusion,
        f=f,
        domain=((0.0, 1.0),) * dim,
        u0=u0 or (lambda xs: 0.0 * xs[0]),
    )


def test_initial_state_reproduces_multilinear_data():
    prob = _homogeneous_problem(
        lambda t, u, xs: 0.0 * u, dim=2,
        u0=lambda xs: 1.0 + 2.0 * xs[0] - xs[1] + 0.5 * xs[0] * xs[1])
    mesh = mesh_for(prob, (4, 4))
    U = initial_state(prob, mesh)
    grids = node_grids(mesh)
    expect = 1.0 + 2.0 * grids[0] - grids[1] + 0.5 * grids[0] * grids[1]
    assert rel_err(U, np.broadcast_to(expect, U.shape)) < 1e-14


def test_initial_state_example_node_value():
    prob = builtin_linear_rd()
    mesh = mesh_for(prob, (4, 2))  # nodes at x = 1.0, y = 0.5
    U = initial_state(prob, mesh)
    assert abs(U[0, 0] - (-1.0)) < 1e-14  # (sin(pi)-1)*sin(pi/2)


def _piecewise_multilinear(nodal_full, bounds, subs):
    """Callable evaluating the multilinear interpolant of full-grid values."""
    axes = [np.linspace(a, b, n + 1) for (a, b), n in zip(bounds, subs)]

    def u0(xs):
        grids = np.broadcast_arrays(*xs)
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        from scipy.interpolate import RegularGridInterpolator
        interp = RegularGridInterpolator(axes, nodal_full, method="linear")
        return interp(pts).reshape(grids[0].shape)

    return u0


def test_interpolation_fixes_grid_functions():
    # a member of the trial space (zero trace, piecewise bilinear)
    rng = np.random.default_rng(10)
    subs = (6, 4)
    full = np.zeros((7, 5))
    full[1:-1, 1:-1] = rng.standard_normal((5, 3))
    prob = _homogeneous_problem(
        lambda t, u, xs: 0.0 * u, dim=2,
        u0=_piecewise_multilinear(full, ((0, 1), (0, 1)), subs))
    mesh = mesh_for(prob, subs)
    interp = initial_state(prob, mesh)
    assert rel_err(interp, full[1:-1, 1:-1]) < 1e-12


@pytest.mark.parametrize("subs", [(8,), (6, 4)])
def test_interpolation_fixes_grid_functions_with_trace(subs):
    # a multilinear function is in the trial space with its own trace: its
    # interpolant, closed by the trace, is the function itself
    def u(xs):
        val = 1.0 + xs[0]
        if len(xs) > 1:
            val = val + 2.0 * xs[1] - 3.0 * xs[0] * xs[1]
        return val

    dim = len(subs)
    prob = Problem(
        name="inline", diffusion=1.0, f=lambda t, u, xs: 0.0 * u,
        domain=((0.0, 1.0), (-0.5, 1.5))[:dim], u0=u,
        bc=Dirichlet(lambda t, xs: u(xs)))
    mesh = mesh_for(prob, subs)
    full = extend_nodal(initial_state(prob, mesh), mesh, 0.0)
    expect = np.broadcast_to(u(full_grids(mesh)), full.shape)
    assert np.max(np.abs(full - expect)) < 1e-14
    l2, h1 = error_norms(initial_state(prob, mesh), mesh,
                         lambda t, xs: u(xs), 0.0)
    assert l2 < 1e-13 and h1 < 1e-12


def test_interpolation_periodic_wraps():
    prob = Problem(
        name="inline", diffusion=1.0, f=lambda t, u, xs: 0.0 * u,
        domain=((0.0, 1.0),), bc=Periodic(),
        u0=lambda xs: np.cos(2 * np.pi * xs[0]))
    mesh = mesh_for(prob, (16,))
    U = initial_state(prob, mesh)
    assert U.shape == (16,)  # node 16 is node 0
    full = extend_nodal(U, mesh)
    assert full[0] == full[-1] == 1.0
    assert rel_err(U[1:], U[:0:-1]) < 1e-12  # even symmetry preserved


def _datum_all_axes(xs):
    out = np.sin(1.3 * xs[0] + 0.2)
    for a, x in enumerate(xs[1:]):
        out = out * np.cos((a + 0.7) * x)
    return out


INITIAL_DATA = {
    "all_axes": _datum_all_axes,
    "axis_0": lambda xs: np.sin(1.3 * xs[0] + 0.2),
    "last_axis": lambda xs: np.cos(0.7 * xs[-1]) - 0.3,
    "constant": lambda xs: 0.7,
}
DATUM_DOMAIN = ((0.0, 1.0), (-0.5, 1.5), (0.2, 0.9))
DATUM_SUBDIVISIONS = {1: (7,), 2: (5, 4), 3: (5, 3, 4)}


def _owned_node_values(datum, mesh):
    """The datum at each owned node, evaluated one point at a time."""
    offset = 0 if isinstance(mesh.bc, Periodic) else 1
    out = np.empty(dof_shape(mesh))
    for idx in np.ndindex(*out.shape):
        out[idx] = datum(tuple(p.a + (i + offset) * p.h
                               for i, p in zip(idx, mesh.partitions)))
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("bc", ["periodic", "homogeneous", "dirichlet"])
@pytest.mark.parametrize("datum", list(INITIAL_DATA))
def test_initial_state_matches_pointwise_oracle(dim, bc, datum):
    # a datum that varies along some axes only, or along none, is broadcast
    # to every owned node; the result is read-only either way, whether it
    # is a copy or a view of the datum's own array
    u0 = INITIAL_DATA[datum]
    kinds = {"periodic": Periodic(), "homogeneous": Dirichlet(),
             "dirichlet": Dirichlet(lambda t, xs: u0(xs))}
    prob = Problem(
        name="inline", diffusion=1.0, f=lambda t, u, xs: 0.0 * u,
        domain=DATUM_DOMAIN[:dim], bc=kinds[bc], u0=u0)
    mesh = mesh_for(prob, DATUM_SUBDIVISIONS[dim])
    U = initial_state(prob, mesh)
    want = _owned_node_values(u0, mesh)
    assert U.shape == want.shape and U.dtype == np.float64
    assert U.flags.c_contiguous and not U.flags.writeable
    assert np.max(np.abs(U - want)) < 1e-14


def test_zero_reaction_zero_load():
    prob = _homogeneous_problem(lambda t, u, xs: 0.0 * u, dim=2)
    mesh = mesh_for(prob, (4, 4))
    ctx = LoadContext(prob, mesh)
    G = transformed_load(ctx, 0.0, np.zeros(dof_shape(mesh)))
    assert np.array_equal(G, np.zeros_like(G))


def test_collapsed_load_equals_mass_route():
    # scaled transform of (mass x f_nodal) collapses to transform of f_nodal
    prob = _homogeneous_problem(lambda t, u, xs: np.ones_like(u))
    mesh = mesh_for(prob, (8,))
    ctx = LoadContext(prob, mesh)
    ones = np.ones(dof_shape(mesh))
    G = transformed_load(ctx, 0.0, ones)
    A, _ = build_axis_matrices(mesh.partitions[0], mesh.bc)
    explicit = inv_mass_product(ctx.op) * forward_transform(
        mode_multiply(A, ones, 0), mesh)
    assert rel_err(G, explicit) < 1e-13
    assert rel_err(G, forward_transform(ones, mesh)) < 1e-13


def test_collapse_identity_random_fields():
    from expfem.operator import build_operator
    rng = np.random.default_rng(8)
    for bc in (Dirichlet(), Periodic()):
        mesh = make_mesh([(0, 1), (0, 2)], [6, 8], bc)
        op = build_operator(mesh, 1.0)
        f_nodal = rng.standard_normal(dof_shape(mesh))
        massed = f_nodal
        for a, p in enumerate(mesh.partitions):
            A, _ = build_axis_matrices(p, bc)
            massed = mode_multiply(A, massed, a)
        lhs = inv_mass_product(op) * forward_transform(massed, mesh)
        assert rel_err(lhs, forward_transform(f_nodal, mesh)) < 1e-12


def test_boundary_correction_constant_left_trace():
    # left boundary held at 1, no time dependence, diffusion 1: the
    # nodal load is [4, 0, 0], added into G as its scaled transform
    prob = Problem(
        name="inline", diffusion=1.0, f=lambda t, u, xs: 0.0 * u,
        domain=((0.0, 1.0),),
        u0=lambda xs: 0.0 * xs[0],
        bc=Dirichlet(lambda t, xs: np.where(np.asarray(xs[0]) < 0.5, 1.0, 0.0)))
    mesh = mesh_for(prob, (4,))
    ctx = LoadContext(prob, mesh)
    G = np.zeros(modal_shape(mesh))
    boundary_correction(ctx, 0.0, G)
    scale = inv_mass_product(ctx.op)
    expected = scale * forward_transform([4.0, 0.0, 0.0], mesh)
    assert rel_err(G, expected) < 1e-14


def _traced_problem(domain, moving=True):
    """A smooth trace varying along every axis, and in time when moving,
    with its analytic time derivative."""
    def g(t, xs):
        x = xs[0]
        val = (1.0 + t) * (1.0 + x) + np.sin(2.0 * x - t)
        for k, y in enumerate(xs[1:], start=2):
            val = val + np.cos(k * y + t) * x + (1.0 + t * t) * y * y
        return val

    def g_t(t, xs):
        x = xs[0]
        val = (1.0 + x) - np.cos(2.0 * x - t)
        for k, y in enumerate(xs[1:], start=2):
            val = val - np.sin(k * y + t) * x + 2.0 * t * y * y
        return val

    if not moving:
        # ignores t, so a complex time gives a real trace and zero dg/dt
        return Problem(
            name="inline", diffusion=0.7, f=lambda t, u, xs: 0.0 * u,
            domain=domain, u0=lambda xs: 0.0 * xs[0],
            bc=Dirichlet(lambda t, xs: g(0.3, xs))), lambda t, xs: 0.0 * xs[0]
    return Problem(
        name="inline", diffusion=0.7, f=lambda t, u, xs: 0.0 * u,
        domain=domain, u0=lambda xs: 0.0 * xs[0], bc=Dirichlet(g)), g_t


# cells of an axis whose owned nodes outnumber DENSE_DST_POINTS
LONG = DENSE_DST_POINTS + 6


# every axis the first, a middle and the last one (the first and last add
# in one in-place BLAS update, a middle one in chunks), with one owned
# layer (n = 2) and with more owned nodes than DENSE_DST_POINTS (its
# faces' transforms take pocketfft)
@pytest.mark.parametrize("domain, subs", [
    (((0.0, 1.0),), (8,)),
    (((0.0, 1.0),), (2,)),
    (((0.0, 1.0),), (LONG,)),
    (((0.0, 1.0), (-0.5, 1.5)), (6, 4)),
    (((0.0, 1.0), (0.0, 0.3)), (2, 5)),
    (((0.0, 1.0), (0.0, 0.3)), (7, 2)),
    (((0.0, 1.0), (0.0, 0.3)), (LONG, 3)),
    (((0.0, 1.0), (0.0, 0.3)), (3, LONG)),
    (((0.0, 1.0), (-0.5, 1.5), (0.0, 0.3)), (4, 3, 5)),
    (((0.0, 1.0), (-0.5, 1.5), (0.0, 0.3)), (5, 2, 3)),
    (((0.0, 1.0), (-0.5, 1.5), (0.0, 0.3)), (2, 3, 4)),
    (((0.0, 1.0), (-0.5, 1.5), (0.0, 0.3)), (3, 4, 2)),
    (((0.0, 1.0), (-0.5, 1.5), (0.0, 0.3)), (LONG, 3, 4)),
    (((0.0, 1.0), (-0.5, 1.5), (0.0, 0.3)), (3, LONG, 4)),
    (((0.0, 1.0), (-0.5, 1.5), (0.0, 0.3)), (3, 4, LONG)),
    (((0.0, 2.0), (0.0, 1.0), (0.0, 0.5)), (2, 2, 2)),
])
@pytest.mark.parametrize("moving", [True, False])
def test_boundary_correction_matches_dense_oracle(domain, subs, moving):
    prob, g_t = _traced_problem(domain, moving)
    mesh = mesh_for(prob, subs)
    ctx = LoadContext(prob, mesh)
    loads = []
    for t in (0.0, 0.3, 1.7):
        G = np.zeros(modal_shape(mesh))
        boundary_correction(ctx, t, G)
        dense = inv_mass_product(ctx.op) * forward_transform(
            dense_boundary_load(ctx, t, g_t), mesh)
        assert rel_err(G, dense) < 1e-12
        loads.append(G)
    # the plan's buffers carry nothing from one call to the next
    G = np.zeros(modal_shape(mesh))
    boundary_correction(ctx, 0.0, G)
    assert np.array_equal(G, loads[0])


@pytest.mark.parametrize("chunk", [1, 5, 12])
@pytest.mark.parametrize("subs", [(8,), (6, 4), (4, 3, 5), (5, 2, 3)])
def test_boundary_correction_in_chunks_matches_dense_oracle(
        monkeypatch, subs, chunk):
    # chunks far below the test states' size run every loop of a middle
    # axis' add; the first and last axes add in one BLAS update
    monkeypatch.setattr(assembly, "_CHUNK", chunk)
    domain = ((0.0, 1.0), (-0.5, 1.5), (0.0, 0.3))[:len(subs)]
    prob, g_t = _traced_problem(domain)
    mesh = mesh_for(prob, subs)
    ctx = LoadContext(prob, mesh)
    G = np.zeros(modal_shape(mesh))
    boundary_correction(ctx, 0.3, G)
    dense = inv_mass_product(ctx.op) * forward_transform(
        dense_boundary_load(ctx, 0.3, g_t), mesh)
    assert rel_err(G, dense) < 1e-12


def test_boundary_correction_needs_a_contiguous_load():
    # an update into a strided G would land in a copy and be lost
    prob, _ = _traced_problem(((0.0, 1.0), (-0.5, 1.5)))
    ctx = LoadContext(prob, mesh_for(prob, (6, 4)))
    G = np.zeros(modal_shape(ctx.mesh)[::-1]).T
    with pytest.raises(ValueError, match="C-contiguous"):
        boundary_correction(ctx, 0.3, G)
    assert not G.any()


@pytest.mark.parametrize("subs", [(8,), (6, 4), (4, 3, 5), (5, 2, 3)])
def test_boundary_correction_evaluates_trace_once_per_axis(subs):
    domain = ((0.0, 1.0), (-0.5, 1.5), (0.0, 0.3))[:len(subs)]
    traced, _ = _traced_problem(domain)
    calls = []

    def counted(t, xs):
        calls.append(t)
        return traced.bc.trace(t, xs)

    prob = Problem(name="inline", diffusion=traced.diffusion, f=traced.f,
                   domain=domain, u0=traced.u0, bc=Dirichlet(counted))
    ctx = LoadContext(prob, mesh_for(prob, subs))
    calls.clear()
    boundary_correction(ctx, 0.3, np.zeros(modal_shape(ctx.mesh)))
    assert len(calls) == len(subs)


def test_boundary_correction_adds_into_load():
    prob, _ = _traced_problem(((0.0, 1.0), (-0.5, 1.5)))
    mesh = mesh_for(prob, (6, 4))
    ctx = LoadContext(prob, mesh)
    base = np.random.default_rng(3).standard_normal(modal_shape(mesh))
    G = base.copy()
    boundary_correction(ctx, 0.3, G)
    lifted = np.zeros(modal_shape(mesh))
    boundary_correction(ctx, 0.3, lifted)
    assert rel_err(G, base + lifted) < 1e-14


def test_boundary_correction_memory_stays_face_sized():
    # one lifting call allocates face-sized arrays and chunk-sized
    # products, never a full-grid tensor or a full-size transform
    prob = builtin_allen_cahn_wave(dim=3)
    mesh = mesh_for(prob, (128, 16, 16))
    ctx = LoadContext(prob, mesh)
    G = np.zeros(modal_shape(mesh))
    boundary_correction(ctx, 0.01, G)
    peak = traced_peak(boundary_correction, ctx, 0.02, G)
    assert peak < 2 * G.nbytes


def test_fast_rhs_matches_dense_oracle():
    rng = np.random.default_rng(9)
    cases = []
    cases.append((builtin_linear_rd(), (8, 4), 0.3))
    cases.append((builtin_allen_cahn_wave(dim=1), (8,), 0.0))
    cases.append((builtin_allen_cahn_wave(dim=2), (8, 4), 0.01))
    fh = builtin_flory_huggins(seed=5)
    cases.append((fh, (6, 6, 6), 0.0))
    for prob, subs, t in cases:
        mesh = mesh_for(prob, subs)
        ctx = LoadContext(prob, mesh)
        U = 0.3 * rng.standard_normal(dof_shape(mesh))
        dense = dense_semidiscrete_rhs(ctx, t, U, g_t=wave_exact_dt())
        modal = (prob.linear - ctx.op.decay_rates) \
            * forward_transform(U, mesh) + transformed_load(ctx, t, U)
        fast = inverse_transform(modal, mesh)
        assert rel_err(fast, dense) < 1e-10


def test_boundary_lifting_consistent_with_dense_wave():
    prob = builtin_allen_cahn_wave(dim=1)
    mesh = mesh_for(prob, (8,))
    ctx = LoadContext(prob, mesh)
    U = initial_state(prob, mesh)
    for t in (0.0, prob.T_default / 2):
        dense = dense_semidiscrete_rhs(ctx, t, U, g_t=wave_exact_dt())
        modal = -ctx.op.decay_rates * forward_transform(U, mesh) \
            + transformed_load(ctx, t, U)
        assert rel_err(inverse_transform(modal, mesh), dense) < 1e-10


def test_linear_reaction_on_eigenmode():
    prob = _homogeneous_problem(lambda t, u, xs: -u)
    mesh = mesh_for(prob, (8,))
    ctx = LoadContext(prob, mesh)
    coeffs = np.zeros(dof_shape(mesh))
    coeffs[2] = 1.0
    U = inverse_transform(coeffs, mesh)
    rate = ctx.op.decay_rates[2]
    dense = dense_semidiscrete_rhs(ctx, 0.0, U)
    assert rel_err(dense, -(rate + 1.0) * U) < 1e-10


def test_dense_rhs_trivial_zero():
    prob = _homogeneous_problem(lambda t, u, xs: 0.0 * u, dim=2)
    mesh = mesh_for(prob, (4, 4))
    ctx = LoadContext(prob, mesh)
    out = dense_semidiscrete_rhs(ctx, 0.0, np.zeros(dof_shape(mesh)))
    assert np.max(np.abs(out)) < 1e-14


def test_dense_oracle_scale_guard():
    prob = builtin_flory_huggins(seed=1)
    mesh = mesh_for(prob, (32, 32, 32))
    ctx = LoadContext(prob, mesh)
    with pytest.raises(ValueError):
        dense_semidiscrete_rhs(ctx, 0.0, np.zeros(dof_shape(mesh)))


def test_periodic_constant_reaction_only_zero_mode():
    prob = Problem(
        name="inline", diffusion=1.0,
        f=lambda t, u, xs: np.full_like(u, 2.5),
        domain=((0.0, 1.0), (0.0, 1.0)), bc=Periodic(),
        u0=lambda xs: 0.0 * xs[0])
    mesh = mesh_for(prob, (8, 8))
    ctx = LoadContext(prob, mesh)
    G = transformed_load(ctx, 0.0, np.zeros(dof_shape(mesh)))
    nonzero = np.abs(G) > 1e-13 * np.max(np.abs(G))
    assert nonzero.sum() == 1 and nonzero[0, 0]


def test_domain_error_carries_offending_value():
    prob = builtin_flory_huggins(seed=1)
    mesh = mesh_for(prob, (4, 4, 4))
    ctx = LoadContext(prob, mesh)
    U = np.zeros(dof_shape(mesh))
    U[1, 2, 3] = 1.25
    with pytest.raises(NonlinearityDomainError) as exc:
        transformed_load(ctx, 0.0, U)
    assert exc.value.value == 1.25
