"""Invariants of the solver: properties that hold for every mesh, state
and step, drawn by hypothesis.  Most check the solver against itself;
the exactness invariants check it against the dense `expm` solution of
the semi-discrete system, on every boundary kind, the lifted one with a
trace affine in t included."""

import dataclasses
import functools

import numpy as np
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

from expfem.assembly import LoadContext
from expfem.mesh import Dirichlet, Periodic, node_grids
from expfem.problems import Problem, builtin_flory_huggins, mesh_for
from expfem.stepper import SchemeConfig, run
from expfem.transforms import inverse_transform

from helpers import (dense_boundary_load, dense_operator_matrices, make_mesh,
                     rel_err)

STEPS = 20
EXACT_TOL = 1e-11

shapes = st.lists(st.integers(2, 16), min_size=1, max_size=3)


def _flory_huggins(U0):
    """Flory-Huggins on the periodic unit box of U0's dimension, started
    from the nodal state U0."""
    prob = builtin_flory_huggins()
    return dataclasses.replace(prob, domain=prob.domain[:U0.ndim],
                               u0=lambda xs: U0)


def _solve(U0, dt, scheme="rk2", c2=0.5):
    prob = _flory_huggins(U0)
    mesh = mesh_for(prob, U0.shape)
    cfg = SchemeConfig(dt=dt, T=STEPS * dt, scheme=scheme, c2=c2)
    return inverse_transform(run(prob, mesh, cfg).coeffs, mesh)


@given(shape=shapes, shifts=st.lists(st.integers(-20, 20), min_size=3,
                                     max_size=3),
       seed=st.integers(0, 2**32 - 1), dt=st.floats(1e-3, 1e-2))
def test_rolling_the_initial_state_rolls_the_solution(shape, shifts, seed,
                                                      dt):
    # a periodic mesh has no preferred node: the reaction is pointwise and
    # the diffusion commutes with shifts of the grid
    U0 = np.random.default_rng(seed).uniform(-0.9, 0.9, size=shape)
    axes = tuple(range(len(shape)))
    rolled = np.roll(U0, shifts[:len(shape)], axis=axes)
    got = _solve(rolled, dt)
    want = np.roll(_solve(U0, dt), shifts[:len(shape)], axis=axes)
    assert rel_err(got, want) < 1e-13


@given(shape=shapes, u0=st.floats(-0.9, 0.9).filter(lambda u: abs(u) > 1e-3),
       dt=st.floats(1e-3, 5e-2), scheme=st.sampled_from(["euler", "rk2"]),
       c2=st.floats(0.1, 1.0))
def test_constant_state_follows_the_scalar_recursion(shape, u0, dt, scheme,
                                                     c2):
    # only the mean mode moves, whose decay rate is 0: phi1(0) = 1 and
    # phi2(0) = 1/2 leave the exponential RK scheme for u' = f(u)
    reaction = builtin_flory_huggins().f

    def f(u):
        return float(reaction(0.0, np.float64(u), None))

    u = u0
    for _ in range(STEPS):
        if scheme == "euler":
            u = u + dt * f(u)
        else:
            b2 = dt * 0.5 / c2
            u = u + (dt - b2) * f(u) + b2 * f(u + c2 * dt * f(u))
    got = _solve(np.full(shape, u0), dt, scheme, c2)
    assert rel_err(got, np.full(shape, u)) < 1e-14


def _wave(k, phase):
    """A product of cosines, one factor per axis: data that varies along
    every axis differently."""
    def field(t, xs):
        out = 0.5 + 0.0 * t
        for x, kx, ph in zip(xs, k, phase):
            out = out * np.cos(kx * x + ph + 0.3 * t)
        return out
    return field


def _kind(boundary, field):
    """The boundary kind named `boundary`; a lifted Dirichlet mesh takes
    `field` as its trace."""
    return {"periodic": Periodic(), "homogeneous": Dirichlet(),
            "dirichlet": Dirichlet(field)}[boundary]


def _box_problem(bounds, boundary, k, phase):
    """A reaction-diffusion problem on the box `bounds` whose data vary
    along every axis: initial state, a wave in the reaction and, on a
    lifted Dirichlet mesh, the trace."""
    field = _wave(k, phase)
    return Problem(
        name="inline", diffusion=0.7,
        f=lambda t, u, xs: u * (1.0 - u * u) + field(t, xs[::-1]),
        domain=tuple(bounds), bc=_kind(boundary, field),
        u0=lambda xs: field(0.0, xs))


def _permuted(fn, perm):
    """fn of coordinates in the original axis order, called with the
    coordinates of the transposed box: axis j of the transposed box is
    axis perm[j] of the original one."""
    inverse = np.argsort(perm)

    def moved(*args):
        *head, xs = args
        return fn(*head, tuple(xs[i] for i in inverse))
    return moved


triples = st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)


@given(shape=st.lists(st.integers(2, 5), min_size=2, max_size=3),
       axes=st.permutations(range(3)), boundary=st.sampled_from(
           ["periodic", "homogeneous", "dirichlet"]),
       starts=triples, lengths=triples, k=triples, phase=triples,
       dt=st.floats(1e-3, 2e-2))
@example(shape=[5, 3, 4], axes=[2, 0, 1], boundary="dirichlet",
         starts=[0.1, 0.5, 0.9], lengths=[0.2, 0.7, 0.4], k=[0.3, 0.6, 0.9],
         phase=[0.8, 0.1, 0.5], dt=0.01)
@example(shape=[4, 5], axes=[1, 0, 2], boundary="periodic",
         starts=[0.2, 0.6, 0.0], lengths=[0.9, 0.1, 0.0], k=[0.5, 0.2, 0.0],
         phase=[0.3, 0.7, 0.0], dt=0.01)
def test_transposing_the_box_transposes_the_solution(
        shape, axes, boundary, starts, lengths, k, phase, dt):
    # the scheme treats every axis alike: relabelling the axes of the
    # domain, the subdivisions and the data relabels the axes of the
    # rk2 solution, up to the order of rounding
    dim = len(shape)
    perm = [a for a in axes if a < dim]
    bounds = [(2.0 * a - 1.0, 2.0 * a - 0.4 + 0.6 * n)
              for a, n in zip(starts, lengths)][:dim]
    prob = _box_problem(bounds, boundary, [0.5 + 2.5 * x for x in k],
                        [3.0 * x for x in phase])
    moved = dataclasses.replace(
        prob, domain=tuple(bounds[i] for i in perm),
        f=_permuted(prob.f, perm),
        u0=_permuted(prob.u0, perm),
        bc=(Dirichlet(_permuted(prob.bc.trace, perm))
            if boundary == "dirichlet" else prob.bc))
    cfg = SchemeConfig(dt=dt, T=STEPS * dt, scheme="rk2")
    solutions = []
    for problem, subdivisions in ((prob, shape), (moved,
                                                  [shape[i] for i in perm])):
        mesh = mesh_for(problem, subdivisions)
        solutions.append(inverse_transform(run(problem, mesh, cfg).coeffs,
                                           mesh))
    assert rel_err(solutions[1], solutions[0].transpose(perm)) < 1e-13


def _separable_term(c, w, k, phase, axis):
    """The source term (c cos(w t), cos(k x_axis + phase)): its profile
    varies along one axis and broadcasts over the others."""
    return (lambda t: c * np.cos(w * t),
            lambda xs: np.cos(k * xs[axis] + phase))


terms = st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 20.0),
                           st.floats(0.5, 4.0), st.floats(0.0, 3.0),
                           st.integers(0, 2)), min_size=1, max_size=3)


@given(shape=st.lists(st.integers(2, 6), min_size=1, max_size=3),
       boundary=st.sampled_from(["periodic", "homogeneous", "dirichlet"]),
       scheme=st.sampled_from(["euler", "rk2"]), terms=terms,
       nonlinear=st.booleans())
@example(shape=[4, 3, 5], boundary="dirichlet", scheme="rk2",
         terms=[(1.5, 3.0, 2.0, 0.4, 0), (-0.7, 0.0, 1.0, 2.0, 1),
                (0.9, 12.0, 3.5, 1.0, 2)], nonlinear=True)
@example(shape=[6], boundary="periodic", scheme="euler",
         terms=[(2.0, 5.0, 3.0, 0.0, 0)], nonlinear=False)
def test_separable_source_equals_the_same_terms_in_f(shape, boundary,
                                                     scheme, terms, nonlinear):
    # each profile transformed once and its modes scaled at every load
    # give the run that transforms the summed terms at every load, up to
    # rounding, with or without a reaction that reads u beside them
    dim = len(shape)
    source = tuple(_separable_term(c, w, k, phase, axis % dim)
                   for c, w, k, phase, axis in terms)
    base = (lambda t, u, xs: u * (1.0 - u * u)) if nonlinear else None

    def in_f(t, u, xs):
        out = base(t, u, xs) if base else 0.0
        for amplitude, profile in source:
            out = out + amplitude(t) * profile(xs)
        return out

    field = _wave([1.1, 0.7, 1.9][:dim], [0.3, 0.5, 0.2][:dim])
    prob = Problem(name="inline", diffusion=0.7, f=base, source=source,
                   domain=((0.0, 1.0),) * dim, bc=_kind(boundary, field),
                   u0=lambda xs: field(0.0, xs))
    mesh = mesh_for(prob, shape)
    cfg = SchemeConfig(dt=0.01, T=STEPS * 0.01, scheme=scheme)
    got = run(prob, mesh, cfg).coeffs
    want = run(dataclasses.replace(prob, f=in_f, source=()), mesh, cfg).coeffs
    assert rel_err(got, want) < 1e-13


def _dense_affine_solution(ctx, U0, S0, S1, T, g_t):
    """Exact solution at T of the semi-discrete system
    M U' + D K U = M (S0 + t S1) + b(t), by one `expm` of the system
    augmented with t and 1 as states.  b is the boundary elimination load
    of a lifted mesh (`dense_boundary_load`, with the trace's rate g_t),
    affine in t when the trace is, and zero on other meshes."""
    M, K = dense_operator_matrices(ctx.mesh)
    n = M.shape[0]
    S0, S1 = S0.ravel(), S1.ravel()
    if ctx.lifted:
        b0 = dense_boundary_load(ctx, 0.0, g_t).ravel()
        b1 = dense_boundary_load(ctx, 1.0, g_t).ravel() - b0
        S0 = S0 + np.linalg.solve(M, b0)
        S1 = S1 + np.linalg.solve(M, b1)
    B = np.zeros((n + 2, n + 2))
    B[:n, :n] = -np.linalg.solve(M, ctx.problem.diffusion * K)
    B[:n, n] = S1
    B[:n, n + 1] = S0
    B[n, n + 1] = 1.0
    y0 = np.concatenate([U0.ravel(), [0.0, 1.0]])
    return (scipy.linalg.expm(T * B) @ y0)[:n].reshape(U0.shape)


def _solve_affine(data, shape, diffusion, dt, nsteps, scheme, c2):
    """Largest relative error at T of the source S0 + t S1 of `data`,
    run once as the source terms (1, S0) and (t, S1) and once as an f
    that ignores u, against the dense solution."""
    U0, S0, S1, bc, g_t = data
    prob = Problem(name="inline", diffusion=diffusion, f=None,
                   domain=((0.0, 1.0),) * len(shape), bc=bc,
                   u0=lambda xs: U0)
    mesh = mesh_for(prob, shape)
    cfg = SchemeConfig(dt=dt, T=nsteps * dt, scheme=scheme, c2=c2)
    want = _dense_affine_solution(LoadContext(prob, mesh), U0, S0, S1,
                                  nsteps * dt, g_t)
    errors = []
    for split in (dict(source=((lambda t: 1.0, lambda xs: S0),
                               (lambda t: t, lambda xs: S1))),
                  dict(f=lambda t, u, xs: S0 + t * S1)):
        state = run(dataclasses.replace(prob, **split), mesh, cfg)
        errors.append(rel_err(inverse_transform(state.coeffs, mesh), want))
    return max(errors)


exactness_cases = dict(
    shape=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    boundary=st.sampled_from(["periodic", "homogeneous", "dirichlet"]),
    diffusion=st.floats(0.05, 2.0), seed=st.integers(0, 2**32 - 1),
    dt=st.floats(1e-3, 0.5), nsteps=st.integers(1, 4))


def _product(factors):
    return functools.reduce(np.multiply, factors)


def _affine_data(shape, boundary, seed, affine):
    """(U0, S0, S1, boundary kind, the trace's rate) on the unit box: a
    random initial state and the source S0 + t S1, with S1 = 0 unless
    `affine`.  Unlifted meshes take random nodal sources.  A lifted mesh
    takes sources that vanish on the boundary, products of sin(k pi x_a),
    so the reaction has no boundary values to lose, and the trace
    (a0 + a1 t) prod_a cos(x_a + p_a) + c, constant in t unless
    `affine`."""
    rng = np.random.default_rng(seed)
    bc = _kind(boundary, None)
    grids = node_grids(make_mesh([(0.0, 1.0)] * len(shape), shape, bc))
    dofs = [x.size for x in grids]
    U0 = rng.standard_normal(dofs)
    if boundary != "dirichlet":
        S0, S1 = rng.standard_normal(dofs), rng.standard_normal(dofs)
        return U0, S0, S1 * affine, bc, None
    k = rng.integers(1, 4, size=(2, len(shape)))
    S0, S1 = (c * _product([np.sin(kk * np.pi * x)
                            for kk, x in zip(ks, grids)])
              for c, ks in zip(rng.standard_normal(2), k))
    a0, a1, c = rng.standard_normal(3) * [1.0, affine, 1.0]
    phase = rng.uniform(0.0, np.pi, len(shape))

    def wave(xs):
        return _product([np.cos(x + p) for x, p in zip(xs, phase)])

    return (U0, S0, S1 * affine,
            Dirichlet(lambda t, xs: (a0 + a1 * t) * wave(xs) + c),
            lambda t, xs: a1 * wave(xs))


@given(**exactness_cases)
@example(shape=[4, 3, 5], boundary="dirichlet", diffusion=0.7, seed=5,
         dt=0.2, nsteps=3)
def test_euler_is_exact_for_a_source_constant_in_time(
        shape, boundary, diffusion, seed, dt, nsteps):
    # phi1 integrates a constant load exactly, at any dt; a trace constant
    # in time gives the lifting a constant load too
    data = _affine_data(shape, boundary, seed, affine=False)
    assert _solve_affine(data, shape, diffusion, dt, nsteps, "euler",
                         0.5) < EXACT_TOL


@given(c2=st.floats(0.1, 1.0), **exactness_cases)
@example(c2=0.3, shape=[5, 4], boundary="dirichlet", diffusion=1.3, seed=8,
         dt=0.4, nsteps=2)
def test_rk2_is_exact_for_a_source_affine_in_time(
        shape, boundary, diffusion, seed, dt, nsteps, c2):
    # b1 + b2 = phi1 and c2 b2 = phi2 integrate S0 + t S1 exactly, and a
    # trace affine in t gives the lifting a load affine in t
    data = _affine_data(shape, boundary, seed, affine=True)
    assert _solve_affine(data, shape, diffusion, dt, nsteps, "rk2",
                         c2) < EXACT_TOL
