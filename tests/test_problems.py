import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from expfem.assembly import (LoadContext, _trace_faces, initial_state,
                             transformed_load)
from expfem.mesh import Dirichlet, Periodic, dof_shape, node_grids
from expfem.problems import (NonlinearityDomainError, Problem,
                             builtin_allen_cahn_wave, builtin_flory_huggins,
                             builtin_linear_rd, check_admissible, mesh_for)

from helpers import mp_linear_rd_exact, mp_wave_exact, pde_residual


def test_linear_rd_initial_matches_exact_at_zero():
    prob = builtin_linear_rd()
    mesh = mesh_for(prob, (8, 4))
    grids = node_grids(mesh)
    u0 = np.broadcast_to(prob.u0(grids), dof_shape(mesh))
    e0 = np.broadcast_to(prob.exact(0.0, grids), dof_shape(mesh))
    assert np.max(np.abs(u0 - e0)) < 1e-12


def test_linear_rd_exact_vanishes_on_boundary():
    prob = builtin_linear_rd()
    for t in (0.0, 0.37, 1.0):
        for x in (0.7, 1.9):
            for y in (0.0, 1.0):
                assert abs(prob.exact(t, (np.asarray(x), np.asarray(y)))) < 1e-14
        # the x-faces vanish too: sin(pi/2) - 1 = sin(5 pi/2) - 1 = 0
        for x in (0.5, 2.5):
            assert abs(prob.exact(t, (np.asarray(x), np.asarray(0.3)))) < 1e-14


def test_linear_rd_closed_form_agrees_with_oracle():
    prob = builtin_linear_rd()
    rng = np.random.default_rng(11)
    for _ in range(5):
        t = rng.uniform(0, 1)
        x = rng.uniform(0.5, 2.5)
        y = rng.uniform(0, 1)
        mine = float(prob.exact(t, (np.asarray(x), np.asarray(y))))
        ref = float(mp_linear_rd_exact(t, x, y))
        assert abs(mine - ref) < 1e-12


def test_linear_rd_pde_residual():
    prob = builtin_linear_rd()
    res = pde_residual(prob, mp_linear_rd_exact, 0.3, (1.2, 0.4))
    assert abs(res) < 1e-10


def test_wave_initial_front_value():
    prob = builtin_allen_cahn_wave()
    xs = (np.asarray(0.0), np.asarray(0.05), np.asarray(0.1))
    assert abs(float(prob.u0(xs)) - 0.5) < 1e-14


def test_wave_reaction_is_the_closed_form_bit_for_bit():
    eps = 0.05
    prob = builtin_allen_cahn_wave(eps)
    u = np.random.default_rng(2).uniform(-1.5, 1.5, (6, 5, 4))
    kept = u.copy()
    assert np.array_equal(prob.f(0.0, u, None), u * (1.0 - u * u) / eps ** 2)
    assert np.array_equal(u, kept)
    assert float(prob.f(0.0, np.asarray(0.5), None)) == 0.375 / eps ** 2


def test_wave_travels_at_constant_speed():
    eps = 0.05
    prob = builtin_allen_cahn_wave(eps)
    speed = 3.0 / (math.sqrt(2.0) * eps)
    T = prob.T_default
    for x in (0.1, 0.5, 1.0):
        a = float(prob.exact(T, (np.asarray(x + speed * T),)))
        b = float(prob.exact(0.0, (np.asarray(x),)))
        assert abs(a - b) < 1e-12


def _one(t):
    return 1.0


@pytest.mark.parametrize("source", [
    lambda t, xs: 1.0,          # the callable s(t, xs) of earlier versions
    [(_one, _one)],             # a list, not a tuple
    ((_one, 1.0),),             # a profile that is no callable
    ((_one,),),                 # a term that is no pair
    ((_one, _one, _one),),
    (_one, _one),               # one pair, not a tuple of pairs
    None,
], ids=["callable", "list", "constant", "single", "triple", "bare", "none"])
def test_problem_rejects_a_source_that_is_not_a_tuple_of_callable_pairs(
        source):
    with pytest.raises(ValueError, match="source"):
        Problem(name="inline", diffusion=1.0, f=None, domain=((0.0, 1.0),),
                source=source)


def test_wave_pde_residual():
    prob = builtin_allen_cahn_wave()
    res = pde_residual(prob, mp_wave_exact(0.05), 0.02, (0.4, 0.06, 0.06))
    assert abs(res) < 1e-8


def test_wave_exact_agrees_with_oracle():
    prob = builtin_allen_cahn_wave()
    oracle = mp_wave_exact(0.05)
    rng = np.random.default_rng(12)
    for _ in range(5):
        t = rng.uniform(0, prob.T_default)
        x = rng.uniform(0, math.sqrt(2))
        mine = float(prob.exact(t, (np.asarray(x), np.asarray(0.01), np.asarray(0.02))))
        assert abs(mine - float(oracle(t, x))) < 1e-12


def test_wave_rejects_bad_eps():
    with pytest.raises(ValueError):
        builtin_allen_cahn_wave(eps=0.0)


def test_wave_declares_nonhomogeneous_dirichlet():
    prob = builtin_allen_cahn_wave()
    assert prob.bc == Dirichlet(prob.exact)
    assert mesh_for(prob, (8, 2, 2)).bc is prob.bc
    assert not prob.periodic


def test_wave_analytic_trace_derivative():
    # the complex-step dg/dt the lifting uses, on every face, against a
    # central difference of the trace
    prob = builtin_allen_cahn_wave()
    ctx = LoadContext(prob, mesh_for(prob, (8, 2, 2)))
    t = 0.01
    d = 1e-7
    _, gdot = _trace_faces(ctx, t)
    for (face, shape), got in zip(ctx.faces, gdot):
        fd = (np.broadcast_to(prob.bc.trace(t + d, face), shape)
              - np.broadcast_to(prob.bc.trace(t - d, face), shape)) / (2 * d)
        assert np.all(np.abs(got - fd) < 1e-5 * np.maximum(1.0, np.abs(fd)))
    assert np.max(np.abs(gdot[0])) > 1.0


def test_flory_huggins_equilibria():
    prob = builtin_flory_huggins()
    xs = None
    assert abs(float(prob.f(0.0, np.asarray(0.0), xs))) < 1e-15
    expected = 0.4 * math.log(1.0 / 3.0) + 0.8
    assert abs(float(prob.f(0.0, np.asarray(0.5), xs)) - expected) < 1e-14


def test_flory_huggins_odd_symmetry():
    prob = builtin_flory_huggins()
    u = np.linspace(-0.95, 0.95, 39)
    fu = prob.f(0.0, u, None)
    fmu = prob.f(0.0, -u, None)
    assert np.max(np.abs(fu + fmu)) < 1e-13


def _flory_huggins_load(value):
    """The load of a 4^3 Flory-Huggins state of 0.2 with one node at value."""
    prob = builtin_flory_huggins()
    mesh = mesh_for(prob, (4, 4, 4))
    U = np.full(dof_shape(mesh), 0.2)
    U[1, 2, 3] = value
    return transformed_load(LoadContext(prob, mesh), 0.0, U)


def test_flory_huggins_domain_error():
    with pytest.raises(NonlinearityDomainError) as exc:
        _flory_huggins_load(-1.0)
    assert exc.value.value == -1.0


def test_flory_huggins_nan_state_raises():
    with pytest.raises(NonlinearityDomainError) as exc:
        _flory_huggins_load(np.nan)
    assert math.isnan(exc.value.value)


@pytest.mark.parametrize("values, bounds, reported", [
    ([0.2, np.nan], (-np.inf, np.inf), np.nan),
    ([0.2, np.inf], (-np.inf, np.inf), np.inf),
    ([-np.inf, 0.2], (-np.inf, np.inf), -np.inf),
    ([-np.inf, np.inf], (-np.inf, np.inf), np.inf),
    ([-1.5, 0.2], (-1.0, 1.0), -1.5),
    ([0.2, 1.0], (-1.0, 1.0), 1.0),
    ([-1.5, 1.2], (-1.0, 1.0), -1.5),
    ([-1.2, 1.5], (-1.0, 1.0), 1.5),
    # on a one-sided range the value that breaks it, not the larger one
    ([-0.5, 3.0], (0.0, np.inf), -0.5),
], ids=["nan", "inf", "minus_inf", "both_inf", "min_out", "max_on_bound",
        "both_out_min_larger", "both_out_max_larger", "one_sided"])
def test_check_admissible_reports_the_offending_value(values, bounds,
                                                      reported):
    with pytest.raises(NonlinearityDomainError) as exc:
        check_admissible(np.array(values), bounds)
    assert exc.value.step_index is None
    assert repr(exc.value.value) == repr(reported)


def test_problem_names_its_boundary_in_one_field():
    # `periodic` is read from `bc`, so a periodic problem holds no trace
    prob = Problem(name="p", diffusion=1.0, f=None, domain=((0.0, 1.0),))
    assert prob.bc == Dirichlet() and not prob.periodic
    with pytest.raises(TypeError):
        Problem(name="p", diffusion=1.0, f=None, domain=((0.0, 1.0),),
                periodic=True, g=lambda t, xs: 0.0 * xs[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        prob.periodic = True
    assert dataclasses.replace(prob, bc=Periodic()).periodic


def test_check_admissible_passes_a_state_inside_its_range():
    check_admissible(np.array([-1e308, 1e308]), (-np.inf, np.inf))
    check_admissible(np.array([-0.999, 0.999]), (-1.0, 1.0))
    assert Problem(name="p", diffusion=1.0, f=None,
                   domain=((0.0, 1.0),)).admissible_range == (-np.inf, np.inf)


@pytest.mark.parametrize("u", [1e-9, 0.5, 0.999, 1.0 - 1e-12])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_flory_huggins_reaction_matches_mpmath(u, sign):
    theta, theta_c = 0.8, 1.6
    prob = builtin_flory_huggins(theta=theta, theta_c=theta_c)
    v = sign * u
    got = float(prob.f(0.0, np.asarray([v]), None)[0])
    with mp.workdps(50):
        x = mp.mpf(v)
        want = float(mp.mpf(theta) / 2 * mp.log((1 - x) / (1 + x))
                     + mp.mpf(theta_c) * x)
    assert abs(got - want) <= 1e-14 * abs(want)


def test_flory_huggins_seeded_initial_data_is_reproducible():
    prob = builtin_flory_huggins(seed=42)
    mesh = mesh_for(prob, (8, 8, 8))
    a = initial_state(prob, mesh)
    b = initial_state(builtin_flory_huggins(seed=42), mesh)
    assert np.array_equal(a, b)
    assert a.shape == tuple(dof_shape(mesh))
    assert np.max(np.abs(a)) <= 0.9
    c = initial_state(builtin_flory_huggins(seed=43), mesh)
    assert not np.array_equal(a, c)


def test_flory_huggins_is_periodic_3d():
    prob = builtin_flory_huggins()
    assert prob.periodic and prob.dim == 3
    assert prob.bc == Periodic()
    assert mesh_for(prob, (2, 2, 2)).bc is prob.bc
    assert prob.admissible_range == (-1.0, 1.0)


def test_builtin_residuals_at_random_samples():
    rng = np.random.default_rng(13)
    prob1 = builtin_linear_rd()
    for _ in range(10):
        pt = (rng.uniform(0.5, 2.5), rng.uniform(0.05, 0.95))
        res = pde_residual(prob1, mp_linear_rd_exact, rng.uniform(0, 1), pt)
        assert abs(res) < 1e-7
    prob2 = builtin_allen_cahn_wave()
    oracle = mp_wave_exact(0.05)
    for _ in range(10):
        pt = (rng.uniform(0, math.sqrt(2)), rng.uniform(0, 0.125),
              rng.uniform(0, 0.125))
        res = pde_residual(prob2, oracle, rng.uniform(0, prob2.T_default), pt)
        assert abs(res) < 1e-7
