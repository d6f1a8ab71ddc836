import math

import numpy as np
import pytest

from expfem.assembly import LoadContext, initial_state
from expfem.mesh import dof_shape
from expfem.operator import build_operator, phi, phi_tensor
from expfem.problems import Problem, builtin_allen_cahn_wave, mesh_for
from expfem.stepper import (SchemeConfig, SolverState, StepWeights,
                            exp_euler_step, exp_rk2_step, run)
from expfem.transforms import forward_transform, inverse_transform

from helpers import dense_euler_step, dense_rk2_step, rel_err, wave_exact_dt


def _problem(f, dim=1, diffusion=1.0, u0=None, domain=None, periodic=False):
    return Problem(
        name="inline",
        diffusion=diffusion,
        f=f,
        domain=domain or ((0.0, 1.0),) * dim,
        periodic=periodic,
        u0=u0 or (lambda xs: np.sin(np.pi * xs[0])),
    )


def test_zero_reaction_is_exact_modal_decay():
    prob = _problem(lambda t, u, xs: 0.0 * u, dim=2,
                    u0=lambda xs: np.sin(np.pi * xs[0]) * np.sin(np.pi * xs[1]))
    mesh = mesh_for(prob, (8, 8))
    ctx = LoadContext(prob, mesh)
    dt, nsteps = 0.01, 60
    state = SolverState(0.0, forward_transform(initial_state(prob, mesh), mesh))
    for _ in range(nsteps):
        state = exp_euler_step(state, ctx, dt)
    expected = np.exp(-nsteps * dt * ctx.op.decay_rates) * forward_transform(
        initial_state(prob, mesh), mesh)
    assert rel_err(state.coeffs, expected) < 1e-13


def test_zero_reaction_euler_equals_rk2():
    prob = _problem(lambda t, u, xs: 0.0 * u)
    mesh = mesh_for(prob, (8,))
    ctx = LoadContext(prob, mesh)
    state = SolverState(0.0, forward_transform(initial_state(prob, mesh), mesh))
    a = exp_euler_step(state, ctx, 0.1)
    b = exp_rk2_step(state, ctx, 0.1)
    assert rel_err(a.coeffs, b.coeffs) < 1e-14


def test_euler_step_scalar_duhamel():
    # single mode: rate 12, constant reaction 1, exact for constant loads
    prob = _problem(lambda t, u, xs: np.ones_like(u),
                    u0=lambda xs: np.ones_like(xs[0]))
    mesh = mesh_for(prob, (2,))
    ctx = LoadContext(prob, mesh)
    assert np.allclose(ctx.op.decay_rates, [12.0])
    state = SolverState(0.0, forward_transform(np.ones(1), mesh))
    out = exp_euler_step(state, ctx, 0.1)
    lam, dt = 12.0, 0.1
    expected = math.exp(-lam * dt) + dt * phi(1, -lam * dt)
    duhamel = math.exp(-lam * dt) + (1 - math.exp(-lam * dt)) / lam
    assert abs(expected - duhamel) < 1e-15
    assert abs(float(out.coeffs[0]) - duhamel) < 1e-14
    assert out.t == pytest.approx(0.1) and out.step_index == 1


def test_rk2_exact_for_reaction_linear_in_time():
    # modal equation u' = -u + t via rate 1 (diffusion 1/12) and f = t
    prob = _problem(lambda t, u, xs: np.full_like(u, t), diffusion=1.0 / 12.0,
                    u0=lambda xs: np.zeros_like(xs[0]))
    mesh = mesh_for(prob, (2,))
    ctx = LoadContext(prob, mesh)
    assert np.allclose(ctx.op.decay_rates, [1.0], rtol=1e-13)
    exact = math.exp(-0.5) - 1.0 + 0.5
    for c2 in (0.5, 0.7, 1.0):
        state = SolverState(0.0, np.zeros(1))
        out = exp_rk2_step(state, ctx, 0.5, c2=c2)
        assert abs(float(out.coeffs[0]) - exact) < 1e-12


def test_step_continuity_for_tiny_dt():
    prob = builtin_allen_cahn_wave(eps=0.5, dim=1)
    mesh = mesh_for(prob, (16,))
    ctx = LoadContext(prob, mesh)
    c0 = forward_transform(initial_state(prob, mesh), mesh)
    state = SolverState(0.0, c0)
    out = exp_euler_step(state, ctx, 1e-8)
    assert rel_err(out.coeffs, c0) < 1e-6


def test_rk2_weight_consistency_conditions():
    prob = builtin_allen_cahn_wave(dim=1)
    mesh = mesh_for(prob, (8,))
    op = build_operator(mesh, prob.diffusion)
    dt, c2 = 0.01, 0.5
    w = StepWeights(op, dt, "rk2", c2)
    assert rel_err(w.b1 + w.b2, w.phi1) < 1e-13
    assert np.array_equal(w.stage_phi1, phi_tensor(1, op, dt, scale=c2))
    assert np.array_equal(w.decay, np.exp(-dt * op.decay_rates))


def test_one_step_matches_dense_oracle_1d():
    prob = builtin_allen_cahn_wave(dim=1)
    mesh = mesh_for(prob, (8,))
    ctx = LoadContext(prob, mesh)
    U0 = initial_state(prob, mesh)
    dt = 1e-3
    state = SolverState(0.0, forward_transform(U0, mesh))
    fast1 = inverse_transform(exp_euler_step(state, ctx, dt).coeffs, mesh)
    dense1 = dense_euler_step(ctx, 0.0, U0, dt, g_t=wave_exact_dt())
    assert rel_err(fast1, dense1) < 1e-10
    fast2 = inverse_transform(exp_rk2_step(state, ctx, dt).coeffs, mesh)
    dense2 = dense_rk2_step(ctx, 0.0, U0, dt, g_t=wave_exact_dt())
    assert rel_err(fast2, dense2) < 1e-10


def test_run_zero_steps_returns_initial_state():
    prob = builtin_allen_cahn_wave(dim=1)
    mesh = mesh_for(prob, (8,))
    cfg = SchemeConfig(dt=0.5, T=0.0, scheme="euler")
    state = run(prob, mesh, cfg)
    assert state.step_index == 0 and state.t == 0.0
    expected = forward_transform(initial_state(prob, mesh), mesh)
    assert np.array_equal(state.coeffs, expected)


def test_run_rejects_non_integer_step_count():
    prob = builtin_allen_cahn_wave(dim=1)
    mesh = mesh_for(prob, (8,))
    cfg = SchemeConfig(dt=0.3, T=1.0)
    with pytest.raises(ValueError):
        run(prob, mesh, cfg)


def test_run_observer_cadence_and_final_step():
    prob = _problem(lambda t, u, xs: 0.0 * u)
    mesh = mesh_for(prob, (8,))
    seen = []
    cfg = SchemeConfig(dt=0.1, T=0.7, scheme="euler")
    run(prob, mesh, cfg, observers=[lambda s, t, U: seen.append(s)],
        observe_every=3)
    assert seen == [0, 3, 6, 7]


def test_run_linear_heat_matches_exact_modal_decay():
    prob = _problem(lambda t, u, xs: 0.0 * u, dim=2,
                    u0=lambda xs: np.sin(2 * np.pi * xs[0]) * np.sin(np.pi * xs[1]))
    mesh = mesh_for(prob, (8, 8))
    ctx = LoadContext(prob, mesh)
    cfg = SchemeConfig(dt=0.01, T=1.0, scheme="rk2")
    state = run(prob, mesh, cfg)
    c0 = forward_transform(initial_state(prob, mesh), mesh)
    expected = np.exp(-1.0 * ctx.op.decay_rates) * c0
    assert rel_err(state.coeffs, expected) < 1e-12


def test_runs_are_deterministic():
    prob = builtin_allen_cahn_wave(dim=2)
    mesh = mesh_for(prob, (8, 4))
    cfg = SchemeConfig(dt=prob.T_default / 8, T=prob.T_default, scheme="rk2")
    a = run(prob, mesh, cfg)
    b = run(prob, mesh, cfg)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.1, T=1.0, scheme="rk7")
    with pytest.raises(ValueError):
        SchemeConfig(dt=-0.1, T=1.0)
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.1, T=1.0, c2=0.0)


def test_domain_error_reports_step_index():
    from expfem.problems import NonlinearityDomainError, builtin_flory_huggins
    prob = builtin_flory_huggins(seed=3)
    mesh = mesh_for(prob, (4, 4, 4))
    cfg = SchemeConfig(dt=1.0, T=4.0, scheme="rk2")  # wildly large step
    with pytest.raises(NonlinearityDomainError) as exc:
        run(prob, mesh, cfg)
    assert exc.value.step_index is not None
    assert "step" in str(exc.value)
