import ctypes
import dataclasses
import functools
import math
import os
import subprocess
import sys
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import expfem
from expfem import assembly, stepper, transforms
from expfem.assembly import LoadContext, initial_state
from expfem.config import parse_config
from expfem.mesh import Dirichlet, Periodic, dof_shape, full_axis_coordinates
from expfem.operator import build_operator, phi, phi_tensor
from expfem.problems import (NonlinearityDomainError, Problem,
                             builtin_allen_cahn_wave, builtin_flory_huggins,
                             builtin_linear_rd, mesh_for)
from expfem.stepper import (SchemeConfig, StepWeights, exp_euler_step,
                            exp_rk2_step, run)
from expfem.transforms import forward_transform, inverse_transform

from helpers import (dense_euler_step, dense_rk2_step, full_reaction,
                     operator_of, rel_err, step_with_temporaries,
                     traced_peak, wave_exact_dt)


def _problem(f, dim=1, diffusion=1.0, u0=None, domain=None,
             bc=Dirichlet()):
    return Problem(
        name="inline",
        diffusion=diffusion,
        f=f,
        domain=domain or ((0.0, 1.0),) * dim,
        bc=bc,
        u0=u0 or (lambda xs: np.sin(np.pi * xs[0])),
    )


STEPS = {"euler": exp_euler_step, "rk2": exp_rk2_step}


def _weights(ctx, dt, scheme, c2=0.5):
    """The weights `run` builds for a problem's steps."""
    return StepWeights(operator_of(ctx), dt, scheme, c2, ctx.problem.linear)


def test_zero_reaction_is_exact_modal_decay():
    prob = _problem(lambda t, u, xs: 0.0 * u, dim=2,
                    u0=lambda xs: np.sin(np.pi * xs[0]) * np.sin(np.pi * xs[1]))
    mesh = mesh_for(prob, (8, 8))
    ctx = LoadContext(prob, mesh)
    dt, nsteps = 0.01, 60
    coeffs = forward_transform(initial_state(prob, mesh), mesh)
    w = _weights(ctx, dt, "euler")
    for n in range(nsteps):
        coeffs = exp_euler_step(coeffs, dt * n, ctx, w)
    expected = np.exp(-nsteps * dt * operator_of(ctx)) * forward_transform(
        initial_state(prob, mesh), mesh)
    assert rel_err(coeffs, expected) < 1e-13


def test_zero_reaction_euler_equals_rk2():
    prob = _problem(lambda t, u, xs: 0.0 * u)
    mesh = mesh_for(prob, (8,))
    ctx = LoadContext(prob, mesh)
    c0 = forward_transform(initial_state(prob, mesh), mesh)
    a = exp_euler_step(c0, 0.0, ctx, _weights(ctx, 0.1, "euler"))
    b = exp_rk2_step(c0, 0.0, ctx, _weights(ctx, 0.1, "rk2"))
    assert rel_err(a, b) < 1e-14


def test_euler_step_scalar_duhamel():
    # single mode: rate 12, constant reaction 1, exact for constant loads
    prob = _problem(lambda t, u, xs: np.ones_like(u),
                    u0=lambda xs: np.ones_like(xs[0]))
    mesh = mesh_for(prob, (2,))
    ctx = LoadContext(prob, mesh)
    assert np.allclose(operator_of(ctx), [12.0])
    out = exp_euler_step(forward_transform(np.ones(1), mesh), 0.0, ctx,
                         _weights(ctx, 0.1, "euler"))
    lam, dt = 12.0, 0.1
    expected = math.exp(-lam * dt) + dt * phi(1, -lam * dt)
    duhamel = math.exp(-lam * dt) + (1 - math.exp(-lam * dt)) / lam
    assert abs(expected - duhamel) < 1e-15
    assert abs(float(out[0]) - duhamel) < 1e-14


def test_rk2_exact_for_reaction_linear_in_time():
    # modal equation u' = -u + t via rate 1 (diffusion 1/12) and f = t
    prob = _problem(lambda t, u, xs: np.full_like(u, t), diffusion=1.0 / 12.0,
                    u0=lambda xs: np.zeros_like(xs[0]))
    mesh = mesh_for(prob, (2,))
    ctx = LoadContext(prob, mesh)
    assert np.allclose(operator_of(ctx), [1.0], rtol=1e-13)
    exact = math.exp(-0.5) - 1.0 + 0.5
    for c2 in (0.5, 0.7, 1.0):
        out = exp_rk2_step(np.zeros(1), 0.0, ctx,
                           _weights(ctx, 0.5, "rk2", c2))
        assert abs(float(out[0]) - exact) < 1e-12


def test_step_continuity_for_tiny_dt():
    prob = builtin_allen_cahn_wave(eps=0.5, dim=1)
    mesh = mesh_for(prob, (16,))
    ctx = LoadContext(prob, mesh)
    c0 = forward_transform(initial_state(prob, mesh), mesh)
    out = exp_euler_step(c0, 0.0, ctx, _weights(ctx, 1e-8, "euler"))
    assert rel_err(out, c0) < 1e-6


def test_rk2_weight_consistency_conditions():
    prob = builtin_allen_cahn_wave(dim=1)
    mesh = mesh_for(prob, (8,))
    rates = build_operator(mesh, prob.diffusion)
    dt, c2 = 0.01, 0.5
    w = StepWeights(rates, dt, "rk2", c2, 0.0)
    euler = StepWeights(rates, dt, "euler", c2, 0.0)
    # Euler is rk2 without its stage: b1 weighs the first load of both
    assert set(vars(euler)) == {"decay", "b1"}
    assert set(vars(w)) == {"decay", "b1", "b2", "stage_dt", "stage_decay",
                            "stage_phi1"}
    # the phi weights carry their step length; rk2 forms b1 in phi1's
    # buffer, and Euler's b1 is phi1 itself
    phi1 = dt * phi_tensor(1, rates, dt)
    assert rel_err(w.b1 + w.b2, phi1) < 1e-13
    assert np.array_equal(euler.b1, phi1)
    assert w.stage_dt == c2 * dt
    assert np.array_equal(w.stage_phi1,
                          (c2 * dt) * phi_tensor(1, rates, c2 * dt))
    assert np.array_equal(w.decay, np.exp(-dt * rates))


def test_one_step_matches_dense_oracle_1d():
    prob = builtin_allen_cahn_wave(dim=1)
    mesh = mesh_for(prob, (8,))
    ctx = LoadContext(prob, mesh)
    U0 = initial_state(prob, mesh)
    dt = 1e-3
    c0 = forward_transform(U0, mesh)
    fast1 = inverse_transform(
        exp_euler_step(c0, 0.0, ctx, _weights(ctx, dt, "euler")), mesh)
    dense1 = dense_euler_step(ctx, 0.0, U0, dt, g_t=wave_exact_dt())
    assert rel_err(fast1, dense1) < 1e-10
    fast2 = inverse_transform(
        exp_rk2_step(c0, 0.0, ctx, _weights(ctx, dt, "rk2")), mesh)
    dense2 = dense_rk2_step(ctx, 0.0, U0, dt, g_t=wave_exact_dt())
    assert rel_err(fast2, dense2) < 1e-10


def test_run_zero_steps_returns_initial_state():
    prob = builtin_allen_cahn_wave(dim=1)
    mesh = mesh_for(prob, (8,))
    cfg = SchemeConfig(dt=0.5, T=0.0, scheme="euler", c2=0.5)
    state = run(prob, mesh, cfg)
    assert state.step_index == 0 and state.t == 0.0
    expected = forward_transform(initial_state(prob, mesh), mesh)
    assert np.array_equal(state.coeffs, expected)


def test_run_rejects_non_integer_step_count():
    prob = builtin_allen_cahn_wave(dim=1)
    mesh = mesh_for(prob, (8,))
    cfg = SchemeConfig(dt=0.3, T=1.0, scheme="rk2", c2=0.5)
    with pytest.raises(ValueError):
        run(prob, mesh, cfg)


def test_run_observer_cadence_and_final_step():
    # each observer keeps its own cadence; both see step 0 and the last
    # step, and a step they share hands both the same nodal state
    prob = _problem(lambda t, u, xs: 0.0 * u)
    mesh = mesh_for(prob, (8,))
    seen = {3: [], 2: []}
    states = {}

    def observer(every):
        def obs(step, t, U):
            seen[every].append(step)
            states.setdefault(step, []).append(U)
        return obs

    cfg = SchemeConfig(dt=0.1, T=0.7, scheme="euler", c2=0.5)
    run(prob, mesh, cfg, observers=[(3, observer(3)), (2, observer(2))])
    assert seen == {3: [0, 3, 6, 7], 2: [0, 2, 4, 6, 7]}
    for step in (0, 6, 7):
        first, second = states[step]
        assert first is second


@pytest.mark.parametrize("scheme", ["euler", "rk2"])
def test_run_hands_every_load_and_observer_the_time_dt_times_n(
        monkeypatch, scheme):
    # step n starts at 0.1 * n and its rk2 stage at 0.1 * n + 0.3 * 0.1,
    # bit for bit: a clock summed step by step would drift from both
    dt, c2, nsteps = 0.1, 0.3, 7
    seen = {"load": [], "amplitude": [], "trace": [], "observer": []}

    def load(ctx, t, coeffs):
        seen["load"].append(t)
        return assembly.transformed_load(ctx, t, coeffs)

    def amplitude(t):
        seen["amplitude"].append(t)
        return 1.0

    def trace(t, xs):
        # the lifting evaluates the trace at t + i h
        seen["trace"].append(complex(t).real)
        return 1.0 + t * xs[0]

    def observer(n, t, U):
        seen["observer"].append(t)

    monkeypatch.setattr(stepper, "transformed_load", load)
    prob = Problem(name="clock", diffusion=1.0, f=lambda t, u, xs: -u,
                   domain=((0.0, 1.0),), bc=Dirichlet(trace),
                   u0=lambda xs: 1.0 + 0.0 * xs[0],
                   source=((amplitude, lambda xs: np.sin(np.pi * xs[0])),))
    cfg = SchemeConfig(dt=dt, T=dt * nsteps, scheme=scheme, c2=c2)
    end = run(prob, mesh_for(prob, (8,)), cfg, observers=[(1, observer)])

    def loads(n):
        return [dt * n] if scheme == "euler" else [dt * n, dt * n + c2 * dt]

    want_loads = [t for n in range(nsteps) for t in loads(n)]
    want_trace = [0.0] + [t for n in range(nsteps)
                          for t in loads(n) + [dt * (n + 1)]]
    want = {"load": want_loads, "amplitude": want_loads, "trace": want_trace,
            "observer": [dt * n for n in range(nsteps + 1)]}
    assert {k: [float(t).hex() for t in v] for k, v in seen.items()} == {
        k: [t.hex() for t in v] for k, v in want.items()}
    assert (end.t, end.step_index) == (dt * nsteps, nsteps)


def test_run_rejects_observer_cadence_below_one():
    prob = _problem(lambda t, u, xs: 0.0 * u)
    mesh = mesh_for(prob, (8,))
    cfg = SchemeConfig(dt=0.1, T=0.2, scheme="euler", c2=0.5)
    with pytest.raises(ValueError, match="cadence"):
        run(prob, mesh, cfg, observers=[(0, lambda s, t, U: None)])


@pytest.mark.parametrize("every, nsteps, steps", [
    (3, 7, {0, 3, 6, 7}),
    (2, 6, {0, 2, 4, 6}),
    (1, 3, {0, 1, 2, 3}),
    (5, 3, {0, 3}),
    (4, 0, {0}),
])
def test_observation_steps_are_step_zero_each_multiple_and_the_last(
        every, nsteps, steps):
    assert stepper.observation_steps(every, nsteps) == steps


@pytest.mark.parametrize("every", [0, -2])
def test_observation_steps_reject_a_cadence_below_one(every):
    with pytest.raises(ValueError, match="cadence must be >= 1"):
        stepper.observation_steps(every, 4)


def test_run_linear_heat_matches_exact_modal_decay():
    prob = _problem(lambda t, u, xs: 0.0 * u, dim=2,
                    u0=lambda xs: np.sin(2 * np.pi * xs[0]) * np.sin(np.pi * xs[1]))
    mesh = mesh_for(prob, (8, 8))
    ctx = LoadContext(prob, mesh)
    cfg = SchemeConfig(dt=0.01, T=1.0, scheme="rk2", c2=0.5)
    state = run(prob, mesh, cfg)
    c0 = forward_transform(initial_state(prob, mesh), mesh)
    expected = np.exp(-1.0 * operator_of(ctx)) * c0
    assert rel_err(state.coeffs, expected) < 1e-12


def test_runs_are_deterministic():
    prob = builtin_allen_cahn_wave(dim=2)
    mesh = mesh_for(prob, (8, 4))
    cfg = SchemeConfig(dt=prob.T_default / 8, T=prob.T_default, scheme="rk2",
                       c2=0.5)
    a = run(prob, mesh, cfg)
    b = run(prob, mesh, cfg)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.1, T=1.0, scheme="rk7", c2=0.5)
    with pytest.raises(ValueError):
        SchemeConfig(dt=-0.1, T=1.0, scheme="rk2", c2=0.5)
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.1, T=1.0, scheme="rk2", c2=0.0)


def test_num_steps_rejects_a_step_far_above_T():
    # a tolerance relative to max(T, dt) let dt = 1e10 take 0 steps to T = 1
    with pytest.raises(ValueError, match="multiple of dt"):
        SchemeConfig(dt=1e10, T=1.0, scheme="rk2", c2=0.5).num_steps()
    assert SchemeConfig(dt=0.5, T=0.0, scheme="rk2", c2=0.5).num_steps() == 0
    assert SchemeConfig(dt=0.1, T=0.7, scheme="rk2", c2=0.5).num_steps() == 7


@pytest.mark.parametrize("observed", [False, True])
def test_a_blown_up_stage_stops_the_run_observed_or_not(observed):
    # the 1D wave on 256 cells blows up in 6 rk2 steps: the stage of step
    # 5 holds a NaN, which the load reads before any observer could
    prob = builtin_allen_cahn_wave(dim=1)
    mesh = mesh_for(prob, (256,))
    cfg = SchemeConfig(dt=prob.T_default / 6, T=prob.T_default, scheme="rk2",
                       c2=0.5)
    observers = [(1, lambda *a: None)] if observed else []
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonlinearityDomainError) as exc:
        run(prob, mesh, cfg, observers=observers)
    assert exc.value.step_index == 5 and math.isnan(exc.value.value)


def test_an_observed_state_outside_the_admissible_range_stops_the_run():
    # one Euler step of 0.5 takes max |u| to 1.017; no reaction reads the
    # final state, so the check of the observed state stops the run
    seen = []
    prob = builtin_flory_huggins(seed=2023)
    mesh = mesh_for(prob, (8, 8, 8))
    cfg = SchemeConfig(dt=0.5, T=0.5, scheme="euler", c2=0.5)
    with pytest.raises(NonlinearityDomainError) as exc:
        run(prob, mesh, cfg, observers=[(1, lambda step, *a: seen.append(step))])
    assert exc.value.step_index == 1 and seen == [0]
    assert 1.0 < abs(exc.value.value) < 1.02


@pytest.mark.parametrize("end", [0, 1])
@pytest.mark.parametrize("subs", [(4,), (4, 3), (3, 2, 4)])
def test_a_trace_outside_the_range_at_one_corner_fails_the_state_check(
        subs, end):
    # the trace leaves (-1, 1) at one corner node of the box alone
    bounds = ((0.0, 1.0), (-0.5, 1.5), (0.0, 0.3))[:len(subs)]

    def trace(t, xs):
        corner = functools.reduce(np.logical_and, [
            np.isclose(x, b[end], rtol=0.0, atol=1e-12)
            for x, b in zip(xs, bounds)])
        return np.where(corner, 5.0, 0.5)

    prob = Problem(name="corner", diffusion=1.0, f=None, domain=bounds,
                   bc=Dirichlet(trace), admissible_range=(-1.0, 1.0))
    mesh = mesh_for(prob, subs)
    with pytest.raises(NonlinearityDomainError) as exc:
        stepper.check_state(np.zeros(dof_shape(mesh)), prob, mesh, 0.0)
    assert exc.value.value == 5.0
    # the same trace but for the corner passes
    inside = dataclasses.replace(prob, bc=Dirichlet(
        lambda t, xs: np.minimum(trace(t, xs), 0.5)))
    stepper.check_state(np.zeros(dof_shape(mesh)), inside,
                        mesh_for(inside, subs), 0.0)


def test_domain_error_reports_step_index():
    prob = builtin_flory_huggins(seed=3)
    mesh = mesh_for(prob, (4, 4, 4))
    # wildly large step
    cfg = SchemeConfig(dt=1.0, T=4.0, scheme="rk2", c2=0.5)
    with pytest.raises(NonlinearityDomainError) as exc:
        run(prob, mesh, cfg)
    assert exc.value.step_index is not None
    assert "step" in str(exc.value)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_non_finite_initial_state_stops_an_observed_run(value):
    seen = []
    prob = _problem(lambda t, u, xs: -u, u0=lambda xs: np.where(
        xs[0] > 0.5, value, 0.0))
    mesh = mesh_for(prob, (8,))
    cfg = SchemeConfig(dt=0.1, T=0.2, scheme="euler", c2=0.5)
    with pytest.raises(NonlinearityDomainError) as exc:
        run(prob, mesh, cfg, observers=[(1, lambda *a: seen.append(a))])
    assert exc.value.step_index == 0 and not seen
    assert str(exc.value).startswith(f"step 0: state value {value!r}")


_CUSTOM_2D = """
mode = "run"
problem = "custom"
T = 0.1
nt = 2
[domain]
bounds = [[0.0, 1.0], [0.0, 0.5]]
n = [8, 6]
bc = "{bc}"
[custom]
d = 0.5
f = "{f}"
u0 = "0.5 * sin(2 * pi * x) * cos(4 * pi * y) + 0.25"
{g}
"""

_BOUNDARIES = {
    "periodic": ("periodic", ""),
    "homogeneous": ("dirichlet", ""),
    "lifted": ("dirichlet", 'g = "1 + x * y + t"'),
}


@pytest.mark.parametrize("scheme", ["euler", "rk2"])
@pytest.mark.parametrize("f", ["u - u ** 3", "2.5", "u"])
@pytest.mark.parametrize("boundary", sorted(_BOUNDARIES))
def test_steps_leave_incoming_coefficients_unchanged(boundary, f, scheme):
    # "2.5" reaches the load as a read-only broadcast view, "u" as the
    # nodal state itself; the steps combine in place on their own arrays
    bc, g = _BOUNDARIES[boundary]
    prob = parse_config(_CUSTOM_2D.format(bc=bc, f=f, g=g)).problem
    mesh = mesh_for(prob, (8, 6))
    ctx = LoadContext(prob, mesh)
    dt = 0.05
    w = _weights(ctx, dt, scheme)
    saved = {k: v.copy() for k, v in vars(w).items()
             if isinstance(v, np.ndarray)}
    c0 = forward_transform(initial_state(prob, mesh), mesh)
    coeffs = c0.copy()
    step = functools.partial(STEPS[scheme], coeffs, 0.0, ctx, w)
    first = step()
    assert np.array_equal(coeffs, c0)
    assert not np.shares_memory(first, coeffs)
    again = step()
    assert np.array_equal(again, first)
    for name, value in saved.items():
        assert np.array_equal(getattr(w, name), value), name


def _whole_reaction_in_f(prob):
    """The same problem with its whole reaction in f: no linear part, no
    source."""
    return dataclasses.replace(
        prob, linear=0.0, source=(),
        f=lambda t, u, xs: full_reaction(prob, t, u, xs))


@pytest.mark.parametrize("scheme, c2", [("euler", 0.5), ("rk2", 0.5),
                                        ("rk2", 1.0)])
@pytest.mark.parametrize("subs", [(8, 4), (16, 8)])
def test_split_linear_rd_matches_whole_reaction_in_f(subs, scheme, c2):
    # the linear part applied in modal space and the source transformed
    # alone give the nodal-reaction scheme up to rounding
    split = builtin_linear_rd()
    assert split.f is None and split.linear != 0.0
    mesh = mesh_for(split, subs)
    cfg = SchemeConfig(dt=0.01, T=0.5, scheme=scheme, c2=c2)
    got = run(split, mesh, cfg)
    want = run(_whole_reaction_in_f(split), mesh, cfg)
    assert got.step_index == want.step_index == 50
    assert rel_err(got.coeffs, want.coeffs) < 1e-13


def _count_transforms(monkeypatch):
    """Counts of the forward and inverse transforms `run` and the loads
    make from here on."""
    calls = {"forward": 0, "inverse": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (assembly, stepper):
        for name in ("forward", "inverse"):
            attr = f"{name}_transform"
            monkeypatch.setattr(module, attr,
                                counted(name, getattr(module, attr)))
    return calls


@pytest.mark.parametrize("nsteps", [0, 1, 2, 7])
def test_linear_rd_run_transforms_u0_and_the_source_profile_once(
        monkeypatch, nsteps):
    # the profile is transformed at the first load, so a run with no
    # steps transforms u0 alone, and steps make no transform of their own
    calls = _count_transforms(monkeypatch)
    prob = builtin_linear_rd()
    run(prob, mesh_for(prob, (8, 4)),
        SchemeConfig(dt=0.01, T=0.01 * nsteps, scheme="euler", c2=0.5))
    assert calls == {"forward": 1 + min(nsteps, 1), "inverse": 0}


@pytest.mark.parametrize("scheme", ["euler", "rk2"])
@pytest.mark.parametrize("periodic", [False, True])
def test_steps_with_neither_f_nor_a_source_make_no_transform(
        monkeypatch, periodic, scheme):
    calls = _count_transforms(monkeypatch)
    prob = _problem(None, dim=2,
                    bc=Periodic() if periodic else Dirichlet())
    run(prob, mesh_for(prob, (8, 4)),
        SchemeConfig(dt=0.01, T=0.05, scheme=scheme, c2=0.5))
    assert calls == {"forward": 1, "inverse": 0}


def test_every_inverse_transform_of_an_unobserved_run_is_a_loads(
        monkeypatch):
    # the steps are modal: the load forms each nodal state its reaction
    # reads, and nothing else in a step leaves modal space
    prob = builtin_flory_huggins()
    inside, seen = [False], []

    def load(ctx, t, coeffs):
        inside[0] = True
        try:
            return assembly.transformed_load(ctx, t, coeffs)
        finally:
            inside[0] = False

    def inverse(fn):
        def wrapper(*args, **kwargs):
            seen.append(inside[0])
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(stepper, "transformed_load", load)
    # each module that may call it, whether or not it imports it
    for module in (assembly, stepper):
        monkeypatch.setattr(module, "inverse_transform",
                            inverse(transforms.inverse_transform),
                            raising=False)
    run(prob, mesh_for(prob, (8, 8, 8)),
        SchemeConfig(dt=1e-4, T=3e-4, scheme="rk2", c2=0.5))
    assert seen == [True] * 6


def test_a_lifted_run_builds_its_face_grids_once(monkeypatch):
    # the face grids are the mesh's: the lifting and the check of each
    # observed state read one build, which on a 3D mesh asks for the full
    # coordinates of axes 1 and 2 (axis 0's faces) and of axis 2 (axis 1's)
    axes = []

    def counted(mesh, axis):
        axes.append(axis)
        return full_axis_coordinates(mesh, axis)

    monkeypatch.setattr("expfem.mesh.full_axis_coordinates", counted)
    prob = builtin_allen_cahn_wave()
    run(prob, mesh_for(prob, (8, 4, 4)),
        SchemeConfig(dt=1e-4, T=3e-4, scheme="rk2", c2=0.5),
        [(1, lambda n, t, U: None)])
    assert sorted(axes) == [1, 2, 2]


def test_run_warns_of_an_aspect_ratio_above_eight():
    # linear_rd's domain is 2 x 1: cells of 1/2 x 1/40 have ratio 20, and
    # cells of 1/2 x 1/16 exactly 8, which is within the bound
    prob = builtin_linear_rd()
    cfg = SchemeConfig(dt=1e-3, T=1e-3, scheme="euler", c2=0.5)
    with pytest.warns(UserWarning, match=r"aspect ratio 20\.00 exceeds 8"):
        run(prob, mesh_for(prob, (4, 40)), cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(prob, mesh_for(prob, (4, 16)), cfg)


@pytest.fixture
def uncached_heap_settings():
    """`_keep_freed_arrays` with its cache cleared before and after, so it
    runs within the test and again at the next `run`."""
    stepper._keep_freed_arrays.cache_clear()
    yield stepper._keep_freed_arrays
    stepper._keep_freed_arrays.cache_clear()


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_c_library,
                                  lambda name: types.SimpleNamespace()],
                         ids=["no-library", "no-mallopt"])
def test_keeping_freed_arrays_is_a_no_op_without_mallopt(
        monkeypatch, uncached_heap_settings, cdll):
    monkeypatch.setattr(stepper.ctypes, "CDLL", cdll)
    assert uncached_heap_settings() is None


def test_keeping_freed_arrays_sets_both_thresholds_through_mallopt(
        monkeypatch, uncached_heap_settings):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(stepper.ctypes, "CDLL",
                        lambda name: types.SimpleNamespace(mallopt=mallopt))
    uncached_heap_settings()
    assert calls == [(stepper._M_MMAP_THRESHOLD, 32 << 20),
                     (stepper._M_TRIM_THRESHOLD, 64 << 20)]


def test_an_rk2_step_with_no_f_forms_no_stage():
    # the stage only feeds the second load's nodal state, which a problem
    # with no f never forms, so the stage weights go unread
    prob = builtin_linear_rd()
    mesh = mesh_for(prob, (8, 4))
    ctx = LoadContext(prob, mesh)
    bare = _weights(ctx, 0.01, "rk2")
    bare.stage_decay = bare.stage_phi1 = None
    c0 = forward_transform(initial_state(prob, mesh), mesh)
    want = exp_rk2_step(c0, 0.0, ctx, _weights(ctx, 0.01, "rk2"))
    got = exp_rk2_step(c0, 0.0, ctx, bare)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scheme", ["euler", "rk2"])
def test_source_modes_are_read_only_and_left_unchanged_by_steps(scheme):
    # the steps scale each load in place: a load that handed out the
    # cached modes themselves would change them for every later load
    prob = builtin_linear_rd()
    mesh = mesh_for(prob, (8, 4))
    ctx = LoadContext(prob, mesh)
    c0 = forward_transform(initial_state(prob, mesh), mesh)
    step = functools.partial(STEPS[scheme], c0, 0.0, ctx,
                             _weights(ctx, 0.01, scheme))
    first = step()
    (modes,) = ctx.source_modes
    saved = modes.copy()
    assert not modes.flags.writeable
    assert np.array_equal(step(), first)
    assert np.array_equal(modes, saved)


@pytest.mark.parametrize("scheme", ["euler", "rk2"])
@pytest.mark.parametrize("boundary", sorted(_BOUNDARIES))
def test_linear_part_in_modal_space_on_every_boundary_kind(boundary, scheme):
    # u - u^3 with its u moved into `linear`: the periodic half spectrum
    # and the lifted load take the fold as the sine coefficients do
    bc, g = _BOUNDARIES[boundary]
    whole = parse_config(_CUSTOM_2D.format(bc=bc, f="u - u ** 3", g=g)).problem
    split = dataclasses.replace(whole, linear=1.0,
                                f=lambda t, u, xs: -u ** 3)
    mesh = mesh_for(whole, (8, 6))
    cfg = SchemeConfig(dt=0.01, T=0.2, scheme=scheme, c2=0.5)
    got = run(split, mesh, cfg).coeffs
    assert rel_err(got, run(whole, mesh, cfg).coeffs) < 1e-13


def _custom_2d(boundary):
    bc, g = _BOUNDARIES[boundary]
    return parse_config(_CUSTOM_2D.format(bc=bc, f="u - u ** 3", g=g)).problem


@pytest.mark.parametrize("prob, subs", [
    (_custom_2d("periodic"), (8, 6)),
    (_custom_2d("homogeneous"), (8, 6)),
    (_custom_2d("lifted"), (8, 6)),
    (builtin_flory_huggins(), (8, 8, 8)),
    (builtin_allen_cahn_wave(dim=2), (16, 6)),
    (builtin_linear_rd(), (8, 4)),  # linear != 0 folds into the weights
], ids=["periodic", "homogeneous", "lifted", "fh", "acw", "linear_rd"])
@pytest.mark.parametrize("scheme", ["euler", "rk2"])
def test_rk2_step_gives_the_bits_of_its_products_with_temporaries(
        prob, subs, scheme):
    # Euler runs rk2's first-stage combine, so both schemes pin its order
    mesh = mesh_for(prob, subs)
    ctx = LoadContext(prob, mesh)
    dt = 1e-3
    w = _weights(ctx, dt, scheme)
    coeffs = forward_transform(initial_state(prob, mesh), mesh)
    for n in range(3):
        want = step_with_temporaries(scheme, coeffs, dt * n, ctx, w)
        coeffs = STEPS[scheme](coeffs, dt * n, ctx, w)
        assert np.array_equal(coeffs, want)


def test_rk2_step_frees_its_input_before_its_second_load(monkeypatch):
    # run hands each step its state as a call temporary, and the step
    # drops it once the first-stage combine has read it: at each second
    # load the state the step started from is dead
    first, dead = [], []

    def load(ctx, t, coeffs):
        if len(first) == len(dead):
            first.append(weakref.ref(coeffs))
        else:
            dead.append(first[-1]() is None)
        return assembly.transformed_load(ctx, t, coeffs)

    monkeypatch.setattr(stepper, "transformed_load", load)
    freed = []
    for boundary in ("periodic", "homogeneous", "lifted"):
        first.clear()
        dead.clear()
        prob = _custom_2d(boundary)
        run(prob, mesh_for(prob, (8, 6)),
            SchemeConfig(dt=0.01, T=0.03, scheme="rk2", c2=0.5),
            [(1, lambda n, t, U: None)])
        assert len(dead) == 3
        freed.append(all(dead))
    assert freed == [True, True, True]


try:
    _HAS_MALLOPT = hasattr(ctypes.CDLL(None), "mallopt")
except (OSError, TypeError):
    _HAS_MALLOPT = False


@pytest.mark.skipif(not _HAS_MALLOPT, reason="the C library has no mallopt")
def test_a_repeated_run_reuses_the_freed_heap():
    # glibc's dynamic thresholds would map each freed set-up array fresh
    # in the next run: about 305 faults per fh 32^3 run.  A fresh
    # interpreter, so that no earlier test's frees raise them first
    script = (
        "import resource\n"
        "from expfem.problems import builtin_flory_huggins, mesh_for\n"
        "from expfem.stepper import SchemeConfig, run\n"
        "prob = builtin_flory_huggins()\n"
        "mesh = mesh_for(prob, (32, 32, 32))\n"
        "cfg = SchemeConfig(dt=1e-4, T=2e-4, scheme='rk2', c2=0.5)\n"
        "run(prob, mesh, cfg)\n"
        "run(prob, mesh, cfg)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "run(prob, mesh, cfg)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(expfem.__file__).parent.parent),
        os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert int(out.stdout) < 50


@pytest.mark.parametrize("factory, subdivisions, scheme, every, bound", [
    (builtin_flory_huggins, (32, 32, 32), "rk2", None, 8.0),
    (builtin_flory_huggins, (32, 32, 32), "euler", None, 5.5),
    (builtin_flory_huggins, (32, 32, 32), "rk2", 1, 8.0),
    (builtin_allen_cahn_wave, (64, 8, 8), "rk2", None, 12.0)],
    ids=["fh-rk2", "fh-euler", "fh-rk2-observed", "acw-rk2"])
def test_run_memory_stays_within_a_few_nodal_arrays(factory, subdivisions,
                                                    scheme, every, bound):
    # a run that kept the initial state, a phi1 beside rk2's b1, and the
    # stage and a stage_phi1 * G1 product through the second load peaked
    # at 11.0 (rk2) and 6.75 (Euler) nodal arrays; keeping the observed
    # state through the next step adds one more.  A run that kept the
    # rate tensor through the steps and each load's nodal state through
    # its transform peaked at 8.4 (rk2) and 5.75 (Euler), and the lifted
    # wave at 15.35; the wave at 12.54 while its lifting plan kept a
    # face-sized layer pair between calls, and at 11.67 without.  Where
    # `run` kept its own reference to each step's input and the rk2 step
    # made its output buffer before its first load, they peaked at 7.93
    # (rk2, observed or not) and 11.65 (wave); they read 7.43, 5.14 and
    # 10.72 with the input dropped after the first-stage combine
    prob = factory()
    mesh = mesh_for(prob, subdivisions)
    cfg = SchemeConfig(dt=1e-4, T=3e-4, scheme=scheme, c2=0.5)
    observers = [] if every is None else [(every, lambda n, t, U: None)]
    run(prob, mesh, cfg, observers)
    nodal_bytes = 8 * math.prod(dof_shape(mesh))
    peak = traced_peak(run, prob, mesh, cfg, observers)
    assert peak <= bound * nodal_bytes
