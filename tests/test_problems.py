import math

import numpy as np
import pytest

from expfem.assembly import LoadContext, _trace_faces
from expfem.mesh import Dirichlet, Periodic, dof_shape, node_grids
from expfem.problems import (NonlinearityDomainError, boundary_kind,
                             builtin_allen_cahn_wave, builtin_flory_huggins,
                             builtin_linear_rd, mesh_for)

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


def test_wave_travels_at_constant_speed():
    eps = 0.05
    prob = builtin_allen_cahn_wave(eps)
    speed = 3.0 / (math.sqrt(2.0) * eps)
    T = prob.T_default
    for x in (0.1, 0.5, 1.0):
        a = float(prob.exact(T, (np.asarray(x + speed * T),)))
        b = float(prob.exact(0.0, (np.asarray(x),)))
        assert abs(a - b) < 1e-12


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
    assert boundary_kind(prob) == Dirichlet(prob.g)
    assert prob.g is prob.exact


def test_wave_analytic_trace_derivative():
    # the complex-step dg/dt the lifting uses, on every face, against a
    # central difference of the trace
    prob = builtin_allen_cahn_wave()
    ctx = LoadContext(prob, mesh_for(prob, (8, 2, 2)))
    t = 0.01
    d = 1e-7
    _, gdot = _trace_faces(ctx, t)
    for (_, _, face, shape), got in zip(ctx.faces, gdot):
        fd = (np.broadcast_to(prob.g(t + d, face), shape)
              - np.broadcast_to(prob.g(t - d, face), shape)) / (2 * d)
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


def test_flory_huggins_domain_error():
    prob = builtin_flory_huggins()
    with pytest.raises(NonlinearityDomainError) as exc:
        prob.f(0.0, np.asarray([0.2, -1.0]), None)
    assert exc.value.value == -1.0


def test_flory_huggins_seeded_initial_data_is_reproducible():
    prob = builtin_flory_huggins(seed=42)
    mesh = mesh_for(prob, (8, 8, 8))
    a = prob.u0_nodal(mesh)
    b = builtin_flory_huggins(seed=42).u0_nodal(mesh)
    assert np.array_equal(a, b)
    assert a.shape == tuple(dof_shape(mesh))
    assert np.max(np.abs(a)) <= 0.9
    c = builtin_flory_huggins(seed=43).u0_nodal(mesh)
    assert not np.array_equal(a, c)


def test_flory_huggins_is_periodic_3d():
    prob = builtin_flory_huggins()
    assert prob.periodic and prob.dim == 3
    assert isinstance(boundary_kind(prob), Periodic)
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
