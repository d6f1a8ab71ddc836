"""Invariants of the solver, checked against the solver itself: properties
that hold for every mesh, state and step, drawn by hypothesis."""

import dataclasses

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from expfem.problems import builtin_flory_huggins, mesh_for
from expfem.stepper import SchemeConfig, run
from expfem.transforms import inverse_transform

from helpers import rel_err

STEPS = 20

shapes = st.lists(st.integers(2, 16), min_size=1, max_size=3)


def _flory_huggins(U0):
    """Flory-Huggins on the periodic unit box of U0's dimension, started
    from the nodal state U0."""
    prob = builtin_flory_huggins()
    return dataclasses.replace(prob, domain=prob.domain[:U0.ndim],
                               u0_nodal=lambda mesh: U0)


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
