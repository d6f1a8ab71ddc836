"""The fast path against a textbook method of lines on periodic meshes.

The oracle (`helpers.textbook_periodic_matrices`) shares none of the
program's derivation: it assembles the global Q1 mass and stiffness
matrices cell by cell from Gauss quadrature of the basis, with no kron
product, no `mesh.element_pair` and no eigenvalues, and interpolates the
whole reaction at every node.  Its steps apply the schemes' formulas
with phi functions from augmented matrix exponentials.  The fast
semi-discrete right-hand side, one exponential Euler step and one rk2
step must each equal the oracle's to 1e-12 relative.

Dirichlet meshes are left out: there the program interpolates the
reaction over the owned nodes only, and the textbook load over every
node (ROADMAP items 2 and 16).
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from expfem.assembly import LoadContext, transformed_load
from expfem.mesh import Periodic
from expfem.problems import Problem, mesh_for
from expfem.stepper import (SolverState, StepWeights, exp_euler_step,
                            exp_rk2_step)
from expfem.transforms import forward_transform, inverse_transform

from helpers import rel_err, textbook_periodic_rhs, textbook_periodic_step

TOL = 1e-12
# per-axis subinterval caps, far below `helpers.DENSE_ORACLE_MAX_DOF`
# nodes, that keep the dense exponentials small
MAX_CELLS = {1: 32, 2: 12, 3: 6}


@st.composite
def subdivisions(draw):
    dim = draw(st.integers(1, 3))
    return draw(st.lists(st.integers(2, MAX_CELLS[dim]), min_size=dim,
                         max_size=dim))


def _problem(dim, diffusion, linear, source, reaction):
    """A periodic problem on a box of unequal sides, with an optional
    separable source and an optional reaction that reads u and x."""
    domain = tuple((-0.5 * a, 1.0 + 0.5 * a) for a in range(dim))

    def profile(xs):
        out = 1.0
        for x in xs:
            out = out * np.cos(2.0 * np.pi * x) + x
        return out

    def f(t, u, xs):
        return u * (1.0 - u * u) + np.sin(t + xs[0])

    return Problem(
        name="textbook", diffusion=diffusion, f=f if reaction else None,
        domain=domain, bc=Periodic(), linear=linear,
        source=((lambda t: np.exp(-t), profile),) if source else ())


@given(subs=subdivisions(), diffusion=st.sampled_from([0.05, 0.5, 1.0]),
       linear=st.sampled_from([0.0, -1.5, 0.7]), source=st.booleans(),
       reaction=st.booleans(), t=st.sampled_from([0.0, 0.3]),
       dt=st.sampled_from([0.01, 0.05]), c2=st.sampled_from([0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1))
@example(subs=[6], diffusion=0.5, linear=-1.5, source=True, reaction=True,
         t=0.3, dt=0.01, c2=0.5, seed=0)
@example(subs=[5, 4], diffusion=0.5, linear=-1.5, source=True,
         reaction=True, t=0.3, dt=0.01, c2=0.5, seed=1)
@example(subs=[4, 3, 5], diffusion=0.5, linear=-1.5, source=True,
         reaction=True, t=0.3, dt=0.01, c2=0.5, seed=2)
def test_fast_path_matches_textbook_method_of_lines(
        subs, diffusion, linear, source, reaction, t, dt, c2, seed):
    prob = _problem(len(subs), diffusion, linear, source, reaction)
    mesh = mesh_for(prob, subs)
    ctx = LoadContext(prob, mesh)
    U = 0.5 * np.random.default_rng(seed).standard_normal(subs)
    coeffs = forward_transform(U, mesh)

    fast = inverse_transform((linear - ctx.op.decay_rates) * coeffs
                             + transformed_load(ctx, t, U), mesh)
    assert rel_err(fast, textbook_periodic_rhs(prob, mesh, t, U)) < TOL

    state = SolverState(t, coeffs)
    euler = exp_euler_step(state, ctx, dt,
                           StepWeights(ctx.op, dt, "euler", linear=linear))
    want = textbook_periodic_step(prob, mesh, t, U, dt, "euler")
    assert rel_err(inverse_transform(euler.coeffs, mesh), want) < TOL

    rk2 = exp_rk2_step(state, ctx, dt, c2,
                       StepWeights(ctx.op, dt, "rk2", c2, linear=linear))
    want = textbook_periodic_step(prob, mesh, t, U, dt, "rk2", c2)
    assert rel_err(inverse_transform(rk2.coeffs, mesh), want) < TOL
