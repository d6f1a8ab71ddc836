"""Observed convergence orders of the exponential FEM.

On linear_rd (homogeneous Dirichlet data) each ladder refines one of dt
or h dyadically and gates the last rate: order 1 in time for exponential
Euler, 2 for ETDRK2 (before the spatial error floor), and 2 in L2 / 1 in
H1 in space.  The last rates measure 0.99, 2.28, 1.99 and 1.01.  The 2D
Allen-Cahn wave runs the same spatial gate through the Dirichlet lifting
of its moving trace; its last rates measure 1.96 in L2 and 1.20 in H1.
Every run starts from the nodal interpolant of the initial datum.

The space orders hold in 3D with a reaction that reads u, on both
unlifted boundary kinds: `helpers.manufactured_semilinear` has an exact
solution, and its last rates measure 1.99 in L2 and 1.01 in H1 under
zero Dirichlet data, 1.97 and 1.06 on the periodic box.

The time orders also hold with a reaction that reads u, on both
unlifted boundary kinds and in 3D: on u_t = 0.1 lap(u) + u (1 - u^2),
each ladder measures self-convergence, the max nodal distance at
T = 0.5 to one nt = 1024 rk2 run on the same mesh, which isolates the
time error from the spatial one.
"""

import functools
import math

import numpy as np
import pytest

from expfem.analysis import convergence_study
from expfem.mesh import Dirichlet, Periodic
from expfem.problems import (Problem, builtin_allen_cahn_wave,
                             builtin_linear_rd, mesh_for)
from expfem.stepper import SchemeConfig, run
from expfem.transforms import inverse_transform

from helpers import manufactured_semilinear

pytestmark = pytest.mark.slow


def _last_row(rungs, scheme):
    return convergence_study(builtin_linear_rd(), rungs, scheme=scheme,
                             T=0.25)[-1]


def test_exponential_euler_is_first_order_in_time():
    row = _last_row([((64, 32), nt) for nt in (4, 8, 16, 32)], "euler")
    assert 0.9 <= row.rate_l2 <= 1.1


def test_etdrk2_is_second_order_in_time():
    row = _last_row([((64, 32), nt) for nt in (4, 8, 16)], "rk2")
    assert row.rate_l2 >= 1.9


def test_p1_space_orders_two_in_l2_and_one_in_h1():
    row = _last_row([((n, n // 2), 256) for n in (8, 16, 32, 64)], "rk2")
    assert row.rate_l2 >= 1.85
    assert row.rate_h1 >= 0.95


def test_p1_space_orders_through_dirichlet_lifting():
    rungs = [((n, n // 8), 400) for n in (32, 64, 128, 256)]
    row = convergence_study(builtin_allen_cahn_wave(dim=2), rungs,
                            scheme="rk2", T=0.005)[-1]
    assert row.rate_l2 >= 1.85
    assert row.rate_h1 >= 0.95


@pytest.mark.parametrize("bc", [Dirichlet(), Periodic()],
                         ids=["dirichlet", "periodic"])
def test_p1_space_orders_in_3d_on_a_semilinear_reaction(bc):
    rungs = [((n, n, n), 64) for n in (8, 16, 32)]
    rows = convergence_study(manufactured_semilinear(bc), rungs,
                             scheme="rk2", T=0.25)
    assert rows[-1].rate_l2 >= 1.85, rows
    assert rows[-1].rate_h1 >= 0.95, rows


SEMILINEAR_CASES = {
    "dirichlet_1d": (Dirichlet(), (64,)),
    "dirichlet_3d": (Dirichlet(), (12, 12, 12)),
    "periodic_2d": (Periodic(), (32, 32)),
    "periodic_3d": (Periodic(), (12, 12, 12)),
}


def _semilinear_problem(bc, dim):
    """u_t = 0.1 lap(u) + u (1 - u^2) on the unit box from
    1/2 prod sin(k x_a): k = pi under zero Dirichlet data, and k = 2 pi
    plus 1/4 on a periodic box."""
    k, shift = (2.0 * math.pi, 0.25) if bc == Periodic() else (math.pi, 0.0)

    def u0(xs):
        out = 0.5
        for x in xs:
            out = out * np.sin(k * x)
        return out + shift

    return Problem(name="semilinear", diffusion=0.1,
                   f=lambda t, u, xs: u * (1.0 - u * u),
                   domain=((0.0, 1.0),) * dim, bc=bc, u0=u0)


def _semilinear_end_state(case, nt, scheme="rk2", c2=0.5):
    bc, subs = SEMILINEAR_CASES[case]
    prob = _semilinear_problem(bc, len(subs))
    mesh = mesh_for(prob, subs)
    cfg = SchemeConfig(dt=0.5 / nt, T=0.5, scheme=scheme, c2=c2)
    return inverse_transform(run(prob, mesh, cfg).coeffs, mesh)


# one reference run per case, shared by its three ladders
_semilinear_reference = functools.cache(
    functools.partial(_semilinear_end_state, nt=1024))


@pytest.mark.parametrize("scheme, c2, low, high", [
    ("euler", 0.5, 0.9, 1.1),
    ("rk2", 0.5, 1.9, math.inf),
    ("rk2", 1.0, 1.9, math.inf),
], ids=["euler", "rk2_c2_half", "rk2_c2_one"])
@pytest.mark.parametrize("case", sorted(SEMILINEAR_CASES))
def test_time_orders_on_a_semilinear_reaction(case, scheme, c2, low, high):
    want = _semilinear_reference(case)
    errors = [np.max(np.abs(_semilinear_end_state(case, nt, scheme, c2) - want))
              for nt in (4, 8, 16, 32, 64)]
    rate = math.log2(errors[-2] / errors[-1])
    assert low <= rate <= high, (errors, rate)
