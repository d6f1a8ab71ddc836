"""Observed convergence orders of the exponential FEM.

On linear_rd (homogeneous Dirichlet data) each ladder refines one of dt
or h dyadically and gates the last rate: order 1 in time for exponential
Euler, 2 for ETDRK2 (before the spatial error floor), and 2 in L2 / 1 in
H1 in space.  The last rates measure 0.99, 2.28, 1.99 and 1.01.  The 2D
Allen-Cahn wave runs the same spatial gate through the Dirichlet lifting
of its moving trace; its last rates measure 1.96 in L2 and 1.20 in H1.
Every run starts from the nodal interpolant of the initial datum.
"""

import pytest

from expfem.analysis import convergence_study
from expfem.problems import builtin_allen_cahn_wave, builtin_linear_rd

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
