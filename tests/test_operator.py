import math

import numpy as np
import pytest

from expfem.mesh import HomogeneousDirichlet, Periodic
from expfem.operator import (PHI1_TAYLOR_CUTOFF, PHI2_TAYLOR_CUTOFF,
                             build_operator, phi, phi_tensor)

from helpers import make_mesh, rel_err


def test_phi_limit_values():
    assert phi(1, 0.0) == 1.0
    assert phi(2, 0.0) == 0.5
    assert phi(0, 0.0) == 1.0


def test_phi_closed_form_value():
    expected = (1.0 - math.exp(-2.0)) / 2.0
    assert abs(phi(1, -2.0) - expected) < 1e-15


def test_phi_no_cancellation_near_zero():
    assert abs(phi(2, -1e-9) - 0.5) < 0.5 * 1e-9


def test_phi_recurrence_identities():
    z = -np.logspace(-12, 3, 400)
    e = np.exp(z)
    lhs1 = phi(1, z) * z + 1.0
    lhs2 = phi(2, z) * z**2 + z + 1.0
    scale = np.maximum(np.abs(z * phi(1, z)), 1.0)
    assert np.max(np.abs(lhs1 - e) / scale) < 1e-12
    scale2 = np.maximum(np.abs(z**2 * phi(2, z)), np.maximum(np.abs(z), 1.0))
    assert np.max(np.abs(lhs2 - e) / scale2) < 1e-12


def test_phi_taylor_crossover_continuity():
    # probe a few ulps on either side so the branch switch is the only
    # difference between the two evaluations
    for k, cutoff in ((1, PHI1_TAYLOR_CUTOFF), (2, PHI2_TAYLOR_CUTOFF)):
        for sign in (-1.0, 1.0):
            z0 = sign * cutoff
            below = phi(k, z0 * (1 - 1e-15))
            above = phi(k, z0 * (1 + 1e-15))
            assert abs(below - above) / abs(above) < 1e-14


def test_phi_rejects_higher_orders():
    with pytest.raises(ValueError):
        phi(3, -1.0)


def test_operator_single_dirichlet_mode():
    mesh = make_mesh([(0, 1)], [2], HomogeneousDirichlet())
    op = build_operator(mesh, 1.0)
    # sole generalized eigenvalue of the 1D pair is 3/h^2 = 12
    assert np.allclose(op.decay_rates, [12.0], rtol=1e-13)
    assert np.allclose(op.load_scale, [3.0], rtol=1e-13)


def test_operator_periodic_zero_mode():
    mesh = make_mesh([(0, 1), (0, 1)], [4, 8], Periodic())
    op = build_operator(mesh, 2.5)
    assert op.decay_rates.min() == 0.0
    assert np.count_nonzero(op.decay_rates == 0.0) == 1
    assert np.all(op.load_scale > 0)


def test_operator_isotropic_axis_symmetry():
    mesh = make_mesh([(0, 1), (0, 1)], [4, 4], HomogeneousDirichlet())
    op = build_operator(mesh, 1.0)
    assert rel_err(op.decay_rates, op.decay_rates.T) < 1e-14


def test_operator_requires_positive_diffusion():
    mesh = make_mesh([(0, 1)], [4], HomogeneousDirichlet())
    with pytest.raises(ValueError):
        build_operator(mesh, 0.0)


def test_phi_tensor_order_zero_is_entrywise_exp():
    mesh = make_mesh([(0, 1), (0, 1)], [6, 4], HomogeneousDirichlet())
    op = build_operator(mesh, 1.0)
    tau = 0.2
    out = phi_tensor(0, op, tau)
    assert np.array_equal(out, np.exp(-tau * op.decay_rates))
    assert np.all((out > 0) & (out < 1))


def test_phi_tensor_scalar_mode_value():
    mesh = make_mesh([(0, 1)], [2], HomogeneousDirichlet())
    op = build_operator(mesh, 1.0)
    out = phi_tensor(1, op, 0.1)
    assert np.allclose(out, [(1 - math.exp(-1.2)) / 1.2], rtol=1e-14)


def test_phi_tensor_tiny_step_is_identity_weight():
    mesh = make_mesh([(0, 1)], [8], HomogeneousDirichlet())
    op = build_operator(mesh, 1.0)
    out = phi_tensor(1, op, 1e-12)
    assert np.max(np.abs(out - 1.0)) < 1e-9


def test_phi_tensor_argument_validation():
    mesh = make_mesh([(0, 1)], [4], HomogeneousDirichlet())
    op = build_operator(mesh, 1.0)
    with pytest.raises(ValueError):
        phi_tensor(1, op, 0.0)
    with pytest.raises(ValueError):
        phi_tensor(1, op, 0.1, scale=1.5)


def test_semigroup_contraction_and_weight_bounds():
    for bc, strict in ((HomogeneousDirichlet(), True), (Periodic(), False)):
        mesh = make_mesh([(0, 1), (0, 1)], [8, 6], bc)
        op = build_operator(mesh, 0.7)
        for tau in (1e-6, 0.01, 1.0, 100.0):
            decay = phi_tensor(0, op, tau)
            assert decay.max() <= 1.0
            if strict:
                assert decay.max() < 1.0
            w1 = phi_tensor(1, op, tau)
            w2 = phi_tensor(2, op, tau)
            assert np.all((w1 > 0) & (w1 <= 1.0))
            assert np.all((w2 > 0) & (w2 <= 0.5))
