import math

import mpmath as mp
import numpy as np
import pytest

from expfem.mesh import Dirichlet, Periodic
from expfem.operator import (PHI2_TAYLOR_CUTOFF, build_operator, phi,
                             phi_tensor)

from helpers import inv_mass_product, make_mesh, masked_phi, rel_err


def test_phi_limit_values():
    assert phi(1, 0.0) == 1.0
    assert phi(2, 0.0) == 0.5
    with pytest.raises(ValueError):  # phi_0 = exp is not an order phi serves
        phi(0, 0.0)


def test_phi_closed_form_value():
    expected = (1.0 - math.exp(-2.0)) / 2.0
    assert abs(phi(1, -2.0) - expected) < 1e-15


def test_phi_no_cancellation_near_zero():
    assert abs(phi(2, -1e-9) - 0.5) < 0.5 * 1e-9


def test_phi1_relative_accuracy_against_mpmath():
    # expm1(z)/z needs no series near zero: every z != 0 stays within a
    # few ulps, subnormal z included
    mags = np.logspace(-320, np.log10(700.0), 200)
    z = np.concatenate([-mags, mags])
    with mp.workdps(40):
        ref = np.array([float(mp.expm1(mp.mpf(x)) / mp.mpf(x)) for x in z])
    assert np.max(np.abs(phi(1, z) - ref) / ref) < 1e-15


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
    for sign in (-1.0, 1.0):
        z0 = sign * PHI2_TAYLOR_CUTOFF
        below = phi(2, z0 * (1 - 1e-15))
        above = phi(2, z0 * (1 + 1e-15))
        assert abs(below - above) / abs(above) < 1e-14


def _phi_grid():
    """Zero, both sides of phi_2's switch point, a subnormal-scale, the
    expm1 underflow and a stiff argument, and a log-spaced sweep of both
    signs."""
    c = PHI2_TAYLOR_CUTOFF
    edges = [s * c * (1 + e) for s in (-1.0, 1.0) for e in (-1e-15, 0.0, 1e-15)]
    sweep = np.logspace(-12, 4, 97)
    return np.concatenate([[0.0, -0.0, -1e-300, -745.0, -1e4], edges,
                           -sweep, sweep[:60]])


@pytest.mark.parametrize("k", [1, 2])
def test_phi_gives_the_bits_of_the_masked_oracle(k):
    z = _phi_grid()
    # the 168 entries whole, as 3-d and Fortran-ordered 2-d arrays, and
    # the first 11 each as a 0-d input
    for arg in (z, z.reshape(3, 8, 7), np.asfortranarray(z.reshape(24, 7)),
                *z[:11], *map(float, z[:11])):
        want, got = masked_phi(k, arg), phi(k, arg)
        assert type(got) is type(want) and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bc", [Dirichlet(), Periodic()],
                         ids=["dirichlet", "periodic"])
def test_phi_tensor_gives_the_bits_of_the_masked_oracle(bc):
    # the periodic zero mode puts z = 0 in every tensor
    rates = build_operator(make_mesh([(0, 1)] * 3, [16, 12, 10], bc), 0.7)
    for k in (1, 2):
        for tau, scale in ((1e-4, 1.0), (1e-2, 0.5), (10.0, 1.0)):
            want = masked_phi(k, -scale * tau * rates)
            assert phi_tensor(k, rates, scale * tau).tobytes() == want.tobytes()


def test_phi_rejects_higher_orders():
    with pytest.raises(ValueError):
        phi(3, -1.0)


def test_operator_single_dirichlet_mode():
    mesh = make_mesh([(0, 1)], [2], Dirichlet())
    rates = build_operator(mesh, 1.0)
    # sole generalized eigenvalue of the 1D pair is 3/h^2 = 12
    assert np.allclose(rates, [12.0], rtol=1e-13)
    assert np.allclose(inv_mass_product(mesh), [3.0], rtol=1e-13)


def test_operator_periodic_zero_mode():
    mesh = make_mesh([(0, 1), (0, 1)], [4, 8], Periodic())
    rates = build_operator(mesh, 2.5)
    assert rates.min() == 0.0
    assert np.count_nonzero(rates == 0.0) == 1
    assert np.all(inv_mass_product(mesh) > 0)


def test_operator_isotropic_axis_symmetry():
    mesh = make_mesh([(0, 1), (0, 1)], [4, 4], Dirichlet())
    rates = build_operator(mesh, 1.0)
    assert rel_err(rates, rates.T) < 1e-14


def test_operator_requires_positive_diffusion():
    mesh = make_mesh([(0, 1)], [4], Dirichlet())
    with pytest.raises(ValueError):
        build_operator(mesh, 0.0)


def test_phi_tensor_scalar_mode_value():
    mesh = make_mesh([(0, 1)], [2], Dirichlet())
    rates = build_operator(mesh, 1.0)
    out = phi_tensor(1, rates, 0.1)
    assert np.allclose(out, [(1 - math.exp(-1.2)) / 1.2], rtol=1e-14)


def test_phi_tensor_tiny_step_is_identity_weight():
    mesh = make_mesh([(0, 1)], [8], Dirichlet())
    rates = build_operator(mesh, 1.0)
    out = phi_tensor(1, rates, 1e-12)
    assert np.max(np.abs(out - 1.0)) < 1e-9


def test_phi_tensor_argument_validation():
    mesh = make_mesh([(0, 1)], [4], Dirichlet())
    rates = build_operator(mesh, 1.0)
    with pytest.raises(ValueError):
        phi_tensor(1, rates, 0.0)


def test_semigroup_contraction_and_weight_bounds():
    for bc, strict in ((Dirichlet(), True), (Periodic(), False)):
        mesh = make_mesh([(0, 1), (0, 1)], [8, 6], bc)
        rates = build_operator(mesh, 0.7)
        for tau in (1e-6, 0.01, 1.0, 100.0):
            decay = np.exp(-tau * rates)
            assert decay.max() <= 1.0
            if strict:
                assert decay.max() < 1.0
            w1 = phi_tensor(1, rates, tau)
            w2 = phi_tensor(2, rates, tau)
            assert np.all((w1 > 0) & (w1 <= 1.0))
            assert np.all((w2 > 0) & (w2 <= 0.5))
