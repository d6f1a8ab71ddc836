import math
import struct

import hypothesis.extra.numpy as hnp
import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import expfem.analysis as analysis
from expfem.analysis import (TimeSeriesObserver, _exact_gradient,
                             convergence_study, discrete_energy, error_norms,
                             sup_norm, timing_study)
from expfem.mesh import (Dirichlet, Periodic, dof_shape, extend_nodal,
                         node_grids)
from expfem.problems import (NonlinearityDomainError, builtin_allen_cahn_wave,
                             builtin_linear_rd, mesh_for)

from helpers import (make_mesh, mp_linear_rd_exact, mp_wave_exact, rel_err,
                     traced_peak)


def test_error_norms_vanish_for_interpolated_exact():
    from expfem.mesh import Dirichlet
    exact = lambda t, xs: (1.0 + xs[0]) * (2.0 - xs[1]) + 0.5 * t
    mesh = make_mesh([(0, 1), (0, 2)], [5, 4], Dirichlet(exact))
    U = np.broadcast_to(exact(0.3, node_grids(mesh)),
                        dof_shape(mesh)).copy()
    l2, h1 = error_norms(U, mesh, exact, 0.3)
    assert l2 < 1e-13 and h1 < 1e-12


def test_error_norms_closed_form_1d():
    # zero numerical solution against x(1-x): L2^2 = 1/30, |.|_1^2 = 1/3
    mesh = make_mesh([(0, 1)], [2], Dirichlet())
    exact = lambda t, xs: xs[0] * (1.0 - xs[0])
    l2, h1 = error_norms(np.zeros(1), mesh, exact, 0.0)
    assert abs(l2 - math.sqrt(1.0 / 30.0)) < 1e-12
    assert abs(h1 - math.sqrt(1.0 / 30.0 + 1.0 / 3.0)) < 1e-9


def test_error_norms_constant_shift_periodic():
    mesh = make_mesh([(0, 2), (0, 1)], [6, 4], Periodic())
    c = 0.7
    U = np.full(dof_shape(mesh), c)
    l2, _ = error_norms(U, mesh, lambda t, xs: 0.0 * xs[0], 0.0)
    assert abs(l2 - c * math.sqrt(2.0)) < 1e-12


def test_error_norms_quadrature_order_stability(monkeypatch):
    # smooth error field: zero numerical solution against the smooth exact
    prob = builtin_linear_rd()
    mesh = mesh_for(prob, (16, 16))
    U = np.zeros(dof_shape(mesh))
    a = error_norms(U, mesh, prob.exact, 0.2)
    monkeypatch.setattr(analysis, "GAUSS_POINTS", 6)
    b = error_norms(U, mesh, prob.exact, 0.2)
    assert abs(a[0] - b[0]) / b[0] < 1e-9
    assert abs(a[1] - b[1]) / b[1] < 1e-9


def test_discrete_energy_zero_state():
    mesh = make_mesh([(0, 1)] * 3, [4] * 3, Periodic())
    U = np.zeros(dof_shape(mesh))
    assert discrete_energy(U, mesh, 0.01, 0.8, 1.6) == pytest.approx(0.0, abs=1e-15)


def test_discrete_energy_constant_state_closed_form():
    mesh = make_mesh([(0, 1)] * 3, [4] * 3, Periodic())
    U = np.full(dof_shape(mesh), 0.5)
    expected = 0.4 * (1.5 * math.log(1.5) + 0.5 * math.log(0.5)) - 0.2
    val = discrete_energy(U, mesh, 0.01, 0.8, 1.6)
    assert abs(val - expected) < 1e-12


@pytest.mark.parametrize("u", [1e-3, 1e-5, 1e-6])
def test_discrete_energy_small_constant_state_matches_mpmath(u):
    # F(u) ~ u^2: adding log(1 + u) and log(1 - u), each of size u, loses
    # about eps/u relative; log1p(-u^2) + 2u artanh(u) does not
    mesh = make_mesh([(0, 1)] * 3, [4] * 3, Periodic())
    with mp.workdps(50):
        v = mp.mpf(u)
        mixing = (1 + v) * mp.log(1 + v) + (1 - v) * mp.log(1 - v)
        expected = float(mp.mpf("0.4") * mixing - mp.mpf("0.8") * v**2)
    val = discrete_energy(np.full(dof_shape(mesh), u), mesh, 0.01, 0.8, 1.6)
    assert rel_err(val, expected) < 1e-12


def test_discrete_energy_finite_next_to_the_bound():
    # the extreme nodes sit one ulp inside (-1, 1); any RuntimeWarning of
    # the logarithms fails the test
    mesh = make_mesh([(0, 1)] * 2, [4, 3], Periodic())
    U = 0.5 * np.tanh(np.random.default_rng(11).standard_normal(
        dof_shape(mesh)))
    edge = np.nextafter(1.0, 0.0)
    U[0, 0], U[2, 1] = edge, -edge
    val = discrete_energy(U, mesh, 0.01, 0.8, 1.6)
    assert math.isfinite(val)


def test_discrete_energy_gradient_term_positive():
    mesh = make_mesh([(0, 1), (0, 1)], [6, 6], Periodic())
    rng = np.random.default_rng(14)
    U = 0.3 * rng.standard_normal(dof_shape(mesh))
    grad_only = discrete_energy(U, mesh, 1.0, 0.0, 0.0)
    assert grad_only > 0
    flat = discrete_energy(np.full_like(U, 0.1), mesh, 1.0, 0.0, 0.0)
    assert flat == pytest.approx(0.0, abs=1e-15)


def test_discrete_energy_domain_guard():
    mesh = make_mesh([(0, 1)], [4], Periodic())
    with pytest.raises(NonlinearityDomainError):
        discrete_energy(np.array([0.0, 1.0, 0.0, 0.0]), mesh, 0.01, 0.8, 1.6)


def test_discrete_energy_rejects_nan_state():
    mesh = make_mesh([(0, 1)], [4], Periodic())
    with pytest.raises(NonlinearityDomainError) as exc:
        discrete_energy(np.array([0.0, np.nan, 0.2, 0.0]), mesh, 0.01, 0.8, 1.6)
    assert math.isnan(exc.value.value)


def test_sup_norm():
    assert sup_norm(np.zeros((3, 3))) == 0.0
    assert sup_norm(np.array([-0.3, 0.9])) == 0.9


_SPECIAL = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf,
                            0.0, -0.0])


@given(U=hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=5),
                    elements=st.one_of(_SPECIAL, st.floats())))
@example(U=np.zeros(4))
@example(U=np.array([-0.0, 0.0]))
@example(U=np.array([-2.0, math.nan, 1.0]))
@example(U=np.array([-math.inf, 1.0]))
def test_sup_norm_gives_the_bits_of_max_abs(U):
    # -0.0 from max(-U.min(), U.max()) on a zero state would differ
    got, want = sup_norm(U), float(np.max(np.abs(U)))
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert struct.pack("<d", got) == struct.pack("<d", want)


def test_convergence_study_rates_and_report_shape():
    prob = builtin_linear_rd()
    rungs = [((4, 2), 8), ((8, 4), 8)]
    rows = convergence_study(prob, rungs, scheme="rk2", T=0.25)
    assert len(rows) == 2
    first, second = rows
    assert first.rate_l2 is None and first.rate_h1 is None
    assert second.rate_l2 == pytest.approx(
        math.log2(first.err_l2 / second.err_l2))


def test_convergence_study_single_rung_has_no_rates():
    prob = builtin_linear_rd()
    rows = convergence_study(prob, [((4, 2), 4)], T=0.5)
    assert len(rows) == 1 and rows[0].rate_l2 is None


def test_rate_arithmetic_example():
    # dyadic errors 4e-2 -> 1e-2 give rate 2
    assert math.log2(4e-2 / 1e-2) == pytest.approx(2.0)


@pytest.mark.parametrize("coarse, fine", [
    (math.inf, math.inf), (math.inf, 1e-3), (1e-3, math.inf),
    (math.nan, 1e-3), (1e-3, math.nan), (0.0, 1e-3), (1e-3, 0.0)])
def test_rate_needs_positive_finite_errors(coarse, fine):
    # inf / inf would give a nan rate and inf / 1e-3 an inf one
    assert analysis._rate(coarse, fine) is None


@given(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300))
def test_rate_keeps_the_bits_of_log2_of_the_ratio(coarse, fine):
    got = analysis._rate(coarse, fine)
    assert struct.pack("<d", got) == struct.pack(
        "<d", math.log2(coarse / fine))


def test_timing_study_growth_definition():
    prob = builtin_linear_rd()
    r0, r1 = timing_study(prob, [((4, 2), 4), ((8, 4), 4)], T=0.5)
    assert r0.growth is None
    nodes0, nodes1 = 3 * 1, 7 * 3
    expected = math.log(r1.sec_per_step / r0.sec_per_step) / math.log(
        nodes1 / nodes0)
    assert r1.growth == pytest.approx(expected)
    assert r0.err_l2 is None  # timing reports leave error cells empty


def test_time_series_observer_collects_energy_when_configured():
    mesh = make_mesh([(0, 1)] * 3, [4] * 3, Periodic())
    obs = TimeSeriesObserver(mesh, energy_params=(0.01, 0.8, 1.6))
    U = np.full(dof_shape(mesh), 0.25)
    obs(0, 0.0, U)
    obs(2, 0.5, U)
    assert len(obs.rows) == 2
    t, sup, energy = obs.rows[1]
    assert t == 0.5 and sup == 0.25 and energy is not None
    plain = TimeSeriesObserver(mesh)
    plain(0, 0.0, U)
    assert plain.rows[0][2] is None


def test_discrete_energy_memory_stays_block_sized():
    # the dense Gauss-grid path held several (3N)^3 tensors, 57x this bound
    mesh = make_mesh([(0, 1)] * 3, [48] * 3, Periodic())
    rng = np.random.default_rng(5)
    U = 0.5 * np.tanh(rng.standard_normal(dof_shape(mesh)))
    nodal_bytes = extend_nodal(U, mesh).nbytes
    peak = traced_peak(discrete_energy, U, mesh, 0.01, 0.8, 1.6)
    assert peak < 4 * nodal_bytes


def test_error_norms_memory_stays_block_sized():
    # whole-block Gauss tensors with their slopes peaked at 5.2x this bound
    prob = builtin_allen_cahn_wave(dim=3)
    mesh = mesh_for(prob, (256, 24, 24))
    rng = np.random.default_rng(6)
    U = 0.5 * np.tanh(rng.standard_normal(dof_shape(mesh)))
    nodal_bytes = extend_nodal(U, mesh, 0.01).nbytes
    peak = traced_peak(error_norms, U, mesh, prob.exact, 0.01)
    assert peak < 4 * nodal_bytes


def test_error_norms_memory_stays_block_sized_in_2d():
    # evaluating the exact solution once per block instead of once per
    # slice about doubles this peak
    prob = builtin_linear_rd()
    mesh = mesh_for(prob, (256, 128))
    rng = np.random.default_rng(6)
    U = np.tanh(rng.standard_normal(dof_shape(mesh)))
    nodal_bytes = extend_nodal(U, mesh).nbytes
    peak = traced_peak(error_norms, U, mesh, prob.exact, 0.05)
    assert peak < 9 * nodal_bytes


@pytest.mark.parametrize("prob, mp_exact, t", [
    (builtin_linear_rd(), mp_linear_rd_exact, 0.3),
    (builtin_allen_cahn_wave(dim=1), mp_wave_exact(0.05), 0.01),
    (builtin_allen_cahn_wave(dim=2), mp_wave_exact(0.05), 0.01),
    (builtin_allen_cahn_wave(dim=3), mp_wave_exact(0.05), 0.01),
])
def test_complex_step_gradient_matches_mpmath(prob, mp_exact, t):
    # one complex step per axis, exact to rounding, against mpmath's
    # arbitrary-precision derivative on an open grid of the domain
    rng = np.random.default_rng(4)
    axes = [np.sort(rng.uniform(a, b, 3)) for a, b in prob.domain]
    grid = tuple(np.ix_(*axes)) if prob.dim > 1 else (axes[0],)
    for a in range(prob.dim):
        got = np.broadcast_to(_exact_gradient(prob.exact, t, grid, a),
                              (3,) * prob.dim)
        for idx in np.ndindex(got.shape):
            point = [float(axes[b][i]) for b, i in enumerate(idx)]

            def along(v, point=point, a=a):
                moved = list(point)
                moved[a] = v
                return mp_exact(t, *moved)

            with mp.workdps(30):
                ref = float(mp.diff(along, point[a]))
            assert abs(got[idx] - ref) <= 1e-12 * max(1.0, abs(ref))
