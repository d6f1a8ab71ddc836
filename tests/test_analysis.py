import dataclasses
import math
import struct

import hypothesis.extra.numpy as hnp
import mpmath as mp
import numpy as np
import pytest
import scipy.fft
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
from expfem.transforms import DENSE_DST_POINTS

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


def test_error_norms_of_a_huge_error_are_finite():
    # the squares of an error of 1e200 overflow, the norms do not: a
    # constant error on [0, 1] is its own L2 norm and has no gradient
    mesh = make_mesh([(0, 1)], [8], Dirichlet())
    big = 1e200 * math.exp(0.25)
    l2, h1 = error_norms(np.zeros(7), mesh,
                         lambda t, xs: 1e200 * np.exp(t) + 0.0 * xs[0], 0.25)
    assert abs(l2 - big) / big < 1e-14
    assert abs(h1 - big) / big < 1e-14


def test_error_norms_scale_exactly_by_a_power_of_two():
    # scaling U, the trace and the exact solution by 2^700 makes the
    # squares overflow; the rescaled sums give the norms times 2^700 to
    # the bit
    scale = 2.0 ** 700
    exact = lambda t, xs: np.sin(3.0 * xs[0] + t) * np.cos(xs[1])
    scaled = lambda t, xs: scale * exact(t, xs)
    U = np.random.default_rng(5).standard_normal((5, 3))
    norms = error_norms(
        U, make_mesh([(0, 1), (0, 2)], [6, 4], Dirichlet(exact)), exact, 0.3)
    big = error_norms(
        scale * U, make_mesh([(0, 1), (0, 2)], [6, 4], Dirichlet(scaled)),
        scaled, 0.3)
    assert math.isfinite(big[1])
    assert big == (scale * norms[0], scale * norms[1])


def test_error_norms_scale_exactly_by_a_power_of_two_along_a_constant_axis():
    # the exact solution does not read y, so the rest w of the mean over
    # y takes closed Q1 forms: their squares overflow unscaled, and the
    # retry scales them as it scales the Gauss sums of the mean
    scale = 2.0 ** 700
    mesh = make_mesh([(0, 1), (0, 1)], [7, 2], Dirichlet())
    U = np.array([[1.0], [-3.0], [1.0], [-3.0], [1.0], [-3.0]])
    exact = lambda t, xs: 0.0 * xs[0]
    norms = error_norms(U, mesh, exact, 0.0)
    big = error_norms(scale * U, mesh, exact, 0.0)
    assert math.isfinite(big[1])
    assert big == (scale * norms[0], scale * norms[1])


@pytest.mark.parametrize("value, norm", [(math.inf, math.inf),
                                         (math.nan, math.nan)])
def test_error_norms_of_a_non_finite_error_stay_non_finite(value, norm):
    mesh = make_mesh([(0, 1), (0, 2)], [4, 3], Dirichlet())
    l2, h1 = error_norms(np.zeros((3, 2)), mesh,
                         lambda t, xs: value + 0.0 * xs[0], 0.0)
    assert [l2, h1] == pytest.approx([norm, norm], nan_ok=True)


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


@pytest.mark.parametrize("bc", [Periodic(), Dirichlet()],
                         ids=["periodic", "homogeneous"])
def test_discrete_energy_calls_no_fft(monkeypatch, bc):
    # the well and gradient terms are closed forms of the nodal values, so
    # an observation transforms nothing; the first axis has more owned
    # nodes than DENSE_DST_POINTS, where a sine transform would take dstn
    mesh = make_mesh([(0, 1), (0, 1)], [DENSE_DST_POINTS + 6, 4], bc)
    U = 0.5 * np.tanh(np.random.default_rng(15).standard_normal(
        dof_shape(mesh)))

    def refuse(*args, **kwargs):
        raise AssertionError("the energy called scipy.fft")
    for name in ("rfftn", "dstn", "ifftn", "irfft"):
        monkeypatch.setattr(scipy.fft, name, refuse)
    assert math.isfinite(discrete_energy(U, mesh, 0.01, 0.8, 1.6))


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
    rows = convergence_study(prob, rungs, scheme="rk2", T=0.25, c2=0.5)
    assert len(rows) == 2
    first, second = rows
    assert first.rate_l2 is None and first.rate_h1 is None
    assert second.rate_l2 == pytest.approx(
        math.log2(first.err_l2 / second.err_l2))


def test_convergence_study_single_rung_has_no_rates():
    prob = builtin_linear_rd()
    rows = convergence_study(prob, [((4, 2), 4)], T=0.5, scheme="rk2",
                             c2=0.5)
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
    r0, r1 = timing_study(prob, [((4, 2), 4), ((8, 4), 4)], T=0.5,
                          scheme="rk2", c2=0.5)
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


def test_error_norms_reject_an_exact_solution_that_does_not_broadcast():
    # the probe names the returned shape and the mesh's dimension, where
    # the stream failed on the shapes of its own slices
    mesh = make_mesh([(0, 1), (0, 2)], [4, 3], Dirichlet())
    with pytest.raises(ValueError, match=r"shape \(3,\) on a 2D mesh"):
        error_norms(np.zeros((3, 2)), mesh, lambda t, xs: np.ones(3), 0.0)


def test_run_exits_1_on_an_exact_solution_that_does_not_broadcast(
        tmp_path, capsys, monkeypatch):
    from expfem import problems
    from expfem.cli import main

    def factory():
        return dataclasses.replace(builtin_linear_rd(),
                                   exact=lambda t, xs: np.ones(3))

    monkeypatch.setitem(problems.BUILTIN_FACTORIES, "linear_rd", factory)
    cfg = tmp_path / "cfg.toml"
    cfg.write_text('mode = "run"\nproblem = "linear_rd"\nT = 0.01\nnt = 2\n'
                   "[domain]\nn = [4, 3]\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "returned shape (3,) on a 2D mesh" in capsys.readouterr().err


def _complex_axes(exact):
    """`exact` and the set of axes at which it is called with a complex
    coordinate."""
    axes = set()

    def wrapped(t, xs):
        axes.update(a for a, x in enumerate(xs) if np.iscomplexobj(x))
        return exact(t, xs)
    return wrapped, axes


@pytest.mark.parametrize("prob, subdivisions, want", [
    (builtin_allen_cahn_wave(dim=3), (12, 3, 4), {0}),
    (builtin_linear_rd(), (8, 6), {0, 1}),
    (dataclasses.replace(builtin_linear_rd(),
                         exact=lambda t, xs: np.sin(3.0 * xs[1] + t)),
     (8, 6), {1}),
    (dataclasses.replace(builtin_linear_rd(), exact=lambda t, xs: 0.7),
     (8, 6), set()),
])
def test_error_norms_take_the_complex_step_only_where_exact_varies(
        prob, subdivisions, want):
    # the norms take the mean over the axes the exact solution does not
    # read and the complex step along the others only, at their own axis
    mesh = mesh_for(prob, subdivisions)
    U = 0.5 * np.tanh(np.random.default_rng(3).standard_normal(
        dof_shape(mesh)))
    exact, axes = _complex_axes(prob.exact)
    assert error_norms(U, mesh, exact, 0.01) == error_norms(
        U, mesh, prob.exact, 0.01)
    assert axes == want


ACW_EPS = 0.05
ACW_SPEED = 3.0 / (math.sqrt(2.0) * ACW_EPS)
ACW_WIDTH = 2.0 * math.sqrt(2.0) * ACW_EPS


def _wave_slope(t, x):
    return -0.5 / np.cosh((x - ACW_SPEED * t) / ACW_WIDTH) ** 2 / ACW_WIDTH


def _profile(t, xs):
    # the x-only trace of the lifted boxes, and so their states' x profile
    return 0.5 + 0.4 * np.sin(5.0 * xs[0] + t) + 0.1 * np.cos(11.0 * xs[0])


def _periodic_exact(t, xs):
    return np.sin(2.0 * np.pi * xs[0] + t) + 0.3


def _periodic_slope(t, x):
    return 2.0 * np.pi * np.cos(2.0 * np.pi * x + t)


def _squares_1d(u, p, exact, slope, t):
    """L2^2 and H1^2 of I_h u - exact on one axis from the 3-point
    Gauss-Legendre rule per element, with the exact slope given in closed
    form."""
    xi, w = np.polynomial.legendre.leggauss(3)
    xi, w = 0.5 * (xi + 1.0), 0.5 * w * p.h
    x = p.a + (np.arange(p.n)[:, None] + xi) * p.h
    vals = u[:-1, None] + np.diff(u)[:, None] * xi
    l2_sq = float(np.sum(w * (vals - exact(t, (x,))) ** 2))
    semi_sq = float(np.sum(w * (np.diff(u)[:, None] / p.h - slope(t, x)) ** 2))
    return l2_sq, l2_sq + semi_sq


def _extruded(subdivisions, bc, t):
    """A state constant along y and z, extruded from a 1D line, on a
    lifted acw domain with an x-only trace or on a periodic box, with an
    x-only exact solution: (mesh, U, exact, its slope, the full line,
    the transverse measure)."""
    dim = len(subdivisions)
    if bc == "lifted":
        domain = builtin_allen_cahn_wave(dim=dim).domain
        exact, slope = builtin_allen_cahn_wave(dim=dim).exact, _wave_slope
        mesh = make_mesh(domain, subdivisions, Dirichlet(_profile))
        p = mesh.partitions[0]
        full_line = _profile(t, (p.a + p.h * np.arange(p.n + 1),))
        line = full_line[1:-1]
    else:
        domain = [(0.0, 1.0), (-0.5, 1.5), (0.2, 0.9)][:dim]
        exact, slope = _periodic_exact, _periodic_slope
        mesh = make_mesh(domain, subdivisions, Periodic())
        line = np.random.default_rng(8).standard_normal(subdivisions[0])
        full_line = np.append(line, line[0])
    U = np.broadcast_to(line.reshape((-1,) + (1,) * (dim - 1)),
                        dof_shape(mesh)).copy()
    measure = math.prod(b - a for a, b in domain[1:])
    return mesh, U, exact, slope, full_line, measure


def _widened(exact):
    """`exact` widened along every axis but x, so that the probe finds no
    axis constant and the norms take the Gauss stream on the whole mesh."""
    def widened(t, xs):
        return exact(t, xs) + sum(0.0 * x for x in xs[1:])
    return widened


@pytest.mark.parametrize("subdivisions", [(40,), (40, 3), (40, 3, 4)])
@pytest.mark.parametrize("bc", ["lifted", "periodic"])
@pytest.mark.parametrize("route", ["closed form", "gauss"])
def test_error_norms_of_an_extruded_state_reduce_to_1d(subdivisions, bc,
                                                       route):
    # a state constant along y and z against an x-only exact solution:
    # L2^2 and H1^2 are the 1D values times the transverse measure, on the
    # split route (the probe finds y and z constant) and on the Gauss
    # route (an exact solution widened along them)
    t = 0.01
    mesh, U, exact, slope, full_line, measure = _extruded(subdivisions, bc,
                                                          t)
    if route == "gauss":
        exact = _widened(exact)
    l2_sq, h1_sq = _squares_1d(full_line, mesh.partitions[0], exact, slope, t)
    l2, h1 = error_norms(U, mesh, exact, t)
    assert rel_err(l2 ** 2, measure * l2_sq) < 1e-13
    assert rel_err(h1 ** 2, measure * h1_sq) < 1e-13


@pytest.mark.parametrize("bc", ["lifted", "periodic"])
def test_error_norms_split_of_a_noisy_extruded_state_match_the_gauss_route(
        bc):
    # 1e-3 noise on the extruded state gives the rest w of the split a
    # nonzero closed Q1 form: the split route (the probe finds y and z
    # constant) must match the Gauss route on the whole mesh
    t = 0.01
    mesh, U, exact, *_ = _extruded((40, 3, 4), bc, t)
    U += 1e-3 * np.random.default_rng(9).standard_normal(U.shape)
    split = error_norms(U, mesh, exact, t)
    gauss = error_norms(U, mesh, _widened(exact), t)
    assert rel_err(split[0] ** 2, gauss[0] ** 2) < 1e-13
    assert rel_err(split[1] ** 2, gauss[1] ** 2) < 1e-13
