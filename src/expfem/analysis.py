"""Error norms, discrete energy and convergence/timing studies.

Error norms integrate the multilinear interpolant of the nodal tensor
against the exact solution with a tensor-product Gauss rule (3 points
per axis by default, exact for squares of multilinear functions).  The
energy integrates its logarithmic potential with the same rule; its
quadratic well and gradient terms are exact sums over nodal values and
differences.  The Gauss grid is visited in blocks by
`quadrature.gauss_blocks`, whose two-tap evaluation reads only the two
nodes bounding each point per axis, so neither ever holds a whole
Gauss-grid tensor.  Studies run refinement ladders and report errors at
the terminal time with dyadic convergence rates between consecutive
rungs.
"""

import datetime
import math
from dataclasses import dataclass, field

import numpy as np

from .mesh import _mass_stencil, dof_shape, extend_nodal
from .problems import COMPLEX_STEP, NonlinearityDomainError, mesh_for
from .quadrature import element_blocks, gauss_blocks, integrate
from .stepper import SchemeConfig, run
from .transforms import inverse_transform


def sup_norm(U):
    """Largest nodal magnitude."""
    return float(np.max(np.abs(U)))


def _exact_gradient(exact, t, grid, axis):
    """d/dx_axis of the exact solution on an open grid, by one complex step
    (the H1 seminorm needs it exact to rounding)."""
    xs = list(grid)
    xs[axis] = xs[axis] + 1j * COMPLEX_STEP
    return np.imag(exact(t, tuple(xs))) / COMPLEX_STEP


def error_norms(U, mesh, exact, t, npts=3):
    """(L2, H1) distance between the interpolant of U and `exact` at time t."""
    full = extend_nodal(U, mesh, t)
    l2_sq = grad_sq = 0.0
    for blk in gauss_blocks(full, mesh.partitions, npts, slopes=True):
        diff = blk.values - np.asarray(exact(t, blk.coords), dtype=float)
        l2_sq += integrate(blk.weights, diff * diff)
        for a in range(mesh.dim):
            gdiff = blk.slopes[a] - _exact_gradient(exact, t, blk.coords, a)
            grad_sq += integrate(blk.weights, gdiff * gdiff)
    return math.sqrt(l2_sq), math.sqrt(l2_sq + grad_sq)


def _nodal_quadratics(full, hs):
    """Integrals of u^2 and |grad u|^2 for the multilinear interpolant of a
    full-grid nodal tensor, exact from nodal values.

    They are u^T (kron_b M_b) u and sum_a (D_a u)^T (kron_{b != a} M_b)
    (D_a u) / h_a, with M_b the 1D mass matrix and D_a the nodal difference
    along axis a.  Slabs of axis-0 elements are summed one at a time; each
    slab holds the mass coupling of its own elements, so the slab sums add
    up to the whole grid's.
    """
    masses = [h / 6.0 for h in hs]
    mass_all = math.prod(masses)
    sq = grad_sq = 0.0
    for e0, e1 in element_blocks(full.shape[0] - 1, full[0].size):
        slab = full[e0:e1 + 1]
        massed = slab
        for b in range(len(hs)):
            massed = _mass_stencil(massed, b)
        sq += float(np.vdot(slab, massed)) * mass_all
        for a, h in enumerate(hs):
            diff = np.diff(slab, axis=a)
            massed = diff
            for b in range(len(hs)):
                if b != a:
                    massed = _mass_stencil(massed, b)
            grad_sq += float(np.vdot(diff, massed)) * mass_all / (masses[a] * h)
    return sq, grad_sq


def _mixing(v):
    """(1 + v) log(1 + v) + (1 - v) log(1 - v), with three block arrays."""
    lp = np.log1p(v)
    lm = np.negative(v)
    np.log1p(lm, out=lm)
    # (lp + lm) + v (lp - lm), built in place
    lp -= lm
    lm *= 2.0
    lm += lp
    lp *= v
    lm += lp
    return lm


def discrete_energy(U, mesh, eps, theta, theta_c, npts=3):
    """Free energy of the interpolant: logarithmic mixing potential,
    quadratic well and gradient penalty.

    The mixing potential is integrated with an npts-point Gauss rule per
    axis, block by block; the well and gradient terms are exact from
    nodal values.
    """
    if sup_norm(U) >= 1.0:
        worst = np.argmax(np.abs(np.asarray(U)))
        raise NonlinearityDomainError(float(np.asarray(U).flat[worst]))
    full = extend_nodal(U, mesh, 0.0)
    mixing = sum(integrate(blk.weights, _mixing(blk.values))
                 for blk in gauss_blocks(full, mesh.partitions, npts))
    sq, grad_sq = _nodal_quadratics(full, [p.h for p in mesh.partitions])
    return 0.5 * theta * mixing - 0.5 * theta_c * sq + 0.5 * eps**2 * grad_sq


class TimeSeriesObserver:
    """Collects (t, sup-norm[, energy]) rows at observation steps."""

    def __init__(self, mesh, energy_params=None, npts=3):
        self.mesh = mesh
        self.energy_params = energy_params
        self.npts = npts
        self.rows = []

    def __call__(self, step, t, U):
        if self.energy_params is not None:
            eps, theta, theta_c = self.energy_params
            energy = discrete_energy(U, self.mesh, eps, theta, theta_c, self.npts)
        else:
            energy = None
        self.rows.append((t, sup_norm(U), energy))


@dataclass
class StudyRow:
    resolution: str
    nt: int
    err_l2: float = None
    err_h1: float = None
    rate_l2: float = None
    rate_h1: float = None
    sec_per_step: float = None
    growth: float = None


@dataclass
class StudyReport:
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


def _resolution_label(subdivisions):
    return "x".join(str(int(n)) for n in subdivisions)


def _mean_step_seconds(times):
    # first step absorbs weight-tensor setup and cache warmup
    steady = times[1:] if len(times) > 1 else times
    return sum(steady) / len(steady) if steady else None


def convergence_study(problem, rungs, scheme="rk2", c2=0.5, T=None,
                      initial_mode="interpolate", npts=3, workers=None):
    """Run a refinement ladder and report terminal-time errors and rates.

    `rungs` is a list of (per-axis subdivisions, nt) pairs; consecutive
    rungs are assumed dyadic in whichever of the two is being refined.
    """
    if problem.exact is None:
        raise ValueError(f"problem {problem.name} has no exact solution")
    T = problem.T_default if T is None else T
    report = StudyReport(metadata={
        "problem": problem.name,
        "scheme": scheme,
        "c2": c2,
        "T": T,
        "created": datetime.datetime.now().isoformat(timespec="seconds"),
    })
    prev = None
    for subdivisions, nt in rungs:
        mesh = mesh_for(problem, subdivisions)
        cfg = SchemeConfig(dt=T / nt, T=T, scheme=scheme, c2=c2)
        times = []
        state = run(problem, mesh, cfg, initial_mode=initial_mode,
                    workers=workers, step_times=times)
        U = inverse_transform(state.coeffs, mesh, workers)
        l2, h1 = error_norms(U, mesh, problem.exact, state.t, npts)
        row = StudyRow(
            resolution=_resolution_label(subdivisions),
            nt=nt,
            err_l2=l2,
            err_h1=h1,
            sec_per_step=_mean_step_seconds(times),
        )
        if prev is not None:
            row.rate_l2 = math.log2(prev.err_l2 / l2)
            row.rate_h1 = math.log2(prev.err_h1 / h1)
        report.rows.append(row)
        prev = row
    return report


def timing_study(problem, ladders, nt, scheme="rk2", c2=0.5, T=None,
                 initial_mode="interpolate", workers=None):
    """Measure steady per-step cost over a spatial ladder at fixed nt."""
    T = problem.T_default if T is None else T
    report = StudyReport(metadata={
        "problem": problem.name,
        "scheme": scheme,
        "c2": c2,
        "T": T,
        "nt": nt,
        "created": datetime.datetime.now().isoformat(timespec="seconds"),
    })
    prev_row, prev_nodes = None, None
    for subdivisions in ladders:
        mesh = mesh_for(problem, subdivisions)
        cfg = SchemeConfig(dt=T / nt, T=T, scheme=scheme, c2=c2)
        times = []
        run(problem, mesh, cfg, initial_mode=initial_mode,
            workers=workers, step_times=times)
        nodes = int(np.prod(dof_shape(mesh)))
        row = StudyRow(
            resolution=_resolution_label(subdivisions),
            nt=nt,
            sec_per_step=_mean_step_seconds(times),
        )
        if prev_row is not None:
            row.growth = (math.log(row.sec_per_step / prev_row.sec_per_step)
                          / math.log(nodes / prev_nodes))
        report.rows.append(row)
        prev_row, prev_nodes = row, nodes
    return report
