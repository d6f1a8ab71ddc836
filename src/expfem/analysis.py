"""Error norms, discrete energy and convergence/timing studies.

Error norms integrate the multilinear interpolant of the nodal tensor
against the exact solution with a tensor-product Gauss rule of
`GAUSS_POINTS` = 3 points per axis, exact for squares of multilinear
functions.  The energy integrates its logarithmic mixing potential with
the same rule.
Both walk the Gauss grid with `quadrature.gauss_slices`, whose two-tap
evaluation reads only the two nodes bounding each point per axis and
interpolates each axis-0 node layer once; it hands out one axis-0 Gauss
point of a block of axis-0 elements at a time, as a contiguous (block
elements x transverse points) slice, so neither ever holds a whole
Gauss-grid tensor.  Each field of a slice lies on its own point grid:
a transverse slope of the interpolant is constant along its own axis
within an element, so it carries that point axis with length 1, and a
length-1 point axis a is integrated with weight h_a.  `error_norms`
subtracts the exact values in place in the values buffer; a slope minus
the exact gradient takes the broadcast shape of the two, so it widens
only where the exact gradient varies along that axis.  The energy
writes the potential as F(v) = log1p(-v^2) + 2 v artanh(v), accurate to
rounding for every |v| < 1: the textbook (1 + v) log(1 + v) + (1 - v)
log(1 - v) adds two terms of size |v| to get F ~ v^2, and so loses about
eps/|v| relative (1e-10 at |v| = 1e-6).  Its quadratic well and gradient
terms, u^T M u and u^T K u, come by Parseval from the modal coefficients
and the mass and stiffness eigenvalues of the transform that steps the
state.  That sum sees owned nodes only, so the energy raises on a lifted
(nonhomogeneous Dirichlet) mesh.  Studies run
refinement ladders and report errors at the terminal time with dyadic
convergence rates between consecutive rungs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .mesh import dof_shape, extend_nodal
from .operator import build_operator
from .problems import COMPLEX_STEP, check_admissible, mesh_for
from .quadrature import gauss_slices
from .stepper import SchemeConfig, check_state, run
from .transforms import forward_transform, inverse_transform

GAUSS_POINTS = 3  # per axis, for the error norms and the mixing integral


def sup_norm(U):
    """Largest nodal magnitude, from the extremes, with no |U| array.

    The same value as max|U|: a NaN makes both extremes NaN, and taking
    abs of each keeps a zero state's norm +0.0.
    """
    return float(max(abs(U.min()), abs(U.max())))


def _exact_gradient(exact, t, grid, axis):
    """d/dx_axis of the exact solution on an open grid, by one complex step
    (the H1 seminorm needs it exact to rounding)."""
    xs = list(grid)
    xs[axis] = xs[axis] + 1j * COMPLEX_STEP
    return np.imag(exact(t, tuple(xs))) / COMPLEX_STEP


def _slice_sum(weights, x):
    """Weighted sum of a field of a Gauss slice, one row of values per
    block element, with the weights of its point grid."""
    w = weights(x)
    return float((x.reshape(-1, w.size) @ w).sum())


def error_norms(U, mesh, exact, t):
    """(L2, H1) distance between the interpolant of U and `exact` at time t."""
    full = extend_nodal(U, mesh, t)
    l2_sq = grad_sq = 0.0
    for vals, slopes, coords, weights in gauss_slices(
            full, mesh.partitions, GAUSS_POINTS, slopes=True):
        vals -= exact(t, coords)
        l2_sq += _slice_sum(weights, np.square(vals, out=vals))
        for a, slope in enumerate(slopes):
            # a transverse slope's length-1 point axis widens only where
            # the exact gradient varies along it
            diff = slope - _exact_gradient(exact, t, coords, a)
            grad_sq += _slice_sum(weights, np.square(diff, out=diff))
    return math.sqrt(l2_sq), math.sqrt(l2_sq + grad_sq)


def _modal_quadratics(U, mesh):
    """Integrals of u^2 and |grad u|^2 for the multilinear interpolant of
    an owned-node tensor on an unlifted mesh, by Parseval.

    The orthonormal transform diagonalizes the mass M and the stiffness
    K together, so u^T M u = sum_k m_k |c_k|^2 and u^T K u adds the rate
    sum_a k_a / m_a to each weight.  A periodic half spectrum stands for
    the conjugate of each last-axis column 1 ... (N+1)//2 - 1 as well; the
    k = 0 and an even-N Nyquist column are their own conjugates.
    """
    op = build_operator(mesh, 1.0)
    w = np.abs(forward_transform(U, mesh))
    np.square(w, out=w)
    for inv_mass in op.inv_mass:
        w /= inv_mass
    if mesh.bc.fourier:
        w[..., 1:(dof_shape(mesh)[-1] + 1) // 2] *= 2.0
    return float(w.sum()), float(np.vdot(w, op.decay_rates))


def _mixing_integral(full, partitions):
    """Gauss integral of the mixing potential F(v) = log1p(-v^2) +
    2 v artanh(v) of the interpolant of a full-grid nodal tensor, one
    `gauss_slices` slice at a time, evaluated in place in the slice's
    buffer: one `arctanh` and one `log1p` per Gauss point.
    """
    total = 0.0
    for v, _, _, weights in gauss_slices(full, partitions, GAUSS_POINTS):
        vat = np.arctanh(v)
        vat *= v
        np.multiply(v, v, out=v)
        np.negative(v, out=v)
        np.log1p(v, out=v)
        total += _slice_sum(weights, v) + 2.0 * _slice_sum(weights, vat)
    return total


def discrete_energy(U, mesh, eps, theta, theta_c):
    """Free energy of the interpolant: logarithmic mixing potential,
    quadratic well and gradient penalty.

    The mixing potential, defined for |u| < 1 alone, is integrated with
    the Gauss rule per axis, slice by slice (`_mixing_integral`); a state
    outside (-1, 1) raises `NonlinearityDomainError`.  The well and
    gradient terms are exact, by Parseval (`_modal_quadratics`), so a
    lifted mesh, whose boundary values that sum cannot see, raises
    ValueError.
    """
    if mesh.bc.trace is not None:
        raise ValueError("the discrete energy needs a periodic or "
                         "homogeneous Dirichlet mesh, not a lifted one")
    check_admissible(U, (-1.0, 1.0))
    mixing = _mixing_integral(extend_nodal(U, mesh), mesh.partitions)
    sq, grad_sq = _modal_quadratics(U, mesh)
    return 0.5 * theta * mixing - 0.5 * theta_c * sq + 0.5 * eps**2 * grad_sq


class TimeSeriesObserver:
    """Collects (t, sup-norm[, energy]) rows at observation steps."""

    def __init__(self, mesh, energy_params=None):
        self.mesh = mesh
        self.energy_params = energy_params
        self.rows = []

    def __call__(self, step, t, U):
        if self.energy_params is not None:
            eps, theta, theta_c = self.energy_params
            energy = discrete_energy(U, self.mesh, eps, theta, theta_c)
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


def _ladder(problem, rungs, scheme, c2, T):
    """Run each (per-axis subdivisions, nt) rung to T; yield its mesh, end
    state and a row with its resolution, nt and steady seconds per step."""
    T = problem.T_default if T is None else T
    for subdivisions, nt in rungs:
        mesh = mesh_for(problem, subdivisions)
        times = []
        state = run(problem, mesh, SchemeConfig(dt=T / nt, T=T, scheme=scheme,
                                                c2=c2), step_times=times)
        # the first step warms the caches; `run` builds its weights before it
        steady = times[1:] or times
        row = StudyRow("x".join(str(int(n)) for n in subdivisions), nt,
                       sec_per_step=sum(steady) / len(steady))
        yield mesh, state, row


def convergence_study(problem, rungs, scheme="rk2", c2=0.5, T=None):
    """Run a refinement ladder; one `StudyRow` per rung with its
    terminal-time errors and the rates against the rung before.

    `rungs` is a list of (per-axis subdivisions, nt) pairs; consecutive
    rungs are assumed dyadic in whichever of the two is being refined.
    Each end state is checked as an observed one (`stepper.check_state`)
    before its errors are measured.
    """
    if problem.exact is None:
        raise ValueError(f"problem {problem.name} has no exact solution")
    rows = []
    for mesh, state, row in _ladder(problem, rungs, scheme, c2, T):
        U = inverse_transform(state.coeffs, mesh)
        check_state(U, problem, mesh, state.t)
        row.err_l2, row.err_h1 = error_norms(U, mesh, problem.exact, state.t)
        if rows:
            row.rate_l2 = _rate(rows[-1].err_l2, row.err_l2)
            row.rate_h1 = _rate(rows[-1].err_h1, row.err_h1)
        rows.append(row)
    return rows


def _rate(coarse, fine):
    """The dyadic rate log2(coarse / fine); None unless both errors are
    positive and finite (an inf or nan error has no rate)."""
    if 0 < coarse < math.inf and 0 < fine < math.inf:
        return math.log2(coarse / fine)
    return None


def timing_study(problem, rungs, scheme="rk2", c2=0.5, T=None):
    """Measure steady per-step cost over a ladder of (per-axis
    subdivisions, nt) rungs; one `StudyRow` per rung, with the growth
    exponent against the rung before."""
    rows, nodes = [], []
    for mesh, _, row in _ladder(problem, rungs, scheme, c2, T):
        nodes.append(math.prod(dof_shape(mesh)))
        if rows:
            row.growth = (math.log(row.sec_per_step / rows[-1].sec_per_step)
                          / math.log(nodes[-1] / nodes[-2]))
        rows.append(row)
    return rows
