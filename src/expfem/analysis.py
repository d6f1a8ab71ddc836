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
Gauss-grid tensor.  Every field summed lies on the values' grid and
takes the slice's one weights array: `error_norms` subtracts the exact
values in place in the values buffer, and a transverse slope of the
interpolant, constant along its own axis within an element and so of
length 1 on that point axis, widens to the full grid when the exact
gradient, which reads every axis the stream runs on, is subtracted
from it.  The axes C that
the exact solution does not read (one evaluation on an open grid of two
points per axis has length 1 along them) split the norms: the
interpolant is its mean over C, multilinear on the other axes V, plus a
rest w whose mean over C is zero, as are those of its derivatives along
V, so no cross term survives.  The mean's error takes the Gauss stream
on the mesh of V alone, with the complex step along V only, times the
measure of C; w's squares are its closed Q1 forms, sums over elements
of squared elementwise sums and differences along each axis, streamed
over blocks of axis-0 elements (`quadrature.q1_squares`).  With C
empty the norms are the Gauss stream on the whole mesh alone.  The energy
writes the potential as F(v) = log1p(-v^2) + 2 v artanh(v), accurate to
rounding for every |v| < 1: the textbook (1 + v) log(1 + v) + (1 - v)
log(1 - v) adds two terms of size |v| to get F ~ v^2, and so loses about
eps/|v| relative (1e-10 at |v| = 1e-6).  Its quadratic well and gradient
terms, u^T M u and u^T K u, are the closed Q1 forms of the same
full-grid tensor that the mixing integral reads, streamed over the same
element blocks as w's.  The energy takes no time, so it cannot extend a
state on a lifted (nonhomogeneous Dirichlet) mesh with its trace, and
raises there.  Studies run
refinement ladders and report errors at the terminal time with dyadic
convergence rates between consecutive rungs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .mesh import dof_shape, extend_nodal
from .problems import COMPLEX_STEP, check_admissible, mesh_for
from .quadrature import apply_matrix, gauss_slices, q1_squares
from .stepper import SchemeConfig, check_state, run
from .transforms import inverse_transform

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
    """Weighted sum of a field of a Gauss slice on the values' grid, one
    row of values per block element; a field off that grid raises
    ValueError."""
    return float((x.reshape(len(x), -1) @ weights).sum())


def error_norms(U, mesh, exact, t):
    """(L2, H1) distance between the interpolant of U and `exact` at time t.

    `exact` is evaluated once first on an open grid of the first and
    last element midpoints of each axis (`_constant_axes`); the axes
    along which that returns length 1 are the axes C it does not read.
    The interpolant is split into its mean over C and the rest
    (`_error_squares`): the mean's error is a Gauss sum on the mesh of
    the other axes, the rest's norms closed Q1 forms.
    The square of an error above about 1e154 overflows, though the norms
    may be finite.  When a sum of squares comes out inf or nan, both
    sums are taken again with each error scaled by 2^-600 before it is
    squared, and the norms are scaled back.  An error that is itself inf
    or nan, or whose subtraction overflows, gives an inf or nan norm.
    """
    full = extend_nodal(U, mesh, t)
    scale = 1.0
    with np.errstate(over="ignore"):
        constant = _constant_axes(exact, t, mesh.partitions)
        l2_sq, grad_sq = _error_squares(full, mesh, exact, t, constant)
    if not math.isfinite(l2_sq + grad_sq):
        # an exact power of two: a scaled error rounds as it does unscaled,
        # and the square of the largest float scaled by it is finite
        scale = 2.0 ** -600
        l2_sq, grad_sq = _error_squares(full, mesh, exact, t, constant, scale)
    return math.sqrt(l2_sq) / scale, math.sqrt(l2_sq + grad_sq) / scale


def _constant_axes(exact, t, partitions):
    """The axes along which `exact` returns length 1 on the open grid of
    the first and last element midpoints of every axis: the axes it does
    not read, since a pointwise function that never reads a coordinate
    cannot widen along it.  A result that does not broadcast to that
    grid raises ValueError."""
    d = len(partitions)
    grid = np.ix_(*[(p.a + 0.5 * p.h, p.b - 0.5 * p.h) for p in partitions])
    shape = np.shape(exact(t, grid))
    try:
        fits = np.broadcast_shapes(shape, (2,) * d) == (2,) * d
    except ValueError:
        fits = False
    if not fits:
        raise ValueError(
            f"the exact solution returned shape {shape} on a {d}D mesh's "
            f"open grid of 2 points per axis; it must broadcast to "
            f"{(2,) * d}")
    shape = (1,) * (d - len(shape)) + shape
    return tuple(a for a in range(d) if shape[a] == 1)


def _square(x, scale):
    """x times the power of two `scale`, squared in place."""
    if scale != 1.0:
        x *= scale
    return np.square(x, out=x)


def _error_squares(full, mesh, exact, t, constant, scale=1.0):
    """Integrals of the squared error and of the squared gradient error of
    the interpolant u_h of a full-grid nodal tensor, each error times the
    power of two `scale`, split along the `constant` axes C.

    The mean of u_h over C has the trapezoid means of the nodal values
    along C as its nodal values, exactly.  The rest, w, and its
    derivatives along the other axes V have zero mean over C at every
    point of V, and the exact solution does not vary along C, so no
    cross term survives: each square is |Omega_C| times the mean's
    squared error on the mesh of V (`_mean_error_squares`) plus the
    closed Q1 form of w (`quadrature.q1_squares`).  With C empty this is
    the Gauss sum on the whole mesh alone.
    """
    parts, mean = mesh.partitions, full
    for c in constant:
        trapezoid = np.full((1, parts[c].n + 1), 1.0 / parts[c].n)
        trapezoid[0, [0, -1]] *= 0.5
        mean = apply_matrix(trapezoid, mean, c)
    # w's forms before the stream, whose last slice's buffers outlive it
    l2_sq, grad_sq = (q1_squares(full, mean, parts, scale) if constant
                      else (0.0, 0.0))
    l2_mean, grad_mean = _mean_error_squares(mean, parts, exact, t,
                                             constant, scale)
    measure = math.prod(parts[c].b - parts[c].a for c in constant)
    return measure * l2_mean + l2_sq, measure * grad_mean + grad_sq


def _mean_error_squares(mean, partitions, exact, t, constant, scale):
    """Gauss sums of the squared error and squared gradient error of the
    multilinear interpolant of `mean`, nodal values of length 1 along the
    `constant` axes, on the mesh of the other axes.  `exact` is called
    with the domain midpoint along the constant axes, as 0-d arrays, and
    takes its complex step along the others only; with none left, the
    error is the one value mean - exact."""
    varying = [a for a in range(len(partitions)) if a not in constant]
    point = [np.array(0.5 * (p.a + p.b)) for p in partitions]
    if not varying:
        return float(_square(mean - exact(t, tuple(point)), scale).sum()), 0.0
    parts = [partitions[a] for a in varying]
    l2_sq = grad_sq = 0.0
    for vals, slopes, coords, weights in gauss_slices(
            mean.reshape([p.n + 1 for p in parts]), parts, GAUSS_POINTS,
            slopes=True):
        for a, x in zip(varying, coords):
            point[a] = x
        xs = tuple(point)
        vals -= exact(t, xs)
        l2_sq += _slice_sum(weights, _square(vals, scale))
        for a, slope in zip(varying, slopes):
            # a transverse slope's length-1 point axis widens to the
            # values' grid: the exact gradient reads every axis streamed
            diff = slope - _exact_gradient(exact, t, xs, a)
            grad_sq += _slice_sum(weights, _square(diff, scale))
    return l2_sq, grad_sq


def _mixing_integral(full, partitions):
    """Gauss integral of the mixing potential F(v) = log1p(-v^2) +
    2 v artanh(v) of the interpolant of a full-grid nodal tensor, one
    `gauss_slices` slice at a time, evaluated in place in the slice's
    buffer: one `arctanh` and one `log1p` per Gauss point.
    """
    total = 0.0
    for v, _, _, weights in gauss_slices(full, partitions,
                                         GAUSS_POINTS, False):
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
    gradient terms are exact, the closed Q1 forms of the same full-grid
    tensor (`quadrature.q1_squares`).  The energy takes no time, so it cannot
    extend a state on a lifted (nonhomogeneous Dirichlet) mesh with its
    trace: such a mesh raises ValueError.
    """
    if mesh.bc.trace is not None:
        raise ValueError("the discrete energy takes no time to evaluate a "
                         "lifted mesh's trace at; it needs a periodic or "
                         "homogeneous Dirichlet mesh, not a lifted one")
    check_admissible(U, (-1.0, 1.0))
    full = extend_nodal(U, mesh)
    mixing = _mixing_integral(full, mesh.partitions)
    sq, grad_sq = q1_squares(full, 0.0, mesh.partitions, 1.0)
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


def convergence_study(problem, rungs, T, scheme, c2):
    """Run a refinement ladder to T; one `StudyRow` per rung with its
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


def timing_study(problem, rungs, T, scheme, c2):
    """Measure steady per-step cost over a ladder of (per-axis
    subdivisions, nt) rungs to T; one `StudyRow` per rung, with the growth
    exponent against the rung before."""
    rows, nodes = [], []
    for mesh, _, row in _ladder(problem, rungs, scheme, c2, T):
        nodes.append(math.prod(dof_shape(mesh)))
        if rows:
            row.growth = (math.log(row.sec_per_step / rows[-1].sec_per_step)
                          / math.log(nodes[-1] / nodes[-2]))
        rows.append(row)
    return rows
