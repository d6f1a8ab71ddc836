"""Problem definitions: PDE data for u_t = D*lap(u) + r(t, u, x).

A Problem bundles the diffusion coefficient, the reaction term, boundary
and initial data, and (when known) the exact solution.  Its one boundary
field `bc` is the mesh's `BoundaryKind`: `Dirichlet()` (the default,
zero boundary values), `Dirichlet(trace)` or `Periodic()`, so no
periodic problem carries a trace; `periodic` reads whether the kind
steps in the Fourier basis.  The reaction is given in three parts,

    r(t, u, x) = linear * u + sum_j amplitude_j(t) profile_j(xs) + f(t, u, xs),

each optional: `linear` is a float (default 0), `source` a tuple of
separable terms (amplitude(t), profile(xs)), `f` the rest (None when no
term reads u).  The steppers apply `linear * u` to the modal
coefficients the step already holds, since by linearity the transform
of linear * U is linear times them; likewise each profile is
transformed once per run and its modes scaled by the amplitude at each
load.  A problem whose `f` is None needs no nodal state, so its steps
make no inverse transform, and with no f they make no transform at all.
A source that does not factor in t goes in `f`, which may ignore u.
Moving a linear part of f into `linear`, or a separable term of f into
`source`, changes results only by rounding.

The initial datum is `u0(xs)` alone: called once on the open grid of
the owned nodes, it returns anything that broadcasts to their shape, a
whole nodal array included; so does each source profile.  On a
Dirichlet mesh, though, f and each source profile must be functions of
xs, defined on the boundary faces too, not arrays of the owned nodes
that ignore xs: the reaction's boundary values belong to the load of
the boundary elimination.  All callables
but the amplitudes take coordinate tuples of broadcastable arrays, and
all must be pure.  `exact` is pointwise: it returns length 1 along a
coordinate it does not read and reduces over none, since the error
norms read the axes it is constant on from the shape it returns, and
then pass a 0-d array, the domain midpoint, for each of their
coordinates.  The program differentiates the trace of
`Dirichlet(trace)` in t and the exact solution in x by one complex step,
so both must be analytic and accept complex arguments.  Numpy ufuncs
are analytic, and a callable that ignores the perturbed variable
returns a real value, whose zero imaginary part is the correct zero
derivative.

`admissible_range` is the open interval of the states a run may go on
from, by default (-inf, inf): any finite state.  `check_admissible`
holds that rule, and it is the one place that raises
`NonlinearityDomainError`.  The load checks each nodal state before f
reads it, so every state a reaction reads is checked, each rk2 stage
included; the stepper checks each state the observers see.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import (BoundaryKind, Dirichlet, Partition1D, Periodic, TensorMesh,
                   broadcast_core)

# f'(x) = Im f(x + i h) / h has no difference to cancel, so h can sit far
# below the rounding floor of x: the derivative is exact to rounding
COMPLEX_STEP = 1e-30


class NonlinearityDomainError(Exception):
    """A state left its problem's admissible range; `run` sets the index
    of the step it belongs to."""

    def __init__(self, value):
        self.value = value
        self.step_index = None
        super().__init__(f"state value {value!r} outside admissible range")

    def __str__(self):
        if self.step_index is None:
            return self.args[0]
        return f"step {self.step_index}: {self.args[0]}"


def check_admissible(U, bounds):
    """Raise `NonlinearityDomainError` unless every value of the array U
    lies in the open interval `bounds`; a NaN fails.  One min and one max
    over U's `broadcast_core`, which holds all of its values, and no
    temporary.  The error carries the value that breaks its bound, the
    larger in magnitude when both do.
    """
    core = broadcast_core(U)
    lo, hi = core.min(), core.max()
    # written so that a NaN, which compares false, fails
    if not (bounds[0] < lo and hi < bounds[1]):
        low = not bounds[0] < lo and (hi < bounds[1] or -lo > hi)
        raise NonlinearityDomainError(float(lo if low else hi))


@dataclass(frozen=True)
class Problem:
    name: str
    diffusion: float
    f: Optional[Callable]  # f(t, u, xs); None when no term reads u
    domain: tuple
    bc: BoundaryKind = Dirichlet()
    u0: Optional[Callable] = None
    exact: Optional[Callable] = None
    admissible_range: tuple = (-math.inf, math.inf)  # open interval
    T_default: float = 1.0
    energy_params: Optional[tuple] = None  # (eps, theta, theta_c)
    linear: float = 0.0
    source: tuple = ()  # ((amplitude(t), profile(xs)), ...)

    def __post_init__(self):
        if not (isinstance(self.source, tuple) and all(
                isinstance(term, tuple) and len(term) == 2
                and all(map(callable, term)) for term in self.source)):
            raise ValueError(
                "source must be a tuple of (amplitude(t), profile(xs)) "
                f"pairs of callables, got {self.source!r}")

    @property
    def dim(self):
        return len(self.domain)

    @property
    def periodic(self):
        return self.bc.fourier


def mesh_for(problem, subdivisions):
    """Build the TensorMesh of a problem from per-axis subinterval counts."""
    if len(subdivisions) != problem.dim:
        raise ValueError(
            f"{problem.name} is {problem.dim}D, got {len(subdivisions)} axis counts")
    parts = tuple(Partition1D(a, b, int(n))
                  for (a, b), n in zip(problem.domain, subdivisions))
    return TensorMesh(parts, problem.bc)


def builtin_linear_rd():
    """2D linear reaction-diffusion with a decaying separable source.

    u_t = (1/2) lap(u) - (pi^2/2) u + (pi^2/2) e^{-pi^2 t} sin(pi x) sin(pi y)
    on (1/2, 5/2) x (0, 1) with zero boundary values; the exact solution
    e^{-pi^2 t} (sin(pi x) - 1) sin(pi y) decays to zero.  The reaction
    is all linear part and one separable source term, so a step needs
    neither the nodal state nor a transform.
    """
    pi2 = np.pi ** 2

    def exact(t, xs):
        x, y = xs
        return np.exp(-pi2 * t) * (np.sin(np.pi * x) - 1.0) * np.sin(np.pi * y)

    def profile(xs):
        x, y = xs
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    return Problem(
        name="linear_rd",
        diffusion=0.5,
        f=None,
        domain=((0.5, 2.5), (0.0, 1.0)),
        u0=lambda xs: exact(0.0, xs),
        exact=exact,
        T_default=1.0,
        linear=-0.5 * pi2,
        source=((lambda t: 0.5 * pi2 * np.exp(-pi2 * t), profile),),
    )


def _width_squared(eps):
    """The square of an interface width eps, which must be positive with
    a positive finite square."""
    try:
        square = eps ** 2
    except OverflowError:
        square = math.inf
    if not (eps > 0 and 0 < square < math.inf):
        raise ValueError(
            f"interface width must be positive with a positive finite "
            f"square, got {eps}")
    return square


def builtin_allen_cahn_wave(eps=0.05, dim=3):
    """Traveling wave for the Allen-Cahn equation with double-well potential.

    u_t = lap(u) + (u - u^3)/eps^2; the front
    u = (1 - tanh((x - s t)/(2 sqrt(2) eps)))/2 moves at speed
    s = 3/(sqrt(2) eps) along x and fixes nonhomogeneous Dirichlet data.
    `dim` restricts the same x-dependent solution to 1, 2 or 3 axes.
    """
    eps2 = _width_squared(eps)
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    speed = 3.0 / (math.sqrt(2.0) * eps)
    width = 2.0 * math.sqrt(2.0) * eps

    def exact(t, xs):
        x = xs[0]
        return 0.5 * (1.0 - np.tanh((x - speed * t) / width))

    def f(t, u, xs):
        # u (1 - u^2) rather than u - u**3: `**` calls libm's pow per
        # value, which is slow, above all on negative values.  One output
        # array, where each operator of u * (1 - u * u) / eps**2 would
        # build a state-sized temporary; the bits are the same.
        out = np.multiply(u, u, out=np.empty_like(u))
        np.subtract(1.0, out, out=out)
        out *= u
        out /= eps2
        return out

    domain = (((0.0, math.sqrt(2.0)),) + ((0.0, 0.125),) * (dim - 1))
    return Problem(
        name="allen_cahn_wave",
        diffusion=1.0,
        f=f,
        domain=domain,
        bc=Dirichlet(exact),
        u0=lambda xs: exact(0.0, xs),
        exact=exact,
        T_default=3.0 * math.sqrt(2.0) * eps / 5.0,
    )


def builtin_flory_huggins(eps=0.01, theta=0.8, theta_c=1.6, seed=2023):
    """Grain coarsening: Allen-Cahn flow of the Flory-Huggins energy.

    u_t = eps^2 lap(u) + (theta/2) ln((1-u)/(1+u)) + theta_c u on the
    periodic unit cube, started from seeded uniform noise in [-0.9, 0.9].
    Since ln((1-u)/(1+u)) = -2 artanh(u), the reaction is evaluated as
    -theta artanh(u) + theta_c u, one transcendental per node.  The
    logarithmic term restricts states to |u| < 1, its `admissible_range`,
    which the load checks before f reads a state.
    """
    eps2 = _width_squared(eps)

    def f(t, u, xs):
        out = np.arctanh(u)
        out *= -theta
        out += theta_c * u
        return out

    def u0(xs):
        rng = np.random.Generator(np.random.Philox(seed))
        return rng.uniform(-0.9, 0.9,
                           size=np.broadcast_shapes(*(x.shape for x in xs)))

    return Problem(
        name="flory_huggins",
        diffusion=eps2,
        f=f,
        domain=((0.0, 1.0),) * 3,
        bc=Periodic(),
        u0=u0,
        admissible_range=(-1.0, 1.0),
        T_default=20.0,
        energy_params=(eps, theta, theta_c),
    )


BUILTIN_FACTORIES = {
    "linear_rd": builtin_linear_rd,
    "allen_cahn_wave": builtin_allen_cahn_wave,
    "flory_huggins": builtin_flory_huggins,
}
