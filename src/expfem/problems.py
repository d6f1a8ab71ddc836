"""Problem definitions: PDE data for u_t = D*lap(u) + f(t, u).

A Problem bundles the diffusion coefficient, the reaction term, boundary
and initial data, and (when known) the exact solution.  All callables
take coordinate tuples of broadcastable arrays and must be pure and
analytic; the reaction term has signature f(t, u, xs) so sources may
depend on space.  The program differentiates the trace g in t and the
exact solution in x by one complex step, so g and exact must accept
complex arguments.  Numpy ufuncs are analytic, and a callable that
ignores the perturbed variable returns a real value, whose zero
imaginary part is the correct zero derivative.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import (Dirichlet, HomogeneousDirichlet, Partition1D, Periodic,
                   TensorMesh, dof_shape)

# f'(x) = Im f(x + i h) / h has no difference to cancel, so h can sit far
# below the rounding floor of x: the derivative is exact to rounding
COMPLEX_STEP = 1e-30


class NonlinearityDomainError(Exception):
    """The reaction term was evaluated outside its admissible range."""

    def __init__(self, value, message=None, step_index=None):
        self.value = value
        self.step_index = step_index
        super().__init__(message or f"state value {value!r} outside admissible range")

    def __str__(self):
        base = self.args[0]
        if self.step_index is not None:
            return f"step {self.step_index}: {base}"
        return base


@dataclass(frozen=True)
class Problem:
    name: str
    diffusion: float
    f: Callable
    domain: tuple
    periodic: bool = False
    u0: Optional[Callable] = None
    u0_nodal: Optional[Callable] = None
    g: Optional[Callable] = None
    exact: Optional[Callable] = None
    df_du: Optional[Callable] = None
    admissible_range: Optional[tuple] = None
    T_default: float = 1.0
    energy_params: Optional[tuple] = None  # (eps, theta, theta_c)

    @property
    def dim(self):
        return len(self.domain)


def boundary_kind(problem):
    """The BoundaryKind a mesh for this problem should carry."""
    if problem.periodic:
        return Periodic()
    if problem.g is not None:
        return Dirichlet(problem.g)
    return HomogeneousDirichlet()


def mesh_for(problem, subdivisions):
    """Build the TensorMesh of a problem from per-axis subinterval counts."""
    if len(subdivisions) != problem.dim:
        raise ValueError(
            f"{problem.name} is {problem.dim}D, got {len(subdivisions)} axis counts")
    parts = tuple(Partition1D(a, b, int(n))
                  for (a, b), n in zip(problem.domain, subdivisions))
    return TensorMesh(parts, boundary_kind(problem))


def builtin_linear_rd():
    """2D linear reaction-diffusion with a decaying separable source.

    u_t = (1/2) lap(u) - (pi^2/2) u + (pi^2/2) e^{-pi^2 t} sin(pi x) sin(pi y)
    on (1/2, 5/2) x (0, 1) with zero boundary values; the exact solution
    e^{-pi^2 t} (sin(pi x) - 1) sin(pi y) decays to zero.
    """
    pi2 = np.pi ** 2

    def exact(t, xs):
        x, y = xs
        return np.exp(-pi2 * t) * (np.sin(np.pi * x) - 1.0) * np.sin(np.pi * y)

    def f(t, u, xs):
        x, y = xs
        src = 0.5 * pi2 * np.exp(-pi2 * t) * np.sin(np.pi * x) * np.sin(np.pi * y)
        return -0.5 * pi2 * u + src

    return Problem(
        name="linear_rd",
        diffusion=0.5,
        f=f,
        df_du=lambda t, u, xs: np.full_like(np.asarray(u, dtype=float), -0.5 * pi2),
        domain=((0.5, 2.5), (0.0, 1.0)),
        u0=lambda xs: exact(0.0, xs),
        exact=exact,
        T_default=1.0,
    )


def builtin_allen_cahn_wave(eps=0.05, dim=3):
    """Traveling wave for the Allen-Cahn equation with double-well potential.

    u_t = lap(u) + (u - u^3)/eps^2; the front
    u = (1 - tanh((x - s t)/(2 sqrt(2) eps)))/2 moves at speed
    s = 3/(sqrt(2) eps) along x and fixes nonhomogeneous Dirichlet data.
    `dim` restricts the same x-dependent solution to 1, 2 or 3 axes.
    """
    if eps <= 0:
        raise ValueError(f"interface width must be positive, got {eps}")
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    speed = 3.0 / (math.sqrt(2.0) * eps)
    width = 2.0 * math.sqrt(2.0) * eps

    def exact(t, xs):
        x = xs[0]
        return 0.5 * (1.0 - np.tanh((x - speed * t) / width))

    def f(t, u, xs):
        return (u - u ** 3) / eps ** 2

    domain = (((0.0, math.sqrt(2.0)),) + ((0.0, 0.125),) * (dim - 1))
    return Problem(
        name="allen_cahn_wave",
        diffusion=1.0,
        f=f,
        df_du=lambda t, u, xs: (1.0 - 3.0 * u ** 2) / eps ** 2,
        domain=domain,
        u0=lambda xs: exact(0.0, xs),
        g=exact,
        exact=exact,
        T_default=3.0 * math.sqrt(2.0) * eps / 5.0,
    )


def builtin_flory_huggins(eps=0.01, theta=0.8, theta_c=1.6, seed=2023):
    """Grain coarsening: Allen-Cahn flow of the Flory-Huggins energy.

    u_t = eps^2 lap(u) + (theta/2) ln((1-u)/(1+u)) + theta_c u on the
    periodic unit cube, started from seeded uniform noise in [-0.9, 0.9].
    The logarithmic term restricts states to |u| < 1.
    """
    if eps <= 0:
        raise ValueError(f"interface width must be positive, got {eps}")

    def f(t, u, xs):
        u = np.asarray(u, dtype=float)
        worst = np.argmax(np.abs(u))
        if abs(u.flat[worst]) >= 1.0:
            raise NonlinearityDomainError(float(u.flat[worst]))
        # ln((1-u)/(1+u)) via log1p keeps accuracy near the bound
        return 0.5 * theta * (np.log1p(-u) - np.log1p(u)) + theta_c * u

    def u0_nodal(mesh):
        rng = np.random.Generator(np.random.Philox(seed))
        return rng.uniform(-0.9, 0.9, size=dof_shape(mesh))

    return Problem(
        name="flory_huggins",
        diffusion=eps ** 2,
        f=f,
        df_du=lambda t, u, xs: -theta / (1.0 - u ** 2) + theta_c,
        domain=((0.0, 1.0),) * 3,
        periodic=True,
        u0_nodal=u0_nodal,
        admissible_range=(-1.0, 1.0),
        T_default=20.0,
        energy_params=(eps, theta, theta_c),
    )


BUILTIN_FACTORIES = {
    "linear_rd": builtin_linear_rd,
    "allen_cahn_wave": builtin_allen_cahn_wave,
    "flory_huggins": builtin_flory_huggins,
}
