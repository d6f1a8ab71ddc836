"""Exponential time stepping in modal space.

Both schemes advance the transformed coefficients directly: the linear
diffusion part is integrated exactly by entrywise exponentials, the
reaction enters through phi-weighted loads.  One-stage scheme:

    c^{n+1} = e^{-dt*rates} * c^n + dt * phi1(-dt*rates) * load(t_n)

Two-stage scheme (stage node c2 in (0, 1]):

    s       = e^{-c2*dt*rates} * c^n + c2*dt * phi1(-c2*dt*rates) * load(t_n)
    c^{n+1} = e^{-dt*rates} * c^n
              + dt * [(phi1 - phi2/c2) * load(t_n) + (phi2/c2) * load_s(t_n + c2*dt)]

State stays transformed between steps; nodal recovery happens only for
load evaluation and observation.  `SolverState.coeffs` is laid out as
`transforms` defines it: real sine coefficients of the nodal shape on
Dirichlet meshes, the complex half spectrum of `rfftn` (N // 2 + 1
entries on the last axis) on periodic ones.  The weights are real and
broadcast over either.
"""

import ctypes
import functools
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import LoadContext, initial_state, transformed_load
from .mesh import aspect_ratio
from .operator import phi_tensor
from .problems import NonlinearityDomainError
from .transforms import forward_transform, inverse_transform

SCHEMES = ("euler", "rk2")

# glibc mallopt(3) parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_arrays():
    """Serve state-sized temporaries from a retained heap.

    Set-up, steps and observations allocate and free arrays of up to
    megabytes each.  Left to its dynamic thresholds, glibc maps such
    blocks fresh and hands them back on free, so each one is page-faulted
    in anew (about 3000 faults, 12 MiB, per 64^3 rk2 step).  Fixing the
    mmap threshold at its 32 MiB maximum and the trim threshold at 64 MiB
    keeps freed blocks for reuse.  A no-op where the C library has no
    mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


@dataclass
class SolverState:
    t: float
    coeffs: np.ndarray
    step_index: int = 0


@dataclass(frozen=True)
class SchemeConfig:
    dt: float
    T: float
    scheme: str = "rk2"
    c2: float = 0.5

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected {SCHEMES}")
        if self.dt <= 0:
            raise ValueError(f"time step must be positive, got {self.dt}")
        if self.T < 0:
            raise ValueError(f"terminal time must be nonnegative, got {self.T}")
        if not 0 < self.c2 <= 1:
            raise ValueError(f"stage node c2 must lie in (0, 1], got {self.c2}")

    def num_steps(self):
        n = round(self.T / self.dt)
        if abs(n * self.dt - self.T) > 1e-9 * max(self.T, self.dt):
            raise ValueError(
                f"T = {self.T} is not an integer multiple of dt = {self.dt}")
        return n


class StepWeights:
    """Modal weight tensors shared by every step of a uniform-dt run."""

    def __init__(self, op, dt, scheme, c2=0.5):
        self.dt = dt
        self.scheme = scheme
        self.c2 = c2
        self.decay = np.exp(-dt * op.decay_rates)
        self.phi1 = phi_tensor(1, op, dt)
        if scheme == "rk2":
            self.stage_decay = np.exp(-c2 * dt * op.decay_rates)
            self.stage_phi1 = phi_tensor(1, op, dt, scale=c2)
            self.phi2 = phi_tensor(2, op, dt)
            self.b1 = self.phi1 - self.phi2 / c2
            self.b2 = self.phi2 / c2


def exp_euler_step(state, ctx, dt, weights=None, workers=None):
    """One step of the one-stage (exponential Euler) scheme."""
    w = weights if weights is not None else StepWeights(ctx.op, dt, "euler")
    U = inverse_transform(state.coeffs, ctx.mesh, workers)
    G = transformed_load(ctx, state.t, U, workers)
    coeffs = w.decay * state.coeffs + dt * (w.phi1 * G)
    return SolverState(state.t + dt, coeffs, state.step_index + 1)


def exp_rk2_step(state, ctx, dt, c2=0.5, weights=None, workers=None):
    """One step of the two-stage second-order exponential RK scheme."""
    w = weights if weights is not None else StepWeights(ctx.op, dt, "rk2", c2)
    U = inverse_transform(state.coeffs, ctx.mesh, workers)
    G1 = transformed_load(ctx, state.t, U, workers)
    stage = w.stage_decay * state.coeffs + (c2 * dt) * (w.stage_phi1 * G1)
    U2 = inverse_transform(stage, ctx.mesh, workers)
    G2 = transformed_load(ctx, state.t + c2 * dt, U2, workers)
    coeffs = w.decay * state.coeffs + dt * (w.b1 * G1 + w.b2 * G2)
    return SolverState(state.t + dt, coeffs, state.step_index + 1)


def run(problem, mesh, cfg, observers=(), observe_every=1,
        initial_mode="interpolate", workers=None, step_times=None):
    """Advance from t=0 to t=T with uniform steps, reporting to observers.

    Observers are called as obs(step_index, t, U_nodal) at step 0, every
    `observe_every` steps, and at the final step.  `step_times`, when a
    list, collects per-step wall-clock seconds.
    """
    if observe_every < 1:
        raise ValueError(f"observer cadence must be >= 1, got {observe_every}")
    _keep_freed_arrays()
    if aspect_ratio(mesh) > 8:
        warnings.warn(
            f"mesh aspect ratio {aspect_ratio(mesh):.2f} exceeds 8; "
            "accuracy theory assumes quasi-uniform cells", stacklevel=2)
    nsteps = cfg.num_steps()
    ctx = LoadContext(problem, mesh)
    U0 = initial_state(problem, mesh, initial_mode)
    state = SolverState(0.0, forward_transform(U0, mesh, workers), 0)
    weights = StepWeights(ctx.op, cfg.dt, cfg.scheme, cfg.c2)
    if observers:
        for obs in observers:
            obs(0, 0.0, U0)
    for n in range(nsteps):
        tic = time.perf_counter()
        try:
            if cfg.scheme == "euler":
                state = exp_euler_step(state, ctx, cfg.dt, weights, workers)
            else:
                state = exp_rk2_step(state, ctx, cfg.dt, cfg.c2, weights, workers)
        except NonlinearityDomainError as err:
            if err.step_index is None:
                err.step_index = n
            raise
        state.t = cfg.dt * state.step_index  # keep t free of summation drift
        if step_times is not None:
            step_times.append(time.perf_counter() - tic)
        if observers and (state.step_index % observe_every == 0
                          or state.step_index == nsteps):
            U = inverse_transform(state.coeffs, mesh, workers)
            for obs in observers:
                obs(state.step_index, state.t, U)
    return state
