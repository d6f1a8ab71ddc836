"""Exponential time stepping in modal space.

Both schemes advance the transformed coefficients directly: the linear
diffusion part is integrated exactly by entrywise exponentials, the
reaction enters through phi-weighted loads.  One-stage scheme:

    c^{n+1} = e^{-dt*rates} * c^n + dt * phi1(-dt*rates) * load(t_n)

Two-stage scheme (stage node c2 in (0, 1]):

    s       = e^{-c2*dt*rates} * c^n + c2*dt * phi1(-c2*dt*rates) * load(t_n)
    c^{n+1} = e^{-dt*rates} * c^n
              + dt * [(phi1 - phi2/c2) * load(t_n) + (phi2/c2) * load_s(t_n + c2*dt)]

`StepWeights` folds dt (and c2*dt for the stage) into the phi weights
once per run, so a step is one product per weight: the steps combine in
place into the loads and the output buffer they own, and never modify
the incoming coefficients.  With the folded weights

    decay = e^{-dt*rates},  phi1 = dt*phi1(-dt*rates),
    stage_decay = e^{-c2*dt*rates},  stage_phi1 = c2*dt*phi1(-c2*dt*rates),
    b2 = dt*phi2(-dt*rates)/c2,  b1 = phi1 - b2,

the load is lam * c + G, where lam is the problem's `linear` and G the
`transformed_load` of its source and f: the transform of f plus each
source term's amplitude times its profile's modes, which are
transformed at the run's first load.  The lam * c part folds into
the weights once per run:

    Euler:  c^{n+1} = (decay + lam*phi1) * c^n + phi1 * G(t_n)
    rk2:    s       = sd * c^n + stage_phi1 * G(t_n)
            c^{n+1} = (decay + lam*b1) * c^n + b1 * G(t_n)
                      + b2 * (G_s(t_n + c2*dt) + lam * s)
                    = (decay + lam*b1 + lam*b2*sd) * c^n
                      + (b1 + lam*b2*stage_phi1) * G(t_n) + b2 * G_s(t_n + c2*dt)

with sd = stage_decay + lam*stage_phi1: the stage term lam * b2 * s
folds too, since s is a weighted sum of c^n and G(t_n).  This is the
same scheme as with lam * u in the nodal reaction, up to rounding; a
step runs the same products whatever lam is, and with lam = 0 no fold
runs.

Besides the weights (rk2 forms b1 in phi1's buffer and keeps no
phi1), a step holds at its peak the incoming state, its output buffer
and the arrays of one load: the nodal state, the reaction with one
temporary of its own, and the load's transform.  The rk2 step keeps
the stage_phi1 * G(t_n) product in its output buffer, which then takes
decay * c^n + b1 * G(t_n); the first load is released before the
stage's inverse transform and the stage right after it, so neither
lives through the second load.  The step runs the products of the
formulas above in their order, so it gives the same bits as the same
products written each to a fresh array.

State stays transformed between steps; nodal recovery happens only for
evaluating f and for observation.  So a problem whose f is None steps
with no transform at all: a run of it that takes any steps makes one
forward transform of u0 and one per source term, however many steps
it takes.  `SolverState.coeffs` is laid out as
`transforms` defines it by the boundary kind's `fourier` flag: real
sine coefficients of the nodal shape on Dirichlet meshes, the complex
half spectrum of `rfftn` (N // 2 + 1 entries on the last axis) on
periodic ones.  The weights are real and broadcast over either.  A
kind with a `trace` lifts it: the load adds its boundary elimination,
and `check_state` checks it with each observed state.
"""

import ctypes
import functools
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import LoadContext, initial_state, transformed_load
from .mesh import _boundary_faces, aspect_ratio
from .operator import phi_tensor
from .problems import NonlinearityDomainError, check_admissible
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
            raise ValueError(f"time step dt must be positive, got {self.dt}")
        if self.T < 0:
            raise ValueError(f"terminal time must be nonnegative, got {self.T}")
        if not 0 < self.c2 <= 1:
            raise ValueError(f"stage node c2 must lie in (0, 1], got {self.c2}")

    def num_steps(self):
        # relative to T, so that a dt far above a positive T gives no
        # zero-step run
        n = round(self.T / self.dt)
        if abs(n * self.dt - self.T) > 1e-9 * self.T:
            raise ValueError(
                f"T = {self.T} is not an integer multiple of dt = {self.dt}")
        return n


class StepWeights:
    """Modal weight tensors shared by every step of a uniform-dt run.

    The phi weights carry their step length: `phi1` is dt*phi1(-dt*rates)
    and `stage_phi1` is c2*dt*phi1(-c2*dt*rates); `b1` and `b2` are built
    from dt*phi2(-dt*rates), so they carry dt too.  The reaction's linear
    part `linear` is folded into `decay` and `stage_decay`, and on rk2
    into `b1` too (see the module docstring).  Euler holds `decay` and
    `phi1`; rk2 holds `decay`, `stage_decay`, `stage_phi1`, `b1` and
    `b2`, with `b1` formed in the buffer of dt*phi1 and no `phi1`: five
    real modal tensors, each about half a nodal array on a periodic
    mesh, one on a Dirichlet mesh.
    """

    def __init__(self, op, dt, scheme, c2=0.5, linear=0.0):
        self.decay = np.exp(-dt * op.decay_rates)
        phi1 = dt * phi_tensor(1, op, dt)
        if scheme == "euler":
            self.phi1 = phi1
            if linear:
                self.decay += linear * phi1
            return
        self.stage_decay = np.exp(-c2 * dt * op.decay_rates)
        self.stage_phi1 = (c2 * dt) * phi_tensor(1, op, dt, scale=c2)
        # b2 in a fresh array: dividing phi2 in place left the peak RSS
        # of fh 64^3 runs about 1 MiB higher (glibc heap layout)
        phi2 = dt * phi_tensor(2, op, dt)
        self.b2 = phi2 / c2
        self.b1 = np.subtract(phi1, self.b2, out=phi1)
        if linear:
            self.stage_decay += linear * self.stage_phi1
            self.decay += linear * self.b1
            self.decay += linear * self.b2 * self.stage_decay
            self.b1 += linear * self.b2 * self.stage_phi1


def _nodal_state(coeffs, ctx):
    """The nodal state f reads; None when the problem has no f."""
    if ctx.problem.f is None:
        return None
    return inverse_transform(coeffs, ctx.mesh)


def exp_euler_step(state, ctx, dt, w):
    """One step of the one-stage (exponential Euler) scheme."""
    G = transformed_load(ctx, state.t, _nodal_state(state.coeffs, ctx))
    coeffs = w.decay * state.coeffs
    G *= w.phi1
    coeffs += G
    return SolverState(state.t + dt, coeffs, state.step_index + 1)


def exp_rk2_step(state, ctx, dt, c2, w):
    """One step of the two-stage second-order exponential RK scheme."""
    G1 = transformed_load(ctx, state.t, _nodal_state(state.coeffs, ctx))
    stage = w.stage_decay * state.coeffs
    coeffs = np.multiply(w.stage_phi1, G1)
    stage += coeffs
    np.multiply(w.decay, state.coeffs, out=coeffs)
    G1 *= w.b1
    coeffs += G1
    del G1
    U = _nodal_state(stage, ctx)
    del stage
    G2 = transformed_load(ctx, state.t + c2 * dt, U)
    G2 *= w.b2
    coeffs += G2
    return SolverState(state.t + dt, coeffs, state.step_index + 1)


def observation_steps(every, nsteps):
    """The steps an observer of cadence `every` sees in a run of nsteps
    steps: step 0, every multiple of `every` and the last step."""
    if every < 1:
        raise ValueError(f"observer cadence must be >= 1, got {every}")
    return {*range(0, nsteps, every), nsteps}


def check_state(U, problem, mesh, t):
    """Check a nodal state at time t that leaves the solver against the
    problem's `admissible_range`: its owned nodes and, on a lifted mesh,
    the trace on the boundary, which `mesh.extend_nodal` adds to it for a
    snapshot or an error norm."""
    check_admissible(U, problem.admissible_range)
    if mesh.bc.trace is not None:
        for face, _ in _boundary_faces(mesh):
            check_admissible(np.asarray(mesh.bc.trace(t, face)),
                             problem.admissible_range)


def run(problem, mesh, cfg, observers=(), step_times=None):
    """Advance from t=0 to t=T with uniform steps, reporting to observers.

    `observers` holds (every, obs) pairs.  Each obs is called as
    obs(step_index, t, U_nodal) at the `observation_steps` of its own
    `every`, in the order of `observers`.  A step that any observer sees
    makes one inverse transform, which all of them share; the step-0 state is
    the read-only `initial_state`.  `run` drops each nodal state once the
    observers have seen it, so none lives through the steps.

    Every nodal state a reaction reads is checked against the problem's
    `admissible_range` by the load (`assembly.transformed_load`), and
    each state the observers would see is checked here first by
    `check_state`, the initial state and the trace of a lifted mesh
    included, so none outside it is written out.  A
    problem whose f is None forms no nodal state in a step, so its steps
    no observer sees are not checked.  The check raises
    `NonlinearityDomainError`; one raised in a step carries the index of
    the state the step starts from, one of an observation or its check
    the index of the state observed.  `step_times`, when a list,
    collects per-step wall-clock seconds.
    """
    nsteps = cfg.num_steps()
    plan = [(observation_steps(every, nsteps), obs) for every, obs in observers]
    _keep_freed_arrays()
    if aspect_ratio(mesh) > 8:
        warnings.warn(
            f"mesh aspect ratio {aspect_ratio(mesh):.2f} exceeds 8; "
            "accuracy theory assumes quasi-uniform cells", stacklevel=2)
    ctx = LoadContext(problem, mesh)
    U0 = initial_state(problem, mesh)
    state = SolverState(0.0, None)
    try:
        if observers:
            check_state(U0, problem, mesh, 0.0)
        state.coeffs = forward_transform(U0, mesh)
        weights = StepWeights(ctx.op, cfg.dt, cfg.scheme, cfg.c2,
                              linear=problem.linear)
        for _, obs in observers:
            obs(0, 0.0, U0)
        del U0
        for _ in range(nsteps):
            tic = time.perf_counter()
            if cfg.scheme == "euler":
                state = exp_euler_step(state, ctx, cfg.dt, weights)
            else:
                state = exp_rk2_step(state, ctx, cfg.dt, cfg.c2, weights)
            state.t = cfg.dt * state.step_index  # keep t free of summation drift
            if step_times is not None:
                step_times.append(time.perf_counter() - tic)
            due = [obs for steps, obs in plan if state.step_index in steps]
            if due:
                U = inverse_transform(state.coeffs, mesh)
                check_state(U, problem, mesh, state.t)
                for obs in due:
                    obs(state.step_index, state.t, U)
                del U
    except NonlinearityDomainError as err:
        err.step_index = state.step_index
        raise
    return state
