"""Exponential time stepping in modal space.

Both schemes advance the transformed coefficients directly: the linear
diffusion part is integrated exactly by entrywise exponentials, the
reaction enters through phi-weighted loads.  The two-stage scheme
(stage node c2 in (0, 1]) is

    s       = e^{-c2*dt*rates} * c^n + c2*dt * phi1(-c2*dt*rates) * load(t_n)
    c^{n+1} = e^{-dt*rates} * c^n
              + dt * [(phi1 - phi2/c2) * load(t_n) + (phi2/c2) * load_s(t_n + c2*dt)]

and exponential Euler is its first stage with b2 = 0 and no stage:

    c^{n+1} = e^{-dt*rates} * c^n + dt * phi1(-dt*rates) * load(t_n)

`StepWeights` folds dt (and c2*dt for the stage) into the phi weights
once per run, so a step is one product per weight: the steps combine in
place into the loads and the output buffer they own, and never modify
the incoming coefficients.  Each step maps the coefficients at t to
those at t + dt, `exp_euler_step(coeffs, t, ctx, w)` and
`exp_rk2_step(coeffs, t, ctx, w)`: t is the one time it takes, and its
dt lives in its weights, rk2's stage time as t + `w.stage_dt`.  `run`
owns the clock: it picks the step once, hands step n the time dt*n and
counts the steps.  With the folded weights

    decay = e^{-dt*rates},  b2 = dt*phi2(-dt*rates)/c2,
    b1 = dt*phi1(-dt*rates) - b2,
    stage_decay = e^{-c2*dt*rates},  stage_phi1 = c2*dt*phi1(-c2*dt*rates),

the load is lam * c + G, where lam is the problem's `linear` and G the
`transformed_load` of its source and f: the transform of f plus each
source term's amplitude times its profile's modes, which are
transformed at the run's first load.  The lam * c part folds into
the weights once per run:

    s       = sd * c^n + stage_phi1 * G(t_n)
    c^{n+1} = (decay + lam*b1) * c^n + b1 * G(t_n)
              + b2 * (G_s(t_n + c2*dt) + lam * s)
            = (decay + lam*b1 + lam*b2*sd) * c^n
              + (b1 + lam*b2*stage_phi1) * G(t_n) + b2 * G_s(t_n + c2*dt)

with sd = stage_decay + lam*stage_phi1: the stage term lam * b2 * s
folds too, since s is a weighted sum of c^n and G(t_n).  Euler is the
case b2 = 0, (decay + lam*b1) * c^n + b1 * G(t_n): the first-stage
combine that both steps run.  This is the same scheme as with lam * u
in the nodal reaction, up to rounding; a step runs the same products
whatever lam is, and with lam = 0 no fold runs.

Besides the weights (rk2 forms b1 in the buffer of dt*phi1, so no
scheme keeps a phi1), a step holds at its peak the arrays of one load
and one state-sized array beside them: the incoming state through
Euler's load and rk2's first, the output buffer through rk2's second.
A load's arrays are the nodal state and the reaction with one temporary
of its own while f runs, then the reaction and its transform.  The
steps are modal: the load forms the nodal state f reads from the
coefficients it is handed and frees it once f has read it.  It drops
those coefficients after its inverse transform, which frees rk2's
stage, because the step passes it as a call temporary, never a named
local.  `run` hands each step its state the same way, so the step owns
the one reference to it.  No rate tensor lives through the steps: `run`
builds it (`operator.build_operator`), forms the weights from it and
drops it.  The rk2 step makes its output buffer once the first load has
returned.  `_rk2_stage` keeps the stage_phi1 * G(t_n) product in that
buffer, which then takes the first-stage combine; the step then drops
the incoming state and the first load, so both are freed before the
second load starts, and hands the stage to that load.  A problem with
no f forms no stage: its second load reads no state.  The step runs the
products of the formulas above in their order, so it gives the same
bits as the same products written each to a fresh array.

State stays transformed between steps; nodal recovery happens only in
the load that evaluates f and for observation.  So a problem whose f is
None steps with no transform at all: a run of it that takes any steps
makes one forward transform of u0 and one per source term, however many
steps it takes.  The coefficients are laid out as
`transforms` defines them by the boundary kind's `fourier` flag: real
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
from .mesh import aspect_ratio, trace_on_faces
from .operator import build_operator, phi_tensor
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
    megabytes each.  Left to its dynamic thresholds, glibc soon keeps an
    unobserved step's blocks, but maps a run's set-up arrays, and an
    observation's, fresh and hands them back on free, so each one is
    page-faulted in anew.  So this serves repeated runs in one process,
    such as the ladders and a benchmark's set-ups, and observed steps.
    Without it, at 64^3 fh, each repeated set-up faulted about 3100
    pages and took 1.6 to 1.7 times as long, and a step observed every
    step about 500 pages; an unobserved step faulted none either way.
    Fixing the mmap threshold at its 32 MiB maximum and the trim
    threshold at 64 MiB keeps freed blocks for reuse.  A no-op where
    the C library has no mallopt.
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
    """The end of a run: its time, modal coefficients and step index."""

    t: float
    coeffs: np.ndarray
    step_index: int


@dataclass(frozen=True)
class SchemeConfig:
    dt: float
    T: float
    scheme: str
    c2: float

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

    Both schemes hold `decay`, e^{-dt*rates}, and `b1`, the weight of the
    first load: dt*phi1(-dt*rates) on Euler, less `b2` =
    dt*phi2(-dt*rates)/c2 on rk2, which forms it in the buffer of
    dt*phi1.  rk2 adds `b2`, `stage_decay`, `stage_phi1` =
    c2*dt*phi1(-c2*dt*rates) and `stage_dt`, c2*dt, the time from a
    step's start to its stage load, so a step reads no dt of its own.
    The reaction's linear part `linear` is folded into `decay`, and on
    rk2 into `stage_decay` and `b1` too (see the module docstring).  Each
    weight tensor is real, about half a nodal array on a periodic mesh
    and one on a Dirichlet mesh: two on Euler, five on rk2.
    """

    def __init__(self, rates, dt, scheme, c2, linear):
        self.decay = np.exp(-dt * rates)
        self.b1 = dt * phi_tensor(1, rates, dt)
        if scheme == "rk2":
            self.stage_dt = c2 * dt
            self.stage_decay = np.exp(-self.stage_dt * rates)
            self.stage_phi1 = self.stage_dt * phi_tensor(1, rates,
                                                         self.stage_dt)
            # b2 in a fresh array: dividing phi2 in place left the peak RSS
            # of fh 64^3 runs about 1 MiB higher (glibc heap layout)
            phi2 = dt * phi_tensor(2, rates, dt)
            self.b2 = phi2 / c2
            self.b1 -= self.b2
        if linear:
            self.decay += linear * self.b1
        if linear and scheme == "rk2":
            self.stage_decay += linear * self.stage_phi1
            self.decay += linear * self.b2 * self.stage_decay
            self.b1 += linear * self.b2 * self.stage_phi1


def _combine(coeffs, G, w, out=None):
    """The first-stage combine decay * coeffs + b1 * G, into out (a new
    array when None); G is scaled in place.  It is Euler's whole step."""
    out = np.multiply(w.decay, coeffs, out=out)
    G *= w.b1
    out += G
    return out


def exp_euler_step(coeffs, t, ctx, w):
    """One step of the one-stage (exponential Euler) scheme: the
    coefficients at t + dt from those at t."""
    return _combine(coeffs, transformed_load(ctx, t, coeffs), w)


def _rk2_stage(coeffs, G1, ctx, w, out):
    """Write the first-stage combine of coeffs and the first load G1 into
    out and return the stage's coefficients, None when the problem has no
    f."""
    stage = None
    # without f no load reads the stage: forming it doubled an lrd rk2 step
    if ctx.problem.f is not None:
        stage = w.stage_decay * coeffs
        np.multiply(w.stage_phi1, G1, out=out)
        stage += out
    _combine(coeffs, G1, w, out)
    return stage


def exp_rk2_step(coeffs, t, ctx, w):
    """One step of the two-stage second-order exponential RK scheme: the
    coefficients at t + dt from those at t, with the stage loaded at
    t + w.stage_dt.  The step drops coeffs and the first load once the
    first-stage combine has read them, and passes the stage to the
    second load as a call temporary."""
    G1 = transformed_load(ctx, t, coeffs)
    out = np.empty_like(coeffs)
    stage = [_rk2_stage(coeffs, G1, ctx, w, out)]
    del coeffs, G1
    G2 = transformed_load(ctx, t + w.stage_dt, stage.pop())
    G2 *= w.b2
    out += G2
    return out


def observation_steps(every, nsteps):
    """The steps an observer of cadence `every` sees in a run of nsteps
    steps: step 0, every multiple of `every` and the last step."""
    if every < 1:
        raise ValueError(f"observer cadence must be >= 1, got {every}")
    return {*range(0, nsteps, every), nsteps}


def check_state(U, problem, mesh, t):
    """Check a nodal state at time t that leaves the solver against the
    problem's `admissible_range`: its owned nodes and, on a lifted mesh,
    the trace on each boundary node (`mesh.trace_on_faces`, the values
    that `mesh.extend_nodal` adds to it for a snapshot or an error
    norm)."""
    check_admissible(U, problem.admissible_range)
    if mesh.bc.trace is not None:
        for vals in trace_on_faces(mesh, t):
            check_admissible(vals, problem.admissible_range)


def run(problem, mesh, cfg, observers=(), step_times=None):
    """Advance from t=0 to t=T with uniform steps, reporting to observers;
    return the end `SolverState`.

    `run` owns the clock: step n starts at t = dt*n, which it hands to
    the scheme's step function, chosen once, and the state after it has
    index n + 1 and time dt*(n + 1), a product, never a running sum.
    `observers` holds (every, obs) pairs.  Each obs is called as
    obs(step_index, t, U_nodal) at the `observation_steps` of its own
    `every`, in the order of `observers`.  A step that any observer sees
    makes one inverse transform, which all of them share; the step-0 state is
    the read-only `initial_state`.  `run` drops each nodal state once the
    observers have seen it, so none lives through the steps, and it holds
    no reference to the modal state while a step runs: it hands the step
    the state as a call temporary, so the step can free it.

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
    # built before u0: built after u0's transform, the rate tensor left
    # the peak RSS of fh 64^3 runs about 2 MiB higher (glibc heap layout)
    rates = build_operator(mesh, problem.diffusion)
    U0 = initial_state(problem, mesh)
    step = exp_euler_step if cfg.scheme == "euler" else exp_rk2_step
    n = 0
    try:
        if observers:
            check_state(U0, problem, mesh, 0.0)
        # a list, not a name: each step is handed the state as a call
        # temporary, so that it can free it
        state = [forward_transform(U0, mesh)]
        weights = StepWeights(rates, cfg.dt, cfg.scheme, cfg.c2,
                              problem.linear)
        del rates
        for _, obs in observers:
            obs(0, 0.0, U0)
        del U0
        while n < nsteps:
            tic = time.perf_counter()
            state.append(step(state.pop(), cfg.dt * n, ctx, weights))
            n += 1
            if step_times is not None:
                step_times.append(time.perf_counter() - tic)
            due = [obs for steps, obs in plan if n in steps]
            if due:
                t = cfg.dt * n
                U = inverse_transform(state[0], mesh)
                check_state(U, problem, mesh, t)
                for obs in due:
                    obs(n, t, U)
                del U
    except NonlinearityDomainError as err:
        err.step_index = n
        raise
    return SolverState(cfg.dt * n, state.pop(), n)
