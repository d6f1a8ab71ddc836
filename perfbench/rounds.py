"""One run of a workload: a fixed number of rounds in one process.

A round drives the package's public API through set-up, a block of K
steps, an observation and a finish, and times a warm block of raw-FFT
floor units before the set-up and after each phase.  Each phase runs
back to back, as the program runs it; its floor is the mean of the
blocks right before and right after it.  The phases are interleaved in
every round, so a slow episode of the host costs every phase a few
samples instead of wiping out one phase; dividing a phase's seconds by
the floor timed around it cancels most of the host's speed at that
moment.

Calls into the program go through module attributes (`stepper.run`,
not a local `run`) so that a traced run, which replaces those
attributes, sees them.
"""

import contextlib
import io
import re
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.fft

import expfem.analysis as analysis
import expfem.cli as cli
import expfem.config as config
import expfem.problems as problems
import expfem.stepper as stepper
import expfem.transforms as transforms
import expfem.writers as writers
from expfem.mesh import dof_shape

from checks import (CLI_ERROR_RTOL, ERROR_RTOL, CheckFailed,
                    check_energy_not_increasing, check_errors, check_series,
                    check_snapshot, check_state, read_series)

clock = time.perf_counter


def fft_state():
    """`scipy.fft`'s default worker count and the backends set on it."""
    try:
        from scipy._lib._uarray import get_state
        installed, local = get_state()._pickle()[:2]
        names = sorted(f"{domain}={entry[0][0].__name__}"
                       for domain, entry in installed.items())
        backend = ",".join(names) or "default"
        if local:
            backend += ",local"
    except (ImportError, AttributeError, TypeError, IndexError):
        backend = "unknown"
    return scipy.fft.get_workers(), backend


class Floor:
    """The raw `scipy.fft` work one step of the scheme cannot avoid.

    It transforms a seeded array of the state's nodal shape that the
    benchmark owns, never the program's state, so a later change to the
    state's dtype or layout does not move the floor.  Every call passes
    `workers=1`.
    """

    def __init__(self, shape, periodic, stages, calls, seed):
        self.shape = tuple(shape)
        self.periodic = periodic
        self.stages = stages
        self.calls = calls
        self.fft_states = set()
        self.x = np.random.default_rng(seed).standard_normal(self.shape)
        if periodic:
            self.xhat = scipy.fft.rfftn(self.x, workers=1)

    def unit(self):
        """Forward and inverse transform once per stage."""
        for _ in range(self.stages):
            if self.periodic:
                scipy.fft.rfftn(self.x, workers=1)
                scipy.fft.irfftn(self.xhat, s=self.shape, workers=1)
            else:
                scipy.fft.dstn(self.x, type=1, workers=1)
                scipy.fft.dstn(self.x, type=1, workers=1)

    def timed_unit(self):
        tic = clock()
        self.unit()
        return clock() - tic

    def block(self):
        """Median seconds of one unit over a warm block of calls."""
        self.fft_states.add(fft_state())
        self.unit()
        return statistics.median(self.timed_unit() for _ in range(self.calls))


@dataclass
class Round:
    """Seconds of one round's phases and the floor blocks around them.

    `floors` holds the five floor blocks of the round: before the
    set-ups, then after the set-ups, the steps, the observation and the
    finish.  Phase i's floor is the mean of blocks i and i + 1.
    """

    setups: list            # seconds of each set-up
    step_s: float           # mean over the block's steps
    observe_s: float        # mean over the observation's repeats
    finish_s: float         # mean over the finish's repeats
    floors: list
    step_times: list

    def phase_floor(self, index):
        return (self.floors[index] + self.floors[index + 1]) / 2

    @property
    def floor_s(self):
        return statistics.fmean(self.floors)

    @property
    def setup_floors(self):
        return [s / self.phase_floor(0) for s in self.setups]

    @property
    def step_floors(self):
        return self.step_s / self.phase_floor(1)

    @property
    def observe_floors(self):
        return self.observe_s / self.phase_floor(2)

    @property
    def finish_floors(self):
        return self.finish_s / self.phase_floor(3)


def _repeat(work, repeats):
    """Mean seconds of `work` over `repeats` back-to-back calls, and the
    last call's result."""
    tic = clock()
    for _ in range(repeats):
        result = work()
    return (clock() - tic) / repeats, result


@dataclass
class Rounds:
    done: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    fft_states: set = field(default_factory=set)

    @property
    def failed(self):
        return len(self.failures)


def _no_span(name):
    return contextlib.nullcontext()


def _scheme(cfg, T):
    return stepper.SchemeConfig(dt=cfg.dt, T=T, scheme=cfg.scheme, c2=cfg.c2)


def initial_energy(workload, seed):
    """Energy of the initial state, which every round's energy must not
    exceed; None when the problem has no energy."""
    cfg = config.parse_config(workload.config_text(), seed_override=seed)
    if cfg.problem.energy_params is None:
        return None
    mesh = problems.mesh_for(cfg.problem, cfg.subdivisions)
    state = stepper.run(cfg.problem, mesh, _scheme(cfg, 0.0))
    U = transforms.inverse_transform(state.coeffs, mesh)
    return analysis.discrete_energy(U, mesh, *cfg.problem.energy_params)


def one_round(workload, seed, floor, workdir, energy0=None, span=_no_span):
    """Time one round and check its outputs; raises on a wrong output."""
    text = workload.config_text()
    floors = [floor.block()]
    setups = []
    with span("bench.setup"):
        for _ in range(workload.setups_per_round):
            tic = clock()
            cfg = config.parse_config(text, seed_override=seed)
            mesh = problems.mesh_for(cfg.problem, cfg.subdivisions)
            stepper.run(cfg.problem, mesh, _scheme(cfg, 0.0))
            setups.append(clock() - tic)
    problem = cfg.problem
    floors.append(floor.block())

    times = []
    with span("bench.steps"):
        state = stepper.run(problem, mesh, _scheme(cfg, cfg.T), step_times=times)
    floors.append(floor.block())

    series = analysis.TimeSeriesObserver(
        mesh, energy_params=problem.energy_params)

    def observe():
        series.rows.clear()
        U = transforms.inverse_transform(state.coeffs, mesh)
        series(state.step_index, state.t, U)
        return U

    with span("bench.observe"):
        observe_s, U = _repeat(observe, workload.observe_repeats)
    floors.append(floor.block())

    snapshot = workdir / "snapshot.vtk"

    def finish():
        U_end = transforms.inverse_transform(state.coeffs, mesh)
        errors = None
        if problem.exact is not None:
            errors = analysis.error_norms(U_end, mesh, problem.exact, state.t)
        writers.write_series_csv(series.rows, workdir / "series.csv")
        if workload.snapshot:
            writers.write_snapshot(U_end, mesh, state.t, snapshot)
        return errors

    with span("bench.finish"):
        finish_s, errors = _repeat(finish, workload.finish_repeats)
    floors.append(floor.block())

    if state.step_index != workload.steps or len(times) != workload.steps:
        raise CheckFailed(f"block ran {state.step_index} steps, "
                          f"expected {workload.steps}")
    check_state(U, workload.bound, workload.strict_bound)
    if energy0 is not None:
        check_energy_not_increasing([energy0, series.rows[-1][2]])
    if workload.reference_errors is not None:
        check_errors(errors, workload.reference_errors, ERROR_RTOL)
    if workload.snapshot:
        check_snapshot(snapshot, workload.subdivisions)

    return Round(
        setups=setups,
        step_s=statistics.fmean(times),
        observe_s=observe_s,
        finish_s=finish_s,
        floors=floors,
        step_times=times,
    )


def make_floor(workload, seed):
    cfg = config.parse_config(workload.config_text(), seed_override=seed)
    mesh = problems.mesh_for(cfg.problem, cfg.subdivisions)
    return Floor(dof_shape(mesh), cfg.problem.periodic, workload.stages,
                 workload.floor_calls, seed)


def run_rounds(workload, seed, rounds, workdir, span=_no_span, log=None):
    """Run `rounds` rounds; a round that raises counts as failed."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    floor = make_floor(workload, seed)
    energy0 = initial_energy(workload, seed)
    out = Rounds()
    for index in range(rounds):
        out.attempted += 1
        try:
            out.done.append(
                one_round(workload, seed, floor, workdir, energy0, span))
        except Exception as err:  # a failed round must not end the run
            out.failures.append(f"round {index}: {type(err).__name__}: {err}")
            if log is not None:
                log.write(traceback.format_exc())
    out.fft_states = floor.fft_states
    return out


def cli_check(workload, seed, workdir):
    """One real `expfem run` call on the workload's config.

    Returns its wall seconds; raises CheckFailed on a wrong output.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = workdir / "config.toml"
    cfg_path.write_text(workload.config_text(), encoding="utf-8")
    cfg = config.parse_config(workload.config_text(), seed_override=seed)
    printed = io.StringIO()
    tic = clock()
    with contextlib.redirect_stdout(printed):
        code = cli.main(["run", "--config", str(cfg_path),
                         "--out", str(workdir), "--seed", str(seed)])
    seconds = clock() - tic
    if code != 0:
        raise CheckFailed(f"expfem run exited with code {code}")
    if workload.reference_errors is not None:
        found = re.search(r"errors at T: L2 (\S+), H1 (\S+)", printed.getvalue())
        if found is None:
            raise CheckFailed("expfem run printed no errors at T")
        # the CLI prints 6 significant digits
        check_errors([float(v) for v in found.groups()],
                     workload.reference_errors, CLI_ERROR_RTOL)
    rows = read_series(workdir / cfg.out_series)
    check_series(rows, cfg.nt, cfg.observe_every, cfg.dt,
                 with_energy=cfg.problem.energy_params is not None)
    for _, sup, _ in rows:
        check_state(np.array([sup]), workload.bound, workload.strict_bound)
    if workload.snapshot:
        for step in (0, cfg.nt):
            check_snapshot(workdir / cfg.out_snapshot.format(step=step),
                           workload.subdivisions)
    return seconds
