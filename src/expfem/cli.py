"""Command-line driver: run, converge and bench subcommands.

Exit codes: 0 success, 2 configuration error, 3 runtime/domain error
(for instance the state leaving the nonlinearity's admissible range),
1 for anything else.
"""

import argparse
import sys
from pathlib import Path

from .analysis import (TimeSeriesObserver, convergence_study, error_norms,
                       timing_study)
from .config import ConfigError, parse_config
from .problems import NonlinearityDomainError, mesh_for
from .stepper import SchemeConfig, observation_steps, run
from .transforms import inverse_transform
from .writers import write_report_csv, write_series_csv, write_snapshot

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="expfem",
        description="Exponential-integrator finite element solver for "
                    "semilinear parabolic equations on rectangular grids.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, metavar="PATH",
                       help="TOML config file")
        p.add_argument("--out", default=".", metavar="DIR",
                       help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's random seed")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress output on stdout")
    return parser


def _echo(args, message):
    if not args.quiet:
        print(message)


def _load_config(args):
    text = Path(args.config).read_text(encoding="utf-8")
    cfg = parse_config(text, seed_override=args.seed)
    mode = _COMMANDS[args.command][0]
    if cfg.mode != mode:
        raise ConfigError(
            f"config mode {cfg.mode!r} does not match subcommand "
            f"{args.command!r} (expected {mode!r})")
    return cfg


def _output_paths(command, cfg, out_dir):
    """The path under out_dir of every file the command writes: its
    series or report, and the snapshot of each of the
    `observation_steps` at which `stepper.run` calls its snapshot
    observer, by step.

    Every rule on output files is checked here, once, before the output
    directory is made: the snapshot pattern formats with {step} alone,
    even when no snapshot is due; each name is one the file system takes
    (no NUL character); no two files share a path; no path is
    a directory, existing or one the command makes; and no directory a
    file lies in, `--out` included, is an existing non-directory.
    """
    if command != "run":
        files, steps = [(f"output.report {cfg.out_report!r}", cfg.out_report)], []
    else:
        every = cfg.snapshot_every
        steps = sorted(observation_steps(every, cfg.nt)) if every else []
        try:
            names = [cfg.out_snapshot.format(step=step) for step in steps or [0]]
        except (AttributeError, LookupError, OverflowError, TypeError,
                ValueError) as err:
            raise ConfigError(
                f"output.snapshot {cfg.out_snapshot!r} must format with {{step}} "
                f"alone ({type(err).__name__}: {err})") from None
        files = [(f"output.series {cfg.out_series!r}", cfg.out_series)] + [
            (f"output.snapshot {name!r} at step {step}", name)
            for step, name in zip(steps, names)]
    base = out_dir.resolve()
    owners = {}  # file path: what names it
    for what, name in files:
        try:
            path = (base / name).resolve()
        except ValueError as err:  # a NUL character
            raise ConfigError(f"{what} is not a file name: {err}") from None
        if path in owners:
            raise ConfigError(f"{what} and {owners[path]} both name {path}")
        owners[path] = what
    # each directory that exists once the files are written, by the first
    # file that needs it
    made = {parent: what for path, what in reversed(owners.items())
            for parent in (*path.parents, base, *base.parents)}
    for path, what in owners.items():
        if path in made or path.is_dir():
            raise ConfigError(f"{what} names the directory {path}, not a file")
    for parent, what in made.items():
        if parent.exists() and not parent.is_dir():
            raise ConfigError(f"{what}: {parent} exists and is not a directory")
    paths = [out_dir / name for _, name in files]
    return paths[0], dict(zip(steps, paths[1:]))


def _cmd_run(args, cfg, path, snapshots):
    problem = cfg.problem
    mesh = mesh_for(problem, cfg.subdivisions)
    series = TimeSeriesObserver(mesh, energy_params=problem.energy_params)
    observers = [(cfg.observe_every, series)]
    if snapshots:
        def snap(step, t, U):
            write_snapshot(U, mesh, t, snapshots[step])
        observers.append((cfg.snapshot_every, snap))
    scheme_cfg = SchemeConfig(dt=cfg.dt, T=cfg.T, scheme=cfg.scheme, c2=cfg.c2)
    state = run(problem, mesh, scheme_cfg, observers=observers)
    write_series_csv(series.rows, path)
    # the series' last row is the final state's, observed at the last step
    _echo(args, f"finished {cfg.nt} steps to T={cfg.T}; "
                f"sup norm {series.rows[-1][1]:.6g}")
    if problem.exact is not None:
        U = inverse_transform(state.coeffs, mesh)
        l2, h1 = error_norms(U, mesh, problem.exact, state.t)
        _echo(args, f"errors at T: L2 {l2:.6g}, H1 {h1:.6g}")
    _echo(args, f"wrote {path}")
    return EXIT_OK


_LADDERS = {  # config mode: (study, the line printed per rung)
    "convergence": (convergence_study, lambda row: (
        f"{row.resolution} nt={row.nt}: "
        f"L2 {row.err_l2:.4e} H1 {row.err_h1:.4e}")),
    "timing": (timing_study, lambda row: (
        f"{row.resolution}: {row.sec_per_step:.4g} s/step"
        + (f" growth {row.growth:.2f}" if row.growth is not None else "")))}


def _cmd_ladder(args, cfg, path, _):
    study, line = _LADDERS[cfg.mode]
    rows = study(cfg.problem, cfg.rungs, scheme=cfg.scheme, c2=cfg.c2, T=cfg.T)
    write_report_csv(rows, path)
    for row in rows:
        _echo(args, line(row))
    _echo(args, f"wrote {path}")
    return EXIT_OK


_COMMANDS = {  # subcommand: (config mode, help, handler)
    "run": ("run", "advance one simulation and write time series/snapshots",
            _cmd_run),
    "converge": ("convergence",
                 "run a refinement ladder and write a rate report",
                 _cmd_ladder),
    "bench": ("timing", "run a spatial ladder and report per-step cost",
              _cmd_ladder)}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        out_dir = Path(args.out)
        paths = _output_paths(args.command, cfg, out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command][2](args, cfg, *paths)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NonlinearityDomainError as err:
        print(f"domain error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
