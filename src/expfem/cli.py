"""Command-line driver: run, converge and bench subcommands.

Exit codes: 0 success, 2 configuration error, 3 runtime/domain error
(for instance the state leaving the nonlinearity's admissible range),
1 for anything else.
"""

import argparse
import os
import sys
from pathlib import Path

from .analysis import (TimeSeriesObserver, convergence_study, error_norms,
                       sup_norm, timing_study)
from .config import ConfigError, parse_config
from .problems import NonlinearityDomainError, mesh_for
from .stepper import SchemeConfig, run
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
    for name, help_text in (
            ("run", "advance one simulation and write time series/snapshots"),
            ("converge", "run a refinement ladder and write a rate report"),
            ("bench", "run a spatial ladder and report per-step cost")):
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
    expected = {"run": "run", "converge": "convergence", "bench": "timing"}
    if cfg.mode != expected[args.command]:
        raise ConfigError(
            f"config mode {cfg.mode!r} does not match subcommand "
            f"{args.command!r} (expected {expected[args.command]!r})")
    return cfg


def _output_names(command, cfg):
    """(key, name) of every file the command writes into its output
    directory; snapshots come at step 0, every multiple of their cadence
    and the final step, as `stepper.run` calls its observers."""
    if command != "run":
        return [("output.report", cfg.out_report)]
    names = [("output.series", cfg.out_series)]
    if cfg.snapshot_every > 0:
        steps = {*range(0, cfg.nt, cfg.snapshot_every), cfg.nt}
        names += [("output.snapshot", cfg.out_snapshot.format(step=step))
                  for step in sorted(steps)]
    return names


def _check_output_names(out_dir, names):
    """Reject an output name that resolves to a directory, before the
    output directory is made: an existing directory, or the output
    directory or one of its parents, which exist once it is made."""
    base = out_dir.resolve()
    made = {base, *base.parents}
    for key, name in names:
        path = Path(os.path.normpath(base / name))
        if path in made or path.is_dir():
            raise ConfigError(
                f"{key} {name!r} names the directory {path}, not a file")


def _cmd_run(args, cfg, out_dir):
    problem = cfg.problem
    mesh = mesh_for(problem, cfg.subdivisions)
    series = TimeSeriesObserver(mesh, energy_params=problem.energy_params)
    observers = [(cfg.observe_every, series)]
    if cfg.snapshot_every > 0:
        def snap(step, t, U):
            write_snapshot(U, mesh, t, out_dir / cfg.out_snapshot.format(step=step))
        observers.append((cfg.snapshot_every, snap))
    scheme_cfg = SchemeConfig(dt=cfg.dt, T=cfg.T, scheme=cfg.scheme, c2=cfg.c2)
    state = run(problem, mesh, scheme_cfg, observers=observers)
    write_series_csv(series.rows, out_dir / cfg.out_series)
    U = inverse_transform(state.coeffs, mesh)
    _echo(args, f"finished {cfg.nt} steps to T={cfg.T}; sup norm {sup_norm(U):.6g}")
    if problem.exact is not None:
        l2, h1 = error_norms(U, mesh, problem.exact, state.t)
        _echo(args, f"errors at T: L2 {l2:.6g}, H1 {h1:.6g}")
    _echo(args, f"wrote {out_dir / cfg.out_series}")
    return EXIT_OK


def _cmd_converge(args, cfg, out_dir):
    rows = convergence_study(cfg.problem, cfg.rungs, scheme=cfg.scheme,
                             c2=cfg.c2, T=cfg.T)
    path = out_dir / cfg.out_report
    write_report_csv(rows, path)
    for row in rows:
        _echo(args, f"{row.resolution} nt={row.nt}: "
                    f"L2 {row.err_l2:.4e} H1 {row.err_h1:.4e}")
    _echo(args, f"wrote {path}")
    return EXIT_OK


def _cmd_bench(args, cfg, out_dir):
    rows = timing_study(cfg.problem, cfg.rungs, scheme=cfg.scheme,
                        c2=cfg.c2, T=cfg.T)
    path = out_dir / cfg.out_report
    write_report_csv(rows, path)
    for row in rows:
        growth = f" growth {row.growth:.2f}" if row.growth is not None else ""
        _echo(args, f"{row.resolution}: {row.sec_per_step:.4g} s/step{growth}")
    _echo(args, f"wrote {path}")
    return EXIT_OK


_COMMANDS = {"run": _cmd_run, "converge": _cmd_converge, "bench": _cmd_bench}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        out_dir = Path(args.out)
        _check_output_names(out_dir, _output_names(args.command, cfg))
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args, cfg, out_dir)
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
