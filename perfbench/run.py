"""Benchmark of the expfem solver: end to end, or per layer when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

With `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
it runs half its rounds untraced and half in a traced child process and
prints the per-layer metrics.  `--workload all` runs every workload both
ways in child processes and prints each metric with its unit.  The last
line of standard output is the result as one JSON object; the line
before it records the environment and the run's structure.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

import source
from workloads import WORKLOADS, round_count

# name, unit, better; medians over the run's rounds (set-up: over all its
# set-ups), except peak RSS.  `setup_s` is the set-up's seconds divided by
# the floor timed around it, times the workload's `reference_floor_s`: the
# set-up's seconds at the defining host's speed, so that it cancels the
# host's drift as the other phases do.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("step_floors", "floor", "lower"),
    ("observe_floors", "floor", "lower"),
    ("finish_floors", "floor", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

# the traced child's limit; with the untraced half and the CLI check a
# traced run still ends within 180 s
CHILD_TIMEOUT_S = 120


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out) if out.isdigit() else None


def environment(workload, seed, rounds, fft_states):
    import numpy as np
    import scipy

    import expfem.problems as problems
    from expfem.config import parse_config
    from expfem.mesh import dof_shape

    cfg = parse_config(workload.config_text(), seed_override=seed)
    mesh = problems.mesh_for(cfg.problem, cfg.subdivisions)
    dofs = math.prod(dof_shape(mesh))
    # arrays of the Gauss grid (3 points per cell and axis) behind the
    # energy and error norms; computed from sizes, not measured
    gauss_bytes = 8 * math.prod(3 * n for n in workload.subdivisions)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {v: os.environ.get(v) for v in source.THREAD_VARS},
        "fft_at_floor": [{"workers": w, "backend": b}
                         for w, b in sorted(fft_states)],
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "state_bytes": 8 * dofs,
        "largest_array_bytes_computed": max(8 * dofs, gauss_bytes),
        "workload": workload.name,
        "seed": seed,
        "dofs": dofs,
        "rounds": rounds,
        "steps_per_round": workload.steps,
    }


def end_to_end(workload, done):
    median = statistics.median
    return {
        "setup_s": workload.reference_floor_s * median(
            [s for r in done for s in r.setup_floors]),
        "step_floors": median([r.step_floors for r in done]),
        "observe_floors": median([r.observe_floors for r in done]),
        "finish_floors": median([r.finish_floors for r in done]),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _traced_child(workload, seed, rounds, outdir, workdir):
    out = outdir / f"spans-{workload.name}-{seed}.json"
    subprocess.run(
        [sys.executable, str(source.ROOT / "perfbench" / "tracing.py"),
         workload.name, "tiny" if workload.tiny else "full", str(seed),
         str(rounds), str(out), str(workdir)],
        check=True, timeout=CHILD_TIMEOUT_S)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def run_one(workload, seed, seconds, trace):
    from rounds import cli_check, run_rounds
    from tracing import layer_metrics

    rounds = round_count(workload, seconds)
    outdir = source.ROOT / ".perfbench"
    workdir = outdir / f"work-{os.getpid()}"
    failures = []
    try:
        # the CLI check is one operation besides the rounds
        attempted, failed = 1, 0
        try:
            cli_s = cli_check(workload, seed, workdir / "cli")
        except Exception as err:  # reported as a failed check
            cli_s = None
            failed += 1
            failures.append(f"cli: {type(err).__name__}: {err}")
            traceback.print_exc()
        untraced_rounds = math.ceil(rounds / 2) if trace else rounds
        untraced = run_rounds(workload, seed, untraced_rounds, workdir,
                              log=sys.stderr)
        failures += untraced.failures
        attempted += untraced.attempted
        failed += untraced.failed
        missing = []
        if trace:
            child = _traced_child(workload, seed, math.ceil(rounds / 2),
                                  outdir, workdir / "traced")
            failures += child["failures"]
            missing = child["missing"]
            attempted += child["attempted"]
            failed += len(child["failures"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = {
        "environment": environment(workload, seed, rounds,
                                   untraced.fft_states),
        "untraced_rounds": untraced.attempted,
        "failures": failures,
        "missing_wrap_targets": missing,
    }
    print(json.dumps({"perfbench": details}))
    if not untraced.done:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    if trace:
        values = layer_metrics(workload, child["spans"], child["step_times"],
                               untraced, cli_s, child["energy_peak_mb"],
                               missing)
    else:
        units = {name: unit for name, unit, _ in END_TO_END}
        measured = end_to_end(workload, untraced.done)
        values = {name: (value, units[name])
                  for name, value in measured.items()}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=2 * CHILD_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: failed with code {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric} {entry['value']:.6g} {entry['unit']}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        source.prepare()
    except source.SourceMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(WORKLOADS[args.workload], args.seed, args.seconds,
                   args.trace)


if __name__ == "__main__":
    sys.exit(main())
