"""Same-bits table: sha256 hashes of what the solver computes on fixed cases.

    python tests/same_bits.py               # the table of this tree's src
    python tests/same_bits.py --parent REV  # the cases that differ at REV

Each case hashes the end coefficients of a run, each nodal state its
observer sees, each `TimeSeriesObserver` row and, where a config can
name the case, what `expfem run` writes from that config: the series,
the snapshots at steps 0 and nt, each by its path under the output
directory, and its standard output.  A builtin case's config is written
from its row of `CASES`; a custom case is its config text in
`CONFIG_CASES`, which both the run (through `parse_config`) and
`expfem run` read.  A ladder case in
`CONFIG_CASES` runs no single run: it hashes what `expfem converge`
prints and its report without the `sec_per_step` column, whose timings
vary from run to run.  `--parent` checks REV out
into a temporary git worktree of the repository this file lies in,
computes both tables in child processes, prints the cases whose hashes
differ, exits 1 if any do, and removes the worktree.  No table is kept in
a file: the hashes depend on the installed numpy and scipy, so only two
revisions computed on one machine compare.
"""

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name: (builtin config name, factory keywords, subdivisions, scheme, c2,
# dt, nt); a config name of None marks a case no config can name
# (allen_cahn_wave's `dim` is no config key)
CASES = {
    "fh-euler": ("flory_huggins", {}, (12, 10, 8), "euler", 0.5, 0.01, 4),
    "fh-rk2": ("flory_huggins", {}, (12, 10, 8), "rk2", 0.5, 0.01, 4),
    "acw-rk2-c0.5": ("allen_cahn_wave", {}, (32, 4, 4), "rk2", 0.5, 2.5e-4, 4),
    "acw-rk2-c1": ("allen_cahn_wave", {}, (32, 4, 4), "rk2", 1.0, 2.5e-4, 4),
    "acw2d-euler": (None, {"dim": 2}, (20, 10), "euler", 0.5, 2.5e-4, 4),
    "acw1d-rk2-c0.3": (None, {"dim": 1}, (40,), "rk2", 0.3, 2.5e-4, 4),
    "lrd-euler": ("linear_rd", {}, (32, 16), "euler", 0.5, 2.5e-4, 4),
    "lrd-rk2-c0.3": ("linear_rd", {}, (32, 16), "rk2", 0.3, 2.5e-4, 4),
}

# name: config text of a custom problem: a lifted 3D box, whose trace
# varies along every axis, so the lifting runs on all three axes, a
# periodic box whose reaction uses `^`, a homogeneous Dirichlet box
# (no `custom.g`) and a lifted 1D box that writes its series and
# snapshots into subdirectories, one of them named through `..`; then a
# spatial convergence ladder
CONFIG_CASES = {
    "custom3d-lifted-rk2": """\
mode = "run"
problem = "custom"
scheme = "rk2"
c2 = 0.5
T = 0.002
nt = 4
observe_every = 1
snapshot_every = 4
[domain]
n = [12, 6, 5]
bounds = [[0.0, 1.0], [-0.5, 0.5], [0.0, 0.4]]
[custom]
d = 0.3
f = "u - u**3 + exp(-t) * x * y"
u0 = "1 + x * y + sin(pi * z) * cos(x)"
g = "exp(-t) * (1 + x * y + sin(pi * z) * cos(x)) + t * z"
""",
    "custom2d-periodic-euler": """\
mode = "run"
problem = "custom"
scheme = "euler"
T = 0.004
nt = 4
observe_every = 1
snapshot_every = 4
[domain]
n = [16, 10]
bounds = [[0.0, 2.0], [0.0, 1.0]]
bc = "periodic"
[custom]
d = 0.05
f = "u - u^3 + 0.1 * sin(pi * x) * cos(2 * pi * y) ^ 2"
u0 = "0.5 * sin(pi * x) * cos(2 * pi * y)"
""",
    "custom2d-homogeneous-rk2": """\
mode = "run"
problem = "custom"
scheme = "rk2"
c2 = 0.5
T = 0.004
nt = 4
observe_every = 1
snapshot_every = 4
[domain]
n = [14, 9]
bounds = [[0.0, 1.0], [0.0, 0.5]]
[custom]
d = 0.2
f = "u * (1 - u * u) + t * sin(pi * x) * y"
u0 = "sin(pi * x) * sin(2 * pi * y)"
""",
    "custom1d-nested-output-rk2": """\
mode = "run"
problem = "custom"
scheme = "rk2"
c2 = 0.5
T = 0.004
nt = 4
observe_every = 2
snapshot_every = 2
[domain]
n = [24]
bounds = [[0.0, 1.0]]
[custom]
d = 0.1
f = "u - u^3"
u0 = "x * (1 - x) + 0.5"
g = "0.5 + t"
[output]
series = "tables/../sub/series.csv"
snapshot = "snaps/s{step}/u.vtk"
""",
    "converge-lrd-rk2": """\
mode = "convergence"
problem = "linear_rd"
scheme = "rk2"
c2 = 0.3
T = 0.25
nt = 16
[ladder]
kind = "spatial"
n = [[4, 2], [8, 4]]
""",
}

# subcommand per config mode
COMMANDS = {"run": "run", "convergence": "converge"}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _array_sha(a):
    return _sha(f"{a.dtype.str} {a.shape}".encode() + a.tobytes())


def _run_hashes(problem, subdivisions, scheme, c2, dt, nt):
    from expfem.analysis import TimeSeriesObserver
    from expfem.problems import mesh_for
    from expfem.stepper import SchemeConfig, run

    mesh = mesh_for(problem, subdivisions)
    series = TimeSeriesObserver(mesh, energy_params=problem.energy_params)
    hashes = {}

    def record(n, t, U):
        hashes[f"state {n}"] = _array_sha(U)

    end = run(problem, mesh, SchemeConfig(dt=dt, T=dt * nt, scheme=scheme,
                                          c2=c2),
              observers=[(1, record), (1, series)])
    hashes["coeffs"] = _array_sha(end.coeffs)
    for n, row in enumerate(series.rows):
        hashes[f"row {n}"] = _sha(repr([None if v is None else float(v).hex()
                                        for v in row]).encode())
    return hashes


def _builtin_config(name, subdivisions, scheme, c2, dt, nt):
    """The config text of a builtin case."""
    return "\n".join([
        'mode = "run"', f'problem = "{name}"', f'scheme = "{scheme}"',
        f"c2 = {c2!r}", f"T = {dt * nt!r}", f"nt = {nt}", "observe_every = 1",
        f"snapshot_every = {nt}", "[domain]",
        "n = [{}]".format(", ".join(map(str, subdivisions)))]) + "\n"


def _without_column(text, name):
    """CSV text without the column headed name."""
    rows = [line.split(",") for line in text.split("\n")]
    column = rows[0].index(name)
    for cells in rows:
        del cells[column:column + 1]
    return "\n".join(map(",".join, rows))


def _cli_hashes(text, workdir, command):
    from expfem.cli import main

    cfg = workdir / "cfg.toml"
    out = workdir / "out"
    cfg.write_text(text)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([command, "--config", str(cfg), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"expfem {command} of {cfg} exited {code}")
    hashes = {"cli stdout": _sha(
        stdout.getvalue().replace(str(out), "<out>").encode())}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if command != "run":
            data = _without_column(data.decode(), "sec_per_step").encode()
        hashes[f"cli {path.relative_to(out).as_posix()}"] = _sha(data)
    return hashes


def table():
    """{case: {item: sha256}} for the expfem that `import expfem` finds."""
    from expfem import problems
    from expfem.config import parse_config

    factories = {None: problems.builtin_allen_cahn_wave,
                 "flory_huggins": problems.builtin_flory_huggins,
                 "allen_cahn_wave": problems.builtin_allen_cahn_wave,
                 "linear_rd": problems.builtin_linear_rd}
    # case: (problem, run spec or None, config text or None, subcommand)
    runs = {}
    for case, (name, kwargs, *spec) in CASES.items():
        text = None if name is None else _builtin_config(name, *spec)
        runs[case] = (factories[name](**kwargs), spec, text, "run")
    for case, text in CONFIG_CASES.items():
        cfg = parse_config(text)
        spec = ((cfg.subdivisions, cfg.scheme, cfg.c2, cfg.dt, cfg.nt)
                if cfg.mode == "run" else None)
        runs[case] = (cfg.problem, spec, text, COMMANDS[cfg.mode])
    out = {}
    for case, (problem, spec, text, command) in runs.items():
        hashes = {} if spec is None else _run_hashes(problem, *spec)
        if text is not None:
            with tempfile.TemporaryDirectory() as tmp:
                hashes.update(_cli_hashes(text, Path(tmp), command))
        out[case] = hashes
    return out


def _child_table(src):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--src", str(src)],
        check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout)


def differing(parent, child):
    """{case: [items]} of the items whose hashes differ or are missing
    on one side."""
    diffs = {}
    for case in sorted(parent.keys() | child.keys()):
        a, b = parent.get(case, {}), child.get(case, {})
        items = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        if items:
            diffs[case] = items
    return diffs


def compare_with(rev):
    """Print the cases whose hashes differ between REV's src and this
    tree's; return the exit status."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet",
                        "--detach", str(tree), rev], check=True)
        try:
            parent = _child_table(tree / "src")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                            "--force", str(tree)], check=True)
    diffs = differing(parent, _child_table(ROOT / "src"))
    for case, items in diffs.items():
        print(f"{case}: {', '.join(items)}")
    count = sum(map(len, parent.values()))
    print(f"{len(diffs)} of {len(parent)} cases differ from {rev} "
          f"({count} hashes at {rev})")
    return 1 if diffs else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", metavar="REV",
                        help="compare this tree's table with REV's")
    parser.add_argument("--src", metavar="DIR", default=str(ROOT / "src"),
                        help="the source tree whose table is printed as "
                             "JSON (default: this tree's src)")
    args = parser.parse_args(argv)
    if args.parent is not None:
        return compare_with(args.parent)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import expfem
    if Path(expfem.__file__).resolve().parent.parent != Path(args.src).resolve():
        raise RuntimeError(f"imported {expfem.__file__}, not {args.src}")
    json.dump(table(), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
