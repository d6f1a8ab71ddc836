"""Same-bits table: what the solver computes on fixed cases, hashed or exact.

    python tests/same_bits.py               # the table of this tree's src
    python tests/same_bits.py --parent REV  # the cases that differ at REV

Each case hashes each nodal state its observer sees.  It keeps the end
coefficients of a run (the real and imaginary parts of a complex one in
turn), each `TimeSeriesObserver` row and both error norms at T, where
the problem has an exact solution, as the hex text of their floats, so
that a move at rounding level shows and can be sized.
Where a config can name the case, it also hashes what `expfem run`
writes from that config: the series, the snapshots at steps 0 and nt,
each by its path under the output directory, and its standard output.
A builtin case's config is written from its row of `CASES`; a custom
case is its config text in `CONFIG_CASES`, which both the run (through
`parse_config`) and `expfem run` read.  A ladder case in `CONFIG_CASES`
runs no single run: it keeps both norms of each rung as hex text and
hashes what `expfem converge` prints and its report without the
`sec_per_step` column, whose timings vary from run to run.  `--parent`
checks REV out into a temporary git worktree of the repository this
file lies in, computes both tables in child processes, prints the cases
whose items differ, each scalar item with the largest relative
difference of its floats from REV's (of the coefficients, relative to
their largest magnitude at REV, as a mode near zero has no scale of its
own), exits 1 if any do, and removes the worktree.  No table is kept in
a file: the hashes depend on the installed numpy and scipy, so only two
revisions computed on one machine compare.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

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
# periodic box whose reaction uses `^`, a periodic rk2 box of an odd and
# an even axis count, whose first axis forms its weights on the modes
# 0..N // 2 alone and copies the mirrored ones, a homogeneous Dirichlet box
# (no `custom.g`) and a lifted 1D box that writes its series and
# snapshots into subdirectories, one of them named through `..`, and a
# lifted 3D box whose exact solution reads x and z but not y, so its
# norms take the mean over y and stream x and z with a transverse slope
# along z (its initial state adds a bump along y that the exact solution
# leaves out, so the rest about that mean is not zero), and a periodic 3D
# box whose initial datum reads y alone, so its transform leaves out the
# leading axis x and the half-spectrum axis z; then two spatial
# convergence ladders, the second on a lifted 2D box whose exact
# solution reads y alone, so its norms take the mean over x
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
    "custom2d-periodic-odd-even-rk2": """\
mode = "run"
problem = "custom"
scheme = "rk2"
c2 = 0.5
T = 0.004
nt = 4
observe_every = 1
snapshot_every = 4
[domain]
n = [7, 10]
bounds = [[0.0, 1.4], [0.0, 1.0]]
bc = "periodic"
[custom]
d = 0.08
f = "u - u^3 + 0.2 * cos(2 * pi * y)"
u0 = "0.4 * sin(2 * pi * x / 1.4) * cos(2 * pi * y) + 0.1 * cos(4 * pi * y)"
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
    "custom3d-lifted-xz-rk2": """\
mode = "run"
problem = "custom"
scheme = "rk2"
c2 = 0.5
T = 0.004
nt = 4
observe_every = 1
snapshot_every = 4
[domain]
n = [10, 4, 6]
bounds = [[0.0, 1.0], [0.0, 0.5], [0.0, 0.4]]
[custom]
d = 0.2
f = "-0.8 * u"
u0 = "cos(x) * (1 + z) + 0.1 * sin(pi * x) * sin(2 * pi * y) * sin(2.5 * pi * z)"
g = "exp(-t) * cos(x) * (1 + z)"
exact = "exp(-t) * cos(x) * (1 + z)"
""",
    "custom3d-periodic-y-rk2": """\
mode = "run"
problem = "custom"
scheme = "rk2"
c2 = 0.5
T = 0.004
nt = 4
observe_every = 1
snapshot_every = 4
[domain]
n = [6, 10, 5]
bounds = [[0.0, 1.2], [0.0, 1.0], [0.0, 0.5]]
bc = "periodic"
[custom]
d = 0.1
f = "u - u^3 + 0.2 * sin(2 * pi * x / 1.2) * cos(4 * pi * z)"
u0 = "0.6 * cos(2 * pi * y) + 0.1"
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
    "converge-custom2d-lifted-y-rk2": """\
mode = "convergence"
problem = "custom"
scheme = "rk2"
c2 = 0.5
T = 0.05
nt = 8
[domain]
bounds = [[0.0, 2.0], [0.0, 1.0]]
[custom]
d = 0.5
f = "-u"
u0 = "1 + cos(pi * y)"
g = "exp(-t) + exp(-(0.5 * pi^2 + 1) * t) * cos(pi * y)"
exact = "exp(-t) + exp(-(0.5 * pi^2 + 1) * t) * cos(pi * y)"
[ladder]
kind = "spatial"
n = [[6, 4], [12, 8]]
""",
}

# subcommand per config mode
COMMANDS = {"run": "run", "convergence": "converge"}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _array_sha(a):
    return _sha(f"{a.dtype.str} {a.shape}".encode() + a.tobytes())


def _run_hashes(problem, subdivisions, scheme, c2, dt, nt):
    from expfem.analysis import TimeSeriesObserver, error_norms
    from expfem.problems import mesh_for
    from expfem.stepper import SchemeConfig, run
    from expfem.transforms import inverse_transform

    mesh = mesh_for(problem, subdivisions)
    series = TimeSeriesObserver(mesh, energy_params=problem.energy_params)
    hashes = {}

    def record(n, t, U):
        hashes[f"state {n}"] = _array_sha(U)

    end = run(problem, mesh, SchemeConfig(dt=dt, T=dt * nt, scheme=scheme,
                                          c2=c2),
              observers=[(1, record), (1, series)])
    hashes["coeffs"] = _hex(
        np.ascontiguousarray(end.coeffs).view(float).ravel())
    for n, row in enumerate(series.rows):
        hashes[f"row {n}"] = _hex(row)
    if problem.exact is not None:
        U = inverse_transform(end.coeffs, mesh)
        hashes.update(_norm_items(
            "", error_norms(U, mesh, problem.exact, end.t)))
    return hashes


def _hex(values):
    """A scalar item: the exact hex text of each float, None kept."""
    return [None if v is None else float(v).hex() for v in values]


def _norm_items(prefix, norms):
    return {f"{prefix}{name}": _hex([norm])
            for name, norm in zip(("L2", "H1"), norms)}


def _ladder_hashes(cfg):
    from expfem.analysis import convergence_study

    rows = convergence_study(cfg.problem, cfg.rungs, T=cfg.T,
                             scheme=cfg.scheme, c2=cfg.c2)
    hashes = {}
    for n, row in enumerate(rows):
        hashes.update(_norm_items(f"rung {n} ", (row.err_l2, row.err_h1)))
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
    """{case: {item: sha256, or a scalar item's list of float hex texts}}
    for the expfem that `import expfem` finds."""
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
        hashes = (_ladder_hashes(parse_config(text)) if spec is None
                  else _run_hashes(problem, *spec))
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
    """{case: [items]} of the items that differ or are missing on one
    side."""
    diffs = {}
    for case in sorted(parent.keys() | child.keys()):
        a, b = parent.get(case, {}), child.get(case, {})
        items = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        if items:
            diffs[case] = items
    return diffs


def largest_relative_difference(parent, child, whole=False):
    """max |c - p| / |p| over the floats of two versions of a scalar item,
    or with `whole` max |c - p| / max |p| (0 where they are equal, inf
    where that |p| is 0 alone, nan where a nan or an inf moved); None for
    a hash, or where the lengths or a None differ."""
    if not (isinstance(parent, list) and isinstance(child, list)
            and len(parent) == len(child)):
        return None
    moved = [(p, c) for p, c in zip(parent, child) if p != c]
    if any(p is None or c is None for p, c in moved):
        return None
    scale = max((abs(float.fromhex(p)) for p in parent if p is not None),
                default=0.0)
    largest = 0.0
    for p, c in moved:
        p, c = float.fromhex(p), float.fromhex(c)
        ref = scale if whole else abs(p)
        rel = math.inf if ref == 0.0 else abs(c - p) / ref
        if math.isnan(rel):
            return rel
        largest = max(largest, rel)
    return largest


def describe(parent, child):
    """One line per differing case: its items, each scalar one with its
    largest relative difference, the coefficients' relative to their
    largest magnitude."""
    lines = []
    for case, items in differing(parent, child).items():
        named = []
        for item in items:
            rel = largest_relative_difference(
                parent.get(case, {}).get(item), child.get(case, {}).get(item),
                whole=item == "coeffs")
            named.append(item if rel is None else f"{item} (rel {rel:.1e})")
        lines.append(f"{case}: {', '.join(named)}")
    return lines


def compare_with(rev):
    """Print the cases whose items differ between REV's src and this
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
    lines = describe(parent, _child_table(ROOT / "src"))
    for line in lines:
        print(line)
    count = sum(map(len, parent.values()))
    print(f"{len(lines)} of {len(parent)} cases differ from {rev} "
          f"({count} items at {rev})")
    return 1 if lines else 0


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
