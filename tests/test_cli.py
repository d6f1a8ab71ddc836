import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import expfem
from expfem import cli, config
from expfem.cli import main

RUN_CFG = """
mode = "run"
problem = "custom"
T = 0.25
nt = 8
observe_every = 2
[domain]
bounds = [[0.0, 1.0]]
n = [8]
[custom]
d = 0.5
f = "-u"
u0 = "sin(pi * x)"
exact = "exp(-(0.5 * pi^2 + 1) * t) * sin(pi * x)"
"""

CONV_CFG = """
mode = "convergence"
problem = "linear_rd"
T = 0.25
nt = 16
[ladder]
kind = "spatial"
n = [[4, 2], [8, 4]]
"""

BENCH_CFG = """
mode = "timing"
problem = "linear_rd"
T = 0.125
nt = 4
[ladder]
kind = "spatial"
n = [[8, 4], [16, 8]]
"""


def _write(tmp_path, text, name="cfg.toml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_every_run_config_field_is_read_by_a_command(tmp_path, monkeypatch):
    # a field no command reads is one parse_config fills for no one; the
    # reads are recorded on the parsed config, so that neither a read
    # inside parse_config nor a name shared with another object (cli's
    # `args.seed`) counts
    reads = set()

    class Recorded(config.RunConfig):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    def parse(*args, **kwargs):
        cfg = config.parse_config(*args, **kwargs)
        cfg.__class__ = Recorded
        return cfg

    monkeypatch.setattr(cli, "parse_config", parse)
    for command, text in (("run", RUN_CFG), ("converge", CONV_CFG),
                          ("bench", BENCH_CFG)):
        argv = [command, "--config", _write(tmp_path, text, f"{command}.toml"),
                "--out", str(tmp_path / command), "--seed", "4", "--quiet"]
        assert main(argv) == 0
    fields = {field.name for field in dataclasses.fields(config.RunConfig)}
    assert not fields - reads, sorted(fields - reads)


def test_run_subcommand_writes_series(tmp_path, capsys):
    cfg = _write(tmp_path, RUN_CFG)
    code = main(["run", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    series = (tmp_path / "series.csv").read_text().splitlines()
    assert series[0] == "t,sup_norm,energy"
    assert len(series) == 1 + 5  # observed at steps 0, 2, 4, 6, 8
    out = capsys.readouterr().out
    assert "errors at T" in out


@pytest.mark.parametrize("snapshot_every, steps", [
    (4, [0, 4, 8]),
    (3, [0, 3, 6, 8]),
], ids=["multiple_of_observe_every", "own_cadence"])
def test_run_snapshot_cadence(tmp_path, snapshot_every, steps):
    # snapshots keep their own cadence, whatever observe_every is; the
    # series rows stay at steps 0, 2, 4, 6 and 8
    cfg = _write(tmp_path, f"snapshot_every = {snapshot_every}\n" + RUN_CFG)
    code = main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"])
    assert code == 0
    snaps = sorted(p.name for p in tmp_path.glob("snapshot_*.vtk"))
    assert snaps == [f"snapshot_{step:06d}.vtk" for step in steps]
    series = (tmp_path / "series.csv").read_text().splitlines()[1:]
    times = [float(line.split(",")[0]) for line in series]
    assert times == pytest.approx([step * 0.25 / 8 for step in (0, 2, 4, 6, 8)])


@pytest.mark.parametrize("line, message", [
    ('snapshot = "snap_{x}.vtk"', "must format with {step} alone (KeyError"),
    ('snapshot = "s_{0}.vtk"', "must format with {step} alone (IndexError"),
    ("series = 5", "output.series must be a string"),
    ('snapshot = "snap.vtk"', "output.snapshot 'snap.vtk' at step 4 and "
                              "output.snapshot 'snap.vtk' at step 0 both name"),
    ('snapshot = "s_{step!s:.0}.vtk"', "output.snapshot 's_.vtk' at step 4 "
                                       "and output.snapshot 's_.vtk' at step 0"),
    ('series = ""', "output.series must be a string"),
    ('series = "a\\u0000b.csv"', "output.series 'a\\x00b.csv' is not a file "
                                 "name: embedded null byte"),
    ('snapshot = "s_{step:c}.vtk"', "output.snapshot 's_\\x00.vtk' at step 0 "
                                    "is not a file name: embedded null byte"),
], ids=["unknown_field", "positional_field", "series_not_a_string",
        "same_name_every_step", "same_name_empty_step", "empty_series",
        "nul_in_series", "nul_in_snapshot_at_step_0"])
def test_bad_output_name_exits_as_config_error(tmp_path, capsys, line,
                                               message):
    # rejected before any step runs, so the run writes no file; a name
    # that gives two steps one file would have every snapshot overwrite it
    out = tmp_path / "out"
    cfg = _write(tmp_path, "snapshot_every = 4\n" + RUN_CFG
                 + f"[output]\n{line}\n")
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("snapshot", ["snap.vtk", "s_{step!s:.0}.vtk"])
def test_constant_snapshot_name_is_fine_without_snapshots(tmp_path, snapshot):
    # with snapshot_every = 0 the name is never used, and names no file
    cfg = _write(tmp_path, RUN_CFG + f'[output]\nsnapshot = "{snapshot}"\n')
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert [p.name for p in out.iterdir()] == ["series.csv"]


def _tree(root):
    return {path: path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


@pytest.mark.parametrize("top, output, existing, keys", [
    ("snapshot_every = 2", 'series = "snapshot_000002.vtk"', None,
     ["output.snapshot 'snapshot_000002.vtk' at step 2 and "
      "output.series 'snapshot_000002.vtk' both name"]),
    ("snapshot_every = 3", 'series = "snapshot_000008.vtk"', None,
     ["output.snapshot 'snapshot_000008.vtk' at step 8 and "
      "output.series 'snapshot_000008.vtk' both name"]),
    ("snapshot_every = 4",
     'series = "./x_0.vtk"\nsnapshot = "sub/../x_{step}.vtk"', None,
     ["output.snapshot 'sub/../x_0.vtk' at step 0 and "
      "output.series './x_0.vtk' both name"]),
    ("snapshot_every = 4",
     'series = "a"\nsnapshot = "a/s_{step}.vtk"', None,
     ["output.series 'a' names the directory"]),
    ("", 'series = "a/series.csv"', "a",
     ["output.series 'a/series.csv': ", "exists and is not a directory"]),
    ("", "", ".",
     ["output.series 'series.csv': ", "exists and is not a directory"]),
], ids=["series_is_an_on_cadence_snapshot",
        "series_is_the_final_off_cadence_snapshot", "same_file_spelled_twice",
        "series_is_a_snapshot_directory", "parent_is_a_file", "out_is_a_file"])
def test_output_files_that_cannot_all_be_written_exit_before_the_run(
        tmp_path, capsys, top, output, existing, keys):
    # each would run every step and then overwrite one output with
    # another or fail to open a file (exit 1); `existing` names a file
    # made under --out first ("." is --out itself)
    out = tmp_path / "out"
    if existing is not None:
        (out / existing).parent.mkdir(parents=True, exist_ok=True)
        (out / existing).write_text("a file\n")
    cfg = _write(tmp_path, f"{top}\n{RUN_CFG}[output]\n{output}\n")
    before = _tree(tmp_path)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    for key in keys:
        assert key in err
    assert _tree(tmp_path) == before


PERIODIC_CFG = """
mode = "run"
problem = "custom"
T = 0.1
nt = 2
snapshot_every = 2
[domain]
bounds = [[0.0, 1.0], [0.0, 2.0]]
bc = "periodic"
n = [4, 6]
[custom]
d = 0.5
f = "-u"
u0 = "sin(2 * pi * x) + cos(pi * y)"
"""


def test_periodic_snapshot_spans_the_box(tmp_path):
    # one point per node 0..n of every axis; node n wraps node 0
    cfg = _write(tmp_path, PERIODIC_CFG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"]) == 0
    for step in (0, 2):
        lines = (tmp_path / f"snapshot_{step:06d}.vtk").read_text().splitlines()
        assert "DIMENSIONS 5 7 1" in lines and "POINT_DATA 35" in lines
        data = lines[lines.index("LOOKUP_TABLE default") + 1:]
        full = np.array(data).reshape((5, 7), order="F")
        assert (full[-1] == full[0]).all() and (full[:, -1] == full[:, 0]).all()
        assert len(set(full[:-1, :-1].ravel())) > 1


@pytest.mark.parametrize("command, text, line, key", [
    ("run", RUN_CFG, 'series = "."', "output.series"),
    ("run", RUN_CFG, 'series = ".."', "output.series"),
    ("run", RUN_CFG, 'series = "sub/.."', "output.series"),
    ("converge", CONV_CFG, 'report = "."', "output.report"),
], ids=["series_dot", "series_dotdot", "series_sub_dotdot", "report_dot"])
def test_output_name_of_a_directory_exits_before_the_run(
        tmp_path, capsys, command, text, line, key):
    # each resolves to the output directory or its parent, which exist
    # once the output directory is made; the run would write every step
    # and then fail to open a directory
    out = tmp_path / "out"
    cfg = _write(tmp_path, text + f"[output]\n{line}\n")
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.toml"]


def test_snapshot_name_of_a_directory_exits_before_the_run(tmp_path, capsys):
    # the final step's snapshot, off the cadence of 3, names a directory
    # that exists; no series and no earlier snapshot is written
    out = tmp_path / "out"
    (out / "snapshot_000008.vtk").mkdir(parents=True)
    cfg = _write(tmp_path, "snapshot_every = 3\n" + RUN_CFG)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "output.snapshot 'snapshot_000008.vtk'" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["snapshot_000008.vtk"]


def test_output_names_in_subdirectories_are_written(tmp_path, monkeypatch):
    # every file's directory exists before the first step: the series'
    # would otherwise appear after the last step and each snapshot's at
    # its own step; "tables" must exist for "tables/../sub" to open
    out = tmp_path / "out"
    dirs = ["tables", "sub", "snaps/s0", "snaps/s1", "snaps/s2"]
    made = []

    def run(*args, **kwargs):
        made.extend((out / d).is_dir() for d in dirs)
        return real_run(*args, **kwargs)

    real_run = cli.run
    monkeypatch.setattr(cli, "run", run)
    cfg = _write(tmp_path, "snapshot_every = 1\n"
                 + RUN_CFG.replace("nt = 8", "nt = 2") + (
                     '[output]\nseries = "tables/../sub/series.csv"\n'
                     'snapshot = "snaps/s{step}/u.vtk"\n'))
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert made == [True] * len(dirs)
    assert (out / "sub" / "series.csv").is_file()
    assert all((out / f"snaps/s{step}/u.vtk").is_file() for step in range(3))
    cfg = _write(tmp_path, CONV_CFG + '[output]\nreport = "r/report.csv"\n')
    assert main(["converge", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    assert (out / "r" / "report.csv").is_file()


def test_empty_report_name_exits_as_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, CONV_CFG + '[output]\nreport = ""\n')
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 2
    assert "output.report" in capsys.readouterr().err
    assert not out.exists()


def test_converge_subcommand_writes_report(tmp_path):
    cfg = _write(tmp_path, CONV_CFG)
    code = main(["converge", "--config", cfg, "--out", str(tmp_path), "--quiet"])
    assert code == 0
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "4x2"
    assert lines[2].split(",")[3] != ""  # second rung has a rate


def test_bench_subcommand(tmp_path):
    cfg = _write(tmp_path, BENCH_CFG)
    code = main(["bench", "--config", cfg, "--out", str(tmp_path), "--quiet"])
    assert code == 0
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert len(lines) == 3
    cells = lines[2].split(",")
    assert cells[6] != "" and cells[7] != ""  # sec_per_step and growth


def test_ladder_subcommands_print_a_line_per_rung(tmp_path, capsys):
    # converge's errors are fixed by the config; bench's seconds vary from
    # run to run, so its lines are matched by their form
    cfg = _write(tmp_path, CONV_CFG)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    assert capsys.readouterr().out == (
        "4x2 nt=16: L2 4.0911e-02 H1 1.9614e-01\n"
        "8x4 nt=16: L2 1.2761e-02 H1 9.3015e-02\n"
        f"wrote {tmp_path / 'c' / 'report.csv'}\n")
    cfg = _write(tmp_path, BENCH_CFG)
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    number = r"-?\d[\d.]*(e[+-]\d+)?"
    assert re.fullmatch(
        rf"8x4: {number} s/step\n"
        rf"16x8: {number} s/step growth {number}\n"
        rf"wrote {re.escape(str(tmp_path / 'b' / 'report.csv'))}\n",
        capsys.readouterr().out)


def test_bench_repeated_rung_exits_as_config_error(tmp_path, capsys):
    # equal owned-node counts would divide the growth exponent by log(1)
    text = 'scheme = "euler"\n' + (
        BENCH_CFG.replace("T = 0.125", "T = 0.01")
        .replace("[[8, 4], [16, 8]]", "[[8, 4], [8, 4]]"))
    cfg = _write(tmp_path, text)
    code = main(["bench", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert "[8, 4] and [8, 4]" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_key_the_mode_does_not_read_exits_as_config_error(tmp_path, capsys):
    # a ladder writes no series, so a series cadence would be dropped unread
    cfg = _write(tmp_path, "observe_every = 2\n" + CONV_CFG)
    code = main(["converge", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert "'observe_every'" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_zero_errors_leave_rates_empty(tmp_path):
    # the exact zero solution: every rung's errors are 0, which has no rate
    text = CONV_CFG.replace('"linear_rd"', '"custom"').replace(
        "[[4, 2], [8, 4]]", "[[4], [8], [16]]") + (
        '[domain]\nbounds = [[0.0, 1.0]]\n'
        '[custom]\nd = 1.0\nf = "0 * u"\nu0 = "0"\nexact = "0"\n')
    cfg = _write(tmp_path, text)
    code = main(["converge", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"])
    assert code == 0
    rows = [line.split(",")
            for line in (tmp_path / "report.csv").read_text().splitlines()[1:]]
    assert len(rows) == 3
    for cells in rows:
        assert cells[2] == cells[4] == "0"  # err_l2, err_h1
        assert cells[3] == cells[5] == ""   # cr_l2, cr_h1


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_infinite_errors_leave_rates_empty(tmp_path):
    # an exact solution that is inf everywhere: every rung's errors are
    # inf, and inf / inf has no rate
    text = CONV_CFG.replace('"linear_rd"', '"custom"').replace(
        "[[4, 2], [8, 4]]", "[[4], [8], [16]]") + (
        '[domain]\nbounds = [[0.0, 1.0]]\n'
        '[custom]\nd = 1.0\nf = "0 * u"\nu0 = "0"\nexact = "1/0"\n')
    cfg = _write(tmp_path, text)
    code = main(["converge", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"])
    assert code == 0
    rows = [line.split(",")
            for line in (tmp_path / "report.csv").read_text().splitlines()[1:]]
    assert len(rows) == 3
    for cells in rows:
        assert cells[2] == cells[4] == "inf"  # err_l2, err_h1
        assert cells[3] == cells[5] == ""     # cr_l2, cr_h1


def test_config_error_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, RUN_CFG + "observe_every = 0\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert "observe_every" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, key", [
    ("observe_every = 2", "observe_every = true", "observe_every"),
    ("nt = 8", "nt = true", "nt"),
    ("n = [8]", "n = [1]", "domain.n"),
], ids=["observe_every_true", "nt_true", "one_subinterval"])
def test_invalid_counts_exit_as_config_errors(tmp_path, capsys, old, new, key):
    # a boolean count or a single subinterval is a config error (exit 2),
    # not a failure of the run (exit 1)
    cfg = _write(tmp_path, RUN_CFG.replace(old, new))
    code = main(["run", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "series.csv").exists()


@pytest.mark.parametrize("old, new", [
    ("T = 0.25", 'T = "abc"'),
    ("T = 0.25", "T = nan"),
    ("T = 0.25", "T = true"),
    ("d = 0.5", "d = inf"),
], ids=["T_string", "T_nan", "T_true", "d_inf"])
def test_invalid_floats_exit_as_config_errors(tmp_path, capsys, old, new):
    # a float key that is no finite number is a config error (exit 2),
    # not a failure of the run (exit 1) nor a run with a made-up value
    cfg = _write(tmp_path, RUN_CFG.replace(old, new))
    code = main(["run", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert "finite number" in capsys.readouterr().err
    assert not (tmp_path / "series.csv").exists()


FH_CFG = """
mode = "run"
problem = "flory_huggins"
T = 0.01
nt = 2
[domain]
n = [2, 2, 2]
"""


@pytest.mark.parametrize("command, text, flags, key", [
    ("run", "seed = -1\n" + FH_CFG, [], "seed"),
    ("run", FH_CFG, ["--seed", "-1"], "seed"),
    ("run", RUN_CFG.replace("d = 0.5", "d = 0.0"), [], "custom.d"),
    ("run", RUN_CFG.replace("[[0.0, 1.0]]", "[[1.0, 0.0]]"), [],
     "domain.bounds"),
    ("converge", FH_CFG.replace('"run"', '"convergence"')
     + '[ladder]\nkind = "spatial"\nn = [[2, 2, 2], [4, 4, 4]]\n', [],
     "exact solution"),
], ids=["seed_negative", "seed_flag_negative", "d_zero", "bounds_reversed",
        "convergence_without_exact"])
def test_inputs_that_fail_in_a_run_exit_before_any_output(
        tmp_path, capsys, command, text, flags, key):
    # the run would raise on each (exit 1); the config check rejects it
    # before the output directory is made
    out = tmp_path / "out"
    cfg = _write(tmp_path, text)
    code = main([command, "--config", cfg, "--out", str(out), *flags])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_boolean_in_expression_exits_as_config_error(tmp_path, capsys):
    # True would pass for the integer 1 in the reaction
    cfg = _write(tmp_path, RUN_CFG.replace('f = "-u"', 'f = "u + True"'))
    code = main(["run", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert "u + True" in capsys.readouterr().err
    assert not (tmp_path / "series.csv").exists()


def test_mode_subcommand_mismatch(tmp_path, capsys):
    cfg = _write(tmp_path, RUN_CFG)
    code = main(["converge", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert "mode" in capsys.readouterr().err


def test_domain_violation_exit_code(tmp_path, capsys):
    text = """
mode = "run"
problem = "flory_huggins"
T = 4.0
nt = 2
seed = 3
[domain]
n = [4, 4, 4]
"""
    cfg = _write(tmp_path, text)
    code = main(["run", "--config", cfg, "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "step" in err and "domain error" in err


def test_domain_error_of_an_observer_names_its_step(tmp_path, capsys):
    # one step leaves the range; the final state's energy finds it
    text = """
mode = "run"
problem = "flory_huggins"
scheme = "euler"
T = 0.5
nt = 1
[domain]
n = [8, 8, 8]
"""
    cfg = _write(tmp_path, text)
    code = main(["run", "--config", cfg, "--out", str(tmp_path)])
    assert code == 3
    assert "domain error: step 1: state value" in capsys.readouterr().err


OVERFLOW_CFG = """
mode = "run"
problem = "custom"
T = 0.1
nt = {nt}
{cadences}
[domain]
bounds = [[0.0, 1.0]]
n = [4]
[custom]
d = 1.0
f = "exp(u)"
u0 = "1000"
"""


@pytest.mark.parametrize("nt, cadences", [
    (2, ""), (4, "observe_every = 4\nsnapshot_every = 1")],
    ids=["series", "snapshots"])
def test_non_finite_state_is_a_domain_error_and_is_not_written(
        tmp_path, capsys, nt, cadences):
    # exp(1000) overflows to inf in the first load, and the first step's
    # stage is NaN, which the stage's load reads; numpy warns of the
    # overflow and of the transform's inf - inf, which the test expects
    cfg = _write(tmp_path, OVERFLOW_CFG.format(nt=nt, cadences=cadences))
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 3
    assert "domain error: step 0: state value nan" in capsys.readouterr().err
    assert sorted(path.name for path in out.iterdir()) == [
        "snapshot_000000.vtk"] * bool(cadences)


@pytest.mark.parametrize("u0, value", [
    ("9 ** 9 ** 9", "inf"), ("1/0", "inf"), ("2 ** 10000", "inf"),
    ("(-1) ** 0.5 + 0*x", "nan")],
    ids=["tower", "division_by_zero", "big_power", "root_of_minus_one"])
def test_non_finite_initial_expression_is_a_domain_error(tmp_path, capsys,
                                                         u0, value):
    # every number of an expression is a double, so each gives inf or nan
    # at once, neither a huge integer, nor an exception, nor a complex
    # number, and the run's check of the initial state stops it
    cfg = _write(tmp_path, RUN_CFG.replace('"sin(pi * x)"', f'"{u0}"'))
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning) as record:
        code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 3
    assert not any(issubclass(w.category, np.exceptions.ComplexWarning)
                   for w in record)
    assert (f"domain error: step 0: state value {value}"
            in capsys.readouterr().err)
    assert list(out.iterdir()) == []


def test_trace_singular_at_a_snapshot_is_a_domain_error(tmp_path, capsys):
    # ln(t) is -inf at t = 0, where the step-0 snapshot would write it on
    # the boundary; the lifting reads it at complex t, where it is finite
    cfg = _write(tmp_path, "snapshot_every = 4\n" + RUN_CFG.replace(
        'exact =', 'g = "ln(t)"\nexact ='))
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 3
    assert "domain error: step 0: state value -inf" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_a_lifted_run_loads_no_scipy_linalg(tmp_path):
    # scipy.linalg would cost every lifted run about 6 MiB of resident
    # memory; the tests import it themselves, so the run gets a fresh
    # interpreter
    cfg = _write(tmp_path, 'mode = "run"\nproblem = "allen_cahn_wave"\n'
                 'nt = 2\n[domain]\nn = [16, 2, 2]\n')
    script = ("import sys\nfrom expfem.cli import main\n"
              "code = main(['run', '--config', sys.argv[1], '--out',"
              " sys.argv[2], '--quiet'])\n"
              "print(code, 'scipy.linalg' in sys.modules)")
    env = {**os.environ,
           "PYTHONPATH": str(Path(expfem.__file__).parent.parent)}
    out = subprocess.run(
        [sys.executable, "-c", script, cfg, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["0", "False"]
    assert (tmp_path / "out" / "series.csv").exists()


def test_huge_finite_errors_are_reported_finite(tmp_path, capsys):
    # the squares of errors near 1e200 overflow, the norms do not; a
    # RuntimeWarning of the overflow would fail the test
    text = RUN_CFG.replace('u0 = "sin(pi * x)"', 'u0 = "0 * x"').replace(
        'exact = "exp(-(0.5 * pi^2 + 1) * t) * sin(pi * x)"',
        'exact = "1e200 * exp(t)"')
    assert main(["run", "--config", _write(tmp_path, text),
                 "--out", str(tmp_path)]) == 0
    assert ("errors at T: L2 1.28403e+200, H1 1.28403e+200"
            in capsys.readouterr().out)


def test_non_finite_exact_solution_gives_non_finite_errors(tmp_path, capsys):
    # the run and a ladder report the errors against exact = 1/0 as they
    # are, inf, and exit 0
    text = RUN_CFG.replace('exact = "exp(-(0.5 * pi^2 + 1) * t) * sin(pi * x)"',
                           'exact = "1/0"')
    ladder = text.replace('"run"', '"convergence"').replace(
        "observe_every = 2\n", "").replace("n = [8]\n", "") + (
        '[ladder]\nkind = "spatial"\nn = [[4], [8]]\n')
    with pytest.warns(RuntimeWarning):
        assert main(["run", "--config", _write(tmp_path, text),
                     "--out", str(tmp_path)]) == 0
        assert main(["converge", "--config", _write(tmp_path, ladder),
                     "--out", str(tmp_path)]) == 0
    assert "errors at T: L2 inf, H1 inf" in capsys.readouterr().out
    rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["inf", "inf"]


@pytest.mark.parametrize("text, key", [
    (RUN_CFG.replace('f = "-u"', "f = 1"), "expression must be a string"),
    ("eps = 1e308\n" + FH_CFG, "interface width"),
    ("eps = 1e-300\n" + FH_CFG, "interface width"),
    ("eps = 1e308\n" + FH_CFG.replace("flory_huggins", "allen_cahn_wave"),
     "interface width"),
], ids=["expression_not_a_string", "fh_width_squares_to_inf",
        "fh_width_squares_to_zero", "acw_width_squares_to_inf"])
def test_inputs_that_raised_exit_as_config_errors(tmp_path, capsys, text,
                                                  key):
    # each raised (exit 1) at parse time or in the first load
    out = tmp_path / "out"
    cfg = _write(tmp_path, text)
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


HUGE_NT = 10**400  # 401 digits, beyond the float range
HUGE_RATIO = RUN_CFG.replace("nt = 8", "dt = 1e-300").replace("T = 0.25",
                                                              "T = 1e300")


def _ladder(text, kind, rungs):
    return text.replace('"run"', '"convergence"').replace(
        "observe_every = 2\n", "") + f'[ladder]\nkind = "{kind}"\n{rungs}\n'


@pytest.mark.parametrize("command, text", [
    ("run", HUGE_RATIO),
    ("run", RUN_CFG.replace("nt = 8", f"nt = {HUGE_NT}")),
    ("run", RUN_CFG.replace("nt = 8", f"dt = 0.125\nnt = {HUGE_NT}")),
    ("run", RUN_CFG.replace("nt = 8", "nt = 1" + "0" * 5000)),
    ("converge", _ladder(RUN_CFG.replace("nt = 8\n", ""), "temporal",
                         f"nt = [8, {HUGE_NT}]")),
    ("converge", _ladder(HUGE_RATIO.replace("n = [8]\n", ""), "spatial",
                         "n = [[4], [8]]")),
], ids=["run_T_over_dt", "run_nt", "run_dt_and_nt", "run_nt_of_5001_digits",
        "temporal_ladder_nt", "spatial_ladder_T_over_dt"])
def test_step_counts_beyond_the_float_range_exit_as_config_errors(
        tmp_path, capsys, command, text):
    # T / dt, T / nt or the message's dt * nt overflowed into an
    # OverflowError traceback (exit 1), and an integer longer than
    # Python's 4300-digit string limit failed to parse (exit 1)
    out = tmp_path / "out"
    code = main([command, "--config", _write(tmp_path, text),
                 "--out", str(out)])
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, key", [
    ("scheme = {}\n" + RUN_CFG, "scheme"),
    ("c2 = {}\n" + RUN_CFG, "c2"),
    ("seed = {}\n" + RUN_CFG, "seed"),
    ("observe_every = {}\n" + RUN_CFG.replace("observe_every = 2\n", ""),
     "observe_every"),
    ("problem2 = {}\n" + RUN_CFG, "problem2"),
    (RUN_CFG + "[nonsense]\n", "nonsense"),
], ids=["scheme", "c2", "seed", "observe_every", "problem2", "bare_header"])
def test_empty_tables_exit_as_config_errors_that_name_them(
        tmp_path, capsys, text, key):
    # tomllib reads `key = {}` and a bare header as an empty table, which
    # the flattening dropped: the scheme fell back to rk2, the others to
    # their defaults, and the unknown names passed the leftover check
    out = tmp_path / "out"
    code = main(["run", "--config", _write(tmp_path, text), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error:" in err and key in err
    assert not out.exists()


LRD_CFG = """
mode = "run"
problem = "linear_rd"
T = 0.25
nt = 8
[domain]
n = [8, 4]
"""


@pytest.mark.parametrize("text, message", [
    (RUN_CFG.replace('problem = "custom"', 'problem = "nope"'),
     "unknown problem"),
    (RUN_CFG.replace("T = 0.25", "T = -1"), "T must be positive"),
    (RUN_CFG.replace("T = 0.25\nnt = 8", "T = 1\ndt = 0.1\nnt = 5"),
     "does not equal T"),
    (LRD_CFG + "bounds = [[0, 1], [0, 1]]\n", "conflicts with problem"),
    (FH_CFG.replace("n = [2, 2, 2]", "n = [8, 8]"), "3D, got 2 axis counts"),
    (RUN_CFG.replace("d = 0.5\n", ""), "missing required key 'custom.d'"),
    (RUN_CFG.replace("bounds = [[0.0, 1.0]]", "bounds = [0, 1]"),
     "list of [a, b] pairs"),
    (RUN_CFG.replace("bounds = [[0.0, 1.0]]", "bounds = []"),
     "1..3 axes, got 0"),
    (RUN_CFG.replace("n = [8]", 'n = [8]\nbc = "neumann"'),
     "must be 'dirichlet' or 'periodic'"),
    (RUN_CFG.replace('f = "-u"', 'f = "u +"'), "bad expression"),
    (CONV_CFG.replace('kind = "spatial"', 'kind = "diagonal"'),
     "ladder.kind must be"),
    (CONV_CFG.replace("n = [[4, 2], [8, 4]]", "n = [4, 8]"),
     "list of per-axis count lists"),
], ids=["unknown_problem", "negative_T", "dt_nt_not_T", "bounds_conflict",
        "axis_count", "missing_key", "bounds_not_pairs", "no_axes",
        "unknown_bc", "bad_expression", "ladder_kind", "ladder_n_flat"])
def test_each_config_error_exits_2_with_its_message(tmp_path, capsys, text,
                                                    message):
    # each check of the parsed config, the mesh's axis count included,
    # ends the command with exit 2 and its own message, not a traceback
    command = "converge" if 'mode = "convergence"' in text else "run"
    out = tmp_path / "out"
    code = main([command, "--config", _write(tmp_path, text),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err, err
    assert not out.exists()


def test_run_without_exact_solution_makes_no_transform_after_its_steps(
        tmp_path, capsys, monkeypatch):
    # the echoed sup norm is the series' last row, the final state's
    def fail(*args):
        raise AssertionError("end state transformed again")

    monkeypatch.setattr(cli, "inverse_transform", fail)
    cfg = _write(tmp_path, FH_CFG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    last = (tmp_path / "series.csv").read_text().splitlines()[-1]
    assert f"sup norm {float(last.split(',')[1]):.6g}" in capsys.readouterr().out


def test_identical_config_and_seed_identical_bytes(tmp_path):
    text = """
mode = "run"
problem = "flory_huggins"
T = 0.0390625
dt = 0.009765625
seed = 11
observe_every = 2
[domain]
n = [8, 8, 8]
"""
    cfg = _write(tmp_path, text)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    text = """
mode = "run"
problem = "flory_huggins"
T = 0.01953125
dt = 0.009765625
seed = 11
[domain]
n = [6, 6, 6]
"""
    cfg = _write(tmp_path, text)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2), "--seed", "12",
                 "--quiet"]) == 0
    assert (out1 / "series.csv").read_bytes() != (out2 / "series.csv").read_bytes()


def test_missing_config_file(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.toml")])
    assert code == 1
