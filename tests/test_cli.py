import pytest

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


@pytest.mark.parametrize("line", [
    'snapshot = "snap_{x}.vtk"',
    'snapshot = "s_{0}.vtk"',
    "series = 5",
    'snapshot = "snap.vtk"',
    'series = ""',
], ids=["unknown_field", "positional_field", "series_not_a_string",
        "same_name_every_step", "empty_series"])
def test_bad_output_name_exits_as_config_error(tmp_path, capsys, line):
    # rejected before any step runs, so the run writes no file
    out = tmp_path / "out"
    cfg = _write(tmp_path, "snapshot_every = 4\n" + RUN_CFG
                 + f"[output]\n{line}\n")
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert "output." in capsys.readouterr().err
    assert not out.exists()


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


def test_output_names_in_subdirectories_are_written(tmp_path):
    # each file's directory is made before the file is written
    cfg = _write(tmp_path, "snapshot_every = 4\n" + RUN_CFG + (
        '[output]\nseries = "sub/series.csv"\n'
        'snapshot = "snaps/u_{step}.vtk"\n'))
    assert main(["run", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"]) == 0
    assert (tmp_path / "sub" / "series.csv").is_file()
    assert sorted(p.name for p in (tmp_path / "snaps").iterdir()) == [
        "u_0.vtk", "u_4.vtk", "u_8.vtk"]
    cfg = _write(tmp_path, CONV_CFG + '[output]\nreport = "r/report.csv"\n')
    assert main(["converge", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"]) == 0
    assert (tmp_path / "r" / "report.csv").is_file()


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
