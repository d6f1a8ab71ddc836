"""Tests of the benchmark itself, on test-size variants of its workloads.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft

import source

source.prepare()

import expfem.analysis  # noqa: E402
import expfem.assembly  # noqa: E402
import expfem.cli  # noqa: E402
import expfem.transforms  # noqa: E402

import rounds  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from checks import (ERROR_RTOL, CheckFailed,  # noqa: E402
                    check_energy_not_increasing, check_errors, check_series,
                    check_snapshot, check_state)
from workloads import TINY, WORKLOADS, round_count  # noqa: E402

BENCHMARK = json.loads((source.ROOT / "BENCHMARK.json").read_text())


def _result(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_prints_every_metric_with_unit(name, trace, capsys):
    assert run.run_one(TINY[name], seed=3, seconds=1, trace=trace) == 0
    details, result = _result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m: e["unit"] for m, e in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"])
    assert details["perfbench"]["missing_wrap_targets"] == []
    env = details["perfbench"]["environment"]
    assert env["thread_vars"] == dict.fromkeys(source.THREAD_VARS, "1")
    assert env["fft_at_floor"][0]["workers"] == 1


def test_benchmark_json_names_the_benchmark_metrics():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == [
        m[:3] for m in tracing.LAYER_METRICS]


def test_unexercised_layer_reads_zero(tmp_path):
    w = TINY["fh_periodic_64"]
    untraced = rounds.run_rounds(w, 1, 2, tmp_path / "u")
    child = tracing.traced_run(w, 1, 2, tmp_path / "t")
    values = tracing.layer_metrics(w, child["spans"], child["step_times"],
                                   untraced, 0.5, child["energy_peak_mb"],
                                   child["missing"])
    assert values["assembly.lifting_s"] == (0.0, "s")
    assert values["assembly.lifting_calls_per_step"] == (0, "count")
    assert values["transforms.calls_per_step"] == (4, "count")
    assert values["analysis.energy_s"][0] > 0


def test_missing_wrap_target_is_named():
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS + ("assembly.renamed_away",))
    try:
        assert tracer.missing == ["assembly.renamed_away"]
        assert expfem.assembly.transformed_load.__wrapped__
    finally:
        tracer.restore()
    assert not hasattr(expfem.assembly.transformed_load, "__wrapped__")


def test_metrics_of_a_missing_wrap_target_are_left_out(tmp_path):
    w = TINY["acw_dirichlet_256"]
    untraced = rounds.run_rounds(w, 1, 2, tmp_path / "u")
    child = tracing.traced_run(w, 1, 2, tmp_path / "t")
    # as after a rename of boundary_correction
    values = tracing.layer_metrics(w, child["spans"], child["step_times"],
                                   untraced, 0.5, child["energy_peak_mb"],
                                   ["assembly.boundary_correction"])
    for gone in ("assembly.lifting_s", "assembly.lifting_calls_per_step",
                 "assembly.load_self_s"):
        assert gone not in values
    assert values["transforms.calls_per_step"] == (6, "count")
    assert len(values) == len(tracing.LAYER_METRICS) - 3


def test_check_state_rejects_nan_and_out_of_bound():
    check_state(np.array([0.5, -0.99]), 1.0, strict=True)
    check_state(np.array([1.0]), 1.0, strict=False)
    with pytest.raises(CheckFailed):
        check_state(np.array([0.5, np.nan]), 1.0, strict=False)
    with pytest.raises(CheckFailed):
        check_state(np.array([1.0]), 1.0, strict=True)
    with pytest.raises(CheckFailed):
        check_state(np.array([2.5]), 2.0, strict=False)


def test_check_errors_rejects_perturbed_error():
    ref = WORKLOADS["acw_dirichlet_256"].reference_errors
    check_errors(ref, ref, ERROR_RTOL)
    with pytest.raises(CheckFailed):
        check_errors((ref[0] * (1 + 1e-4), ref[1]), ref, ERROR_RTOL)
    with pytest.raises(CheckFailed):
        check_errors((ref[0], float("nan")), ref, ERROR_RTOL)


def test_check_energy_rejects_rise():
    check_energy_not_increasing([3.0, 2.0, 2.0])
    with pytest.raises(CheckFailed):
        check_energy_not_increasing([3.0, 2.0, 2.5])
    rows = [(0.0, 0.9, -1.0), (0.1, 0.8, -0.9)]
    with pytest.raises(CheckFailed):
        check_series(rows, nt=2, observe_every=1, dt=0.1, with_energy=True)


def test_check_series_rejects_missing_row():
    rows = [(0.0, 0.9, None), (0.2, 0.8, None)]
    check_series(rows, nt=2, observe_every=2, dt=0.1, with_energy=False)
    with pytest.raises(CheckFailed):
        check_series(rows, nt=2, observe_every=1, dt=0.1, with_energy=False)


def test_check_snapshot_counts_full_grid(tmp_path):
    path = tmp_path / "s.vtk"
    path.write_text("ASCII\nPOINT_DATA 12\n", encoding="utf-8")
    check_snapshot(path, (3, 2))
    with pytest.raises(CheckFailed):
        check_snapshot(path, (2, 2))


def _corrupt_state(monkeypatch):
    original = expfem.transforms.inverse_transform

    def corrupted(*args, **kwargs):
        out = original(*args, **kwargs).copy()
        out.flat[0] = np.nan
        return out
    monkeypatch.setattr(expfem.transforms, "inverse_transform", corrupted)


def _perturbed(error_norms):
    return lambda *a, **k: tuple(1.001 * e for e in error_norms(*a, **k))


def _corrupt_error(monkeypatch):
    # the CLI binds error_norms by name; the rounds call analysis.error_norms
    for module in (expfem.analysis, expfem.cli):
        monkeypatch.setattr(module, "error_norms",
                            _perturbed(module.error_norms))


def _corrupt_energy(monkeypatch):
    original = expfem.analysis.discrete_energy
    calls = []

    def rising(*args, **kwargs):
        calls.append(None)
        # the first call is the initial energy; later ones rise above it
        return original(*args, **kwargs) + (len(calls) > 1)
    monkeypatch.setattr(expfem.analysis, "discrete_energy", rising)


@pytest.mark.parametrize("name,corrupt", [
    ("lrd_euler_2d", _corrupt_state),
    ("acw_dirichlet_256", _corrupt_error),
    ("fh_periodic_64", _corrupt_energy),
])
def test_corrupted_output_fails_every_round(name, corrupt, tmp_path,
                                            monkeypatch):
    corrupt(monkeypatch)
    out = rounds.run_rounds(TINY[name], 1, 2, tmp_path)
    assert out.attempted == 2
    assert out.failed == 2
    assert all("CheckFailed" in f for f in out.failures)


def test_corrupted_output_everywhere_fails_the_run(capsys, monkeypatch):
    _corrupt_error(monkeypatch)
    assert run.run_one(TINY["lrd_euler_2d"], seed=1, seconds=1, trace=0) == 1
    _, result = _result(capsys)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


@pytest.mark.parametrize("trace", [0, 1])
def test_corrupted_cli_output_alone_is_one_failed_operation(
        trace, capsys, monkeypatch):
    monkeypatch.setattr(expfem.cli, "error_norms",
                        _perturbed(expfem.cli.error_norms))
    w = TINY["lrd_euler_2d"]
    assert run.run_one(w, seed=1, seconds=1, trace=trace) == 0
    details, result = _result(capsys)
    assert result["correct"] is False
    rounds = round_count(w, 1)
    if trace:  # half untraced, half traced
        rounds = 2 * math.ceil(rounds / 2)
    assert result["attempted"] == rounds + 1
    assert result["failed"] == 1
    assert details["perfbench"]["failures"][0].startswith("cli: CheckFailed")
    assert result["metrics"]
    assert "cli.run_s" not in result["metrics"]


def test_round_count_does_not_depend_on_speed(capsys, monkeypatch):
    w = TINY["lrd_euler_2d"]
    assert run.run_one(w, seed=1, seconds=40, trace=0) == 0
    fast = _result(capsys)[1]["attempted"]
    ticks = iter(range(0, 10**9, 1000))  # every timed span reads 1000 s
    monkeypatch.setattr(rounds, "clock", lambda: next(ticks))
    assert run.run_one(w, seed=1, seconds=40, trace=0) == 0
    slow = _result(capsys)[1]["attempted"]
    # the rounds plus the one CLI check
    assert fast == slow == round_count(w, 40) + 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_floor_transforms_only_its_own_array(name, monkeypatch):
    w = TINY[name]
    floor = rounds.make_floor(w, seed=5)
    seen = []
    for fn in ("rfftn", "irfftn", "dstn"):
        original = getattr(scipy.fft, fn)

        def spy(x, *args, _original=original, **kwargs):
            seen.append((x, kwargs.get("workers")))
            return _original(x, *args, **kwargs)
        monkeypatch.setattr(scipy.fft, fn, spy)
    floor.block()
    own = [floor.x] + ([floor.xhat] if floor.periodic else [])
    assert len(seen) == 2 * w.stages * (w.floor_calls + 1)
    assert all(any(x is a for a in own) for x, _ in seen)
    assert all(workers == 1 for _, workers in seen)
    same = rounds.make_floor(w, seed=5)
    assert np.array_equal(same.x, floor.x)
    assert floor.x.shape == tuple(
        n if floor.periodic else n - 1 for n in w.subdivisions)
    assert floor.periodic == (name == "fh_periodic_64")


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(source.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(source.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lrd_euler_2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
