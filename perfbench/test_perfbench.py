"""Tests of the benchmark itself, on shrunken workloads.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = (
    workloads.SweepWorkload(p=40, theta_grid=(0.6, 1.2, 1.8), trials=2, cycle=2),
    workloads.FitWorkload(p=120, n=60, r=3, cycle=1),
    workloads.CrossValidateWorkload(
        features=60, per_class=12, n_per_class=6, c_grid=(1e-3, 1e-1),
        w_grid=(1.0, 1.5), cycle=1),
)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def make_runner(wl, seed, clock, recorded=()):
    ctx = wl.prepare(seed)
    return run.Runner(wl, ctx, seed, clock, list(recorded), wl.instance(ctx, seed, 0))


def traced(wl, seed):
    clock = tracer.FitClock()
    clock.install()
    try:
        runner = make_runner(wl, seed, clock)
        trace, _ = run.trace_cycle(runner)
    finally:
        clock.uninstall()
    assert runner.failed == 0
    return trace.metrics(0.0)


def computed_counts(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"].endswith(".computed") or name.endswith(".calls")}


@pytest.mark.parametrize("wl", SMALL, ids=lambda wl: wl.name)
def test_computed_counts_repeat_for_a_seed_and_change_with_it(wl):
    first = computed_counts(traced(wl, 1))
    assert first == computed_counts(traced(wl, 1))
    assert first != computed_counts(traced(wl, 2))
    assert first["engine.fit.calls"] > 0


def test_per_layer_metrics_match_the_declared_list():
    metrics = traced(SMALL[0], 1)
    declared = {(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]}
    assert {(name, m["unit"]) for name, m in metrics.items()} == declared


def test_reference_mismatch_fails_the_fits_behind_it():
    wl = SMALL[0]
    ctx = wl.prepare(5)
    want = wl.summary(wl.run(ctx, wl.instance(ctx, 5, 0)))
    want["successes"][1] += 1
    clock = tracer.FitClock()
    clock.install()
    try:
        runner = make_runner(wl, 5, clock, recorded=[want])
        runner.run_op(0)
        runner.run_op(1)
    finally:
        clock.uninstall()
    assert runner.attempted == 2 * len(wl.theta_grid) * wl.trials
    assert runner.failed == wl.trials


def test_missing_layer_is_reported_absent(monkeypatch):
    gone = tracer.Layer("engine.gone", "mtgreedy.engine", ("no_such_function",))
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + (gone,))
    trace = tracer.Tracer()
    trace.install()
    trace.uninstall()
    assert trace.absent == ["engine.gone"]
    metrics = trace.metrics(0.0)
    assert metrics["engine.gone.calls"]["value"] == 0


def test_probes_are_removed_after_a_run():
    from mtgreedy import engine, experiments, model

    before = (engine.fit, experiments.fit, engine.refit, engine.loss, model.loss)
    traced(SMALL[1], 3)
    assert (engine.fit, experiments.fit, engine.refit, engine.loss, model.loss) == before


def test_calibration_time_is_excluded_from_fit_time(monkeypatch):
    from mtgreedy import engine

    monkeypatch.setattr(calibrate, "PERIOD", 0.0)     # sample before every refit
    wl = SMALL[1]
    ctx = wl.prepare(4)
    problem = wl.instance(ctx, 4, 0)
    cal = calibrate.Calibrator()
    clock = tracer.FitClock(cal)
    clock.install()
    cal.install()
    try:
        start = time.perf_counter()
        engine.fit(problem, ctx)
        wall = time.perf_counter() - start
    finally:
        cal.uninstall()
        clock.uninstall()
    (_, _, report, seconds), = clock.fits
    assert len(cal.samples) == len(report.steps)
    assert cal.spent > 0.5 * wall
    assert 0.0 < seconds < wall - 0.9 * cal.spent


def test_end_to_end_run_prints_the_declared_metrics():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_p128", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]}
    assert {(name, m["unit"]) for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_p128", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
