"""A grid path split across processes: its later w's are fit in forked
children, and every report must still equal the serial path's bit for bit,
each served by one ``fit`` in the caller in grid order.  A child's
exception must reach the caller, a child that dies must make ``fit`` raise
instead of wait, and no child may outlive ``close``, an early-closed
``_path_fits`` or a dropped path.

The split needs BLAS pinned, two CPUs and a large problem; the ``split``
fixture of ``conftest`` patches those conditions so the small problems here
split, and every test asserts that a child was started.  The CLI test in
``test_cli`` runs the split with the real guard, in a fresh interpreter.
"""

import math
import multiprocessing
import os
import signal
import threading
import time

import pytest

from mtgreedy import GreedyConfig, cross_validate, engine, experiments, fit, linalg
from mtgreedy.digits import C_GRID, W_GRID, split_for_validation
from mtgreedy.engine import FitPath

from test_path import assert_same_report, digits_shaped_problem, epsilons


def grid_of(problem, w_grid=W_GRID):
    return [GreedyConfig(epsilon=eps, w=w, nu=0.5) for w in w_grid for eps in epsilons(problem)]


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_split_path_serves_the_serial_reports(split, monkeypatch, cpus):
    """W_GRID's w's promote at two counts, and w = 1.25, 1.5 and 1.75 leave
    w = 1's branch; the children fit the later runs of w's."""
    problem = digits_shaped_problem()
    grid = grid_of(problem)
    copies = []
    copy = engine._Branch.copy

    def counted(branch, riders, backward):
        copies.append([rider.config.w for rider in riders])
        return copy(branch, riders, backward)

    monkeypatch.setattr(engine._Branch, "copy", counted)
    monkeypatch.setattr(engine, "FORK_ELEMENTS", math.inf)
    serial_path = FitPath(problem, grid)
    serial = [fit(problem, config, serial_path) for config in grid]
    assert copies and not split
    assert {engine.promotion_count(config) for config in grid} == {2, 3}

    monkeypatch.setattr(engine, "FORK_ELEMENTS", 0)
    monkeypatch.setattr(linalg, "_CPUS", cpus)
    path = FitPath(problem, grid)
    assert len(split) == cpus - 1
    assert list(path.riders) + list(path.remote) == list(W_GRID)
    for config, want in zip(grid, serial):
        assert_same_report(fit(problem, config, path), want)
    assert multiprocessing.active_children() == []


def test_a_split_grid_search_equals_the_serial_one(split, monkeypatch):
    train, holdout = split_for_validation(digits_shaped_problem(seed=11))
    args = (train, holdout, C_GRID, W_GRID, 0.5, 8)
    got = cross_validate(*args)
    assert len(split) == 1
    monkeypatch.setattr(engine, "FORK_ELEMENTS", math.inf)
    assert got == cross_validate(*args)
    assert len(split) == 1


def test_a_split_grid_search_fits_each_point_once_in_grid_order(split, monkeypatch):
    """``fit`` runs in the caller once per point, w by w and each w from
    the largest c down, whichever process made the report."""
    calls = []

    def counted(problem, config, path=None):
        calls.append(config)
        return fit(problem, config, path)

    monkeypatch.setattr(experiments, "fit", counted)
    train, holdout = split_for_validation(digits_shaped_problem(seed=11))
    cross_validate(train, holdout, C_GRID, W_GRID, 0.5, 8)
    assert len(split) == 1
    n_avg = sum(t.n for t in train.tasks) / train.r
    assert calls == [
        GreedyConfig(epsilon=experiments.stopping_threshold(c, 8, train.p, n_avg), w=w, nu=0.5)
        for w in W_GRID for c in sorted(C_GRID, reverse=True)]


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_the_runs_never_outnumber_the_cpus_or_the_ws(monkeypatch, cpus):
    """The caller's run plus one child per further run: never more than the
    CPUs or the distinct w's, the w's kept in order, the runs near equal."""
    monkeypatch.setattr(linalg, "_CPUS", cpus)
    for count in range(1, 70):
        ws = [1.0 + k / 100 for k in range(count)]
        runs = engine._chunks(ws)
        assert len(runs) == min(cpus, count)
        assert [w for run in runs for w in run] == ws
        sizes = [len(run) for run in runs]
        assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1


def test_a_path_splits_only_when_every_condition_holds(monkeypatch):
    problem = digits_shaped_problem()
    elements = sum(t.n for t in problem.tasks) * problem.p
    ws = [1.0, 1.5, 2.0]
    monkeypatch.setattr(linalg, "_CPUS", 64)
    monkeypatch.setattr(engine, "FORK_ELEMENTS", elements)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    assert engine._fork_plan(problem, ws) == [[1.0], [1.5], [2.0]]
    assert engine._fork_plan(problem, [1.5]) == [[1.5]]
    monkeypatch.setattr(engine, "FORK_ELEMENTS", elements + 1)
    assert engine._fork_plan(problem, ws) == [ws]
    monkeypatch.setattr(engine, "FORK_ELEMENTS", elements)
    monkeypatch.setattr(linalg, "_CPUS", 1)
    assert engine._fork_plan(problem, ws) == [ws]
    monkeypatch.setattr(linalg, "_CPUS", 64)
    monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert engine._fork_plan(problem, ws) == [ws]


def test_a_childs_exception_is_raised_by_the_callers_fit(split, monkeypatch):
    advance = FitPath._advance

    def failing(path, lead):
        if lead.config.w == 2.0:
            raise ValueError("no fit at w = 2")
        return advance(path, lead)

    monkeypatch.setattr(FitPath, "_advance", failing)
    problem = digits_shaped_problem()
    grid = grid_of(problem)
    path = FitPath(problem, grid)
    assert list(path.remote) == [1.75, 2.0]
    served = [fit(problem, config, path) for config in grid if config.w < 2.0]
    assert len(served) == 4 * len(grid) // 5
    with pytest.raises(ValueError, match="no fit at w = 2"):
        fit(problem, grid[len(served)], path)
    assert len(split) == 1


def test_a_killed_child_makes_fit_raise(split, stalled_children):
    problem = digits_shaped_problem()
    grid = grid_of(problem)
    path = FitPath(problem, grid)
    (child,) = split
    os.kill(child.process.pid, signal.SIGKILL)
    for config in grid:
        if config.w in path.remote:
            break
        fit(problem, config, path)
    # a wait that never ends is cut by the alarm
    previous = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("fit waited on a dead child"))
    signal.alarm(30)
    start = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match="exit code -9"):
            fit(problem, config, path)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 10


def test_close_stops_the_children(split, stalled_children):
    problem = digits_shaped_problem()
    path = FitPath(problem, grid_of(problem))
    assert [child.process for child in split] == multiprocessing.active_children()
    path.close()
    assert multiprocessing.active_children() == []
    path.close()


def test_closing_path_fits_early_stops_the_children(split, stalled_children):
    problem = digits_shaped_problem()
    eps = dict(zip(C_GRID, epsilons(problem, C_GRID)))
    points = experiments._path_fits(problem, eps, W_GRID, 0.5)
    next(points)
    assert len(multiprocessing.active_children()) == len(split) == 1
    points.close()
    assert multiprocessing.active_children() == []


def test_a_dropped_path_stops_its_children(split, stalled_children):
    problem = digits_shaped_problem()
    path = FitPath(problem, grid_of(problem))
    fit(problem, path.points[0], path)
    assert len(multiprocessing.active_children()) == len(split) == 1
    del path
    assert multiprocessing.active_children() == []


def plan_in_a_child(problem, ws, writer):
    writer.send(engine._fork_plan(problem, ws))


def test_a_child_never_splits_again(split):
    """A process ``multiprocessing`` started plans one run, whatever else holds."""
    problem = digits_shaped_problem()
    ws = list(W_GRID)
    assert len(engine._fork_plan(problem, ws)) == 2
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    child = context.Process(target=plan_in_a_child, args=(problem, ws, writer))
    child.start()
    writer.close()
    try:
        assert reader.poll(30) and reader.recv() == [ws]
    finally:
        child.join(30)
        reader.close()
    assert child.exitcode == 0
