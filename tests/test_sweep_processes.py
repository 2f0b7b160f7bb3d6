"""A sweep split across processes: its later (theta, trial) runs are drawn
and fit in forked children, and the rows must still equal the serial
sweep's, every point served by one ``fit`` in the caller, in order, and
checked there.  A child's exception must reach the caller, a child that
dies must make the sweep raise instead of wait, and no child may outlive
a sweep that the caller's own code stops.

The ``split`` fixture of ``conftest`` forces the split, and every test
that uses it asserts that a child was started.  The CLI tests in
``test_cli`` run the split with the real guard, in fresh interpreters.
"""

import math
import multiprocessing
import os
import signal
import threading
import time

import pytest

from mtgreedy import GreedyConfig, SweepConfig, engine, experiments, fit, processes
from mtgreedy.engine import FitPath
from mtgreedy.experiments import run_sweep, stopping_threshold, sweep_grid

THETAS = (0.6, 1.2, 1.8)


def sweep_config(single_task=False):
    return SweepConfig(epsilon_c=1e-4, noise_variance=1e-2, single_task=single_task)


@pytest.mark.parametrize("single_task", [False, True])
def test_a_split_sweep_equals_the_serial_one(split, monkeypatch, single_task):
    config = sweep_config(single_task)
    got = run_sweep(0.5, 48, THETAS, 3, config, 7)
    assert len(split) == 1
    monkeypatch.setattr(experiments, "FORK_FIT_FEATURES", math.inf)
    assert got == run_sweep(0.5, 48, THETAS, 3, config, 7)
    assert len(split) == 1


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_split_sweep_grid_equals_the_serial_one(split, monkeypatch, cpus):
    """2 c x 2 w, the runs cut between trials of one theta at 3 CPUs; the
    trials' paths of two w's stay whole."""
    monkeypatch.setattr(processes, "CPUS", cpus)
    monkeypatch.setattr(experiments, "FORK_ELEMENTS", math.inf)
    args = (0.5, 48, THETAS, 3, [1e-2, 1e-5], [1.75, 1.25], sweep_config(), 5)
    got = sweep_grid(*args)
    assert len(split) == cpus - 1
    monkeypatch.setattr(experiments, "FORK_FIT_FEATURES", math.inf)
    assert got == sweep_grid(*args)
    assert len(split) == cpus - 1


@pytest.mark.parametrize("single_task", [False, True])
def test_a_split_sweep_fits_and_checks_each_point_in_the_caller(split, monkeypatch,
                                                                 single_task):
    """``fit`` and ``check_step_records`` run in the caller, once per point
    and task, in the serial sweep's order: the calls made in a child go to
    its own copy of these lists.  The trials' paths of two w's stay whole."""
    monkeypatch.setattr(experiments, "FORK_ELEMENTS", math.inf)
    calls, checked = [], []

    def counted(problem, config, path=None):
        calls.append((problem.r, problem.p, problem.tasks[0].n, config))
        return fit(problem, config, path)

    def counted_check(report, config, zero_loss):
        checked.append((config, zero_loss))
        return engine.check_step_records(report, config, zero_loss)

    monkeypatch.setattr(experiments, "fit", counted)
    monkeypatch.setattr(experiments, "check_step_records", counted_check)
    args = (0.5, 48, THETAS, 3, [1e-2, 1e-5], [1.75, 1.25], sweep_config(single_task), 5)
    sweep_grid(*args)
    assert len(split) == 1
    split_calls, split_checked = calls[:], checked[:]
    calls.clear()
    checked.clear()
    monkeypatch.setattr(experiments, "FORK_FIT_FEATURES", math.inf)
    sweep_grid(*args)
    assert split_calls == calls and split_checked == checked
    assert len(calls) == len(checked) == len(THETAS) * 3 * 2 * 2    # trials, c, w or task
    n = calls[0][2]
    assert calls[:2 * 2] == [
        (1 if single_task else 2, 48, n,
         GreedyConfig(epsilon=stopping_threshold(c, 5, 48, n), w=w, nu=0.5,
                      rows_enabled=not single_task))
        for w in [1.75, 1.25][:1 if single_task else 2]
        for c in (1e-2, 1e-5) for _ in range(2 if single_task else 1)]


class Planned(Exception):
    """Stops a sweep once its plan is taken, before any child starts."""


@pytest.fixture
def plans(monkeypatch):
    """Each sweep's (items, runs) plan, taken with BLAS pinned and one live
    thread; the sweep then raises ``Planned``."""
    taken = []
    split = processes.split

    def planned(items, large):
        taken.append((items, split(items, large)))
        raise Planned

    monkeypatch.setattr(threading, "active_count", lambda: 1)
    monkeypatch.setattr(processes, "split", planned)
    return taken


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_a_sweeps_runs_never_outnumber_the_cpus_or_the_trials(plans, monkeypatch, cpus):
    """The caller's run plus one per child, never more than the CPUs or
    the (theta, trial) items, the items kept in order."""
    monkeypatch.setattr(processes, "CPUS", cpus)
    monkeypatch.setattr(experiments, "FORK_FIT_FEATURES", 0)
    for thetas, trials in [((0.6,), 1), ((0.6,), 2), (THETAS, 1), (THETAS, 5), (THETAS, 30)]:
        with pytest.raises(Planned):
            run_sweep(0.5, 48, thetas, trials, sweep_config(), 1)
        items, runs = plans[-1]
        assert items == [(t, k) for t in range(len(thetas)) for k in range(trials)]
        assert len(runs) == min(cpus, len(items))
        assert [item for run in runs for item in run] == items
    assert multiprocessing.active_children() == []


def test_a_sweep_splits_only_above_its_size_rule(plans, monkeypatch):
    """The rule reads the sweep's fits times p: at the bound a sweep of two
    items splits, and one past the bound it does not."""
    monkeypatch.setattr(processes, "CPUS", 2)
    fits = 2 * 2 * 3                        # items, c, w
    for bound, runs in ((fits * 48, 2), (fits * 48 + 1, 1)):
        monkeypatch.setattr(experiments, "FORK_FIT_FEATURES", bound)
        with pytest.raises(Planned):
            sweep_grid(0.5, 48, (0.6,), 2, [1e-2, 1e-5], [1.25, 1.5, 1.75], sweep_config(), 1)
        assert len(plans[-1][1]) == runs


def test_no_process_splits_while_its_child_runs(monkeypatch):
    """A sweep's caller keeps its paths whole while its child runs, so the
    processes never outnumber the CPUs; a child never splits again."""
    monkeypatch.setattr(processes, "CPUS", 64)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    items = list(range(5))
    assert processes.split(items, True) == [[0], [1], [2], [3], [4]]
    child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(30,))
    child.start()
    try:
        assert processes.split(items, True) == [items]
    finally:
        child.terminate()
        child.join()
    assert processes.split(items, True) == [[0], [1], [2], [3], [4]]


def refused(w, nu, message, kappa=0.5, noise=1e-2, id=None):
    """A sweep refused with ``message``, its id the w, nu and message."""
    return pytest.param(kappa, w, nu, noise, message, id=id or f"{w}-{nu}-{message}")


@pytest.mark.parametrize("kappa, w, nu, noise, message", [
    refused(3.0, 0.5, "w=3.0 exceeds the task count r=2"),
    refused(0.5, 0.5, "w must be finite and >= 1"),
    refused(math.inf, 0.5, "w must be finite and >= 1"),
    refused(1.5, 1.5, "nu must lie in"),
    refused(1.5, 0.5, "kappa must lie in", kappa=1.5, id="kappa-1.5"),
    refused(1.5, 0.5, "noise_variance must be finite and >= 0", noise=-1.0, id="noise--1"),
    refused(1.5, 0.5, "noise_variance must be finite and >= 0", noise=math.nan, id="noise-nan"),
])
def test_a_bad_grid_is_refused_before_any_draw_or_fork(split, monkeypatch, kappa, w, nu,
                                                       noise, message):
    """A bad w or nu, and a kappa or noise variance the draws refuse."""
    drawn = []
    monkeypatch.setattr(experiments, "gen_synthetic", lambda spec: drawn.append(spec))
    config = SweepConfig(epsilon_c=1e-4, nu=nu, noise_variance=noise)
    with pytest.raises(ValueError, match=message):
        sweep_grid(kappa, 48, THETAS, 3, [1e-2], [1.25, w], config, 1)
    assert drawn == [] and split == []


def test_a_sweep_childs_exception_is_raised_by_the_caller(split, monkeypatch):
    advance = FitPath._advance

    def failing(path, w):
        if multiprocessing.parent_process() is not None:
            raise ValueError("no fit in a sweep's child")
        return advance(path, w)

    monkeypatch.setattr(FitPath, "_advance", failing)
    with pytest.raises(ValueError, match="no fit in a sweep's child"):
        run_sweep(0.5, 48, THETAS, 3, sweep_config(), 7)
    assert len(split) == 1


def test_a_killed_sweep_child_makes_the_sweep_raise(split, stalled_children, monkeypatch):
    start = processes._Child.__init__

    def killed(child, *args, **kwargs):
        start(child, *args, **kwargs)
        os.kill(child.process.pid, signal.SIGKILL)

    monkeypatch.setattr(processes._Child, "__init__", killed)
    # a wait that never ends is cut by the alarm
    previous = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the sweep waited"))
    signal.alarm(30)
    start_time = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match="exit code -9"):
            run_sweep(0.5, 48, THETAS, 3, sweep_config(), 7)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start_time < 10
    assert len(split) == 1


def test_an_exception_in_the_caller_stops_the_children(split, stalled_children, monkeypatch):
    def failing(beta_hat, beta_star):
        raise ArithmeticError("no score")

    monkeypatch.setattr(experiments, "sign_support_success", failing)
    with pytest.raises(ArithmeticError, match="no score"):
        run_sweep(0.5, 48, THETAS, 3, sweep_config(), 7)
    assert len(split) == 1
    assert multiprocessing.active_children() == []
