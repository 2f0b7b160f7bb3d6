"""Operations split across processes.  A grid search
(``experiments.cross_validate``) fits the later runs of its w's in forked
children, and every report must still equal the serial search's bit for
bit, each served by one ``fit`` in the caller in grid order.  The behaviour
it shares with a split sweep is tested here over both operations: a child's
exception must reach the caller, a child that dies must make the operation
raise instead of wait, and an exception in the caller must stop every
child.  ``_path_fits`` and a ``FitPath`` on their own never fork.

The split needs BLAS pinned, two CPUs and a large problem; the ``split``
fixture of ``conftest`` patches those conditions so the small problems here
split, and every test asserts that a child was started, or that none was.
The CLI test in ``test_cli`` runs the split with the real guard, in a fresh
interpreter, and so does the test here of a process that has made a large
fit.
"""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from mtgreedy import GreedyConfig, cross_validate, experiments, fit, processes
from mtgreedy.digits import C_GRID, W_GRID, split_for_validation
from mtgreedy.engine import FitPath
from mtgreedy.experiments import run_sweep

from test_path import assert_same_report, digits_shaped_problem, epsilons
from test_sweep_processes import THETAS, sweep_config

SRC = Path(__file__).resolve().parent.parent / "src"
SPLIT = processes.split


def grid_of(problem, w_grid=W_GRID):
    return [GreedyConfig(epsilon=eps, w=w, nu=0.5) for w in w_grid for eps in epsilons(problem)]


def grid_search(w_grid=W_GRID):
    """The digit-shaped grid search at C_GRID's c's and W_GRID's w's, or
    ``w_grid``'s."""
    train, holdout = split_for_validation(digits_shaped_problem(seed=11))
    return cross_validate(train, holdout, C_GRID, w_grid, 0.5, 8)


def sweep():
    """A joint sweep of 3 thetas x 3 trials at one (c, w = 1.5)."""
    return run_sweep(0.5, 48, THETAS, 3, sweep_config(), 7)


def made_paths(monkeypatch):
    """The (w, remote) of each path the operations make, as made: remote is
    True for a path served from a child's stream."""
    made = []

    def recorded(*args):
        path = FitPath(*args)
        made.append((path.points[0].w, path.remote is not None))
        return path

    monkeypatch.setattr(experiments, "FitPath", recorded)
    return made


def served_fits(monkeypatch):
    """The (config, report) of each ``fit`` the caller returns, in order."""
    served = []

    def recorded(problem, config, path=None):
        served.append((config, fit(problem, config, path)))
        return served[-1][1]

    monkeypatch.setattr(experiments, "fit", recorded)
    return served


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_split_path_serves_the_serial_reports(split, monkeypatch, cpus):
    """The children fit the later runs of W_GRID's w's, and the caller's
    paths of those w's serve them from their streams."""
    served = served_fits(monkeypatch)
    monkeypatch.setattr(experiments, "FORK_ELEMENTS", math.inf)
    grid_search()
    serial = served[:]
    assert not split

    served.clear()
    monkeypatch.setattr(experiments, "FORK_ELEMENTS", 0)
    monkeypatch.setattr(processes, "CPUS", cpus)
    made = made_paths(monkeypatch)
    grid_search()
    assert len(split) == cpus - 1
    assert [w for w, _ in made] == list(W_GRID)
    fits = [w for w, remote in made if not remote]
    assert fits == list(W_GRID[:len(fits)]) and 0 < len(fits) < len(W_GRID)
    assert [config for config, _ in served] == [config for config, _ in serial]
    for (_, report), (_, want) in zip(served, serial):
        assert_same_report(report, want)
    assert multiprocessing.active_children() == []


def test_a_split_grid_search_equals_the_serial_one(split, monkeypatch):
    train, holdout = split_for_validation(digits_shaped_problem(seed=11))
    args = (train, holdout, C_GRID, W_GRID, 0.5, 8)
    got = cross_validate(*args)
    assert len(split) == 1
    monkeypatch.setattr(experiments, "FORK_ELEMENTS", math.inf)
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


def test_a_fit_path_on_its_own_starts_no_child(split):
    """``FitPath``s of every w on a problem the split's size rule takes fit
    their w's themselves: only ``cross_validate`` shares w's out."""
    problem = digits_shaped_problem()
    for w in W_GRID:
        grid = grid_of(problem, (w,))
        path = FitPath(problem, grid)
        assert path.remote is None
        for config in grid:
            fit(problem, config, path)
    assert split == [] and multiprocessing.active_children() == []


def test_path_fits_starts_no_child(split):
    """``_path_fits`` fits every w of a grid the split's size rule takes
    itself, in grid order: only whole operations fork."""
    problem = digits_shaped_problem()
    eps = dict(zip(C_GRID, epsilons(problem, C_GRID)))
    grid = experiments._path_grid(eps, W_GRID, 0.5, problem.r)
    points = [point[:2] for point in experiments._path_fits(problem, grid)]
    assert points == [(c, w) for w in W_GRID for c in sorted(C_GRID, reverse=True)]
    assert split == [] and multiprocessing.active_children() == []


def test_a_grid_the_paths_refuse_is_refused_before_any_fork(split):
    with pytest.raises(ValueError, match="w=11.0 exceeds the task count r=10"):
        grid_search((1.0, 11.0))
    with pytest.raises(ValueError, match="the grid's epsilons rise at w=1.0"):
        experiments._path_grid({1.0: 1e-4, 0.5: 1e-2}, (1.0, 2.0), 0.5, 10)
    assert split == []


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_the_runs_never_outnumber_the_cpus_or_the_ws(monkeypatch, cpus):
    """The caller's run plus one child per further run: never more than the
    CPUs or the distinct w's, the w's kept in order, the runs near equal."""
    monkeypatch.setattr(processes, "CPUS", cpus)
    for count in range(1, 70):
        ws = [1.0 + k / 100 for k in range(count)]
        runs = processes._chunks(ws)
        assert len(runs) == min(cpus, count)
        assert [w for run in runs for w in run] == ws
        sizes = [len(run) for run in runs]
        assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED = dict.fromkeys(BLAS_VARS, "1")
USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def run_fresh(code, blas):
    """What ``code`` prints in a fresh interpreter that imports the package
    from the source tree, with the BLAS thread variables set as in ``blas``
    and unset where it has none."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("blas, cpus", [
    (PINNED, USABLE_CPUS),
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 1),
], ids=["pinned", "unset", "one-variable-above-1"])
def test_cpus_counts_the_usable_cpus_only_with_blas_pinned(blas, cpus):
    """``processes.CPUS`` as a fresh interpreter reads it at import."""
    code = "from mtgreedy import processes; print(processes.CPUS)"
    assert run_fresh(code, blas) == f"{cpus}\n"


class Planned(Exception):
    """Stops a grid search once its plan is taken, before any child starts."""


def plan_of(monkeypatch, ws):
    """The runs of the w's ``ws`` that ``grid_search`` plans."""
    taken = []

    def planned(items, large):
        taken.append(SPLIT(items, large))
        raise Planned

    with monkeypatch.context() as patched:
        patched.setattr(processes, "split", planned)
        with pytest.raises(Planned):
            grid_search(ws)
    return taken[0]


def test_a_path_splits_only_when_every_condition_holds(monkeypatch):
    """A grid search splits its w's only then; its size rule reads the
    training problem's design elements."""
    train, _ = split_for_validation(digits_shaped_problem(seed=11))
    elements = sum(t.n for t in train.tasks) * train.p
    ws = [1.0, 1.5, 2.0]
    monkeypatch.setattr(processes, "CPUS", 64)
    monkeypatch.setattr(experiments, "FORK_ELEMENTS", elements)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    assert plan_of(monkeypatch, ws) == [[1.0], [1.5], [2.0]]
    assert plan_of(monkeypatch, [1.5]) == [[1.5]]
    monkeypatch.setattr(experiments, "FORK_ELEMENTS", elements + 1)
    assert plan_of(monkeypatch, ws) == [ws]
    monkeypatch.setattr(experiments, "FORK_ELEMENTS", elements)
    monkeypatch.setattr(processes, "CPUS", 1)
    assert plan_of(monkeypatch, ws) == [ws]
    monkeypatch.setattr(processes, "CPUS", 64)
    monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert plan_of(monkeypatch, ws) == [ws]


# Fits a problem whose design is over 4 MiB, then runs a grid search of three
# w's with the real guard and the size rule at 0; prints the live threads
# after the fit and the children the search started.
FIT_THEN_GRID = textwrap.dedent("""
    import threading
    from mtgreedy import GreedyConfig, SynthSpec, experiments, fit, gen_synthetic, processes

    processes.CPUS = 2
    experiments.FORK_ELEMENTS = 0
    large, _ = gen_synthetic(SynthSpec(p=1100, n=480, r=2, kappa=0.5,
                                       noise_variance=1e-4, seed=3))
    assert large.tasks[0].X.nbytes >= 4 * 2 ** 20
    fit(large, GreedyConfig(epsilon=1e-3, w=1.5, nu=0.5))
    started = []
    start = processes._Child.__init__

    def counted(child, *args):
        start(child, *args)
        started.append(child)

    processes._Child.__init__ = counted
    problem, _ = gen_synthetic(SynthSpec(p=40, n=30, r=2, kappa=0.5, seed=2))
    print(threading.active_count())
    experiments.cross_validate(problem, problem, (1.0, 1e-3), (1.0, 1.5, 2.0), 0.5, 2)
    print(len(started))
""")


def test_a_process_that_made_a_large_fit_starts_no_thread_and_still_splits():
    """A pinned fit on two CPUs runs on the calling thread alone, so the
    process's later grid search forks."""
    threads, started = run_fresh(FIT_THEN_GRID, PINNED).split("\n")[:2]
    assert threads == "1" and started == "1"


@pytest.mark.parametrize("operation, failing_w, made, served", [
    pytest.param(sweep, 1.5, [(1.5, False)] * 5 + [(1.5, True)], [1.5] * 5, id="sweep"),
    pytest.param(grid_search, 2.0, [(w, w >= 1.75) for w in W_GRID],
                 [w for w in W_GRID[:4] for _ in C_GRID], id="cross_validate"),
])
def test_a_childs_exception_is_raised_by_the_caller(split, monkeypatch, operation, failing_w,
                                                    made, served):
    """A child's fits at ``failing_w`` raise.  The caller makes its paths
    (w, remote) as ``made`` and serves fits at the w's ``served``, its own
    run's and those the child sent first; its next ``fit`` raises."""
    advance = FitPath._advance

    def failing(path, config):
        if multiprocessing.parent_process() is not None and config.w == failing_w:
            raise ValueError("no fit in a child")
        return advance(path, config)

    monkeypatch.setattr(FitPath, "_advance", failing)
    got_made, got_served = made_paths(monkeypatch), served_fits(monkeypatch)
    with pytest.raises(ValueError, match="no fit in a child"):
        operation()
    assert got_made == made
    assert [config.w for config, _ in got_served] == served
    assert len(split) == 1


@pytest.mark.parametrize("operation, served", [
    pytest.param(sweep, [1.5] * 5, id="sweep"),
    pytest.param(grid_search, [w for w in W_GRID[:3] for _ in C_GRID], id="cross_validate"),
])
def test_a_killed_child_makes_the_operation_raise(split, stalled_children, monkeypatch,
                                                  operation, served):
    """The child is killed as it starts; the caller serves its own run's
    fits, at the w's ``served``, and then raises instead of waiting."""
    start = processes._Child.__init__

    def killed(child, *args, **kwargs):
        start(child, *args, **kwargs)
        os.kill(child.process.pid, signal.SIGKILL)

    monkeypatch.setattr(processes._Child, "__init__", killed)
    got_served = served_fits(monkeypatch)
    # a wait that never ends is cut by the alarm
    previous = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the caller waited"))
    signal.alarm(30)
    start_time = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match="exit code -9"):
            operation()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start_time < 10
    assert [config.w for config, _ in got_served] == served
    assert len(split) == 1


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("operation, scorer", [
    pytest.param(sweep, "sign_support_success", id="sweep"),
    pytest.param(grid_search, "residuals", id="cross_validate"),
])
def test_an_exception_in_the_caller_stops_every_child(split, stalled_children, monkeypatch,
                                                      operation, scorer, cpus):
    """The caller's scoring of its first report raises while every child
    still runs."""
    alive = []

    def failing(*args):
        alive.append({process.pid for process in multiprocessing.active_children()})
        raise ArithmeticError("no score")

    monkeypatch.setattr(processes, "CPUS", cpus)
    monkeypatch.setattr(experiments, scorer, failing)
    with pytest.raises(ArithmeticError, match="no score"):
        operation()
    assert len(split) == cpus - 1
    assert alive == [{child.process.pid for child in split}]
    assert multiprocessing.active_children() == []


def plan_in_a_child(ws, writer):
    writer.send(processes.split(ws, True))


def test_a_child_never_splits_again(split):
    """A process ``multiprocessing`` started plans one run, whatever else holds."""
    ws = list(W_GRID)
    assert len(processes.split(ws, True)) == 2
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    child = context.Process(target=plan_in_a_child, args=(ws, writer))
    child.start()
    writer.close()
    try:
        assert reader.poll(30) and reader.recv() == [ws]
    finally:
        child.join(30)
        reader.close()
    assert child.exitcode == 0


def thread_counts():
    yield threading.active_count()


def test_a_child_makes_and_sends_its_run_on_its_one_thread():
    """A child starts no thread: it makes its whole run, then sends it from
    the thread that made it."""
    child = processes._Child(thread_counts())
    try:
        assert child.reader.poll(30) and child.receive() == 1
    finally:
        child.stop()
