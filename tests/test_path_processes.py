"""A grid search split across processes: ``experiments._path_fits`` fits
the later runs of its w's in forked children, and every report must still
equal the serial search's bit for bit, each served by one ``fit`` in the
caller in grid order.  A child's exception must reach the caller, a child
that dies must make ``fit`` raise instead of wait, and no child may outlive
a closed or dropped ``_path_fits``.  A ``FitPath`` on its own never forks.

The split needs BLAS pinned, two CPUs and a large problem; the ``split``
fixture of ``conftest`` patches those conditions so the small problems here
split, and every test asserts that a child was started.  The CLI test in
``test_cli`` runs the split with the real guard, in a fresh interpreter, and
so does the test here of a process that has made a large fit.
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

from test_path import assert_same_report, digits_shaped_problem, epsilons

SRC = Path(__file__).resolve().parent.parent / "src"
SPLIT = processes.split


def grid_of(problem, w_grid=W_GRID):
    return [GreedyConfig(epsilon=eps, w=w, nu=0.5) for w in w_grid for eps in epsilons(problem)]


def eps_of(problem):
    return dict(zip(C_GRID, epsilons(problem, C_GRID)))


def path_fits(problem, w_grid=W_GRID):
    """``_path_fits`` over W_GRID's w's, or ``w_grid``'s, at C_GRID's c's."""
    return experiments._path_fits(
        problem, experiments._path_grid(eps_of(problem), w_grid, 0.5, False, problem.r))


def made_paths(monkeypatch):
    """The (w, remote) of each path ``_path_fits`` makes, as made: remote is
    True for a path served from a child's stream."""
    made = []

    def recorded(*args):
        path = FitPath(*args)
        made.append((path.points[0].w, path.remote is not None))
        return path

    monkeypatch.setattr(experiments, "FitPath", recorded)
    return made


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_split_path_serves_the_serial_reports(split, monkeypatch, cpus):
    """The children fit the later runs of W_GRID's w's, and the caller's
    paths of those w's serve them from their streams."""
    problem = digits_shaped_problem()
    monkeypatch.setattr(experiments, "FORK_ELEMENTS", math.inf)
    serial = list(path_fits(problem))
    assert not split

    monkeypatch.setattr(experiments, "FORK_ELEMENTS", 0)
    monkeypatch.setattr(processes, "CPUS", cpus)
    made = made_paths(monkeypatch)
    got = list(path_fits(problem))
    assert len(split) == cpus - 1
    assert [w for w, _ in made] == list(W_GRID)
    fits = [w for w, remote in made if not remote]
    assert fits == list(W_GRID[:len(fits)]) and 0 < len(fits) < len(W_GRID)
    assert [point[:2] for point in got] == [point[:2] for point in serial]
    for (_, _, (report,)), (_, _, (want,)) in zip(got, serial):
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
    their w's themselves: only ``_path_fits`` shares w's out."""
    problem = digits_shaped_problem()
    for w in W_GRID:
        grid = grid_of(problem, (w,))
        path = FitPath(problem, grid)
        assert path.remote is None
        for config in grid:
            fit(problem, config, path)
    assert split == [] and multiprocessing.active_children() == []


def test_a_grid_the_paths_refuse_is_refused_before_any_fork(split):
    problem = digits_shaped_problem()
    with pytest.raises(ValueError, match="w=11.0 exceeds the task count r=10"):
        next(path_fits(problem, (1.0, 11.0)))
    with pytest.raises(ValueError, match="the grid's epsilons rise at w=1.0"):
        grid = experiments._path_grid({1.0: 1e-4, 0.5: 1e-2}, (1.0, 2.0), 0.5, False, problem.r)
        next(experiments._path_fits(problem, grid))
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


def plan_of(monkeypatch, problem, ws):
    """The runs of the w's ``ws`` that ``_path_fits`` plans on ``problem``."""
    taken = []

    def planned(items, large):
        taken.append(SPLIT(items, large))
        raise Planned

    with monkeypatch.context() as patched:
        patched.setattr(processes, "split", planned)
        with pytest.raises(Planned):
            next(path_fits(problem, ws))
    return taken[0]


def test_a_path_splits_only_when_every_condition_holds(monkeypatch):
    problem = digits_shaped_problem()
    elements = sum(t.n for t in problem.tasks) * problem.p
    ws = [1.0, 1.5, 2.0]
    monkeypatch.setattr(processes, "CPUS", 64)
    monkeypatch.setattr(experiments, "FORK_ELEMENTS", elements)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    assert plan_of(monkeypatch, problem, ws) == [[1.0], [1.5], [2.0]]
    assert plan_of(monkeypatch, problem, [1.5]) == [[1.5]]
    monkeypatch.setattr(experiments, "FORK_ELEMENTS", elements + 1)
    assert plan_of(monkeypatch, problem, ws) == [ws]
    monkeypatch.setattr(experiments, "FORK_ELEMENTS", elements)
    monkeypatch.setattr(processes, "CPUS", 1)
    assert plan_of(monkeypatch, problem, ws) == [ws]
    monkeypatch.setattr(processes, "CPUS", 64)
    monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert plan_of(monkeypatch, problem, ws) == [ws]


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
    grid = experiments._path_grid({1.0: 1e-2, 0.0: 1e-9}, (1.0, 1.5, 2.0), 0.5, False, problem.r)
    list(experiments._path_fits(problem, grid))
    print(len(started))
""")


def test_a_process_that_made_a_large_fit_starts_no_thread_and_still_splits():
    """A pinned fit on two CPUs runs on the calling thread alone, so the
    process's later grid search forks."""
    threads, started = run_fresh(FIT_THEN_GRID, PINNED).split("\n")[:2]
    assert threads == "1" and started == "1"


def test_a_childs_exception_is_raised_by_the_callers_fit(split, monkeypatch):
    advance = FitPath._advance

    def failing(path, config):
        if config.w == 2.0:
            raise ValueError("no fit at w = 2")
        return advance(path, config)

    monkeypatch.setattr(FitPath, "_advance", failing)
    made = made_paths(monkeypatch)
    served = []
    with pytest.raises(ValueError, match="no fit at w = 2"):
        for c, w, _ in path_fits(digits_shaped_problem()):
            served.append(w)
    assert [w for w, remote in made if remote] == [1.75, 2.0]
    assert served == [w for w in W_GRID[:4] for _ in C_GRID]
    assert len(split) == 1


def test_a_killed_child_makes_fit_raise(split, stalled_children):
    points = path_fits(digits_shaped_problem())
    for c, w, _ in points:              # the caller's own w's
        if (c, w) == (min(C_GRID), W_GRID[2]):
            break
    (child,) = split
    os.kill(child.process.pid, signal.SIGKILL)
    # a wait that never ends is cut by the alarm
    previous = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("fit waited on a dead child"))
    signal.alarm(30)
    start = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match="exit code -9"):
            next(points)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 10


def test_close_stops_the_children(split, stalled_children, monkeypatch):
    monkeypatch.setattr(processes, "CPUS", 3)
    points = path_fits(digits_shaped_problem())
    next(points)
    assert len(split) == 2
    assert ({child.process.pid for child in split}
            == {process.pid for process in multiprocessing.active_children()})
    points.close()
    assert multiprocessing.active_children() == []
    points.close()


def test_closing_path_fits_early_stops_the_children(split, stalled_children):
    points = path_fits(digits_shaped_problem())
    next(points)
    assert len(multiprocessing.active_children()) == len(split) == 1
    points.close()
    assert multiprocessing.active_children() == []


def test_a_dropped_path_stops_its_children(split, stalled_children):
    points = path_fits(digits_shaped_problem())
    next(points)
    assert len(multiprocessing.active_children()) == len(split) == 1
    del points
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
