"""``linalg.design_product``: a large product X^T v split over worker threads
must equal ``X.T @ v`` bit for bit, start threads only for large designs and
only with BLAS pinned to one thread, keep no design alive and survive
errors, interrupts and forks.

Bit identity holds with one BLAS thread per call, as the benchmark runs.  A
threaded BLAS splits ``X.T @ v`` itself at its own edges, so the checks of
identity run in a fresh interpreter with BLAS pinned to one thread
(``fresh``), as do the checks of what the thread variables select; the rest
run here, with ``processes.CPUS`` patched.
"""

import os
import queue
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from mtgreedy import engine, experiments, linalg, processes
from mtgreedy.model import design_array

HERE = Path(__file__).resolve().parent
LIMIT = 2 * linalg.SPLIT_ELEMENTS      # the smallest design that splits
ONE_BLAS_THREAD = {var: "1" for var in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def design(rng, n, p):
    return design_array(rng.standard_normal((n, p)))


def product_threads():
    return [t for t in threading.enumerate() if t.name.startswith("mtgreedy-product")]


def fresh(check, blas=ONE_BLAS_THREAD):
    """Run ``check`` of this module in a fresh interpreter with the BLAS
    thread variables set as in ``blas``, and unset where it has none."""
    env = {k: v for k, v in os.environ.items() if k not in ONE_BLAS_THREAD}
    env.update(blas)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = f"import {Path(__file__).stem} as m; m.{check.__name__}()"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def fit_problem(p, n, seed):
    """A synthetic problem and the sweep's config for it."""
    spec = experiments.SynthSpec(p=p, n=n, r=2, kappa=0.5, noise_variance=1e-4,
                                 seed=seed)
    problem, _ = experiments.gen_synthetic(spec)
    config = experiments.SweepConfig(
        epsilon_c=1e-5, w=1.5, nu=0.5, noise_variance=1e-4,
    ).greedy_config(spec.support_size, p, n)
    return problem, config


def check_products_around_the_split_size():
    rng = np.random.default_rng(0)
    shapes = [
        (512, 1024),                 # exactly the split size
        (511, 1024),                 # one row short of it
        (513, 1023),                 # odd column count
        (1, LIMIT + 1),              # n = 1
        (1, LIMIT - 1),
        (2 ** 14, 34),               # a last block of two columns
        (2 ** 15 + 1, 33),           # a last block of one column is merged
        (LIMIT // 17 + 1, 17),       # too narrow for a second block
        (2 ** 19, 1),                # one column: no block edges at all
    ]
    processes.CPUS = 2
    for shape in shapes:
        X = design(rng, *shape)
        v = rng.standard_normal(shape[0])
        assert np.array_equal(linalg.design_product(X, v), X.T @ v), shape

    X = design(rng, 520, 1031)
    X[:, [0, 15, 16, 515, 1030]] = 0.0
    X[:, [1, 516, 1029]] = X[:, [1000, 3, 3]]
    v = rng.standard_normal(520)
    got = linalg.design_product(X, v)
    assert np.array_equal(got, X.T @ v)
    assert np.all(got[[0, 15, 16, 515, 1030]] == 0.0)

    processes.CPUS = 3               # three blocks, two workers
    X = design(rng, 600, 1333)
    v = rng.standard_normal(600)
    assert np.array_equal(linalg.design_product(X, v), X.T @ v)
    assert len(product_threads()) == 2


def check_split_fit_reports_what_a_serial_fit_reports():
    problem, config = fit_problem(1100, 480, seed=3)
    assert problem.tasks[0].X.size >= LIMIT
    processes.CPUS = 1
    serial = engine.fit(problem, config)
    assert not product_threads()
    processes.CPUS = 2
    split = engine.fit(problem, config)
    assert product_threads()
    assert any(step.kind == "backward" for step in split.steps)
    assert split.steps == serial.steps
    assert split.pattern == serial.pattern
    assert split.termination == serial.termination
    assert split.final_loss == serial.final_loss
    assert np.array_equal(split.coefficients, serial.coefficients)


def check_forked_child_computes_a_split_product():
    rng = np.random.default_rng(1)
    X = design(rng, 512, 1024)
    v = rng.standard_normal(512)
    processes.CPUS = 2
    linalg.design_product(X, v)
    assert product_threads()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            if np.array_equal(linalg.design_product(X, v), X.T @ v):
                code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            raise AssertionError("the forked child's product did not return")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


def check_a_large_product_starts_a_worker_only_under_pinned_blas():
    X = design(np.random.default_rng(2), 512, 1024)
    linalg.design_product(X, np.ones(512))
    pinned = os.environ.get("OPENBLAS_NUM_THREADS") == "1"
    assert len(product_threads()) == (1 if pinned else 0)


@pytest.mark.skipif(USABLE_CPUS < 2, reason="needs two usable CPUs")
def test_a_pinned_blas_splits_a_large_product():
    fresh(check_a_large_product_starts_a_worker_only_under_pinned_blas)


def test_an_unpinned_blas_takes_a_large_product_whole():
    fresh(check_a_large_product_starts_a_worker_only_under_pinned_blas, blas={})


def test_products_equal_the_whole_product_around_the_split_size():
    fresh(check_products_around_the_split_size)


def test_a_split_fit_reports_what_a_serial_fit_reports():
    fresh(check_split_fit_reports_what_a_serial_fit_reports)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_computes_a_split_product():
    fresh(check_forked_child_computes_a_split_product)


@pytest.fixture
def two_cpus(monkeypatch):
    """Split into at most two blocks, so at most one worker is started."""
    monkeypatch.setattr(processes, "CPUS", 2)


@pytest.fixture
def no_workers():
    """A fresh, empty worker list for the test.  The old list comes back
    after it, joined by the workers the test started, so that it still
    names every live product thread (``processes.split`` counts them)."""
    old, processes._workers = processes._workers, []
    yield
    processes._workers = old + processes._workers


def test_a_sweep_sized_fit_starts_no_thread(two_cpus, no_workers):
    problem, config = fit_problem(128, 123, seed=5)
    before = threading.active_count()
    engine.fit(problem, config)
    X = design(np.random.default_rng(0), 400, 649)       # the digit design
    linalg.design_product(X, np.ones(400))
    assert processes._workers == []
    assert threading.active_count() == before


def test_one_cpu_starts_no_thread(rng, monkeypatch, no_workers):
    monkeypatch.setattr(processes, "CPUS", 1)
    X = design(rng, 800, 2000)
    v = rng.standard_normal(800)
    before = threading.active_count()
    linalg.design_product(X, v)
    assert processes._workers == []
    assert threading.active_count() == before


def test_no_worker_keeps_a_design_alive(rng, two_cpus):
    X = design(rng, 512, 1024)
    linalg.design_product(X, rng.standard_normal(512))
    assert product_threads()
    alive = weakref.ref(X)
    del X
    assert alive() is None


class Interrupted(Exception):
    pass


def test_a_worker_exception_is_raised_in_the_caller(rng, two_cpus, monkeypatch):
    X = design(rng, 512, 1024)
    v = rng.standard_normal(512)
    expected = linalg.design_product(X, v)
    block = linalg._block

    def failing(X, a, b, v, out):
        if a > 0:
            raise Interrupted(f"block {a}:{b}")
        block(X, a, b, v, out)

    monkeypatch.setattr(linalg, "_block", failing)
    with pytest.raises(Interrupted, match="block 512:1024"):
        linalg.design_product(X, v)
    monkeypatch.setattr(linalg, "_block", block)
    assert np.array_equal(linalg.design_product(X, v), expected)


def test_an_interrupted_call_passes_nothing_to_the_next(rng, two_cpus, monkeypatch):
    """A caller interrupted after handing its call over leaves completions
    behind; the next call must still wait for its own worker's block."""
    X = design(rng, 512, 1024)
    v = rng.standard_normal(512)
    expected = linalg.design_product(X, v)
    take, block = processes._take, linalg._block

    def interrupted(pending, done):
        if threading.current_thread() is threading.main_thread():
            raise Interrupted
        take(pending, done)

    monkeypatch.setattr(processes, "_take", interrupted)
    with pytest.raises(Interrupted):
        linalg.design_product(X, v)
    time.sleep(0.1)                  # the worker completes the left call
    monkeypatch.setattr(processes, "_take", take)

    written = threading.Event()

    def slow(X, a, b, v, out):
        # The caller's block waits so the worker takes the other, which
        # finishes well after it.
        if threading.current_thread() is threading.main_thread():
            time.sleep(0.05)
            block(X, a, b, v, out)
        else:
            time.sleep(0.15)
            block(X, a, b, v, out)
            written.set()

    monkeypatch.setattr(linalg, "_block", slow)
    got = linalg.design_product(X, v)
    assert written.is_set()
    assert np.array_equal(got, expected)


def test_concurrent_callers_share_the_workers(rng, two_cpus, no_workers):
    """Four threads splitting products at once, switching as often as the
    interpreter allows: every product is whole (a half-written one is far
    from X.T @ v, whatever BLAS threads do) and one worker is started."""
    X = design(rng, 512, 1024)
    vs = [rng.standard_normal(512) for _ in range(4)]
    expected = [X.T @ v for v in vs]
    wrong = []

    def call(k):
        for _ in range(20):
            got = linalg.design_product(X, vs[k])
            if not np.allclose(got, expected[k], rtol=1e-12, atol=1e-10):
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert wrong == []
    assert len(processes._workers) == 1


def test_a_call_completes_when_no_worker_wakes(rng, two_cpus, monkeypatch):
    """The caller takes every block its workers have not taken."""
    X = design(rng, 512, 1024)
    v = rng.standard_normal(512)
    expected = linalg.design_product(X, v)
    monkeypatch.setattr(processes, "_started", lambda count: [queue.SimpleQueue()] * count)
    got = []
    caller = threading.Thread(target=lambda: got.append(linalg.design_product(X, v)),
                              daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert np.array_equal(got[0], expected)
