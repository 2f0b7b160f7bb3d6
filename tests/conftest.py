import multiprocessing
import time

import numpy as np
import pytest

from mtgreedy import (
    GreedyConfig, MultiTaskProblem, SupportPattern, experiments, gain_matrix, processes, refit,
    residuals)
from mtgreedy.digits import FEATURE_FILES
from mtgreedy.engine import FitPath, Scales, SupportState, removal_costs


def pytest_sessionfinish(session, exitstatus):
    """Fail the run when a child process outlives the tests: every split
    grid search and sweep must stop the children it forked."""
    left = multiprocessing.active_children()
    if left:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.write_line(f"child processes left alive after the tests: {left}",
                                red=True)


def random_problem(rng, p, r, n_range=(15, 30)):
    designs, responses = [], []
    for _ in range(r):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        designs.append(X)
        responses.append(y)
    return MultiTaskProblem.from_arrays(designs, responses)


def random_pattern(rng, p, r, n_singles, n_rows):
    rows = set(int(i) for i in rng.choice(p, size=n_rows, replace=False)) if n_rows else set()
    free = [(i, j) for i in range(p) if i not in rows for j in range(r)]
    singles = set()
    if n_singles and free:
        picks = rng.choice(len(free), size=min(n_singles, len(free)), replace=False)
        singles = {free[int(k)] for k in picks}
    return SupportPattern(singletons=frozenset(singles), rows=frozenset(rows))


def random_state(rng, p, r):
    """A problem plus an estimate at the restricted optimum of a random pattern."""
    problem = random_problem(rng, p, r)
    pattern = random_pattern(rng, p, r,
                             n_singles=int(rng.integers(0, 4)),
                             n_rows=int(rng.integers(0, 2)))
    beta = refit(problem, pattern)
    return problem, pattern, beta


def correlations_at(problem, beta):
    """X_j^T r_j of every task at estimate beta, as the columns of a (p, r) array."""
    return np.column_stack(
        [t.X.T @ res for t, res in zip(problem.tasks, residuals(problem, beta))])


def scales_of(problem):
    """The engine's per-fit grid constants of a problem, from their definitions:
    squared column norms, 2 n_j, and their product with inf at zero columns."""
    colsq = np.column_stack([np.einsum("ij,ij->j", t.X, t.X) for t in problem.tasks])
    two_n = np.array([2.0 * t.n for t in problem.tasks])
    return Scales(colsq, two_n, np.where(colsq > 0.0, two_n * colsq, np.inf))


def gains_at(problem, beta):
    """The engine's (p, r) singleton gain matrix at estimate beta."""
    return gain_matrix(problem, correlations_at(problem, beta), scales_of(problem))


def costs_at(problem, beta):
    """The engine's (p, r) removal cost matrix at estimate beta."""
    return removal_costs(beta, correlations_at(problem, beta), scales_of(problem))


def state_of(pattern, p, r):
    """A SupportState holding exactly ``pattern``, for calling the selectors.

    It is built with rows disabled, so it never promotes and a feature
    holding many singletons stays as it is; its rows are added directly, and
    the selectors read the weight from their own config.
    """
    state = SupportState(GreedyConfig(epsilon=0.0, rows_enabled=False), p, r)
    for m in sorted(pattern.rows):
        state.add("row", (m,))
    for cell in sorted(pattern.singletons):
        state.add("singleton", cell)
    return state


def planted_shared_problem(seed, p=6, r=2, n=24, balanced=False):
    """Noiseless instance with one shared feature row plus one singleton per task.

    Returns (problem, beta_star, shared_feature, own_features).
    """
    rng = np.random.default_rng(seed)
    feats = rng.choice(p, size=1 + r, replace=False)
    m = int(feats[0])
    own = [int(f) for f in feats[1:]]
    beta = np.zeros((p, r))
    if balanced:
        mags = 1.0 + 0.3 * rng.random(r)
        beta[m, :] = rng.choice([-1.0, 1.0], size=r) * mags
    else:
        beta[m, :] = rng.standard_normal(r)
    for j in range(r):
        beta[own[j], j] = rng.standard_normal()
    designs = [rng.standard_normal((n, p)) for _ in range(r)]
    responses = [designs[j] @ beta[:, j] for j in range(r)]
    return MultiTaskProblem.from_arrays(designs, responses), beta, m, own


@pytest.fixture(scope="session")
def mfeat_dir(tmp_path_factory):
    """Synthetic six-view dataset: class-dependent means on a few columns so
    one-vs-all fits have signal; a constant last column in each view wider
    than four columns exercises standardization."""
    rng = np.random.default_rng(99)
    root = tmp_path_factory.mktemp("mfeat")
    labels = np.repeat(np.arange(10), 200)
    for name, ncols in FEATURE_FILES:
        block = rng.integers(0, 12, size=(2000, ncols)).astype(float)
        if name == "fac":  # one marker column per class
            for k in range(10):
                block[:, k] += 30.0 * (labels == k)
        if ncols > 4:
            block[:, ncols - 1] = 7.0  # constant column
        lines = [" ".join(format(v, "g") for v in row) for row in block]
        (root / f"mfeat-{name}").write_text("\n".join(lines) + "\n")
    return root


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def split(monkeypatch):
    """Every grid search of two or more w's and every sweep of two or more
    trials splits: the fixture patches BLAS pinned on two CPUs and both size
    rules to 0.  Yields the children started, and checks at the end that
    none is left running."""
    monkeypatch.setattr(processes, "CPUS", 2)
    monkeypatch.setattr(experiments, "FORK_ELEMENTS", 0)
    monkeypatch.setattr(experiments, "FORK_FIT_FEATURES", 0)
    started = []
    start = processes._Child.__init__

    def counted(child, *args, **kwargs):
        start(child, *args, **kwargs)
        started.append(child)

    monkeypatch.setattr(processes._Child, "__init__", counted)
    yield started
    assert multiprocessing.active_children() == []


@pytest.fixture
def stalled_children(monkeypatch):
    """A child sleeps before its first move, so it is still running, with
    nothing sent, whenever the test acts on it."""
    advance = FitPath._advance

    def stalled(path, w):
        if multiprocessing.parent_process() is not None:
            time.sleep(60)
        return advance(path, w)

    monkeypatch.setattr(FitPath, "_advance", stalled)
