"""Greedy paths: a fit continued along a descending epsilon grid.

Epsilon enters ``fit`` only at its forward gate, so the fit at a larger
epsilon is a prefix of the fit at a smaller one.  ``fit(problem, config,
path)`` continues an ``engine.FitPath`` from where its previous fit stopped;
every continued report must equal a fresh fit bit for bit, and the reports
a path hands out must not move when it goes on.  ``cross_validate`` and
``sweep_grid`` run each w's grid as one path (one per task for the per-task
baseline) and must give the results of the loop that fits every (c, w)
point afresh, with one path alive at a time; ``sweep_grid`` checks the
trace of every path.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtgreedy import (
    GreedyConfig,
    MultiTaskProblem,
    SynthSpec,
    cross_validate,
    fit,
    foba_single_task,
    gen_synthetic,
    loss,
    verify_trace,
)
from mtgreedy import experiments
from mtgreedy.digits import DigitDataset, build_tasks, split_for_validation
from mtgreedy.engine import FitPath
from mtgreedy.experiments import (
    SweepConfig, _path_fits, run_sweep, stopping_threshold, sweep_grid)

C_GRID = (10.0, 1.0, 1e-1, 1e-2, 1e-3, 1e-4, 0.0)


def synthetic_problem():
    spec = SynthSpec(p=60, n=40, r=3, kappa=0.5, noise_variance=1e-2, seed=5)
    return gen_synthetic(spec)[0]


def digits_shaped_problem(seed=7, features=80, n_per_class=6):
    """Ten indicator tasks on one shared design, drawn as the digits are:
    class-shifted Gaussian columns, standardized, split by ``build_tasks``."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(10), 200)
    means = 0.5 * rng.standard_normal((10, features))
    raw = means[labels] + rng.standard_normal((labels.size, features))
    dataset = DigitDataset(features=(raw - raw.mean(axis=0)) / raw.std(axis=0), labels=labels)
    return build_tasks(dataset, n_per_class, seed)[0]


def saturating_problem():
    """Two noise tasks on three features: at epsilon 0 the fit holds every
    feature as a row, so its last forward candidate is none at all."""
    rng = np.random.default_rng(0)
    designs = [rng.standard_normal((12, 3)) for _ in range(2)]
    return MultiTaskProblem.from_arrays(designs, [rng.standard_normal(12) for _ in range(2)])


def epsilons(problem, c_grid=C_GRID):
    n = problem.tasks[0].n
    return [stopping_threshold(c, max(1, round(problem.p / 10)), problem.p, n) for c in c_grid]


def assert_same_report(got, want):
    assert got.steps == want.steps
    assert got.pattern == want.pattern
    assert got.termination == want.termination
    assert got.final_loss == want.final_loss
    assert np.array_equal(got.coefficients, want.coefficients)


def continue_path(problem, config, grid):
    """Fit ``grid`` (descending) along one path, each report against a fresh
    fit and replayed by ``verify_trace``; returns the continued reports."""
    path = FitPath(problem, replace(config, epsilon=grid[0]))
    pairs = []
    for eps in grid:
        cfg = replace(config, epsilon=eps)
        got = fit(problem, cfg, path)
        want = fit(problem, cfg)
        assert_same_report(got, want)
        verify_trace(problem, cfg, got)
        pairs.append((got, want))
    for got, want in pairs:       # the path went on writing its own grid
        assert np.array_equal(got.coefficients, want.coefficients)
    return [got for got, _ in pairs]


@pytest.mark.parametrize("make", [synthetic_problem, digits_shaped_problem])
def test_continued_fits_equal_fresh_fits(make):
    problem = make()
    reports = continue_path(problem, GreedyConfig(epsilon=0.0, w=1.5, nu=0.5),
                            epsilons(problem))
    lengths = [len(r.steps) for r in reports]
    assert lengths == sorted(lengths) and len(set(lengths)) >= 3
    for shorter, longer in zip(reports, reports[1:]):
        assert longer.steps[:len(shorter.steps)] == shorter.steps


def test_a_path_stopped_at_the_step_cap_stays_there():
    problem = synthetic_problem()
    config = GreedyConfig(epsilon=0.0, max_forward_steps=4)
    reports = continue_path(problem, config, epsilons(problem))
    kinds = [r.termination for r in reports]
    assert kinds[0] == "gain-below-threshold" and kinds[-1] == "max-steps"
    assert sum(s.kind == "forward" for s in reports[-1].steps) == 4


def test_a_saturated_path_takes_nothing_more():
    problem = saturating_problem()
    reports = continue_path(problem, GreedyConfig(epsilon=0.0),
                            [0.5, 0.05, 0.005, 0.0, 0.0])
    assert reports[-1].pattern.rows == frozenset(range(3))
    assert reports[-2].steps == reports[-1].steps
    assert len(reports[0].steps) < len(reports[-1].steps)


def test_a_continued_gate_keeps_the_slack_of_the_loss_at_beta_zero():
    """One feature carries almost all of the loss, so after it the gate's
    slack (relative to the loss at beta = 0) outweighs every gain left."""
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 5))
    problem = MultiTaskProblem.from_arrays([X], [1e6 * X[:, 0] + rng.standard_normal(30)])
    reports = continue_path(problem, GreedyConfig(epsilon=0.0), [1.0, 0.0])
    assert [len(r.steps) for r in reports] == [1, 1]


class TestGuards:
    def test_rejects_another_problem_object(self):
        problem = synthetic_problem()
        twin = MultiTaskProblem(p=problem.p, r=problem.r, tasks=problem.tasks)
        config = GreedyConfig(epsilon=1e-3)
        path = FitPath(problem, config)
        with pytest.raises(ValueError, match="another problem"):
            fit(twin, config, path)

    @pytest.mark.parametrize("change", [
        {"w": 2.0}, {"nu": 0.25}, {"rows_enabled": False}, {"max_forward_steps": 3}])
    def test_rejects_a_config_that_differs_in_more_than_epsilon(self, change):
        problem = synthetic_problem()
        config = GreedyConfig(epsilon=1e-2)
        path = FitPath(problem, config)
        fit(problem, config, path)
        with pytest.raises(ValueError, match="more than epsilon"):
            fit(problem, replace(config, epsilon=1e-3, **change), path)

    def test_rejects_a_larger_epsilon(self):
        problem = synthetic_problem()
        config = GreedyConfig(epsilon=1e-2)
        path = FitPath(problem, config)
        fit(problem, config, path)
        fit(problem, config, path)          # an equal epsilon continues
        fit(problem, replace(config, epsilon=1e-3), path)
        with pytest.raises(ValueError, match="exceeds the path's last epsilon"):
            fit(problem, config, path)


@st.composite
def degenerate_problems(draw):
    """One task with n < p, so the support can outgrow the samples, and a
    zero column or a duplicated one."""
    p = draw(st.integers(3, 7))
    n = draw(st.integers(1, p - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, p))
    a, b = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True))
    if draw(st.booleans()):
        X[:, a] = 0.0
    else:
        X[:, a] = X[:, b]
    return MultiTaskProblem.from_arrays([X], [rng.standard_normal(n)])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(degenerate_problems(),
       st.lists(st.floats(1e-6, 1.0), max_size=3),
       st.sampled_from([1.0, 1.5]))
def test_paths_on_degenerate_problems_equal_fresh_fits(problem, grid, w):
    continue_path(problem, GreedyConfig(epsilon=0.0, w=w),
                  sorted(grid, reverse=True) + [0.0])


def per_point_cross_validate(train, holdout, c_grid, w_grid, nu, s_hint):
    """The grid search as it was before paths: a fresh fit per (c, w) point."""
    n_avg = sum(t.n for t in train.tasks) / train.r
    rows = []
    best = None
    for c in c_grid:
        for w in w_grid:
            eps = stopping_threshold(c, s_hint, train.p, n_avg)
            report = fit(train, GreedyConfig(epsilon=eps, w=w, nu=nu))
            score = 0.0
            for j, t in enumerate(holdout.tasks):
                diff = t.y - t.X @ report.coefficients[:, j]
                score += float(diff @ diff)
            rows.append({"c": c, "w": w, "epsilon": eps, "holdout_score": score})
            if best is None or score < best["holdout_score"]:
                best = rows[-1]
    return best["epsilon"], best["w"], {"best_c": best["c"], "rows": rows}


@pytest.mark.parametrize("c_grid, w_grid", [
    ([1e-2, 1e3, 1e-4, 1e-2, 1.0], [1.75, 1.25, 1.75]),
    ([1e3, 1e4], [2.0, 1.5]),                     # every point ties: no steps
])
def test_cross_validate_matches_the_per_point_loop(c_grid, w_grid):
    train, holdout = split_for_validation(digits_shaped_problem(seed=11))
    args = (c_grid, w_grid, 0.5, 8)
    got = cross_validate(train, holdout, *args)
    assert got == per_point_cross_validate(train, holdout, *args)
    assert [(row["c"], row["w"]) for row in got[2]["rows"]] == [
        (c, w) for c in c_grid for w in w_grid]


@pytest.mark.parametrize("single_task", [False, True])
def test_sweep_grid_matches_the_per_point_runs(single_task):
    """Every point of an unsorted grid with a repeated c and a repeated w gets
    the rows of its own ``run_sweep``, whose paths are single fits."""
    c_grid, w_grid = [1e-2, 1e-6, 1e-2, 1e-4], [1.75, 1.25, 1.75]
    config = SweepConfig(epsilon_c=1.0, noise_variance=1e-2, single_task=single_task)
    args = (0.5, 64, (1.6, 0.8), 3)
    got = sweep_grid(*args, c_grid, w_grid, config, 5)
    assert list(got) == list(dict.fromkeys((c, w) for c in c_grid for w in w_grid))
    for (c, w), rows in got.items():
        assert rows == run_sweep(*args, replace(config, epsilon_c=c, w=w), 5)
    assert len({tuple(rows) for rows in got.values()}) >= 3


def test_per_task_paths_equal_fresh_per_task_fits():
    """The per-task baseline's paths over a descending c grid: each task's
    report equals a fresh rows-off fit of that task bit for bit, with the
    task's own loss at beta = 0, and the stacked columns equal
    ``foba_single_task``'s coefficients."""
    problem = synthetic_problem()
    eps = dict(zip(C_GRID, epsilons(problem)))
    points = list(_path_fits(problem, eps, (1.5,), 0.5, single_task=True))
    assert [c for c, *_ in points] == sorted(C_GRID, reverse=True)
    for c, _, _, reports, zero_losses in points:
        config = GreedyConfig(epsilon=eps[c], w=1.5, nu=0.5, rows_enabled=False)
        assert len(reports) == len(zero_losses) == problem.r
        for j, (report, zero_loss) in enumerate(zip(reports, zero_losses)):
            task = problem.single_task(j)
            assert_same_report(report, fit(task, config))
            assert zero_loss == loss(task, np.zeros((problem.p, 1)))
        merged = foba_single_task(problem, config)
        assert np.array_equal(np.hstack([r.coefficients for r in reports]), merged.coefficients)


@pytest.mark.parametrize("single_task, traces", [(False, 1), (True, 2)])
def test_sweep_grid_checks_every_trace(monkeypatch, single_task, traces):
    """``check_step_records`` runs on every report of every point and trial:
    one per point for the joint fit, one per task for the baseline."""
    check = experiments.check_step_records
    widths = []

    def counted(report, config, initial_loss):
        widths.append(report.coefficients.shape[1])
        check(report, config, initial_loss)

    monkeypatch.setattr(experiments, "check_step_records", counted)
    config = SweepConfig(epsilon_c=1.0, noise_variance=1e-2, single_task=single_task)
    sweep_grid(0.5, 64, (1.6, 0.8), 3, [1e-2, 1e-6, 1e-4], [1.75, 1.25], config, 5)
    assert len(widths) == traces * 3 * 2 * 3 * 2      # paths, c, w, trials, theta
    assert set(widths) == {2 // traces}


def test_cross_validate_keeps_one_path_alive():
    """The grid search's traced peak stays at that of its largest single
    fit: a second path kept alive would add its bases and grids."""
    spec = SynthSpec(p=200, n=120, r=4, kappa=0.5, noise_variance=1e-2, seed=3)
    problem, _ = gen_synthetic(spec)
    train = MultiTaskProblem.from_arrays(
        [t.X[:80] for t in problem.tasks], [t.y[:80] for t in problem.tasks])
    holdout = MultiTaskProblem.from_arrays(
        [t.X[80:] for t in problem.tasks], [t.y[80:] for t in problem.tasks])
    c_grid, w_grid = [1.0, 1e-2, 1e-4], [1.25, 2.0, 3.0]
    s = spec.support_size

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    eps = stopping_threshold(min(c_grid), s, spec.p, 80)
    largest = max(peak(lambda: fit(train, GreedyConfig(epsilon=eps, w=w, nu=0.5)))
                  for w in w_grid)
    assert peak(lambda: cross_validate(train, holdout, c_grid, w_grid, 0.5, s)) <= (
        1.25 * largest)
