"""Greedy paths: the fits of one problem over an (epsilon, w) grid.

Epsilon enters ``fit`` only at its forward gate, so the fit at a larger
epsilon is a prefix of the fit at a smaller one.  An ``engine.FitPath``
serves its grid in the order given, no w's epsilons rising, and
``fit(problem, config, path)`` takes the path's next point only; every
report must equal a fresh fit bit for bit, and the reports a path hands
out must not move when it goes on.  Each w of a grid is a fit of its
own, continued down that w's epsilons, and the reports must be the same in
any interleaving of the w's.  ``cross_validate`` and ``sweep_grid`` run their grid as one path per
problem (the per-task baseline runs one path per task for the whole w
grid), one ``fit`` per point, and must give the results of the loop that
fits every (c, w) point afresh, without keeping more state alive than the
largest single fit; both check each report's trace once, when it is made.
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
    gen_synthetic,
    loss,
    verify_trace,
)
from mtgreedy.model import FitReport, StepRecord
from mtgreedy import experiments
from mtgreedy.digits import (
    C_GRID as C_GRID_DIGITS, W_GRID as W_GRID_DIGITS, DigitDataset, build_tasks,
    split_for_validation)
from mtgreedy.engine import FitPath, SupportState, _WFit, promotion_count
from mtgreedy.linalg import Basis
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
    path = FitPath(problem, [replace(config, epsilon=eps) for eps in grid])
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
    """``fit`` takes a path's own problem object at its next grid point
    only; a refused call leaves the path where it was.  The one-point path
    is the one a fit without a path makes."""

    GRID = [GreedyConfig(epsilon=eps, w=w) for w in (1.5, 2.0) for eps in (1e-2, 1e-3)]

    def test_rejects_another_problem_object(self):
        problem = synthetic_problem()
        twin = MultiTaskProblem(p=problem.p, r=problem.r, tasks=problem.tasks)
        config = GreedyConfig(epsilon=1e-3)
        with pytest.raises(ValueError, match="next grid point"):
            fit(twin, config, FitPath(problem, [config]))

    @pytest.mark.parametrize("change", [
        {"w": 2.0}, {"nu": 0.25}, {"rows_enabled": False}, {"max_forward_steps": 3}])
    def test_rejects_a_config_that_differs_in_more_than_epsilon(self, change):
        problem = synthetic_problem()
        config = GreedyConfig(epsilon=1e-2)
        path = FitPath(problem, [config])
        with pytest.raises(ValueError, match="next grid point"):
            fit(problem, replace(config, **change), path)
        assert_same_report(fit(problem, config, path), fit(problem, config))

    def test_rejects_a_larger_epsilon(self):
        """A larger epsilon than the point's, and the point once fit."""
        problem = synthetic_problem()
        config = GreedyConfig(epsilon=1e-3)
        path = FitPath(problem, [config])
        with pytest.raises(ValueError, match="next grid point"):
            fit(problem, replace(config, epsilon=1e-2), path)
        fit(problem, config, path)
        with pytest.raises(ValueError, match="next grid point"):
            fit(problem, config, path)

    def test_a_grid_path_refuses_another_problem_object(self):
        problem = synthetic_problem()
        twin = MultiTaskProblem(p=problem.p, r=problem.r, tasks=problem.tasks)
        path = FitPath(problem, self.GRID)
        with pytest.raises(ValueError, match="next grid point"):
            fit(twin, self.GRID[0], path)
        for config in self.GRID:
            assert_same_report(fit(problem, config, path), fit(problem, config))

    @pytest.mark.parametrize("change", [{"w": 1.25}, {"nu": 0.25}, {"max_forward_steps": 3}])
    def test_a_grid_path_refuses_a_config_off_its_grid_up_to_epsilon(self, change):
        problem = synthetic_problem()
        path = FitPath(problem, self.GRID)
        with pytest.raises(ValueError, match="next grid point"):
            fit(problem, GreedyConfig(epsilon=1e-2, **change), path)

    def test_a_grid_path_refuses_an_epsilon_off_its_grid_or_fit_already(self):
        """Between two points, the point just fit, a point out of its turn,
        and every point once the grid is served."""
        problem = synthetic_problem()
        path = FitPath(problem, self.GRID)
        fit(problem, self.GRID[0], path)
        for config in (replace(self.GRID[0], epsilon=5e-3), self.GRID[0], self.GRID[3]):
            with pytest.raises(ValueError, match="next grid point"):
                fit(problem, config, path)
        for config in self.GRID[1:]:
            assert_same_report(fit(problem, config, path), fit(problem, config))
        for config in self.GRID:
            with pytest.raises(ValueError, match="next grid point"):
                fit(problem, config, path)

    def test_a_grid_differs_only_in_epsilon_and_w(self):
        with pytest.raises(ValueError, match="more than epsilon and w"):
            FitPath(synthetic_problem(), [GreedyConfig(epsilon=1e-2),
                                          GreedyConfig(epsilon=1e-3, nu=0.25)])

    def test_a_grid_is_not_empty_and_no_ws_epsilons_rise(self):
        """Repeated epsilons and interleaved w's are a grid."""
        problem = synthetic_problem()
        with pytest.raises(ValueError, match="empty"):
            FitPath(problem, [])
        with pytest.raises(ValueError, match="epsilons rise at w=2.0"):
            FitPath(problem, self.GRID[:3] + [replace(self.GRID[2], epsilon=2e-2)])
        grid = [self.GRID[2], self.GRID[0], self.GRID[0], self.GRID[3], self.GRID[1]]
        path = FitPath(problem, grid)
        for config in grid:
            assert_same_report(fit(problem, config, path), fit(problem, config))


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


def fit_grid(problem, eps_grid, w_grid, order):
    """Fit every (epsilon, w) of a grid on one ``FitPath`` whose grid
    interleaves the w's as ``order`` lists them, each w's epsilons
    descending; each report is checked against a fresh fit, also after the
    whole grid is fit, so the path must not write into a report it handed
    out."""
    eps_grid = sorted(eps_grid, reverse=True)
    done = dict.fromkeys(w_grid, 0)
    grid = []
    for w in order:
        grid.append(GreedyConfig(epsilon=eps_grid[done[w]], w=w))
        done[w] += 1
    assert all(count == len(eps_grid) for count in done.values())
    path = FitPath(problem, grid)
    pairs = []
    for config in grid:
        got = fit(problem, config, path)
        want = fit(problem, config)
        assert_same_report(got, want)
        pairs.append((got, want))
    for got, want in pairs:
        assert np.array_equal(got.coefficients, want.coefficients)


@st.composite
def grid_orders(draw, weights, cs):
    """(w grid, order): a w grid drawn from ``weights``, repeats and any
    order allowed, and an interleaving of its distinct w's, each once per
    epsilon of a ``cs``-point grid."""
    w_grid = draw(st.lists(st.sampled_from(weights), min_size=1, max_size=4))
    distinct = list(dict.fromkeys(w_grid))
    order = draw(st.permutations([w for w in distinct for _ in range(cs)]))
    return w_grid, order


@settings(max_examples=25, deadline=None, derandomize=True)
@given(degenerate_problems(), st.lists(st.floats(1e-6, 1.0), max_size=2),
       st.data())
def test_grid_paths_on_degenerate_problems_equal_fresh_fits(problem, grid, data):
    """One task (w = r = 1, integer w, and w above r, which one task allows)."""
    eps_grid = grid + [0.0]
    w_grid, order = data.draw(grid_orders([1.0, 1.5, 2.0, 3.0], len(eps_grid)))
    fit_grid(problem, eps_grid, w_grid, order)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(C_GRID[1:]), min_size=1, max_size=3, unique=True),
       st.data())
def test_grid_paths_on_a_shared_design_equal_fresh_fits(cs, data):
    """Ten tasks on one design: w = 1, w's that share their early moves,
    integer w and w = r."""
    problem = digits_shaped_problem()
    w_grid, order = data.draw(grid_orders([1.0, 1.25, 1.5, 2.0, 3.0, 10.0], len(cs)))
    fit_grid(problem, epsilons(problem, cs), w_grid, order)


def test_a_grid_path_appends_what_its_ws_fresh_fits_append(monkeypatch):
    """No w's moves are shared: the grid search takes exactly the basis
    steps of the per-w fresh fits at the smallest c together, and a one-w
    grid exactly those of its own fresh fit."""
    appends = []
    append = Basis.append

    def counted(basis, c):
        appends.append(c)
        return append(basis, c)

    monkeypatch.setattr(Basis, "append", counted)
    problem = digits_shaped_problem()
    eps = dict(zip(C_GRID, epsilons(problem)))
    w_grid = (1.0, 1.25, 1.5, 2.0)

    def appends_of(run):
        appends.clear()
        run()
        return len(appends)

    grid = appends_of(lambda: list(_path_fits(problem, eps, w_grid, 0.5)))
    apart = [appends_of(lambda: fit(problem, GreedyConfig(epsilon=0.0, w=w, nu=0.5)))
             for w in w_grid]
    assert grid == sum(apart)
    for w, fresh in zip(w_grid, apart):
        assert appends_of(lambda: list(_path_fits(problem, eps, (w,), 0.5))) == fresh


def test_a_served_grid_path_holds_no_state_of_its_ws():
    """Each w's fit is dropped when its last point is served, so a served
    grid leaves the path no w's state, report, step or ledger entry."""
    problem = digits_shaped_problem()
    w_grid = (1.0, 1.25, 1.5, 1.75)
    path = FitPath(problem, [GreedyConfig(epsilon=eps, w=w, nu=0.5)
                             for w in w_grid for eps in epsilons(problem)])
    assert list(path.fits) == list(w_grid)
    for k, config in enumerate(path.points, 1):
        fit(problem, config, path)
        assert list(path.fits) == list(dict.fromkeys(c.w for c in path.points[k:]))
    held = [v for value in vars(path).values()
            for v in (value.values() if isinstance(value, dict) else
                      value if isinstance(value, (list, tuple)) else (value,))]
    assert not any(isinstance(v, (_WFit, FitReport, StepRecord, list)) for v in held)


@pytest.mark.parametrize("rows_enabled", [True, False])
@pytest.mark.parametrize("w", [1.5, 2.0])
def test_a_fit_promotes_at_its_promotion_count(w, rows_enabled):
    """``check_step_records`` bounds a non-shared row by ``promotion_count``,
    the count at which a fit's ``SupportState`` promotes."""
    config = GreedyConfig(epsilon=0.0, w=w, rows_enabled=rows_enabled)
    assert promotion_count(config) == SupportState(config, 4, 3).promote_at


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


def counted_checks(monkeypatch):
    """Route ``experiments.check_step_records`` through a recorder: the
    returned list gets (report, config, initial_loss) of each check."""
    check, checked = experiments.check_step_records, []

    def counted(report, config, initial_loss):
        checked.append((report, config, initial_loss))
        check(report, config, initial_loss)

    monkeypatch.setattr(experiments, "check_step_records", counted)
    return checked


def test_per_task_paths_equal_fresh_per_task_fits(monkeypatch):
    """The per-task baseline's paths over a descending c grid and a w grid:
    at each c every w reads the same reports, and each task's report equals
    a fresh rows-off fit of that task at that w bit for bit.  Each report is
    checked once, when it is made, against the task's own loss at
    beta = 0."""
    checked = counted_checks(monkeypatch)
    problem = synthetic_problem()
    eps = dict(zip(C_GRID, epsilons(problem)))
    w_grid = (1.5, 1.0, 3.0, 1.5)
    points = list(_path_fits(problem, eps, w_grid, 0.5, single_task=True, check=True))
    assert [(c, ws) for c, ws, _ in points] == [
        (c, (1.5, 1.0, 3.0)) for c in sorted(C_GRID, reverse=True)]
    for c, ws, reports in points:
        assert len(reports) == problem.r
        for w in ws:
            config = GreedyConfig(epsilon=eps[c], w=w, nu=0.5, rows_enabled=False)
            for j, report in enumerate(reports):
                assert_same_report(report, fit(problem.single_task(j), config))
    made = [(report, eps[c], j) for c, _, reports in points
            for j, report in enumerate(reports)]
    assert len(checked) == len(made)
    for (report, config, zero_loss), (want, epsilon, j) in zip(checked, made):
        assert report is want
        assert config == GreedyConfig(epsilon=epsilon, w=1.5, nu=0.5, rows_enabled=False)
        assert zero_loss == loss(problem.single_task(j), np.zeros((problem.p, 1)))


@pytest.mark.parametrize("single_task", [False, True])
def test_sweep_grid_fits_each_task_once_per_c(monkeypatch, single_task):
    """A sweep fits one grid path per problem jointly, one fit per (c, w),
    but the baseline's per-task paths once for the whole w grid: one fit
    per task, c, trial and theta either way here (r = 2 tasks, 2 w)."""
    calls = []

    def counted(problem, config, path=None):
        calls.append(problem.r)
        return fit(problem, config, path)

    monkeypatch.setattr(experiments, "fit", counted)
    config = SweepConfig(epsilon_c=1.0, noise_variance=1e-2, single_task=single_task)
    sweep_grid(0.5, 64, (1.6, 0.8), 3, [1e-2, 1e-6, 1e-4], [1.75, 1.25], config, 5)
    assert len(calls) == 2 * 3 * 3 * 2          # tasks or w, c, trials, theta
    assert set(calls) == {1 if single_task else 2}


@pytest.mark.parametrize("single_task, traces", [(False, 1), (True, 2)])
def test_sweep_grid_checks_every_trace(monkeypatch, single_task, traces):
    """``check_step_records`` runs once on every report made, in every trial:
    one per point for the joint fit, and one per task and c for the
    baseline, whose reports both w of a c share."""
    checked = counted_checks(monkeypatch)
    config = SweepConfig(epsilon_c=1.0, noise_variance=1e-2, single_task=single_task)
    sweep_grid(0.5, 64, (1.6, 0.8), 3, [1e-2, 1e-6, 1e-4], [1.75, 1.25], config, 5)
    runs = 1 if single_task else 2                    # fits per c: for every w, or per w
    assert len(checked) == traces * runs * 3 * 3 * 2  # paths, fits, c, trials, theta
    assert len({id(report) for report, _, _ in checked}) == len(checked)
    assert {report.coefficients.shape[1] for report, _, _ in checked} == {2 // traces}


def test_cross_validate_checks_every_trace(monkeypatch):
    """The grid search checks each fit's trace once, at its own (epsilon, w),
    against the training problem's loss at beta = 0."""
    checked = counted_checks(monkeypatch)
    train, holdout = split_for_validation(digits_shaped_problem(seed=11))
    c_grid, w_grid = [1e-2, 1e3, 1e-4, 1e-2], [1.75, 1.25, 1.75]
    cross_validate(train, holdout, c_grid, w_grid, 0.5, 8)
    eps = dict(zip(c_grid, epsilons(train, c_grid)))
    assert sorted((config.epsilon, config.w) for _, config, _ in checked) == sorted(
        (eps[c], w) for c in set(c_grid) for w in set(w_grid))
    zero = loss(train, np.zeros((train.p, train.r)))
    assert all(zero_loss == pytest.approx(zero, rel=1e-12) for _, _, zero_loss in checked)


def test_cross_validate_fits_each_point_once(monkeypatch):
    """The digit grid search calls ``fit`` once per distinct (c, w), with
    that point's config: 30 fits on the 6 x 5 grid."""
    calls = []

    def counted(problem, config, path=None):
        calls.append((problem, config))
        return fit(problem, config, path)

    monkeypatch.setattr(experiments, "fit", counted)
    train, holdout = split_for_validation(digits_shaped_problem(seed=11))
    cross_validate(train, holdout, C_GRID_DIGITS, W_GRID_DIGITS, 0.5, 8)
    n_avg = sum(t.n for t in train.tasks) / train.r
    want = {GreedyConfig(epsilon=stopping_threshold(c, 8, train.p, n_avg), w=w, nu=0.5)
            for c in C_GRID_DIGITS for w in W_GRID_DIGITS}
    assert len(calls) == len(want) == 30
    assert {config for _, config in calls} == want
    assert all(problem is train for problem, _ in calls)


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
