"""The incremental engine path against the reference solves it replaces.

``refit(problem, pattern, factors)`` moves one LeastSquaresFactor per task
with the support; ``refit(problem, pattern)`` solves every task from
scratch.  Random move sequences, including dependent columns, tasks with
fewer samples than supported columns and tasks that share one design, must
keep the two in agreement, in the fit's (p, r) coefficient grid that the
factors write in place.  Each factor's X^T r column must equal the product
at its residual after a refactor, and agree with it to round-off after the
appends that update it; a row step on one design takes one product with the
design for all its tasks, and a task that does not move takes none.  Tasks
on one design share their bases and each orthogonalization, and never each
other's arrays.  The
vectorized removal costs are checked against the loss-difference oracle,
and the masked selectors against the per-object loops they replaced.  After
every move the ``SupportState``'s masks, per-feature singleton sets and
per-task column sets must say what its pattern says.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtgreedy import (
    GreedyConfig,
    MultiTaskProblem,
    SupportPattern,
    SweepConfig,
    SynthSpec,
    Task,
    cost_oracle,
    fit,
    gen_synthetic,
    loss,
    refit,
    residuals,
)
from mtgreedy import engine
from mtgreedy.engine import (
    Candidate, FitPath, _best_forward, _worst_backward, gain_matrix, removal_costs)
from mtgreedy.linalg import Basis, LeastSquaresFactor

from conftest import (
    correlations_at, gains_at, random_pattern, random_state, scales_of, state_of)

P, R = 8, 3


class Design(np.ndarray):
    """A design that appends to ``products`` each product taken with its
    whole transpose; the arrays derived from it share the list."""

    def __array_finalize__(self, obj):
        self.whole = getattr(obj, "whole", None)
        self.products = getattr(obj, "products", None)

    def __matmul__(self, other):
        whole = self.whole
        if (self.shape == whole.shape[::-1] and self.strides == whole.strides[::-1]
                and np.may_share_memory(self, whole)):
            self.products.append(other.shape)
        return np.asarray(self) @ other


def counted(X):
    """X as a ``Design`` that has taken no products yet."""
    X = np.asarray(X, dtype=float).view(Design)
    X.whole, X.products = X, []
    return X


def counted_problem(designs, responses):
    """A problem on ``counted`` designs; one design object stays one."""
    made = {id(X): counted(X) for X in designs}
    tasks = tuple(Task(made[id(X)], np.asarray(y, dtype=float))
                  for X, y in zip(designs, responses))
    return MultiTaskProblem(p=tasks[0].X.shape[1], r=len(tasks), tasks=tasks)


def degenerate_problem():
    """Three tasks over 8 features: task 0 has a zero column 0, task 1 has
    column 2 duplicating column 1, and task 2 has only 4 samples with
    column 5 = column 3 + column 4."""
    rng = np.random.default_rng(77)
    designs = [rng.standard_normal((n, P)) for n in (12, 10, 4)]
    designs[0][:, 0] = 0.0
    designs[1][:, 2] = designs[1][:, 1]
    designs[2][:, 5] = designs[2][:, 3] + designs[2][:, 4]
    responses = [rng.standard_normal(X.shape[0]) for X in designs]
    return counted_problem(designs, responses)


def shared_problem():
    """Tasks 0 and 1 hold one 10 x 8 design object whose column 2 duplicates
    column 1; task 2 has its own design with only 4 samples."""
    rng = np.random.default_rng(78)
    X = rng.standard_normal((10, P))
    X[:, 2] = X[:, 1]
    designs = [X, X, rng.standard_normal((4, P))]
    responses = [rng.standard_normal(A.shape[0]) for A in designs]
    return counted_problem(designs, responses)


PROBLEM = degenerate_problem()
SHARED = shared_problem()
CONFIG = GreedyConfig(epsilon=0.0, w=1.5)

move = st.one_of(
    st.tuples(st.just("singleton"), st.integers(0, P - 1), st.integers(0, R - 1)),
    st.tuples(st.just("row"), st.integers(0, P - 1)),
    st.tuples(st.just("remove"), st.integers(0, 10 ** 6)),
)


def apply(state, m):
    """Apply one generated move; additions of held objects are skipped."""
    if m[0] == "remove":
        held = sorted(("singleton", c) for c in state.singles) + sorted(
            ("row", (i,)) for i in state.rows)
        if held:
            state.remove(*held[m[1] % len(held)])
    elif m[0] == "row" and m[1] not in state.rows:
        state.add("row", (m[1],))
    elif m[0] == "singleton" and m[1] not in state.rows and m[1:] not in state.singles:
        state.add("singleton", m[1:])


def assert_correlation(f, direct):
    """The factor's X^T r equals the product when it was computed afresh
    (``direct``), and agrees with it to 1e-13 ||x_i|| ||y|| when an append
    updated it."""
    want = f.basis.X.T @ f.residual
    if direct:
        assert np.array_equal(f.correlation, want)
    else:
        bound = 1e-13 * np.linalg.norm(f.basis.X, axis=0) * np.linalg.norm(f.y)
        assert np.all(np.abs(f.correlation - want) <= bound)


def move_factors(problem, pattern, factors, direct):
    """Move the factors to ``pattern`` through ``refit``; return the number
    of products each design object took, by ``id``.  ``direct[j]`` notes
    whether task j's X^T r was last computed afresh: a move that drops a
    column or leaves an inexact basis computes it, one that only appends
    updates it, and a task that does not move keeps it."""
    designs = {id(t.X): t.X for t in problem.tasks}
    for X in designs.values():
        X.products.clear()
    held = [f.basis.col_set for f in factors]
    refit(problem, pattern, factors)
    for j, f in enumerate(factors):
        if f.basis.col_set != held[j]:
            direct[j] = not held[j] <= f.basis.col_set or f.basis.rinv is None
    return {k: len(X.products) for k, X in designs.items()}


def assert_matches_reference(problem, pattern, factors, beta, direct):
    """The factors and the fit's coefficient grid ``beta`` they write match
    the reference ``refit`` on ``pattern``."""
    want = refit(problem, pattern)
    assert np.allclose(beta, want, rtol=0.0, atol=1e-9)
    for j, (f, res) in enumerate(zip(factors, residuals(problem, want))):
        assert np.allclose(f.residual, res, rtol=0.0, atol=1e-9)
        cols = sorted(pattern.task_support(j))
        X = problem.tasks[j].X[:, cols]
        assert (f.basis.rinv is not None) == (not cols or np.linalg.matrix_rank(X) == len(cols))
        assert f.basis.col_set == set(cols) == set(f.basis.cols)
        assert_correlation(f, direct[j])
    assert sum(f.loss for f in factors) == pytest.approx(loss(problem, want), rel=1e-9, abs=1e-15)


def task_arrays(f):
    """Copies of the arrays one task's factor holds, its basis's R^-1 and its
    coefficient and X^T r columns included."""
    held = (f.basis.rinv, f._z, f.beta, f.residual, f.correlation)
    return [None if a is None else a.copy() for a in held]


def assert_arrays_equal(got, want):
    for a, b in zip(got, want):
        assert (a is None and b is None) or np.array_equal(a, b)


def assert_sharing(factors, before):
    """Tasks on one design that held one basis and now hold equal columns
    hold one basis; no move changed an earlier basis or another task's
    arrays, and no two factors hold the same array or views that share
    memory."""
    groups = {}
    for f, (basis, _, _) in zip(factors, before):
        groups.setdefault((id(f.basis.X), id(basis), tuple(f.basis.cols)), set()).add(id(f.basis))
    assert all(len(held) == 1 for held in groups.values())
    for f, (basis, cols, arrays) in zip(factors, before):
        assert_arrays_equal([basis.rinv], arrays[:1])
        if f.basis.cols == cols:
            assert f.basis is basis
            assert_arrays_equal(task_arrays(f), arrays)
    for a, f in enumerate(factors):
        for g in factors[a + 1:]:
            assert f.residual is not g.residual
            assert not np.shares_memory(f.beta, g.beta)
            assert not np.shares_memory(f.correlation, g.correlation)
            assert f._z is not g._z or not f._z.size


def assert_bookkeeping(state, p, r):
    """The state's masks and per-task sets match its pattern."""
    pattern = state.pattern()
    singles = np.zeros((p, r), dtype=bool)
    for (i, j) in pattern.singletons:
        singles[i, j] = True
    assert np.array_equal(state.singles.mask, singles)
    assert np.array_equal(state.rows.mask, np.isin(np.arange(p), list(pattern.rows)))
    for j in range(r):
        assert state.task_support(j) == pattern.task_support(j)


def start(problem, config):
    """The one w's fit of a fresh one-point ``FitPath``: its support state,
    its B and C grids and the factors that own their columns."""
    return FitPath(problem, [config]).fits[config.w]


def run_moves(problem, moves):
    """Apply ``moves`` through a ``SupportState`` and check everything after
    each: the state, the factors against the reference, the sharing, and
    that a design none of whose tasks moved took no product."""
    run = start(problem, CONFIG)
    factors, beta, state = run.factors, run.beta, run.state
    direct = [True] * problem.r
    for m in moves:
        before = [(f.basis, list(f.basis.cols), task_arrays(f)) for f in factors]
        apply(state, m)
        assert_bookkeeping(state, problem.p, problem.r)
        products = move_factors(problem, state, factors, direct)
        assert_matches_reference(problem, state.pattern(), factors, beta, direct)
        assert_sharing(factors, before)
        moved = {id(t.X) for t, f, (_, cols, _) in zip(problem.tasks, factors, before)
                 if f.basis.cols != cols}
        assert all(k in moved or not count for k, count in products.items())
    return state


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(move, min_size=1, max_size=30))
def test_factors_track_reference_refit_over_move_sequences(moves):
    run_moves(PROBLEM, moves)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(move, min_size=1, max_size=30))
def test_factors_on_a_shared_design_track_reference_refit(moves):
    run_moves(SHARED, moves)


@pytest.mark.parametrize("problem", [PROBLEM, SHARED], ids=["own", "shared"])
def test_bookkeeping_through_promotion_row_drop_and_removals(problem):
    """A row add that drops a singleton, a promotion at w = 1.5, then a
    singleton and both rows removed, with the state checked after each."""
    moves = [("singleton", 1, 0), ("row", 1), ("singleton", 2, 0), ("singleton", 2, 1),
             ("singleton", 4, 2)]
    state = run_moves(problem, moves)
    assert state.singles == {(4, 2)} and state.rows == {1, 2}
    state = run_moves(problem, moves + [("remove", 0)] * 3)
    assert state.pattern() == SupportPattern()


def test_shared_design_shares_its_steps():
    """A row reaches both tasks on the shared design through one basis; a
    singleton of task 0 parts them, and removing it joins their columns
    again but not their bases: task 0's QR refactor gives another R^-1 than
    task 1's Gram-Schmidt steps, so sharing them would change a fit."""
    run = start(SHARED, CONFIG)
    factors, beta = run.factors, run.beta
    direct = [True] * SHARED.r
    assert factors[0].basis is factors[1].basis is not factors[2].basis
    rows = SupportPattern(rows=frozenset({3, 5}))
    move_factors(SHARED, rows, factors, direct)
    assert factors[0].basis is factors[1].basis and factors[0].basis.cols == [3, 5]
    move_factors(SHARED, SupportPattern(singletons=frozenset({(6, 0)}), rows=rows.rows),
                 factors, direct)
    assert factors[0].basis.cols == [3, 5, 6] and factors[1].basis.cols == [3, 5]
    move_factors(SHARED, rows, factors, direct)
    assert factors[0].basis.cols == factors[1].basis.cols == [3, 5]
    assert not np.array_equal(factors[0].basis.rinv, factors[1].basis.rinv)
    assert direct == [True, False, False]
    assert_matches_reference(SHARED, rows, factors, beta, direct)


def test_fallback_and_recovery():
    """Task 1 turns inexact when the duplicate column joins and exact again
    once it leaves; re-appending a removed column restores the same fit."""
    run = start(PROBLEM, CONFIG)
    factors, beta = run.factors, run.beta
    direct = [True] * PROBLEM.r
    f = factors[1]
    walk = [({1, 6}, True), ({1, 2, 6}, False), ({1, 2, 6, 7}, False),
            ({1, 6, 7}, True), ({1, 7}, True), ({1, 6, 7}, True), (set(), True)]
    for support, exact in walk:
        pattern = SupportPattern(singletons=frozenset((i, 1) for i in support))
        move_factors(PROBLEM, pattern, factors, direct)
        assert_matches_reference(PROBLEM, pattern, factors, beta, direct)
        assert (f.basis.rinv is not None) is exact and f.basis.col_set == support


def test_a_removal_that_leaves_more_columns_than_samples_takes_the_min_norm_solve():
    """Six singletons on a 4 x 8 task, then one removed: the refactor of the
    five left declines, since they outnumber the samples, and the factor
    takes the minimum-norm solve of the reference ``refit``."""
    rng = np.random.default_rng(9)
    problem = MultiTaskProblem.from_arrays([rng.standard_normal((4, 8))],
                                           [rng.standard_normal(4)])
    run = start(problem, GreedyConfig(epsilon=0.0, rows_enabled=False))
    factors, beta, state = run.factors, run.beta, run.state
    f = factors[0]
    for i in range(6):
        state.add("singleton", (i, 0))
        refit(problem, state, factors)
    state.remove("singleton", (2, 0))
    assert f.basis.refactor([0, 1, 3, 4, 5]) is None
    refit(problem, state, factors)
    assert f.basis.rinv is None and f.basis.cols == [0, 1, 3, 4, 5]
    assert np.array_equal(beta, refit(problem, state))


def test_nearly_collinear_columns_keep_the_residual_orthogonal():
    """Columns 1e-4 apart: the reorthogonalization pass keeps X_S^T r at
    round-off (one Gram-Schmidt pass alone leaves about 4e-13 here)."""
    rng = np.random.default_rng(5)
    X = rng.standard_normal((60, 1)) + 1e-4 * rng.standard_normal((60, 8))
    y = rng.standard_normal(60)
    f = LeastSquaresFactor(Basis(X), y, np.zeros(8), np.empty(8))
    f.move_to(set(range(8)), {})
    assert f.basis.rinv is not None
    scale = np.linalg.norm(X, axis=0).max() * np.linalg.norm(y)
    assert np.abs(X[:, f.basis.cols].T @ f.residual).max() <= 1e-14 * scale


def test_unchanged_task_does_no_work():
    """Tasks 0 and 1 do not move: they keep their residual object and
    bit-equal coefficient and X^T r columns, and their designs take no
    product; task 2's columns change."""
    factors = start(PROBLEM, CONFIG).factors
    direct = [True] * PROBLEM.r
    pattern = SupportPattern(singletons=frozenset({(3, 0), (4, 1)}))
    move_factors(PROBLEM, pattern, factors, direct)
    held = [(f.residual, f.beta.copy(), f.correlation.copy()) for f in factors]
    products = move_factors(
        PROBLEM, SupportPattern(singletons=frozenset({(3, 0), (4, 1), (6, 2)})),
        factors, direct)
    for (res, coef, corr), f in list(zip(held, factors))[:2]:
        assert f.residual is res
        assert np.array_equal(f.beta, coef) and np.array_equal(f.correlation, corr)
        assert products[id(f.basis.X)] == 0
    assert not np.array_equal(factors[2].beta, held[2][1])
    assert not np.array_equal(factors[2].correlation, held[2][2])


def test_fit_takes_one_correlation_per_residual_change(monkeypatch):
    """Each task's X^T r is computed once for its initial residual and at
    most once per later residual change, not once per selector and step."""
    made = []

    class CountingFactor(LeastSquaresFactor):
        def __init__(self, empty, y, beta, correlation):
            self.changes = 0
            super().__init__(empty, y, beta, correlation)
            made.append(self)

        def _set_residual(self, residual, shift=None):
            self.changes += 1
            super()._set_residual(residual, shift)

    spec = SynthSpec(p=128, n=40, r=2, kappa=0.5, noise_variance=1e-4, seed=1)
    plain, _ = gen_synthetic(spec)
    problem = counted_problem([t.X for t in plain.tasks], [t.y for t in plain.tasks])
    config = SweepConfig(epsilon_c=1e-5).greedy_config(spec.support_size, spec.p, spec.n)
    want = fit(plain, config)
    monkeypatch.setattr(engine, "LeastSquaresFactor", CountingFactor)
    report = fit(problem, config)
    assert report.steps == want.steps
    kinds = {(s.kind, s.object_kind) for s in report.steps}
    assert {("backward", "singleton"), ("forward", "row")} <= kinds
    assert len(made) == problem.r
    for f in made:
        assert 1 <= len(f.basis.X.products) <= f.changes
    forward = sum(1 for s in report.steps if s.kind == "forward")
    assert sum(len(t.X.products) for t in problem.tasks) < problem.r * forward


def test_rows_on_one_design_orthogonalize_each_column_once(monkeypatch):
    """A rows-only fit of r tasks on one design object runs one Gram-Schmidt
    step per added column, not r; the same fit on r equal copies of the
    design runs r, since designs are matched by identity."""
    rng = np.random.default_rng(11)
    X = rng.standard_normal((30, 40))
    beta = np.zeros((40, 6))
    beta[[3, 17, 29], :] = rng.standard_normal((3, 6))
    responses = [X @ beta[:, j] + 0.01 * rng.standard_normal(30) for j in range(6)]
    config = GreedyConfig(epsilon=1e-3, w=1.0)
    appends = []
    append = Basis.append

    def counting(basis, c):
        appends.append(c)
        return append(basis, c)

    monkeypatch.setattr(Basis, "append", counting)
    shared = MultiTaskProblem.from_arrays([X] * 6, responses)
    report = fit(shared, config)
    added = [s.index[0] for s in report.steps]
    assert len(added) >= 3 and all(
        s.kind == "forward" and s.object_kind == "row" for s in report.steps)
    assert appends == added
    appends.clear()
    copies = MultiTaskProblem.from_arrays([X.copy() for _ in range(6)], responses)
    again = fit(copies, config)
    assert again.steps == report.steps
    assert np.array_equal(again.coefficients, report.coefficients)
    assert sorted(appends) == sorted(added * 6)


def test_a_row_step_on_one_design_takes_one_product_with_it():
    """m tasks on one design start with one X^T y each; a row step they all
    take then costs one product X^T q with the design, not m, and a removal,
    which refactors every task, one X^T r per task again."""
    n, p, m = 20, 30, 5
    rng = np.random.default_rng(12)
    problem = counted_problem([rng.standard_normal((n, p))] * m,
                              [rng.standard_normal(n) for _ in range(m)])
    X = problem.tasks[0].X
    assert all(t.X is X for t in problem.tasks)
    run = start(problem, GreedyConfig(epsilon=0.0, w=2.0))
    factors, state = run.factors, run.state
    assert len(X.products) == m and run.correlations.shape == (p, m)
    direct = [True] * m

    def products_to_reach(state):
        """Products taken to move every factor to ``state``, its X^T r included."""
        return move_factors(problem, state, factors, direct)[id(X)]

    assert products_to_reach(state) == 0
    for i in (3, 17, 8):
        state.add("row", (i,))
        assert products_to_reach(state) == 1
        for f in factors:
            assert_correlation(f, direct=False)
    state.remove("row", (17,))
    assert products_to_reach(state) == m


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_updated_correlations_stay_at_round_off_through_a_long_fit(monkeypatch, scale):
    """A 342-step append-only fit of three tasks on one design, rows and
    singletons: after every move each task's updated X^T r is within
    1e-13 ||x_i|| ||y|| of the product, at every data scale."""
    rng = np.random.default_rng(21)
    n, p, r = 300, 120, 3
    X = rng.standard_normal((n, p))
    B = rng.standard_normal((p, r)) * (rng.random((p, 1)) < 0.5)
    Y = X @ B + 0.1 * rng.standard_normal((n, r))
    problem = MultiTaskProblem.from_arrays([scale * X] * r, list(scale * Y.T))
    assert problem.tasks[0].X is problem.tasks[r - 1].X
    checked = []
    reference = engine.refit

    def checked_refit(problem, state, factors=None):
        reference(problem, state, factors)
        for f in factors:
            assert_correlation(f, direct=False)
        checked.append(len(factors))

    monkeypatch.setattr(engine, "refit", checked_refit)
    report = fit(problem, GreedyConfig(epsilon=0.0, w=2.0))
    assert checked == [r] * len(report.steps) and len(report.steps) == 342
    assert {(s.kind, s.object_kind) for s in report.steps} == {
        ("forward", "row"), ("forward", "singleton")}


def scalar_worst_backward(problem, beta, singles, rows, w):
    """The per-object loop the vectorized selector replaced, on oracle costs."""
    best = None
    for (i, j) in sorted(singles):
        c = cost_oracle(problem, beta, ("singleton", i, j))
        if best is None or c < best[2]:
            best = ("singleton", (i, j), c)
    best_r = None
    for m in sorted(rows):
        c = cost_oracle(problem, beta, ("row", m), w)
        if best_r is None or c < best_r[2]:
            best_r = ("row", (m,), c)
    if best_r is not None and (best is None or best_r[2] <= best[2]):
        return best_r
    return best


def loop_gains(problem, correlations, colsq):
    """The per-task gain loop the stacked ``gain_matrix`` replaced."""
    gains = np.zeros((problem.p, problem.r))
    for j, t in enumerate(problem.tasks):
        c = correlations[:, j]
        with np.errstate(divide="ignore", invalid="ignore"):
            gains[:, j] = np.where(colsq[j] > 0.0, c * c / (2.0 * t.n * colsq[j]), 0.0)
    return gains


def loop_costs(problem, beta, correlations, colsq):
    """The per-task cost loop the stacked ``removal_costs`` replaced."""
    costs = np.zeros((problem.p, problem.r))
    for j, t in enumerate(problem.tasks):
        b = beta[:, j]
        if b.any():
            costs[:, j] = (b * b * colsq[j] + 2.0 * b * correlations[:, j]) / (2.0 * t.n)
    return costs


def set_best_forward(singles, rows, config, gains):
    """The set-loop forward selector the masked one replaced."""
    masked = gains.copy()
    for (i, j) in singles:
        masked[i, j] = -1.0
    row_list = sorted(rows)
    if row_list:
        masked[row_list, :] = -1.0
    i, j = divmod(int(np.argmax(masked)), gains.shape[1])
    best_single = masked[i, j]
    best_row = -1.0
    best_m = -1
    if config.rows_enabled:
        row_sums = gains.sum(axis=1)
        if row_list:
            row_sums[row_list] = -1.0
        best_m = int(np.argmax(row_sums))
        if row_sums[best_m] >= 0.0:
            best_row = row_sums[best_m] / config.w
    if best_single < 0.0 and best_row < 0.0:
        return None
    if best_row >= best_single:
        return Candidate("row", (best_m,), float(best_row))
    return Candidate("singleton", (i, j), float(best_single))


def set_worst_backward(problem, beta, singles, rows, config, correlations, colsq):
    """The set-loop backward selector the masked one replaced."""
    costs = loop_costs(problem, beta, correlations, colsq)
    best_s = None
    if singles:
        cells = sorted(singles)
        ii, jj = zip(*cells)
        c = costs[list(ii), list(jj)]
        k = int(np.argmin(c))
        best_s = Candidate("singleton", cells[k], float(c[k]))
    best_r = None
    if rows:
        ms = sorted(rows)
        c = costs[ms, :].sum(axis=1) / config.w
        k = int(np.argmin(c))
        best_r = Candidate("row", (ms[k],), float(c[k]))
    if best_r is not None and (best_s is None or best_r.value <= best_s.value):
        return best_r
    return best_s


def assert_same_candidate(got, want):
    """Same kind and index, a bit-equal value, and plain Python numbers."""
    if want is None:
        assert got is None
        return
    assert (got.kind, got.index) == (want.kind, want.index)
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    assert type(got.value) is float and all(type(k) is int for k in got.index)


class TestMaskedSelectors:
    CONFIGS = (GreedyConfig(epsilon=0.0, w=1.5), GreedyConfig(epsilon=0.0, w=3.0),
               GreedyConfig(epsilon=0.0, rows_enabled=False))

    def test_match_the_set_loops_on_degenerate_designs(self):
        """Zero, duplicate and combined columns: the stacked closed forms equal
        the per-task loops bit for bit, and both selectors pick what the set
        loops pick at each config."""
        rng = np.random.default_rng(8)
        scales = scales_of(PROBLEM)
        colsq = list(scales.colsq.T)
        for _ in range(40):
            pattern = random_pattern(rng, P, R, n_singles=int(rng.integers(0, 9)),
                                     n_rows=int(rng.integers(0, 3)))
            beta = refit(PROBLEM, pattern)
            corr = correlations_at(PROBLEM, beta)
            gains = gain_matrix(PROBLEM, corr, scales)
            assert np.array_equal(gains, loop_gains(PROBLEM, corr, colsq))
            assert np.array_equal(removal_costs(beta, corr, scales),
                                  loop_costs(PROBLEM, beta, corr, colsq))
            state = state_of(pattern, P, R)
            singles, rows = set(pattern.singletons), set(pattern.rows)
            for config in self.CONFIGS:
                assert_same_candidate(
                    _best_forward(state.singles, state.rows, config, gains),
                    set_best_forward(singles, rows, config, gains))
                if singles or rows:
                    assert_same_candidate(
                        _worst_backward(PROBLEM, beta, state.singles, state.rows, config,
                                        corr, scales),
                        set_worst_backward(PROBLEM, beta, singles, rows, config, corr, colsq))

    def test_forward_ties_and_saturation(self):
        """Columns 0 and 1 duplicate each other in both tasks and every gain
        below is exact: the first cell in (i, j) order wins, a row wins at
        equal value, and a saturated support gives None."""
        X = np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 0.0]])
        problem = MultiTaskProblem.from_arrays([X, X], [np.ones(2), np.ones(2)])
        gains = gains_at(problem, np.zeros((3, 2)))
        assert np.array_equal(gains, [[0.5, 0.5], [0.5, 0.5], [0.25, 0.25]])

        def pick(pattern, config):
            state = state_of(pattern, 3, 2)
            got = _best_forward(state.singles, state.rows, config, gains)
            assert_same_candidate(got, set_best_forward(
                set(pattern.singletons), set(pattern.rows), config, gains))
            return got

        no_rows = GreedyConfig(epsilon=0.0, rows_enabled=False)
        assert pick(SupportPattern(), no_rows) == Candidate("singleton", (0, 0), 0.5)
        held = SupportPattern(singletons=frozenset({(0, 0)}))
        assert pick(held, no_rows) == Candidate("singleton", (0, 1), 0.5)
        w2 = GreedyConfig(epsilon=0.0, w=2.0)
        assert pick(SupportPattern(), w2) == Candidate("row", (0,), 0.5)
        assert pick(SupportPattern(rows=frozenset({0})), w2) == Candidate("row", (1,), 0.5)
        assert pick(SupportPattern(rows=frozenset({0, 1, 2})), w2) is None
        every_cell = frozenset((i, j) for i in range(3) for j in range(2))
        assert pick(SupportPattern(singletons=every_cell), no_rows) is None


class TestRemovalCosts:
    def test_match_single_object_formulas(self, rng):
        for _ in range(30):
            problem, pattern, beta = random_state(rng, p=7, r=3)
            corr = correlations_at(problem, beta)
            scales = scales_of(problem)
            costs = removal_costs(beta, corr, scales)
            for j in range(problem.r):
                for i in pattern.task_support(j):
                    assert costs[i, j] == pytest.approx(
                        cost_oracle(problem, beta, ("singleton", i, j)), rel=1e-10, abs=1e-14)
            for m in pattern.rows:
                assert costs[m].sum() / 1.5 == pytest.approx(
                    cost_oracle(problem, beta, ("row", m), 1.5), rel=1e-10, abs=1e-14)
            if pattern.singletons or pattern.rows:
                state = state_of(pattern, problem.p, problem.r)
                got = _worst_backward(problem, beta, state.singles, state.rows,
                                      GreedyConfig(epsilon=0.0, w=1.5), corr, scales)
                want = scalar_worst_backward(problem, beta, pattern.singletons, pattern.rows, 1.5)
                assert (got.kind, got.index) == want[:2]
                assert got.value == pytest.approx(want[2], rel=1e-10, abs=1e-14)

    def test_tie_order(self):
        """Equal costs: the first singleton in sorted order, and a row over a singleton."""
        X = np.eye(2)
        problem = MultiTaskProblem.from_arrays([X, X], [np.ones(2), np.ones(2)])
        beta = np.ones((2, 2))
        corr = correlations_at(problem, beta)
        scales = scales_of(problem)
        state = state_of(SupportPattern(singletons=frozenset({(1, 1), (1, 0)})), 2, 2)
        pick = _worst_backward(problem, beta, state.singles, state.rows,
                               GreedyConfig(epsilon=0.0, w=2.0), corr, scales)
        assert (pick.kind, pick.index, pick.value) == ("singleton", (1, 0), 0.25)
        state.add("row", (0,))
        pick = _worst_backward(problem, beta, state.singles, state.rows,
                               GreedyConfig(epsilon=0.0, w=2.0), corr, scales)
        assert (pick.kind, pick.index, pick.value) == ("row", (0,), 0.25)


def test_fit_memory_stays_a_small_share_of_the_designs():
    """Q is applied as X_S R^-1, never stored: one fit's traced peak stays
    well below the n x |S| basis per task that a stored Q would add."""
    spec = SynthSpec(p=1000, n=400, r=4, kappa=0.5, noise_variance=1e-4, seed=3)
    problem, _ = gen_synthetic(spec)
    config = SweepConfig(epsilon_c=1e-5).greedy_config(spec.support_size, spec.p, spec.n)
    design_bytes = sum(t.X.nbytes for t in problem.tasks)
    tracemalloc.start()
    try:
        report = fit(problem, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.steps) > 100
    assert peak <= 0.12 * design_bytes
