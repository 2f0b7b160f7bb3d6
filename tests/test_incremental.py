"""The incremental engine path against the reference solves it replaces.

``refit(problem, pattern, factors)`` moves one LeastSquaresFactor per task
with the support; ``refit(problem, pattern)`` solves every task from
scratch.  Random move sequences, including dependent columns and tasks with
fewer samples than supported columns, must keep the two in agreement.  The
vectorized removal costs are checked against the single-object formulas.
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
    fit,
    gen_synthetic,
    loss,
    refit,
    residuals,
    row_cost,
    singleton_cost,
)
from mtgreedy.engine import SupportState, _worst_backward, removal_costs
from mtgreedy.linalg import LeastSquaresFactor

from conftest import random_state

P, R = 8, 3


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
    return MultiTaskProblem.from_arrays(designs, responses)


PROBLEM = degenerate_problem()
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


def assert_matches_reference(problem, pattern, factors):
    beta = refit(problem, pattern, factors)
    want = refit(problem, pattern)
    assert np.allclose(beta, want, rtol=0.0, atol=1e-9)
    for j, (f, res) in enumerate(zip(factors, residuals(problem, want))):
        assert np.allclose(f.residual, res, rtol=0.0, atol=1e-9)
        cols = sorted(pattern.task_support(j))
        X = problem.tasks[j].X[:, cols]
        assert f.exact == (not cols or np.linalg.matrix_rank(X) == len(cols))
    assert sum(f.loss for f in factors) == pytest.approx(loss(problem, want), rel=1e-9, abs=1e-15)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(move, min_size=1, max_size=30))
def test_factors_track_reference_refit_over_move_sequences(moves):
    factors = [LeastSquaresFactor(t.X, t.y) for t in PROBLEM.tasks]
    state = SupportState(CONFIG)
    for m in moves:
        apply(state, m)
        assert_matches_reference(PROBLEM, state.pattern(), factors)


def test_fallback_and_recovery():
    """Task 1 turns inexact when the duplicate column joins and exact again
    once it leaves; re-appending a removed column restores the same fit."""
    factors = [LeastSquaresFactor(t.X, t.y) for t in PROBLEM.tasks]
    f = factors[1]
    walk = [({1, 6}, True), ({1, 2, 6}, False), ({1, 2, 6, 7}, False),
            ({1, 6, 7}, True), ({1, 7}, True), ({1, 6, 7}, True), (set(), True)]
    for support, exact in walk:
        pattern = SupportPattern(singletons=frozenset((i, 1) for i in support))
        assert_matches_reference(PROBLEM, pattern, factors)
        assert f.exact is exact and set(f.cols) == support


def test_nearly_collinear_columns_keep_the_residual_orthogonal():
    """Columns 1e-4 apart: the reorthogonalization pass keeps X_S^T r at
    round-off (one Gram-Schmidt pass alone leaves about 4e-13 here)."""
    rng = np.random.default_rng(5)
    X = rng.standard_normal((60, 1)) + 1e-4 * rng.standard_normal((60, 8))
    y = rng.standard_normal(60)
    f = LeastSquaresFactor(X, y)
    f.move_to(set(range(8)))
    assert f.exact
    scale = np.linalg.norm(X, axis=0).max() * np.linalg.norm(y)
    assert np.abs(X[:, f.cols].T @ f.residual).max() <= 1e-14 * scale


def test_unchanged_task_does_no_work():
    factors = [LeastSquaresFactor(t.X, t.y) for t in PROBLEM.tasks]
    pattern = SupportPattern(singletons=frozenset({(3, 0), (4, 1)}))
    refit(PROBLEM, pattern, factors)
    held = [(f.residual, f.coef) for f in factors]
    refit(PROBLEM, SupportPattern(singletons=frozenset({(3, 0), (4, 1), (6, 2)})), factors)
    for (res, coef), f in list(zip(held, factors))[:2]:
        assert f.residual is res and f.coef is coef


def scalar_worst_backward(problem, beta, singles, rows, w, res):
    """The per-object loop the vectorized selector replaced."""
    best = None
    for (i, j) in sorted(singles):
        c = singleton_cost(problem, beta, i, j, res)
        if best is None or c < best[2]:
            best = ("singleton", (i, j), c)
    best_r = None
    for m in sorted(rows):
        c = row_cost(problem, beta, m, w, res)
        if best_r is None or c < best_r[2]:
            best_r = ("row", (m,), c)
    if best_r is not None and (best is None or best_r[2] <= best[2]):
        return best_r
    return best


class TestRemovalCosts:
    def test_match_single_object_formulas(self, rng):
        for _ in range(30):
            problem, pattern, beta = random_state(rng, p=7, r=3)
            res = residuals(problem, beta)
            colsq = [np.einsum("ij,ij->j", t.X, t.X) for t in problem.tasks]
            costs = removal_costs(problem, beta, res, colsq)
            for j in range(problem.r):
                for i in pattern.task_support(j):
                    assert costs[i, j] == pytest.approx(
                        singleton_cost(problem, beta, i, j, res), rel=1e-10, abs=1e-14)
            for m in pattern.rows:
                assert costs[m].sum() / 1.5 == pytest.approx(
                    row_cost(problem, beta, m, 1.5, res), rel=1e-10, abs=1e-14)
            if pattern.singletons or pattern.rows:
                got = _worst_backward(problem, beta, set(pattern.singletons), set(pattern.rows),
                                      GreedyConfig(epsilon=0.0, w=1.5), res, colsq)
                want = scalar_worst_backward(problem, beta, pattern.singletons, pattern.rows,
                                             1.5, res)
                assert (got.kind, got.index) == want[:2]
                assert got.weighted_cost == pytest.approx(want[2], rel=1e-10, abs=1e-14)

    def test_tie_order(self):
        """Equal costs: the first singleton in sorted order, and a row over a singleton."""
        X = np.eye(2)
        problem = MultiTaskProblem.from_arrays([X, X], [np.ones(2), np.ones(2)])
        beta = np.ones((2, 2))
        res = residuals(problem, beta)
        colsq = [np.ones(2), np.ones(2)]
        pick = _worst_backward(problem, beta, {(1, 1), (1, 0)}, set(),
                               GreedyConfig(epsilon=0.0, w=2.0), res, colsq)
        assert (pick.kind, pick.index, pick.weighted_cost) == ("singleton", (1, 0), 0.25)
        pick = _worst_backward(problem, beta, {(1, 1), (1, 0)}, {0},
                               GreedyConfig(epsilon=0.0, w=2.0), res, colsq)
        assert (pick.kind, pick.index, pick.weighted_cost) == ("row", (0,), 0.25)


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
