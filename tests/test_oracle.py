import numpy as np
import pytest

from mtgreedy import (
    MultiTaskProblem,
    SupportPattern,
    exhaustive_best_fit,
    fit,
    GreedyConfig,
    gain_oracle,
    loss,
)

from conftest import gains_at, random_state


def test_oracle_matches_engine_singleton_gains(rng):
    for _ in range(40):
        problem, _, beta = random_state(rng, p=5, r=2)
        i = int(rng.integers(0, 5))
        j = int(rng.integers(0, 2))
        gain = gains_at(problem, beta)[i, j]
        assert gain_oracle(problem, beta, ("singleton", i, j)) == pytest.approx(gain, abs=1e-8)


def test_oracle_zero_residual_state():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    beta = np.array([[2.0], [3.0]])
    problem = MultiTaskProblem.from_arrays([X], [X @ beta[:, 0]])
    assert gain_oracle(problem, beta, ("singleton", 0, 0)) == pytest.approx(0.0, abs=1e-12)
    assert gain_oracle(problem, beta, ("row", 1)) == pytest.approx(0.0, abs=1e-12)


def test_row_oracle_unweights_engine_value(rng):
    problem, _, beta = random_state(rng, p=5, r=3)
    w = 1.7
    weighted = gains_at(problem, beta)[2].sum() / w
    raw = gain_oracle(problem, beta, ("row", 2), w=1.0)
    assert raw == pytest.approx(w * weighted, abs=1e-8)
    assert gain_oracle(problem, beta, ("row", 2), w=w) == pytest.approx(weighted, abs=1e-8)


def test_oracle_rejects_unknown_objects(rng):
    problem, _, beta = random_state(rng, p=4, r=2)
    with pytest.raises(ValueError):
        gain_oracle(problem, beta, ("block", 1))


class TestExhaustive:
    def test_zero_response_prefers_empty_pattern(self):
        X = np.eye(3)
        problem = MultiTaskProblem.from_arrays([X, X], [np.zeros(3), np.zeros(3)])
        pattern, beta, val = exhaustive_best_fit(problem, max_singletons=2, max_rows=1)
        assert pattern == SupportPattern()
        assert val == 0.0 and np.array_equal(beta, np.zeros((3, 2)))

    def test_zero_budgets_return_empty_fit(self, rng):
        from conftest import random_problem
        problem = random_problem(rng, p=4, r=2)
        pattern, beta, val = exhaustive_best_fit(problem, max_singletons=0, max_rows=0)
        assert pattern == SupportPattern()
        assert val == pytest.approx(loss(problem, np.zeros((4, 2))), abs=1e-15)

    def test_recovers_planted_shared_structure(self):
        rng = np.random.default_rng(2)
        p, r, n = 5, 2, 12
        beta = np.zeros((p, r))
        beta[2, :] = [1.2, -0.9]
        beta[4, 1] = 0.8
        designs = [rng.standard_normal((n, p)) for _ in range(r)]
        problem = MultiTaskProblem.from_arrays(
            designs, [designs[j] @ beta[:, j] for j in range(r)])
        pattern, fitted, val = exhaustive_best_fit(problem, max_singletons=1, max_rows=1)
        assert pattern == SupportPattern(singletons=frozenset({(4, 1)}), rows=frozenset({2}))
        assert val <= 1e-20
        assert np.allclose(fitted, beta, atol=1e-9)

    def test_enumeration_guard(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((10, 20))
        problem = MultiTaskProblem.from_arrays([X, X, X], [X[:, 0]] * 3)
        with pytest.raises(ValueError):
            exhaustive_best_fit(problem, max_singletons=5, max_rows=0)

    def test_fit_agrees_on_uniquely_identified_instance(self):
        from conftest import planted_shared_problem
        problem, beta_star, m, own = planted_shared_problem(seed=21, p=6, n=24)
        report = fit(problem, GreedyConfig(epsilon=1e-9, w=1.5, nu=0.5))
        pattern, _, val = exhaustive_best_fit(problem, max_singletons=2, max_rows=1)
        assert val <= 1e-18
        assert report.pattern == pattern
