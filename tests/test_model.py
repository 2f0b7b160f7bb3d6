import numpy as np
import pytest

from mtgreedy import GreedyConfig, MultiTaskProblem, SupportPattern, loss

from conftest import random_problem


def test_loss_zero_residual():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    beta = np.array([[2.0], [-1.0]])
    problem = MultiTaskProblem.from_arrays([X], [X @ beta[:, 0]])
    assert loss(problem, beta) == 0.0


def test_loss_identity_design_value():
    problem = MultiTaskProblem.from_arrays([np.eye(2)], [np.ones(2)])
    # (1 / (2*2)) * (1^2 + 1^2) evaluated by hand
    assert loss(problem, np.zeros((2, 1))) == pytest.approx(0.5, abs=1e-15)


def test_loss_adds_over_tasks():
    problem = MultiTaskProblem.from_arrays([np.eye(2), np.eye(2)], [np.ones(2), np.ones(2)])
    assert loss(problem, np.zeros((2, 2))) == pytest.approx(1.0, abs=1e-15)


def test_loss_separates_over_tasks_on_random_instances(rng):
    for _ in range(10):
        problem = random_problem(rng, p=6, r=3)
        beta = rng.standard_normal((6, 3))
        total = loss(problem, beta)
        parts = sum(
            loss(problem.single_task(j), beta[:, j: j + 1]) for j in range(3))
        assert abs(total - parts) <= 1e-12 * (1.0 + total)


def test_loss_convex_along_nonzero_coordinate(rng):
    problem = random_problem(rng, p=4, r=2)
    beta = rng.standard_normal((4, 2))

    def along(g):
        cand = beta.copy()
        cand[1, 0] += g
        return loss(problem, cand)

    h = 0.5
    second_diff = along(h) - 2 * along(0.0) + along(-h)
    assert second_diff > 0.0


def test_loss_shape_mismatch():
    problem = MultiTaskProblem.from_arrays([np.eye(2)], [np.ones(2)])
    with pytest.raises(ValueError):
        loss(problem, np.zeros((3, 1)))


def test_task_support_examples():
    empty = SupportPattern()
    assert empty.task_support(0) == set()
    pattern = SupportPattern(singletons=frozenset({(2, 0)}), rows=frozenset({5}))
    assert pattern.task_support(0) == {2, 5}
    assert pattern.task_support(1) == {5}
    with pytest.raises(ValueError):
        pattern.task_support(2, r=2)
    with pytest.raises(ValueError):
        pattern.task_support(-1)


def test_pattern_rejects_row_singleton_overlap():
    with pytest.raises(ValueError):
        SupportPattern(singletons=frozenset({(3, 1)}), rows=frozenset({3}))


def test_problem_validation():
    with pytest.raises(ValueError):
        MultiTaskProblem.from_arrays([np.eye(2)], [np.ones(3)])
    with pytest.raises(ValueError):
        MultiTaskProblem.from_arrays([np.array([[np.nan, 0.0]])], [np.ones(1)])


@pytest.mark.parametrize("kwargs", [
    {"epsilon": -1.0},
    {"epsilon": 0.1, "nu": 0.0},
    {"epsilon": 0.1, "nu": 1.0},
    {"epsilon": 0.1, "w": 0.5},
    {"epsilon": 0.1, "max_forward_steps": -1},
    {"epsilon": 0.1, "comparison_tolerance": -1e-9},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        GreedyConfig(**kwargs)


def test_config_accepts_noiseless_zero_epsilon():
    cfg = GreedyConfig(epsilon=0.0, w=1.5, nu=0.5)
    assert cfg.step_cap(p=10, r=2) == 16 + 80
    assert GreedyConfig(epsilon=0.0, max_forward_steps=3).step_cap(10, 2) == 3
