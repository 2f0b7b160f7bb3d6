import math

import numpy as np
import pytest

from mtgreedy import GreedyConfig, MultiTaskProblem, SupportPattern, Task, loss

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
        pattern.task_support(-1)


def test_pattern_rejects_row_singleton_overlap():
    with pytest.raises(ValueError):
        SupportPattern(singletons=frozenset({(3, 1)}), rows=frozenset({3}))


def test_problem_validation():
    with pytest.raises(ValueError):
        MultiTaskProblem.from_arrays([np.eye(2)], [np.ones(3)])
    with pytest.raises(ValueError):
        MultiTaskProblem.from_arrays([np.array([[np.nan, 0.0]])], [np.ones(1)])


@pytest.mark.parametrize("p, r, designs, refusal", [
    (0, 1, [np.eye(2)], "need p >= 1 and r >= 1, got p=0, r=1"),
    (2, 0, [], "need p >= 1 and r >= 1, got p=2, r=0"),
    (2, 2, [np.eye(2)], "r=2 but 1 tasks supplied"),
    (3, 1, [np.eye(2)], r"task 0: design shape \(2, 2\) incompatible with p=3"),
    (2, 1, [np.ones(2)], r"task 0: design shape \(2,\) incompatible with p=2"),
    (2, 1, [np.zeros((0, 2))], "task 0: needs at least one sample"),
])
def test_problem_refuses_bad_counts_and_designs(p, r, designs, refusal):
    tasks = tuple(Task(X, np.ones(X.shape[0])) for X in designs)
    with pytest.raises(ValueError, match=refusal):
        MultiTaskProblem(p=p, r=r, tasks=tasks)


@pytest.mark.parametrize("designs, responses", [(3, 2), (2, 3), (0, 0)])
def test_from_arrays_refuses_unpaired_or_no_tasks(designs, responses):
    """``zip`` would drop the unpaired tasks, and no task has no p."""
    with pytest.raises(ValueError, match=f"got {designs} designs and {responses} responses"):
        MultiTaskProblem.from_arrays([np.eye(2)] * designs, [np.ones(2)] * responses)


@pytest.mark.parametrize("design", [np.zeros(3), 5.0], ids=["1-d", "scalar"])
def test_from_arrays_refuses_a_first_design_that_is_not_2d(design):
    """p is read from the first design's second axis, which it lacks."""
    with pytest.raises(ValueError, match=r"task 0: design shape \(\d,\) is not 2-d"):
        MultiTaskProblem.from_arrays([design], [np.zeros(3)])


@pytest.mark.parametrize("j", [-1, 2, 3])
def test_single_task_refuses_an_index_outside_the_tasks(j):
    """A negative j would count from the end, and j = r has no task."""
    problem = MultiTaskProblem.from_arrays([np.eye(2)] * 2, [np.ones(2)] * 2)
    with pytest.raises(ValueError, match=rf"j={j} is outside \[0, r\) for r=2"):
        problem.single_task(j)


@pytest.mark.parametrize("kwargs", [
    {"epsilon": -1.0},
    {"epsilon": 0.1, "nu": 0.0},
    {"epsilon": 0.1, "nu": 1.0},
    {"epsilon": 0.1, "w": 0.5},
    {"epsilon": 0.1, "max_forward_steps": -1},
    {"epsilon": 0.1, "w": math.inf},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        GreedyConfig(**kwargs)


def test_config_accepts_noiseless_zero_epsilon():
    cfg = GreedyConfig(epsilon=0.0, w=1.5, nu=0.5)
    assert cfg.step_cap(p=10, r=2) == 16 + 80
    assert GreedyConfig(epsilon=0.0, max_forward_steps=3).step_cap(10, 2) == 3
