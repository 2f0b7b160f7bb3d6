import math

import numpy as np
import pytest

from mtgreedy import solve_least_squares
from mtgreedy.diagnostics import rep_constants
from mtgreedy.linalg import effective_condition


def extremes(A):
    """Smallest and largest singular value of a tall A, read off
    rep_constants over its one full column subset."""
    m, k = A.shape
    c_min, rho = rep_constants(A, k)
    lo = c_min * math.sqrt(m)
    return lo, rho * lo


def test_identity_solve():
    x = solve_least_squares(np.eye(2), np.array([3.0, -1.0]))
    assert np.allclose(x, [3.0, -1.0])


def test_overdetermined_matches_normal_equations():
    A = np.array([[1.0], [1.0]])
    b = np.array([1.0, 3.0])
    # independent oracle: (A^T A)^{-1} A^T b
    expected = np.linalg.solve(A.T @ A, A.T @ b)
    assert np.allclose(expected, [2.0])
    assert np.allclose(solve_least_squares(A, b), expected)


def test_zero_column_gives_minimum_norm_solution():
    x = solve_least_squares(np.zeros((2, 1)), np.array([1.0, 1.0]))
    assert x.shape == (1,)
    assert x[0] == 0.0


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        solve_least_squares(np.eye(3), np.ones(2))


@pytest.mark.parametrize("a_shape, b_shape, refusal", [
    ((3,), (3,), r"expected a 2-d design, got shape \(3,\)"),
    ((3, 0), (3,), None),
    ((0, 2), (0,), None),
    ((0, 0), (0,), None),
])
def test_a_design_not_2d_is_refused_and_an_empty_one_solves_to_zeros(a_shape, b_shape,
                                                                      refusal):
    A, b = np.ones(a_shape), np.ones(b_shape)
    if refusal is not None:
        with pytest.raises(ValueError, match=refusal):
            solve_least_squares(A, b)
    else:
        x = solve_least_squares(A, b)
        assert x.shape == (a_shape[1],) and not x.any()


def test_residual_orthogonality_on_random_systems():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m, k = int(rng.integers(5, 30)), int(rng.integers(1, 6))
        A = rng.standard_normal((m, k))
        b = rng.standard_normal(m)
        x = solve_least_squares(A, b)
        resid = A @ x - b
        assert np.max(np.abs(A.T @ resid)) <= 1e-8 * (1.0 + np.linalg.norm(b))


def test_rank_deficient_minimum_norm():
    # duplicated column: any split of the coefficient fits equally; the
    # minimum-norm answer spreads it evenly
    A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    b = A @ np.array([2.0, 0.0])
    x = solve_least_squares(A, b)
    assert np.allclose(x, [1.0, 1.0])


def test_extremes_identity_and_diagonal():
    assert extremes(np.eye(3)) == (1.0, 1.0)
    lo, hi = extremes(np.diag([1.0, 2.0]))
    assert (lo, hi) == (1.0, 2.0)


def test_extremes_match_eigenvalue_oracle():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((4, 2))
    lo, hi = extremes(A)
    eigs = np.linalg.eigvalsh(A.T @ A)
    assert abs(lo - np.sqrt(eigs[0])) <= 1e-10
    assert abs(hi - np.sqrt(eigs[-1])) <= 1e-10


def test_effective_condition_skips_the_null_space():
    assert effective_condition(np.diag([4.0, 2.0, 0.5])) == (4.0, 8.0)
    # a zero column or a duplicate adds no condition; the min-norm solve drops it
    A = np.column_stack([np.diag([4.0, 2.0]), np.zeros(2), [4.0, 0.0]])
    s_max, kappa = effective_condition(A)
    assert s_max == pytest.approx(4.0 * np.sqrt(2.0)) and kappa == pytest.approx(2.0 * np.sqrt(2.0))
    assert effective_condition(np.zeros((3, 2))) == (0.0, 1.0)
    assert effective_condition(np.zeros((3, 0))) == (0.0, 1.0)
