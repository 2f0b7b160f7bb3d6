import math
from itertools import combinations

import numpy as np
import pytest

from mtgreedy import (
    MultiTaskProblem,
    SupportPattern,
    SynthSpec,
    TheoremInputs,
    beta_min,
    epsilon_lower_bound,
    error_bound,
    eta_lower_bound,
    gen_synthetic,
    gradient_bound_lambda,
    partition_supports,
    rep_constants,
    union_support_size,
)
from mtgreedy.diagnostics import theorem_inputs


EXAMPLE = np.array([
    [1.0, 2.0, 0.0],
    [0.0, 0.0, 3.0],
    [0.0, 0.0, 0.0],
])


class TestPartition:
    def test_empty_truth(self):
        part = partition_supports(np.zeros((4, 3)), d=2)
        assert part.shared_rows == frozenset()
        assert part.nonshared == frozenset()
        assert part.s_star == (0, 0, 0) and part.s_star_max == 0

    def test_threshold_example(self):
        part = partition_supports(EXAMPLE, d=2)
        assert part.shared_rows == frozenset({0})
        assert part.nonshared == frozenset({(1, 2)})
        assert part.s_star == (1, 1, 2)
        assert part.s_star_max == 2

    def test_matches_planted_overlap(self):
        spec = SynthSpec(p=30, n=10, r=2, s=4, kappa=0.5, noise_variance=0.0, seed=8)
        problem, beta_star = gen_synthetic(spec)
        part = partition_supports(beta_star, d=2)
        counts = (beta_star != 0).sum(axis=1)
        assert part.shared_rows == frozenset(int(i) for i in np.flatnonzero(counts == 2))
        assert len(part.shared_rows) == spec.shared_count

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            partition_supports(EXAMPLE, d=0)


class TestBetaMin:
    def test_example_value(self):
        # min(|3|, second largest magnitude of row 0 = 1) = 1
        assert beta_min(EXAMPLE, d=2) == 1.0

    def test_uniform_magnitudes(self):
        mat = 0.7 * np.array([[1.0, -1.0], [0.0, 1.0]])
        assert beta_min(mat, d=2) == pytest.approx(0.7, abs=1e-15)

    def test_empty_support_is_infinite(self):
        assert math.isinf(beta_min(np.zeros((3, 2)), d=1))


class TestGradientBound:
    def test_noiseless_truth_is_stationary(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10, 5))
        beta = np.zeros((5, 1))
        beta[2, 0] = 1.5
        problem = MultiTaskProblem.from_arrays([X], [X @ beta[:, 0]])
        assert gradient_bound_lambda(problem, beta) == 0.0

    def test_single_entry_formula(self):
        problem = MultiTaskProblem.from_arrays([np.array([[1.0]])], [np.array([2.0])])
        assert gradient_bound_lambda(problem, np.zeros((1, 1))) == pytest.approx(2.0)

    def test_scales_linearly_with_noise(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((8, 3))
        beta = np.zeros((3, 1))
        z = rng.standard_normal(8)
        p1 = MultiTaskProblem.from_arrays([X], [X @ beta[:, 0] + z])
        p2 = MultiTaskProblem.from_arrays([X], [X @ beta[:, 0] + 2 * z])
        assert gradient_bound_lambda(p2, beta) == pytest.approx(
            2 * gradient_bound_lambda(p1, beta), rel=1e-12)


class TestRepConstants:
    def test_scaled_identity(self):
        n = 3
        X = math.sqrt(n) * np.eye(n)
        for s in (1, 2, 3):
            c, rho = rep_constants(X, s)
            assert c == pytest.approx(1.0, abs=1e-12)
            assert rho == pytest.approx(1.0, abs=1e-12)

    def test_scaled_diagonal(self):
        X = math.sqrt(2) * np.diag([1.0, 2.0])
        c, rho = rep_constants(X, 1)
        assert c == pytest.approx(1.0, abs=1e-12)
        assert rho == pytest.approx(2.0, abs=1e-12)

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((20, 8))
        c, rho = rep_constants(X, 2)
        scaled = X / math.sqrt(20)
        lows, highs = [], []
        for cols in combinations(range(8), 2):
            eigs = np.linalg.eigvalsh(scaled[:, cols].T @ scaled[:, cols])
            lows.append(math.sqrt(max(eigs[0], 0.0)))
            highs.append(math.sqrt(eigs[-1]))
        assert c == pytest.approx(min(lows), abs=1e-10)
        assert rho == pytest.approx(max(highs) / min(lows), abs=1e-10)

    def test_two_sided_bound_on_sparse_vectors(self):
        rng = np.random.default_rng(5)
        n, p, s = 25, 7, 2
        X = rng.standard_normal((n, p))
        c, rho = rep_constants(X, s)
        for _ in range(100):
            delta = np.zeros(p)
            cols = rng.choice(p, size=s, replace=False)
            delta[cols] = rng.standard_normal(s)
            image = np.linalg.norm(X @ delta) / math.sqrt(n)
            norm = np.linalg.norm(delta)
            assert c * (1 - 1e-10) * norm <= image <= rho * c * (1 + 1e-10) * norm

    def test_enumeration_guard(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((40, 60))
        with pytest.raises(ValueError):
            rep_constants(X, 5)

    def test_bad_sparsity(self):
        with pytest.raises(ValueError):
            rep_constants(np.eye(3), 4)


class TestBounds:
    def test_eta_substitutions(self):
        assert eta_lower_bound(2, 1.0, 1.5, 0.5) == pytest.approx(2 + 8 * 2 / 0.75, abs=1e-12)
        assert eta_lower_bound(1, 1.0, 1.0, 1.0) == pytest.approx(10.0, abs=1e-12)

    def test_eta_monotone_in_weight_and_backward_factor(self):
        base = eta_lower_bound(2, 1.3, 1.2, 0.4)
        assert eta_lower_bound(2, 1.3, 1.5, 0.4) <= base
        assert eta_lower_bound(2, 1.3, 1.2, 0.6) <= base

    def test_epsilon_lower_bound(self):
        noiseless = TheoremInputs(C_min=1.0, rho=1.0, lam=0.0, eta=10.0, w=1.0,
                                  nu=0.5, r=2, s_star=3, epsilon=0.0)
        assert epsilon_lower_bound(noiseless) == 0.0
        unit = TheoremInputs(C_min=1.0, rho=1.0, lam=1.0, eta=10.0, w=1.0,
                             nu=1.0 - 1e-12, r=1, s_star=1, epsilon=0.0)
        assert epsilon_lower_bound(unit) == pytest.approx(40.0, rel=1e-9)
        doubled = TheoremInputs(C_min=1.0, rho=1.0, lam=2.0, eta=10.0, w=1.0,
                                nu=1.0 - 1e-12, r=1, s_star=1, epsilon=0.0)
        assert epsilon_lower_bound(doubled) == pytest.approx(160.0, rel=1e-9)

    def test_error_bound(self):
        clean = TheoremInputs(C_min=1.0, rho=1.0, lam=0.0, eta=4.0, w=1.0,
                              nu=0.5, r=1, s_star=1, epsilon=0.0)
        assert error_bound(clean) == 0.0
        unit = TheoremInputs(C_min=1.0, rho=1.0, lam=1.0, eta=4.0, w=1.0,
                             nu=0.5, r=1, s_star=1, epsilon=1.0)
        assert error_bound(unit) == pytest.approx(4.0, abs=1e-12)
        more_noise = TheoremInputs(C_min=1.0, rho=1.0, lam=2.0, eta=4.0, w=1.0,
                                   nu=0.5, r=1, s_star=1, epsilon=1.0)
        bigger_support = TheoremInputs(C_min=1.0, rho=1.0, lam=1.0, eta=4.0, w=1.0,
                                       nu=0.5, r=1, s_star=4, epsilon=1.0)
        assert error_bound(more_noise) > 4.0 and error_bound(bigger_support) > 4.0

    def test_theorem_inputs_assembly(self, rng):
        designs = [rng.standard_normal((12, 5)) for _ in range(2)]
        problem = MultiTaskProblem.from_arrays(designs, [np.ones(12), np.ones(12)])
        inputs = theorem_inputs(problem, sparsity=2, lam=0.3, s_star=2, w=1.5, nu=0.5)
        per_task = [rep_constants(X, 2) for X in designs]
        c_min = min(c for c, _ in per_task)
        assert inputs.C_min == c_min
        assert inputs.rho == pytest.approx(max(c * rho for c, rho in per_task) / c_min,
                                           rel=1e-12)
        assert inputs.eta == eta_lower_bound(2, inputs.rho, 1.5, 0.5)
        assert (inputs.lam, inputs.s_star, inputs.r) == (0.3, 2, 2)
        assert inputs.epsilon > 0.0 and inputs.epsilon == epsilon_lower_bound(inputs)

    def test_inputs_validation(self):
        with pytest.raises(ValueError):
            TheoremInputs(C_min=1.0, rho=0.5, lam=0.0, eta=1.0, w=1.0,
                          nu=0.5, r=1, s_star=1, epsilon=0.0)


class TestUnionSupport:
    def test_perfect_pattern_matches_true_size(self):
        truth = partition_supports(EXAMPLE, d=2)
        pattern = SupportPattern(singletons=frozenset({(1, 2)}), rows=frozenset({0}))
        for j in range(3):
            assert union_support_size(pattern, truth, j) == truth.s_star[j]

    def test_disjoint_supports_add(self):
        truth = partition_supports(EXAMPLE, d=2)  # task 0 support: {0}
        pattern = SupportPattern(singletons=frozenset({(2, 0)}), rows=frozenset())
        assert union_support_size(pattern, truth, 0) == 2

    def test_partial_overlap_matches_set_oracle(self):
        truth = partition_supports(EXAMPLE, d=2)
        pattern = SupportPattern(singletons=frozenset({(0, 2), (2, 2)}), rows=frozenset())
        expected = len({0, 2} | {0, 1})
        assert union_support_size(pattern, truth, 2) == expected
        with pytest.raises(ValueError):
            union_support_size(pattern, truth, 5)


def test_partition_and_beta_min_consistency(rng):
    for _ in range(10):
        beta = rng.standard_normal((6, 3))
        beta[rng.random((6, 3)) < 0.6] = 0.0
        d = 2
        part = partition_supports(beta, d)
        floor = beta_min(beta, d)
        for (i, j) in part.nonshared:
            assert abs(beta[i, j]) >= floor
        for m in part.shared_rows:
            assert np.sum(np.abs(beta[m, :]) >= floor) >= d
