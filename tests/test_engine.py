from dataclasses import replace

import numpy as np
import pytest

from mtgreedy import (
    GreedyConfig,
    MultiTaskProblem,
    SupportPattern,
    SynthSpec,
    check_step_records,
    exhaustive_best_fit,
    fit,
    foba_single_task,
    gen_synthetic,
    loss,
    refit,
    residuals,
    row_cost,
    sign_support_success,
    singleton_cost,
    verify_trace,
)
from mtgreedy.engine import SupportState, _best_forward

from conftest import (
    gains_at, planted_shared_problem, random_problem, random_pattern, random_state)


def two_point_problem(y0=(1.0, 1.0), y1=None, x1=(1.0, 1.0)):
    """p=1 toy problems used by the closed-form examples."""
    X0 = np.array([[1.0], [1.0]])
    if y1 is None:
        return MultiTaskProblem.from_arrays([X0], [np.array(y0, dtype=float)])
    X1 = np.array([[x1[0]], [x1[1]]])
    return MultiTaskProblem.from_arrays(
        [X0, X1], [np.array(y0, dtype=float), np.array(y1, dtype=float)])


def forward_candidate(problem, pattern, config):
    """The forward selector's choice at the restricted optimum of a pattern."""
    gains = gains_at(problem, refit(problem, pattern))
    return _best_forward(problem, set(pattern.singletons), set(pattern.rows), config, gains)


def coalescing_problem():
    """Shared feature 2 with unbalanced magnitudes enters one task at a time,
    so its second singleton must reclassify the feature as a row."""
    rng = np.random.default_rng(5)
    p, r, n = 6, 2, 24
    beta = np.zeros((p, r))
    beta[2, 0], beta[2, 1] = 2.0, 0.6   # ratio beats the w gate
    beta[4, 1] = 1.0
    designs = [rng.standard_normal((n, p)) for _ in range(r)]
    return MultiTaskProblem.from_arrays(
        designs, [designs[j] @ beta[:, j] for j in range(r)])


class TestSingletonGain:
    def test_closed_form_matches_grid_oracle(self):
        problem = two_point_problem()
        beta = np.zeros((1, 1))
        gain = gains_at(problem, beta)[0, 0]
        assert gain == pytest.approx(0.5, abs=1e-15)
        # brute 1-d oracle over a gamma grid
        grid = np.linspace(-3, 3, 20001)
        base = loss(problem, beta)
        vals = [loss(problem, np.array([[g]])) for g in grid]
        assert base - min(vals) == pytest.approx(gain, abs=1e-7)

    def test_orthogonal_residual_gives_zero(self):
        X = np.array([[1.0], [1.0]])
        y = np.array([1.0, -1.0])  # orthogonal to the column
        problem = MultiTaskProblem.from_arrays([X], [y])
        assert gains_at(problem, np.zeros((1, 1)))[0, 0] == 0.0

    def test_zero_column_convention(self):
        X = np.array([[0.0, 1.0], [0.0, 1.0]])
        problem = MultiTaskProblem.from_arrays([X], [np.ones(2)])
        gains = gains_at(problem, np.zeros((2, 1)))
        assert gains[0, 0] == 0.0 and gains[1, 0] > 0.0


class TestRowGain:
    def test_sum_of_tasks_divided_by_weight(self):
        problem = two_point_problem(y0=(1.0, 1.0), y1=(1.0, 1.0))
        assert np.allclose(gains_at(problem, np.zeros((1, 2))), [[0.5, 0.5]], atol=1e-15)
        cand = forward_candidate(problem, SupportPattern(), GreedyConfig(epsilon=1e-9, w=1.5))
        assert cand.weighted_reward == pytest.approx((0.5 + 0.5) / 1.5, abs=1e-15)

    def test_zero_residuals(self):
        problem = two_point_problem()
        beta = np.array([[1.0]])  # exact fit
        assert np.array_equal(gains_at(problem, beta), np.zeros((1, 1)))

    def test_single_task_weight_one_degenerates_to_singleton(self):
        problem = two_point_problem()
        cand = forward_candidate(problem, SupportPattern(), GreedyConfig(epsilon=1e-9, w=1.0))
        assert cand.kind == "row"
        assert cand.weighted_reward == pytest.approx(gains_at(problem, np.zeros((1, 1)))[0, 0],
                                                     abs=1e-15)


class TestBestForward:
    def test_zero_response_rewards_nothing(self):
        problem = two_point_problem(y0=(0.0, 0.0), y1=(0.0, 0.0))
        cand = forward_candidate(problem, SupportPattern(), GreedyConfig(epsilon=1e-9))
        assert cand.weighted_reward == 0.0

    def test_single_task_signal_prefers_singleton(self):
        # feature correlates with task 0 only; row reward is halved by w
        problem = two_point_problem(y0=(1.0, 1.0), y1=(1.0, -1.0))
        cand = forward_candidate(problem, SupportPattern(), GreedyConfig(epsilon=1e-9, w=1.5))
        assert cand.kind == "singleton" and cand.index == (0, 0)

    def test_balanced_signal_prefers_row(self):
        problem = two_point_problem(y0=(1.0, 1.0), y1=(1.0, 1.0))
        cand = forward_candidate(problem, SupportPattern(), GreedyConfig(epsilon=1e-9, w=1.5))
        assert cand.kind == "row" and cand.index == (0,)
        assert cand.weighted_reward == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_saturated_support_returns_none(self):
        problem = two_point_problem()
        pattern = SupportPattern(rows=frozenset({0}))
        assert forward_candidate(problem, pattern, GreedyConfig(epsilon=1e-9)) is None


class TestCosts:
    def test_zero_entry_costs_nothing(self):
        problem = two_point_problem()
        assert singleton_cost(problem, np.zeros((1, 1)), 0, 0) == 0.0

    def test_exact_fit_removal_cost(self):
        problem = two_point_problem()
        beta = np.array([[1.0]])  # residual is zero
        assert singleton_cost(problem, beta, 0, 0) == pytest.approx(0.5, abs=1e-15)

    def test_matches_loss_difference_oracle(self, rng):
        for _ in range(20):
            problem, pattern, beta = random_state(rng, p=6, r=2)
            for (i, j) in pattern.singletons:
                zeroed = beta.copy()
                zeroed[i, j] = 0.0
                direct = loss(problem, zeroed) - loss(problem, beta)
                assert singleton_cost(problem, beta, i, j) == pytest.approx(direct, abs=1e-10)
            for m in pattern.rows:
                zeroed = beta.copy()
                zeroed[m, :] = 0.0
                direct = loss(problem, zeroed) - loss(problem, beta)
                assert row_cost(problem, beta, m, 1.5) == pytest.approx(direct / 1.5, abs=1e-10)

    def test_row_cost_sums_tasks(self):
        problem = two_point_problem(y0=(1.0, 1.0), y1=(1.0, 1.0))
        beta = np.ones((1, 2))  # exact fit in both tasks
        assert row_cost(problem, beta, 0, 1.5) == pytest.approx((0.5 + 0.5) / 1.5, abs=1e-15)

    def test_membership_contracts(self):
        problem = two_point_problem(y0=(1.0, 1.0), y1=(1.0, 1.0))
        pattern = SupportPattern(singletons=frozenset({(0, 0)}))
        beta = refit(problem, pattern)
        with pytest.raises(ValueError):
            singleton_cost(problem, beta, 0, 1, pattern=pattern)
        with pytest.raises(ValueError):
            row_cost(problem, beta, 0, 1.5, pattern=pattern)

    def test_costs_nonnegative_at_restricted_optimum(self, rng):
        for _ in range(20):
            problem, pattern, beta = random_state(rng, p=6, r=2)
            res = residuals(problem, beta)
            for (i, j) in pattern.singletons:
                assert singleton_cost(problem, beta, i, j, res) >= -1e-10
            for m in pattern.rows:
                assert row_cost(problem, beta, m, 1.5, res) >= -1e-10


class TestRefit:
    def test_identity_design_reads_off_response(self):
        problem = MultiTaskProblem.from_arrays([np.eye(3)], [np.array([4.0, 7.0, 1.0])])
        beta = refit(problem, SupportPattern(singletons=frozenset({(1, 0)})))
        assert np.array_equal(beta[:, 0], [0.0, 7.0, 0.0])

    def test_empty_pattern_gives_zero(self, rng):
        problem = random_problem(rng, p=4, r=2)
        assert np.array_equal(refit(problem, SupportPattern()), np.zeros((4, 2)))

    def test_matches_normal_equations_oracle(self, rng):
        for _ in range(10):
            problem = random_problem(rng, p=8, r=2)
            pattern = random_pattern(rng, p=8, r=2, n_singles=3, n_rows=1)
            beta = refit(problem, pattern)
            for j, t in enumerate(problem.tasks):
                cols = sorted(pattern.task_support(j))
                if not cols:
                    continue
                A = t.X[:, cols]
                expected = np.linalg.solve(A.T @ A, A.T @ t.y)
                assert np.allclose(beta[cols, j], expected, atol=1e-8)

    def test_gradient_vanishes_on_support_and_matches_finite_differences(self, rng):
        problem = random_problem(rng, p=5, r=2)
        pattern = random_pattern(rng, p=5, r=2, n_singles=2, n_rows=1)
        beta = refit(problem, pattern)
        res = residuals(problem, beta)
        h = 1e-6
        for j, t in enumerate(problem.tasks):
            grad = -(t.X.T @ res[j]) / t.n
            for i in range(problem.p):
                up, dn = beta.copy(), beta.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd = (loss(problem, up) - loss(problem, dn)) / (2 * h)
                assert grad[i] == pytest.approx(fd, abs=1e-4)
            for i in pattern.task_support(j):
                assert abs(grad[i]) <= 1e-8


class TestFit:
    def test_zero_response_stops_immediately(self):
        problem = two_point_problem(y0=(0.0, 0.0), y1=(0.0, 0.0))
        report = fit(problem, GreedyConfig(epsilon=1e-9))
        assert report.termination == "gain-below-threshold"
        assert len(report.steps) == 0
        assert report.pattern == SupportPattern()
        assert np.array_equal(report.coefficients, np.zeros((1, 2)))
        assert report.final_loss == 0.0

    def test_noiseless_exact_recovery(self):
        problem, beta_star, m, own = planted_shared_problem(seed=3, p=8, n=30)
        report = fit(problem, GreedyConfig(epsilon=1e-9, w=1.5, nu=0.5))
        assert np.array_equal(np.sign(report.coefficients), np.sign(beta_star))
        assert np.linalg.norm(report.coefficients - beta_star) <= 1e-8
        assert m in report.pattern.rows

    def test_fully_shared_supports_with_small_weight(self):
        rng = np.random.default_rng(17)
        p, r, n, s = 6, 2, 24, 2
        feats = rng.choice(p, size=s, replace=False)
        beta = np.zeros((p, r))
        beta[feats, :] = rng.standard_normal((s, r))
        designs = [rng.standard_normal((n, p)) for _ in range(r)]
        problem = MultiTaskProblem.from_arrays(
            designs, [designs[j] @ beta[:, j] for j in range(r)])
        report = fit(problem, GreedyConfig(epsilon=1e-9, w=1.1, nu=0.5))
        assert report.pattern.singletons == frozenset()
        assert report.pattern.rows == frozenset(int(f) for f in feats)
        pattern, _, best_loss = exhaustive_best_fit(problem, max_singletons=0, max_rows=s)
        assert report.pattern == pattern and best_loss <= 1e-18

    def test_sequential_shared_entries_coalesce_into_row(self):
        problem = coalescing_problem()
        report = fit(problem, GreedyConfig(epsilon=1e-9, w=1.5, nu=0.5))
        assert 2 in report.pattern.rows
        assert all(i != 2 for (i, _) in report.pattern.singletons)
        assert any(s.promoted_row == 2 for s in report.steps)
        verify_trace(problem, GreedyConfig(epsilon=1e-9, w=1.5, nu=0.5), report)

    def test_backward_step_removes_redundant_predictor(self):
        # x2 imitates x0 + x1; it wins first, then becomes redundant once the
        # true pair arrives and must be removed against its recorded reward
        rng = np.random.default_rng(23)
        n = 40
        x0 = rng.standard_normal(n)
        x1 = rng.standard_normal(n)
        x2 = (x0 + x1 + 0.05 * rng.standard_normal(n)) / np.sqrt(2.0)
        x3 = rng.standard_normal(n)
        X = np.column_stack([x0, x1, x2, x3])
        y = x0 + x1
        problem = MultiTaskProblem.from_arrays([X], [y])
        config = GreedyConfig(epsilon=1e-10, nu=0.5, rows_enabled=False)
        report = fit(problem, config)
        kinds = [s.kind for s in report.steps]
        assert "backward" in kinds
        assert report.pattern.singletons == frozenset({(0, 0), (1, 0)})
        assert report.final_loss <= 1e-18
        verify_trace(problem, config, report)

    def test_disabled_rows_match_per_task_fits(self):
        for seed in range(4):
            problem, beta_star, _, _ = planted_shared_problem(seed=seed, p=10, n=30)
            config = GreedyConfig(epsilon=1e-9, w=1.5, nu=0.5, rows_enabled=False)
            joint = fit(problem, config)
            merged = foba_single_task(problem, config)
            assert joint.pattern == merged.pattern
            assert np.array_equal(joint.coefficients, merged.coefficients)
            assert joint.pattern.rows == frozenset()

    def test_max_steps_termination(self):
        problem, _, _, _ = planted_shared_problem(seed=9, p=8, n=30)
        report = fit(problem, GreedyConfig(epsilon=1e-9, max_forward_steps=1))
        assert report.termination == "max-steps"
        assert sum(1 for s in report.steps if s.kind == "forward") == 1

    def test_rejects_weight_above_task_count(self):
        problem = two_point_problem(y0=(1.0, 1.0), y1=(1.0, 1.0))
        with pytest.raises(ValueError):
            fit(problem, GreedyConfig(epsilon=1e-9, w=2.5))

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_unit_weight_takes_only_rows(self, r):
        # at w = 1 a feature's row gain, the sum over tasks, never trails its
        # best single entry, so task-specific supports cannot be recovered
        config = GreedyConfig(epsilon=1e-5, w=1.0, nu=0.5)
        for seed in range(5):
            spec = SynthSpec(p=40, n=30, r=r, s=4, kappa=0.5, noise_variance=1e-4, seed=seed)
            problem, beta_star = gen_synthetic(spec)
            report = fit(problem, config)
            assert report.steps
            assert all(s.object_kind == "row" for s in report.steps if s.kind == "forward")
            assert report.pattern.singletons == frozenset()
            assert not sign_support_success(report.coefficients, beta_star)

    def test_final_loss_matches_coefficients(self, rng):
        problem = random_problem(rng, p=6, r=2)
        report = fit(problem, GreedyConfig(epsilon=1e-3))
        assert abs(report.final_loss - loss(problem, report.coefficients)) <= 1e-10

    def test_ledger_depth_tracks_step_balance(self):
        problem, _, _, _ = planted_shared_problem(seed=4, p=8, n=30)
        config = GreedyConfig(epsilon=1e-9, w=1.5, nu=0.5)
        report = fit(problem, config)
        fwd = sum(1 for s in report.steps if s.kind == "forward")
        bwd = sum(1 for s in report.steps if s.kind == "backward")
        assert report.steps[-1].ledger_depth == fwd - bwd
        check_step_records(report, config, loss(problem, np.zeros((8, 2))))


class TestSupportState:
    def test_row_add_drops_feature_singletons(self):
        state = SupportState(GreedyConfig(epsilon=0.0, w=2.5))
        for cell in [(1, 0), (1, 2), (3, 1)]:
            assert state.add("singleton", cell) is None
        assert state.add("row", (1,)) is None
        assert state.singles == {(3, 1)} and state.rows == {1}
        assert state.pattern() == SupportPattern(
            singletons=frozenset({(3, 1)}), rows=frozenset({1}))

    @pytest.mark.parametrize("w, at", [(1.5, 2), (2.0, 3), (2.7, 3)])
    def test_promotion_at_floor_w_plus_one(self, w, at):
        state = SupportState(GreedyConfig(epsilon=0.0, w=w))
        for j in range(at - 1):
            assert state.add("singleton", (4, j)) is None
        assert state.add("singleton", (4, at - 1)) == 4
        assert state.singles == set() and state.rows == {4}

    @pytest.mark.parametrize("off", [{"coalesce_rows": False}, {"rows_enabled": False}])
    def test_no_promotion_when_rows_or_coalescing_off(self, off):
        state = SupportState(GreedyConfig(epsilon=0.0, w=1.5, **off))
        for j in range(3):
            assert state.add("singleton", (0, j)) is None
        assert state.singles == {(0, 0), (0, 1), (0, 2)} and state.rows == set()

    def test_removing_absent_object_raises(self):
        state = SupportState(GreedyConfig(epsilon=0.0))
        state.add("singleton", (0, 1))
        with pytest.raises(KeyError):
            state.remove("singleton", (0, 0))
        with pytest.raises(KeyError):
            state.remove("row", (0,))
        state.remove("singleton", (0, 1))
        assert state.pattern() == SupportPattern()


class TestVerifyTrace:
    def test_accepts_clean_traces_and_rejects_tampered_ones(self, rng):
        problem = random_problem(rng, p=6, r=2)
        config = GreedyConfig(epsilon=1e-4, w=1.5, nu=0.5)
        report = fit(problem, config)
        verify_trace(problem, config, report)
        if report.steps:
            bad = list(report.steps)
            bad[0] = replace(bad[0], loss_after=bad[0].loss_after + 0.5)
            tampered = replace(report, steps=tuple(bad))
            with pytest.raises(AssertionError):
                verify_trace(problem, config, tampered)

    def test_rejects_dropped_promotion_record(self):
        problem = coalescing_problem()
        config = GreedyConfig(epsilon=1e-9, w=1.5, nu=0.5)
        report = fit(problem, config)
        idx = next(k for k, s in enumerate(report.steps) if s.promoted_row is not None)
        bad = list(report.steps)
        bad[idx] = replace(bad[idx], promoted_row=None)
        with pytest.raises(AssertionError, match=f"step {idx}: "):
            verify_trace(problem, config, replace(report, steps=tuple(bad)))
