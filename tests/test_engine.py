import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtgreedy import (
    GreedyConfig,
    MultiTaskProblem,
    StepRecord,
    SupportPattern,
    SweepConfig,
    SynthSpec,
    check_step_records,
    cost_oracle,
    exhaustive_best_fit,
    fit,
    gen_synthetic,
    loss,
    refit,
    residuals,
    sign_support_success,
    verify_trace,
)
from mtgreedy import engine
from mtgreedy.engine import SupportState, _best_forward, _worst_backward

from conftest import (
    correlations_at, costs_at, gains_at, planted_shared_problem, random_problem,
    random_pattern, random_state, scales_of, state_of)


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
    state = state_of(pattern, problem.p, problem.r)
    return _best_forward(state.singles, state.rows, config, gains)


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
        assert cand.value == pytest.approx((0.5 + 0.5) / 1.5, abs=1e-15)

    def test_zero_residuals(self):
        problem = two_point_problem()
        beta = np.array([[1.0]])  # exact fit
        assert np.array_equal(gains_at(problem, beta), np.zeros((1, 1)))

    def test_single_task_weight_one_degenerates_to_singleton(self):
        problem = two_point_problem()
        cand = forward_candidate(problem, SupportPattern(), GreedyConfig(epsilon=1e-9, w=1.0))
        assert cand.kind == "row"
        assert cand.value == pytest.approx(gains_at(problem, np.zeros((1, 1)))[0, 0],
                                                     abs=1e-15)


class TestBestForward:
    def test_zero_response_rewards_nothing(self):
        problem = two_point_problem(y0=(0.0, 0.0), y1=(0.0, 0.0))
        cand = forward_candidate(problem, SupportPattern(), GreedyConfig(epsilon=1e-9))
        assert cand.value == 0.0

    def test_single_task_signal_prefers_singleton(self):
        # feature correlates with task 0 only; row reward is halved by w
        problem = two_point_problem(y0=(1.0, 1.0), y1=(1.0, -1.0))
        cand = forward_candidate(problem, SupportPattern(), GreedyConfig(epsilon=1e-9, w=1.5))
        assert cand.kind == "singleton" and cand.index == (0, 0)

    def test_balanced_signal_prefers_row(self):
        problem = two_point_problem(y0=(1.0, 1.0), y1=(1.0, 1.0))
        cand = forward_candidate(problem, SupportPattern(), GreedyConfig(epsilon=1e-9, w=1.5))
        assert cand.kind == "row" and cand.index == (0,)
        assert cand.value == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_saturated_support_returns_none(self):
        problem = two_point_problem()
        pattern = SupportPattern(rows=frozenset({0}))
        assert forward_candidate(problem, pattern, GreedyConfig(epsilon=1e-9)) is None


class TestCosts:
    def test_zero_entry_costs_nothing(self):
        problem = two_point_problem()
        assert costs_at(problem, np.zeros((1, 1)))[0, 0] == 0.0

    def test_exact_fit_removal_cost(self):
        problem = two_point_problem()
        beta = np.array([[1.0]])  # residual is zero
        assert costs_at(problem, beta)[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_matches_loss_difference_oracle(self, rng):
        for _ in range(20):
            problem, pattern, beta = random_state(rng, p=6, r=2)
            costs = costs_at(problem, beta)
            for (i, j) in pattern.singletons:
                direct = cost_oracle(problem, beta, ("singleton", i, j))
                assert costs[i, j] == pytest.approx(direct, abs=1e-10)
            for m in pattern.rows:
                direct = cost_oracle(problem, beta, ("row", m), w=1.5)
                assert costs[m].sum() / 1.5 == pytest.approx(direct, abs=1e-10)

    def test_row_cost_sums_tasks(self):
        problem = two_point_problem(y0=(1.0, 1.0), y1=(1.0, 1.0))
        beta = np.ones((1, 2))  # exact fit in both tasks
        state = state_of(SupportPattern(rows=frozenset({0})), 1, 2)
        pick = _worst_backward(problem, beta, state.singles, state.rows,
                               GreedyConfig(epsilon=0.0, w=1.5),
                               correlations_at(problem, beta), scales_of(problem))
        assert (pick.kind, pick.index) == ("row", (0,))
        assert pick.value == pytest.approx((0.5 + 0.5) / 1.5, abs=1e-15)

    def test_costs_nonnegative_at_restricted_optimum(self, rng):
        for _ in range(20):
            problem, pattern, beta = random_state(rng, p=6, r=2)
            costs = costs_at(problem, beta)
            for (i, j) in pattern.singletons:
                assert costs[i, j] >= -1e-10
            for m in pattern.rows:
                assert costs[m].sum() / 1.5 >= -1e-10


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
            for j in range(problem.r):
                alone = fit(problem.single_task(j), config)
                assert joint.pattern.task_support(j) == alone.pattern.task_support(0)
                assert np.array_equal(joint.coefficients[:, j], alone.coefficients[:, 0])
            assert joint.pattern.rows == frozenset()

    def test_max_steps_termination(self):
        problem, _, _, _ = planted_shared_problem(seed=9, p=8, n=30)
        report = fit(problem, GreedyConfig(epsilon=1e-9, max_forward_steps=1))
        assert report.termination == "max-steps"
        assert sum(1 for s in report.steps if s.kind == "forward") == 1

    @pytest.mark.parametrize("config", [None, 1e-3, {"epsilon": 1e-3}])
    def test_rejects_a_config_that_is_not_a_greedy_config(self, config):
        with pytest.raises(TypeError, match="config must be a GreedyConfig"):
            fit(two_point_problem(), config)

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

    def test_stopping_gate_is_scale_free(self):
        """X and y scaled by s and epsilon by s^2 give the same moves at every
        scale: the gate's slack is relative to the loss at beta = 0 (an
        absolute 1e-12 stopped this fit after 6 steps at s = 1e-6)."""
        spec = SynthSpec(p=128, n=74, r=2, kappa=0.5, noise_variance=1e-4, seed=1)
        base, _ = gen_synthetic(spec)
        config = SweepConfig(epsilon_c=1e-5).greedy_config(spec.support_size, spec.p, spec.n)
        moves = set()
        for s in (1e-6, 1e-3, 1.0, 1e3, 1e9):
            problem = MultiTaskProblem.from_arrays(
                [t.X * s for t in base.tasks], [t.y * s for t in base.tasks])
            report = fit(problem, replace(config, epsilon=config.epsilon * s * s))
            moves.add(tuple((st.kind, st.object_kind, st.index) for st in report.steps))
        assert len(moves) == 1 and len(moves.pop()) == 25

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
        state = SupportState(GreedyConfig(epsilon=0.0, w=2.5), 5, 3)
        for cell in [(1, 0), (1, 2), (3, 1)]:
            assert state.add("singleton", cell) is None
        assert state.add("row", (1,)) is None
        assert state.singles == {(3, 1)} and state.rows == {1}
        assert state.pattern() == SupportPattern(
            singletons=frozenset({(3, 1)}), rows=frozenset({1}))
        assert np.array_equal(np.argwhere(state.singles.mask), [[3, 1]])
        assert [state.task_support(j) for j in range(3)] == [{1}, {1, 3}, {1}]

    @pytest.mark.parametrize("w, at", [(1.5, 2), (2.0, 3), (2.7, 3)])
    def test_promotion_at_floor_w_plus_one(self, w, at):
        state = SupportState(GreedyConfig(epsilon=0.0, w=w), 5, 3)
        for j in range(at - 1):
            assert state.add("singleton", (4, j)) is None
        below = np.zeros((5, 3), dtype=bool)
        below[4, :at - 1] = True
        assert np.array_equal(state.singles.mask, below) and not state.rows.mask.any()
        assert state.add("singleton", (4, at - 1)) == 4
        assert state.singles == set() and state.rows == {4}
        assert not state.singles.mask.any()
        assert np.array_equal(state.rows.mask, np.arange(5) == 4)
        assert all(state.task_support(j) == {4} for j in range(3))

    def test_no_promotion_when_rows_off(self):
        state = SupportState(GreedyConfig(epsilon=0.0, w=1.5, rows_enabled=False), 1, 3)
        for j in range(3):
            assert state.add("singleton", (0, j)) is None
        assert state.singles == {(0, 0), (0, 1), (0, 2)} and state.rows == set()

    def test_removing_absent_object_raises(self):
        state = SupportState(GreedyConfig(epsilon=0.0), 1, 2)
        state.add("singleton", (0, 1))
        with pytest.raises(KeyError):
            state.remove("singleton", (0, 0))
        with pytest.raises(KeyError):
            state.remove("row", (0,))
        state.remove("singleton", (0, 1))
        assert state.pattern() == SupportPattern()


def retouched(report, k, **change):
    """``report`` with step k's record changed."""
    steps = list(report.steps)
    steps[k] = replace(steps[k], **change)
    return replace(report, steps=tuple(steps))


# One tampered report per failure branch of check_step_records and
# verify_trace: (id, tamper(report, k, u, zero loss), the branch's message),
# where step k removes a singleton against step f and no step touches
# feature u.
TAMPERS = [
    ("under-threshold", lambda rep, k, u, zero: retouched(rep, 0, reward_or_cost=0.0),
     "step 0: recorded reward 0.0 under threshold"),
    ("negative-cost", lambda rep, k, u, zero: retouched(rep, k, reward_or_cost=-1.0),
     "step {k}: negative removal cost"),
    ("empty-ledger", lambda rep, k, u, zero: replace(rep, steps=rep.steps[k:]),
     "step 0: removal with empty ledger"),
    ("popped-reward", lambda rep, k, u, zero: retouched(
        rep, k, popped_reward=2.0 * rep.steps[k].popped_reward),
     "step {k}: popped reward mismatch with step {f}"),
    ("cost-over-nu", lambda rep, k, u, zero: retouched(
        rep, k, reward_or_cost=rep.steps[k].popped_reward),
     "step {k}: cost .* exceeds nu"),
    ("loss-rise", lambda rep, k, u, zero: retouched(rep, k, loss_after=2.0 * zero + 1.0),
     "steps {f}/{k}: paired add/remove did not decrease the loss"),
    ("row-bound", lambda rep, k, u, zero: replace(
        rep, pattern=SupportPattern(singletons=frozenset({(u, 0), (u, 1)}))),
     "a non-shared row holds 2 singletons; limit is 1"),
    ("absent", lambda rep, k, u, zero: retouched(rep, k, index=(u, 0)),
     "step {k}: removing absent singleton"),
    ("pattern", lambda rep, k, u, zero: replace(rep, pattern=SupportPattern()),
     "replayed pattern differs"),
    ("final-loss", lambda rep, k, u, zero: replace(rep, final_loss=rep.final_loss + 0.5),
     "replayed final loss"),
]


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

    def test_rejects_a_singleton_added_on_a_held_row(self):
        problem = coalescing_problem()
        config = GreedyConfig(epsilon=1e-9, w=1.5, nu=0.5)
        report = fit(problem, config)
        idx = next(k for k, s in enumerate(report.steps) if s.promoted_row == 2)
        last = report.steps[-1]
        extra = StepRecord(kind="forward", object_kind="singleton", index=(2, 0),
                           reward_or_cost=1.0, loss_after=last.loss_after,
                           ledger_depth=last.ledger_depth + 1)
        bad = report.steps[:idx + 1] + (extra,) + report.steps[idx + 1:]
        assert all(s.kind == "forward" for s in bad[idx + 1:])
        with pytest.raises(AssertionError, match=rf"step {idx + 1}: adds singleton \(2, 0\)"):
            verify_trace(problem, config, replace(report, steps=bad))

    def test_rejects_tampered_traces_under_python_O(self):
        """The checks raise AssertionError themselves, so ``python -O``, which
        strips ``assert`` statements, still rejects a tampered trace."""
        script = textwrap.dedent("""
            from dataclasses import replace
            import numpy as np
            from mtgreedy import (GreedyConfig, SynthSpec, check_step_records, fit,
                                  gen_synthetic, loss, verify_trace)
            spec = SynthSpec(p=60, n=25, r=2, kappa=0.5, noise_variance=1.0, seed=5)
            problem, _ = gen_synthetic(spec)
            config = GreedyConfig(epsilon=1e-3)
            report = fit(problem, config)
            bad = list(report.steps)
            bad[0] = replace(bad[0], reward_or_cost=-1.0, loss_after=bad[0].loss_after + 0.5)
            tampered = replace(report, steps=tuple(bad))
            zero = loss(problem, np.zeros((problem.p, problem.r)))
            print(__debug__)
            for check in (lambda: check_step_records(tampered, config, zero),
                          lambda: verify_trace(problem, config, tampered)):
                try:
                    check()
                except AssertionError as e:
                    print(e)
                else:
                    print("accepted")
            """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        rejected = "step 0: recorded reward -1.0 under threshold"
        assert out.stdout.splitlines() == ["False", rejected, rejected]

    def test_checks_hold_at_any_data_scale(self, monkeypatch):
        """X and y scaled by s, epsilon by s^2: the same moves, a clean replay,
        and a tampered step loss, a tampered final loss and a nudged replay
        solve still fail, below scale 1 too."""
        spec = SynthSpec(p=128, n=74, r=2, kappa=0.5, noise_variance=1e-4, seed=1)
        base, _ = gen_synthetic(spec)
        config = SweepConfig(epsilon_c=1e-5).greedy_config(spec.support_size, spec.p, spec.n)
        reference = engine.refit

        def nudged(problem, pattern, factors=None):
            return reference(problem, pattern, factors) * (1.0 + 1e-6)

        moves = None
        for s in (1.0, 1e3, 1e6, 1e-3, 1e-6):
            problem = MultiTaskProblem.from_arrays(
                [t.X * s for t in base.tasks], [t.y * s for t in base.tasks])
            scaled = replace(config, epsilon=config.epsilon * s * s)
            report = fit(problem, scaled)
            got = [(st.kind, st.object_kind, st.index, st.promoted_row) for st in report.steps]
            assert moves is None or got == moves
            moves = got
            verify_trace(problem, scaled, report)
            bad = list(report.steps)
            bad[0] = replace(bad[0], loss_after=bad[0].loss_after * (1.0 + 1e-6))
            with pytest.raises(AssertionError, match="step 0: replayed loss"):
                verify_trace(problem, scaled, replace(report, steps=tuple(bad)))
            with pytest.raises(AssertionError, match="replayed final loss"):
                verify_trace(problem, scaled,
                             replace(report, final_loss=report.final_loss * (1.0 + 1e-3)))
            with monkeypatch.context() as m:
                m.setattr(engine, "refit", nudged)
                with pytest.raises(AssertionError, match="step 0: gradient"):
                    verify_trace(problem, scaled, report, loss_tol=math.inf)
        assert len(moves) == 25

    def test_removal_cost_floor_scales_with_the_loss_at_zero(self):
        """A removal cost may fall below 0 by 1e-10 of the loss at beta = 0,
        the size of its round-off, at every data scale, and by no more."""
        spec = SynthSpec(p=20, n=30, r=2, kappa=0.5, noise_variance=0.5, seed=4)
        base, _ = gen_synthetic(spec)
        for s in (1e-3, 1.0, 1e3):
            problem = MultiTaskProblem.from_arrays(
                [t.X * s for t in base.tasks], [t.y * s for t in base.tasks])
            config = GreedyConfig(epsilon=1e-3 * s * s)
            report = fit(problem, config)
            k = next(k for k, st in enumerate(report.steps) if st.kind == "backward")
            zero = loss(problem, np.zeros((problem.p, problem.r)))
            check_step_records(retouched(report, k, reward_or_cost=-0.5e-10 * zero),
                               config, zero)
            with pytest.raises(AssertionError, match=f"step {k}: negative removal cost"):
                check_step_records(retouched(report, k, reward_or_cost=-2e-10 * zero),
                                   config, zero)

    def test_coefficient_check_follows_the_support_condition(self):
        """A support holding two columns 1e-5 apart: the incremental and the
        reference solve differ by the problem's own sensitivity, far above
        round-off on O(1) coefficients, and the replay accepts it."""
        rng = np.random.default_rng(0)
        n = 40
        X = rng.standard_normal((n, 6))
        X[:, 1] = X[:, 0] + 1e-5 * rng.standard_normal(n)
        y = (X[:, 0] + 0.2 * (X[:, 1] - X[:, 0]) / 1e-5 + 0.5 * X[:, 3]
             + 1e-3 * rng.standard_normal(n))
        problem = MultiTaskProblem.from_arrays([X], [y])
        config = GreedyConfig(epsilon=0.0, rows_enabled=False)
        report = fit(problem, config)
        assert {0, 1} <= report.pattern.task_support(0)
        gap = np.abs(report.coefficients - refit(problem, report.pattern)).max()
        assert 1e-12 < gap < 1e-5
        verify_trace(problem, config, report)

    def test_rejects_tampered_coefficients(self):
        problem, _, _, _ = planted_shared_problem(seed=3, p=8, n=30)
        config = GreedyConfig(epsilon=1e-9, w=1.5, nu=0.5)
        report = fit(problem, config)
        verify_trace(problem, config, report)
        bad = report.coefficients * (1.0 + 1e-6)
        with pytest.raises(AssertionError, match="replayed coefficients differ"):
            verify_trace(problem, config, replace(report, coefficients=bad))

    @pytest.mark.parametrize("tamper, message", [t[1:] for t in TAMPERS],
                             ids=[t[0] for t in TAMPERS])
    def test_each_failure_branch_names_its_fault(self, tamper, message):
        spec = SynthSpec(p=20, n=30, r=2, kappa=0.5, noise_variance=0.5, seed=4)
        problem, _ = gen_synthetic(spec)
        config = GreedyConfig(epsilon=1e-3)
        report = fit(problem, config)
        verify_trace(problem, config, report)
        k = next(k for k, s in enumerate(report.steps)
                 if s.kind == "backward" and s.object_kind == "singleton")
        u = min(set(range(problem.p)) - {s.index[0] for s in report.steps})
        zero = loss(problem, np.zeros((problem.p, problem.r)))
        message = message.format(k=k, f=report.steps[k].popped_step)
        with pytest.raises(AssertionError, match=message):
            verify_trace(problem, config, tamper(report, k, u, zero))


@st.composite
def degenerate_multitask_problems(draw):
    """r in {2, 3} tasks with n in [3, 12], so n falls below the support size
    at times, on one design shared by every task or one design per task.
    Each design has a zero column and a duplicated one, and every response
    loads on the duplicated feature, so that feature is a row candidate."""
    r = draw(st.sampled_from([2, 3]))
    p = draw(st.integers(3, 8))
    n = draw(st.integers(3, 12))
    zero, dup, twin = draw(st.lists(st.integers(0, p - 1), min_size=3, max_size=3, unique=True))
    shared = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def design():
        X = rng.standard_normal((n, p))
        X[:, zero] = 0.0
        X[:, dup] = X[:, twin]
        return X

    designs = [design()] * r if shared else [design() for _ in range(r)]
    responses = []
    for X in designs:
        b = rng.standard_normal(p) * (rng.random(p) < 0.3)
        b[dup] = rng.choice([-1.0, 1.0]) * (1.0 + rng.random())
        responses.append(X @ b + 0.1 * rng.standard_normal(n))
    return MultiTaskProblem.from_arrays(designs, responses)


def scaled_problem(problem, factor):
    """``problem`` with every design and response times ``factor``; tasks
    that share a design still share one."""
    made = {}
    designs = [made.setdefault(id(t.X), t.X * factor) for t in problem.tasks]
    return MultiTaskProblem.from_arrays(designs, [t.y * factor for t in problem.tasks])


def moves(report):
    return [(s.kind, s.object_kind, s.index, s.promoted_row) for s in report.steps]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(degenerate_multitask_problems(),
       st.sampled_from([1.0, 1.5, 2.0, "r"]),
       st.sampled_from([0.0, 1e-3, 1e-1]))
def test_multitask_fits_hold_their_invariants_at_any_scale(problem, w, epsilon):
    """Every fit replays under ``verify_trace`` within its step cap, and
    scaling X and y by 2^k and epsilon by 4^k scales every product exactly,
    so the fit makes the same moves and stops for the same reason."""
    config = GreedyConfig(epsilon=epsilon, w=problem.r if w == "r" else w, nu=0.5)
    report = fit(problem, config)
    verify_trace(problem, config, report)
    forward = sum(s.kind == "forward" for s in report.steps)
    assert forward <= config.step_cap(problem.p, problem.r)
    for k in (-10, 10):
        big = fit(scaled_problem(problem, 2.0 ** k), replace(config, epsilon=epsilon * 4.0 ** k))
        assert moves(big) == moves(report)
        assert big.termination == report.termination
