import math

import numpy as np
import pytest

from mtgreedy import (
    GreedyConfig,
    MultiTaskProblem,
    SweepConfig,
    SweepRow,
    SynthSpec,
    cross_validate,
    fit,
    gen_synthetic,
    n_for_theta,
    run_sweep,
    sign_support_success,
    theta,
    transition_threshold,
    trial_seed,
)
from mtgreedy import experiments
from mtgreedy.experiments import _path_grid, crossing_se


class TestTheta:
    def test_unit_value_at_definition(self):
        s, p, kappa = 5, 64, 0.5
        n = s * math.log(p - (2 - kappa) * s)
        assert theta(n, s, p, kappa) == pytest.approx(1.0, rel=1e-12)

    def test_paper_scale_sample_count(self):
        assert n_for_theta(2.0, 13, 128, 2 / 3) == 123

    def test_ceiling_round_trip(self):
        for t in (0.3, 0.7, 1.0, 1.9):
            n = n_for_theta(t, 13, 128, 0.3)
            assert theta(n, 13, 128, 0.3) >= t

    def test_degenerate_log_argument(self):
        # p - (2 - kappa) * s = 8 - 7.5 does not exceed 1
        with pytest.raises(ValueError):
            theta(10, 5, 8, 0.5)
        with pytest.raises(ValueError):
            n_for_theta(1.0, 5, 8, 0.5)

    def test_empty_support_rejected(self):
        """s = 0, the default sparsity of p < 5, names s instead of dividing
        by zero."""
        with pytest.raises(ValueError, match="s >= 1"):
            theta(10, 0, 64, 0.5)
        with pytest.raises(ValueError, match="s >= 1"):
            n_for_theta(1.0, 0, 64, 0.5)


class TestGenSynthetic:
    def test_full_overlap_shares_all_features(self):
        problem, beta = gen_synthetic(SynthSpec(p=20, n=10, s=3, kappa=1.0, seed=1))
        nz0 = set(np.flatnonzero(beta[:, 0]))
        nz1 = set(np.flatnonzero(beta[:, 1]))
        assert nz0 == nz1 and len(nz0) == 3

    def test_no_overlap_disjoint_supports(self):
        problem, beta = gen_synthetic(SynthSpec(p=20, n=10, s=3, kappa=0.0, seed=2))
        nz0 = set(np.flatnonzero(beta[:, 0]))
        nz1 = set(np.flatnonzero(beta[:, 1]))
        assert len(nz0) == len(nz1) == 3 and nz0.isdisjoint(nz1)

    def test_seed_determinism(self):
        spec = SynthSpec(p=16, n=8, s=2, kappa=0.5, seed=11)
        p1, b1 = gen_synthetic(spec)
        p2, b2 = gen_synthetic(spec)
        assert np.array_equal(b1, b2)
        for t1, t2 in zip(p1.tasks, p2.tasks):
            assert np.array_equal(t1.X, t2.X) and np.array_equal(t1.y, t2.y)

    def test_default_support_size_rounds_p_over_ten(self):
        assert SynthSpec(p=128, n=5).support_size == 13
        assert SynthSpec(p=64, n=5).support_size == 6

    def test_rejects_oversized_supports(self):
        with pytest.raises(ValueError):
            gen_synthetic(SynthSpec(p=5, n=4, s=3, kappa=0.0, seed=0))

    @pytest.mark.parametrize("field, value", [("r", 0), ("s", -2)])
    def test_rejects_a_count_out_of_range_naming_it(self, field, value):
        with pytest.raises(ValueError, match=f"{field}={value}"):
            SynthSpec(p=10, n=5, **{field: value})
        assert SynthSpec(p=10, n=5, r=1, s=0).support_size == 0

    def test_noise_variance_scale(self):
        spec = SynthSpec(p=10, n=4000, s=1, kappa=1.0, noise_variance=0.25, seed=3)
        problem, beta = gen_synthetic(spec)
        res = problem.tasks[0].y - problem.tasks[0].X @ beta[:, 0]
        assert np.var(res) == pytest.approx(0.25, rel=0.15)


class TestSignSupport:
    def test_equal_matrices_succeed(self):
        m = np.array([[1.0, 0.0], [-2.0, 0.5]])
        assert sign_support_success(m, m.copy())

    def test_extra_nonzero_fails(self):
        truth = np.array([[1.0, 0.0]])
        est = np.array([[1.0, 1e-14]])
        assert not sign_support_success(est, truth)

    def test_flipped_sign_fails(self):
        truth = np.array([[1.0, -1.0]])
        est = np.array([[1.0, 1.0]])
        assert not sign_support_success(est, truth)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sign_support_success(np.zeros((2, 2)), np.zeros((2, 3)))


def _rows(rates, thetas):
    return [SweepRow(kappa=0.5, theta=t, n=10, trials=10,
                     successes=int(10 * r), success_rate=r, mean_frob_error=0.0)
            for t, r in zip(thetas, rates)]


class TestTransition:
    def test_step_crossing_interpolates_midpoint(self):
        assert transition_threshold(_rows([0.0, 1.0], [1.0, 2.0])) == pytest.approx(1.5)

    def test_partial_crossing_interpolates(self):
        assert transition_threshold(_rows([0.2, 0.8], [1.0, 2.0])) == pytest.approx(1.5)

    def test_no_crossing_signals_none(self):
        assert transition_threshold(_rows([0.0, 0.2, 0.4], [1, 2, 3])) is None

    def test_exact_half_at_grid_point(self):
        assert transition_threshold(_rows([0.5, 0.9], [1.0, 2.0])) == pytest.approx(1.0)

    def test_unsorted_input_is_sorted_first(self):
        assert transition_threshold(_rows([1.0, 0.0], [2.0, 1.0])) == pytest.approx(1.5)

    def test_crossing_se_is_the_delta_method_on_the_same_pair(self):
        # rates 0.2 and 0.8 over 10 trials each: both variances are taken at
        # the Jeffreys-type rates 2.5/11 and 8.5/11, so both terms are
        # 0.3^2 * (2.5/11) * (8.5/11) / 10
        se = crossing_se(_rows([0.0, 0.2, 0.8, 1.0], [0.5, 1.0, 2.0, 3.0]))
        var = 2.5 / 11 * 8.5 / 11 / 10
        assert se == pytest.approx(math.sqrt(2 * 0.09 * var) / 0.6 ** 2, rel=1e-12)
        assert crossing_se(_rows([0.0, 0.2, 0.4], [1, 2, 3])) is None
        flat = _rows([0.5, 0.5], [1.0, 2.0])      # locates nothing between the two
        assert transition_threshold(flat) == 1.0 and crossing_se(flat) == math.inf


class TestRunSweep:
    def test_requires_positive_trials(self):
        cfg = SweepConfig(epsilon_c=1e-4)
        with pytest.raises(ValueError):
            run_sweep(0.5, 32, [1.0], 0, cfg, 1)

    def test_deterministic_rows(self):
        cfg = SweepConfig(epsilon_c=1e-5, noise_variance=1e-4)
        a = run_sweep(0.5, 32, [1.5], 5, cfg, 7)
        b = run_sweep(0.5, 32, [1.5], 5, cfg, 7)
        assert a == b

    def test_rates_and_errors_populated(self):
        cfg = SweepConfig(epsilon_c=1e-5, noise_variance=1e-4)
        rows = run_sweep(0.5, 32, [0.3, 2.5], 6, cfg, 9)
        assert [r.n for r in rows] == [n_for_theta(t, 3, 32, 0.5) for t in (0.3, 2.5)]
        assert all(0.0 <= r.success_rate <= 1.0 for r in rows)
        assert all(r.successes == round(r.success_rate * r.trials) for r in rows)
        assert rows[1].success_rate >= rows[0].success_rate

    def test_sample_rich_and_sample_starved_extremes(self):
        # far above the transition recovery is routine, far below it is rare
        cfg = SweepConfig(epsilon_c=1e-5, w=1.5, nu=0.5, noise_variance=1e-4)
        rich = run_sweep(2 / 3, 128, [4.0], 25, cfg, 15)[0]
        starved = run_sweep(2 / 3, 128, [0.1], 25, cfg, 15)[0]
        assert rich.success_rate >= 0.7
        assert starved.success_rate <= 0.1
        assert rich.mean_frob_error < starved.mean_frob_error


class TestTrialSeed:
    def test_stable_and_distinct(self):
        a = trial_seed(42, 0.5, 1, 3)
        assert a == trial_seed(42, 0.5, 1, 3)
        others = {trial_seed(42, 0.5, 1, 4), trial_seed(42, 0.5, 2, 3),
                  trial_seed(42, 0.6, 1, 3), trial_seed(43, 0.5, 1, 3)}
        assert a not in others and len(others) == 4


class TestCrossValidate:
    def _split_instance(self, seed, n=60):
        spec = SynthSpec(p=16, n=n, s=2, kappa=0.5, noise_variance=0.0, seed=seed)
        problem, beta = gen_synthetic(spec)
        half = n // 2
        train = MultiTaskProblem.from_arrays(
            [t.X[:half] for t in problem.tasks], [t.y[:half] for t in problem.tasks])
        hold = MultiTaskProblem.from_arrays(
            [t.X[half:] for t in problem.tasks], [t.y[half:] for t in problem.tasks])
        return train, hold, beta

    def test_single_point_grid_returns_that_point(self):
        train, hold, _ = self._split_instance(seed=1)
        eps, w, report = cross_validate(train, hold, [0.01], [1.5], 0.5, s_hint=2)
        assert w == 1.5 and report["best_c"] == 0.01
        assert eps == pytest.approx(0.01 * 2 * math.log(16) / 30)

    def test_winner_scores_no_worse_than_grid(self):
        train, hold, _ = self._split_instance(seed=2)
        eps, w, report = cross_validate(
            train, hold, [1e-4, 1e-2, 1.0], [1.25, 1.75], 0.5, s_hint=2)
        best = min(r["holdout_score"] for r in report["rows"])
        winner = [r for r in report["rows"] if r["epsilon"] == eps and r["w"] == w]
        assert winner and winner[0]["holdout_score"] == best

    def test_noiseless_instance_reaches_exact_recovery(self):
        train, hold, beta = self._split_instance(seed=3)
        eps, w, report = cross_validate(
            train, hold, [1e-4, 1e-2, 1.0], [1.25, 1.5], 0.5, s_hint=2)
        refit = fit(train, GreedyConfig(epsilon=eps, w=w, nu=0.5))
        assert sign_support_success(refit.coefficients, beta)
        assert min(r["holdout_score"] for r in report["rows"]) <= 1e-16

    def test_empty_grid_rejected(self):
        train, hold, _ = self._split_instance(seed=4)
        for c_grid, w_grid in (([], [1.5]), ([1e-2], [])):
            with pytest.raises(ValueError, match="the grid is empty"):
                cross_validate(train, hold, c_grid, w_grid, 0.5, s_hint=2)

    @pytest.mark.parametrize("c", [-1.0, math.inf, math.nan])
    def test_rejects_a_negative_or_non_finite_c_naming_it(self, monkeypatch, c):
        """The refusal names c, before any epsilon is derived from it."""
        derived = []
        monkeypatch.setattr(experiments, "stopping_threshold",
                            lambda *args: derived.append(args))
        train, hold, _ = self._split_instance(seed=4)
        with pytest.raises(ValueError, match=f"c must be finite and >= 0, got {c}"):
            cross_validate(train, hold, [1e-2, c], [1.5], 0.5, s_hint=2)
        assert derived == []

    @pytest.mark.parametrize("s_hint", [0, 0.5, -1])
    def test_rejects_an_s_hint_below_one(self, s_hint):
        train, hold, _ = self._split_instance(seed=4)
        with pytest.raises(ValueError, match="s_hint must be >= 1"):
            cross_validate(train, hold, [1e-2], [1.5], 0.5, s_hint=s_hint)

    @pytest.mark.parametrize("shape", ["one task", "one more feature"])
    def test_rejects_a_holdout_of_another_shape_naming_both(self, monkeypatch, shape):
        """An r = 1 holdout would be scored on task 0 alone, and a wider one
        would fail in numpy after the whole grid was fit: both are refused
        before any path is made."""
        made = []
        monkeypatch.setattr(experiments, "FitPath", lambda *args: made.append(args))
        train, hold, _ = self._split_instance(seed=4)
        if shape == "one task":
            hold, want = hold.single_task(0), r"\(16, 1\) differs .* \(16, 2\)"
        else:
            hold, want = MultiTaskProblem.from_arrays(
                [np.hstack([t.X, t.X[:, :1]]) for t in hold.tasks],
                [t.y for t in hold.tasks]), r"\(17, 2\) differs .* \(16, 2\)"
        with pytest.raises(ValueError, match=want):
            cross_validate(train, hold, [1e-2], [1.5], 0.5, s_hint=2)
        assert made == []


class TestSingleTaskBaseline:
    def test_rows_always_empty(self, monkeypatch):
        """At full overlap the joint fit takes rows; the baseline's paths
        run with rows off, each task alone, and hold none at any point."""
        spec = SynthSpec(p=12, n=30, r=2, s=2, kappa=1.0, noise_variance=0.0, seed=6)
        problem, _ = gen_synthetic(spec)
        assert fit(problem, GreedyConfig(epsilon=1e-9, w=1.5, nu=0.5)).pattern.rows
        reports = []

        def kept(problem, config, path=None):
            reports.append(fit(problem, config, path))
            return reports[-1]

        monkeypatch.setattr(experiments, "fit", kept)
        single = SweepConfig(epsilon_c=1e-4, noise_variance=0.0, single_task=True)
        experiments.sweep_grid(1.0, 12, (2.0,), 2, [1.0, 0.0], [1.5, 2.0], single, 6)
        assert len(reports) == 2 * 2 * 2                # trials, c, tasks
        assert {report.coefficients.shape for report in reports} == {(12, 1)}
        assert all(report.pattern.rows == frozenset() for report in reports)

    def test_the_baseline_grid_holds_its_first_w_only(self, monkeypatch):
        """A rows-off config refuses no w, so the sweep builds the first w's
        grid only, with rows off, and that w's rows stand for every w."""
        built = []

        def path_grid(*args, **kwargs):
            built.append(_path_grid(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(experiments, "_path_grid", path_grid)
        single = SweepConfig(epsilon_c=1.0, nu=0.5, noise_variance=1e-2, single_task=True)
        ws = (1.5, 0.5, math.inf, 99.0)
        got = experiments.sweep_grid(0.5, 32, (1.0,), 2, [1.0], ws, single, 3)
        eps = experiments.stopping_threshold(1.0, 3, 32, n_for_theta(1.0, 3, 32, 0.5))
        assert built == [{1.5: [(1.0, GreedyConfig(epsilon=eps, w=1.5, nu=0.5,
                                                   rows_enabled=False))]}]
        assert len({tuple(got[1.0, w]) for w in ws}) == 1
        assert _path_grid({1.0: 0.1}, ws, 0.5, 2, rows_enabled=False) == {
            w: [(1.0, GreedyConfig(epsilon=0.1, w=w, nu=0.5, rows_enabled=False))]
            for w in ws}

    def test_full_sharing_needs_more_samples_than_joint(self):
        # statistical: at full overlap and a sample size between the two
        # transitions, pooled row selection succeeds where per-task fits fail
        joint = SweepConfig(epsilon_c=1e-4, w=1.02, nu=0.5, noise_variance=1e-3)
        single = SweepConfig(epsilon_c=1e-4, nu=0.5, noise_variance=1e-3, single_task=True)
        trials = 25
        jrow = run_sweep(1.0, 128, [0.6], trials, joint, 11)[0]
        srow = run_sweep(1.0, 128, [0.6], trials, single, 11)[0]
        assert jrow.success_rate >= srow.success_rate + 0.2
