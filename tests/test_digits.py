import numpy as np
import pytest

from mtgreedy import FitReport, GreedyConfig, SupportPattern, fit
from mtgreedy.digits import (
    FEATURE_FILES,
    N_FEATURES,
    DigitDataset,
    build_tasks,
    classify_and_report,
    expected_files,
    load_mfeat,
    split_for_validation,
)


class TestLoader:
    def test_shapes_labels_and_standardization(self, mfeat_dir):
        ds = load_mfeat(mfeat_dir)
        assert ds.features.shape == (2000, N_FEATURES)
        assert np.array_equal(np.bincount(ds.labels), np.full(10, 200))
        means = ds.features.mean(axis=0)
        stds = ds.features.std(axis=0)
        assert np.max(np.abs(means)) <= 1e-9
        assert np.all((np.abs(stds - 1.0) <= 1e-9) | (stds == 0.0))
        assert np.any(stds == 0.0)  # the constant columns collapsed to zero

    def test_deterministic_reload(self, mfeat_dir):
        a = load_mfeat(mfeat_dir)
        b = load_mfeat(mfeat_dir)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_missing_file_lists_expectations(self, tmp_path):
        with pytest.raises(FileNotFoundError) as err:
            load_mfeat(tmp_path)
        for path in expected_files(tmp_path):
            assert path in str(err.value)

    def test_truncated_file_names_offender(self, mfeat_dir, tmp_path):
        broken = tmp_path / "broken"
        broken.mkdir()
        for name, _ in FEATURE_FILES:
            src = mfeat_dir / f"mfeat-{name}"
            dst = broken / f"mfeat-{name}"
            dst.write_text(src.read_text())
        target = broken / "mfeat-mor"
        lines = target.read_text().splitlines()
        target.write_text("\n".join(lines[:150]) + "\n")
        with pytest.raises(ValueError, match="mfeat-mor"):
            load_mfeat(broken)

    def test_bad_column_count_reports_line(self, mfeat_dir, tmp_path):
        broken = tmp_path / "badcols"
        broken.mkdir()
        for name, _ in FEATURE_FILES:
            (broken / f"mfeat-{name}").write_text((mfeat_dir / f"mfeat-{name}").read_text())
        target = broken / "mfeat-zer"
        lines = target.read_text().splitlines()
        lines[4] = "1 2 3"
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="mfeat-zer:5"):
            load_mfeat(broken)

    @pytest.mark.parametrize("token", ["abc", "1.2.3"])
    def test_non_numeric_value_reports_line(self, mfeat_dir, tmp_path, token):
        broken = tmp_path / "nonnumeric"
        broken.mkdir()
        for name, _ in FEATURE_FILES:
            (broken / f"mfeat-{name}").write_text((mfeat_dir / f"mfeat-{name}").read_text())
        target = broken / "mfeat-mor"
        lines = target.read_text().splitlines()
        lines[2] = " ".join([token] + lines[2].split()[1:])
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="mfeat-mor:3: non-numeric value"):
            load_mfeat(broken)


class TestBuildTasks:
    def test_split_sizes_and_indicators(self, mfeat_dir):
        ds = load_mfeat(mfeat_dir)
        problem, test = build_tasks(ds, n_per_class=10, seed=1)
        assert problem.r == 10 and problem.p == N_FEATURES
        assert problem.tasks[0].n == 100
        assert test.features.shape[0] == 1900
        stacked = np.column_stack([t.y for t in problem.tasks])
        assert np.array_equal(stacked.sum(axis=1), np.ones(100))
        assert all(t.X is problem.tasks[0].X for t in problem.tasks)

    def test_seeded_split_is_stable(self, mfeat_dir):
        ds = load_mfeat(mfeat_dir)
        p1, t1 = build_tasks(ds, n_per_class=5, seed=9)
        p2, t2 = build_tasks(ds, n_per_class=5, seed=9)
        assert np.array_equal(p1.tasks[0].X, p2.tasks[0].X)
        assert np.array_equal(t1.labels, t2.labels)

    def test_out_of_range_count(self, mfeat_dir):
        """A count of PER_CLASS (200) or more leaves a class no test row."""
        ds = load_mfeat(mfeat_dir)
        for n_per_class in (0, 200, 201):
            with pytest.raises(ValueError, match=r"n_per_class must lie in \[1, 199\]"):
                build_tasks(ds, n_per_class=n_per_class, seed=1)

    def test_the_largest_count_leaves_each_class_one_test_row(self, mfeat_dir):
        _, test = build_tasks(load_mfeat(mfeat_dir), n_per_class=199, seed=1)
        assert np.array_equal(np.bincount(test.labels), np.ones(10))

    def test_validation_split_halves_classes(self, mfeat_dir):
        ds = load_mfeat(mfeat_dir)
        problem, _ = build_tasks(ds, n_per_class=10, seed=3)
        train, hold = split_for_validation(problem)
        assert train.tasks[0].n == 50 and hold.tasks[0].n == 50
        for sub in (train, hold):
            stacked = np.column_stack([t.y for t in sub.tasks])
            assert np.array_equal(stacked.sum(axis=0), np.full(10, 5.0))

    def test_validation_split_refuses_a_one_row_class(self, mfeat_dir):
        """A class's only row would sit in both halves, so the holdout would
        score a row the fit trained on."""
        problem, _ = build_tasks(load_mfeat(mfeat_dir), n_per_class=1, seed=3)
        with pytest.raises(ValueError, match="class 0 has 1 training row"):
            split_for_validation(problem)

    @pytest.mark.parametrize("n_per_class", [2, 3])
    def test_validation_halves_share_no_row(self, mfeat_dir, n_per_class):
        problem, _ = build_tasks(load_mfeat(mfeat_dir), n_per_class=n_per_class, seed=3)
        train, hold = split_for_validation(problem)
        rows = [{tuple(x) for x in half.tasks[0].X} for half in (train, hold)]
        assert not rows[0] & rows[1]
        assert train.tasks[0].n + hold.tasks[0].n == 10 * n_per_class

    def test_validation_halves_share_one_design(self, mfeat_dir):
        """Each half slices X once: its tasks hold one design array, equal to
        the rows the per-class halving picks."""
        ds = load_mfeat(mfeat_dir)
        problem, _ = build_tasks(ds, n_per_class=10, seed=3)
        labels = np.argmax(np.column_stack([t.y for t in problem.tasks]), axis=1)
        halves = (slice(None, 5), slice(5, None))
        for sub, half in zip(split_for_validation(problem), halves):
            rows = np.concatenate([np.flatnonzero(labels == c)[half] for c in range(10)])
            assert all(t.X is sub.tasks[0].X for t in sub.tasks)
            assert np.array_equal(sub.tasks[0].X, problem.tasks[0].X[rows])
            for t, full in zip(sub.tasks, problem.tasks):
                assert np.array_equal(t.y, full.y[rows])


class TestClassifyAndReport:
    def _zero_report(self, p, r):
        return FitReport(coefficients=np.zeros((p, r)), pattern=SupportPattern(),
                         final_loss=0.0, steps=(), termination="gain-below-threshold")

    def test_zero_estimate_predicts_first_class(self):
        test = DigitDataset(features=np.ones((20, 4)),
                            labels=np.repeat(np.arange(10), 2))
        report = classify_and_report(self._zero_report(4, 10), test)
        assert report.avg_support == 0.0 and report.avg_row_support == 0.0
        # class 0 rows are right by tie-break, every other class is wrong
        assert report.per_digit_errors[0] == 0.0
        assert report.avg_error == pytest.approx(0.9)

    @pytest.mark.parametrize("r", [9, 11])
    def test_a_report_of_another_task_count_is_refused(self, r):
        test = DigitDataset(features=np.ones((20, 4)), labels=np.repeat(np.arange(10), 2))
        with pytest.raises(ValueError, match=f"expected 10 task columns, got {r}"):
            classify_and_report(self._zero_report(4, r), test)

    def test_a_class_without_test_rows_is_refused(self):
        """Scoring a class with no test row as 0.0 would hide it in avg_error."""
        test = DigitDataset(features=np.ones((18, 4)), labels=np.repeat(np.arange(9), 2))
        with pytest.raises(ValueError, match="no row of class 9"):
            classify_and_report(self._zero_report(4, 10), test)

    def test_perfect_separator_has_zero_error(self):
        rng = np.random.default_rng(2)
        beta = np.vstack([np.eye(10), np.zeros((3, 10))])
        labels = np.repeat(np.arange(10), 5)
        feats = np.zeros((50, 13))
        feats[np.arange(50), labels] = 1.0
        feats[:, 10:] = rng.standard_normal((50, 3)) * 0.01
        fr = FitReport(coefficients=beta, pattern=SupportPattern(),
                       final_loss=0.0, steps=(), termination="gain-below-threshold")
        report = classify_and_report(fr, DigitDataset(features=feats, labels=labels))
        assert report.avg_error == 0.0
        assert report.avg_row_support == 10.0 and report.avg_support == 10.0

    def test_report_invariant_to_test_ordering(self, mfeat_dir):
        ds = load_mfeat(mfeat_dir)
        problem, test = build_tasks(ds, n_per_class=5, seed=4)
        fr = fit(problem, GreedyConfig(epsilon=0.05, w=1.5, nu=0.5))
        base = classify_and_report(fr, test)
        perm = np.random.default_rng(0).permutation(test.features.shape[0])
        shuffled = DigitDataset(features=test.features[perm], labels=test.labels[perm])
        again = classify_and_report(fr, shuffled)
        assert base == again
        assert base.avg_row_support <= base.avg_support <= problem.p * problem.r

    def test_learns_synthetic_signal(self, mfeat_dir):
        ds = load_mfeat(mfeat_dir)
        problem, test = build_tasks(ds, n_per_class=20, seed=5)
        fr = fit(problem, GreedyConfig(epsilon=0.02, w=1.5, nu=0.5))
        report = classify_and_report(fr, test)
        assert report.avg_error < 0.5  # informative columns beat the 0.9 baseline
