import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from mtgreedy import GreedyConfig, digits, experiments, fit
from mtgreedy.cli import main
from mtgreedy.fileio import (
    format_float,
    problem_from_dict,
    to_json,
)


# sha256 of what `mtgreedy digits --n-per-class 10 --trials 2 --seed 1` prints
# on the conftest mfeat_dir data: it pins the digit protocol byte for byte.
DIGITS_SEED1_SHA256 = "ab7652c75e9b1eeb0d24ccc8f5593ac0a129feb24a932d1dfbb7ebb741c10f2c"
SRC = Path(__file__).resolve().parent.parent / "src"
USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
# The sweep whose printed CSV and crossing line are pinned, and the sha256
# of what it prints jointly and per task.
PINNED_SWEEP = ["sweep", "--p", "32", "--kappa", "0.5", "--theta-min", "0.4",
                "--theta-max", "1.2", "--theta-step", "0.4", "--trials", "4",
                "--seed", "3", "--epsilon-c", "1e-5"]
PINNED_SWEEP_DIGESTS = [
    ([], "1f42cd8ae85ab51e89d8a247fb8d79d6e23a15a3bfcc2fa9a88d2be9b7dd312b"),
    (["--single-task"], "33486a5662aced024ad86add418bad46ade8a3d6dded40e45ada0c102c5ffc99"),
]
# Runs the CLI with its first argument, when not empty, as both size rules
# (experiments.FORK_ELEMENTS and experiments.FORK_FIT_FEATURES; "inf" keeps
# everything serial), and reports on stderr how many children grid searches
# and sweeps started.
COUNTING_MAIN = textwrap.dedent("""
    import sys
    from mtgreedy import cli, experiments, processes

    limit = sys.argv.pop(1)
    if limit:
        experiments.FORK_ELEMENTS = experiments.FORK_FIT_FEATURES = float(limit)
    started = []
    start = processes._Child.__init__

    def counted(child, *args):
        start(child, *args)
        started.append(child)

    processes._Child.__init__ = counted
    code = cli.main(sys.argv[1:])
    print("children started:", len(started), file=sys.stderr)
    sys.exit(code)
""")


def run(args):
    return main(args)


def pinned_env():
    """This environment with BLAS pinned to one thread and ``src`` first on
    PYTHONPATH, for the CLI in a fresh interpreter."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class TestGen:
    def test_round_trip_and_metadata(self, tmp_path):
        out = tmp_path / "prob.json"
        assert run(["gen", "--p", "128", "--r", "2", "--s", "13", "--kappa", "0.3",
                    "--n", "123", "--seed", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["kappa"] == 0.3
        problem, beta_star, meta = problem_from_dict(doc)
        assert problem.p == 128 and problem.r == 2
        assert problem.tasks[0].n == 123
        assert beta_star is not None and np.count_nonzero(beta_star) > 0

    def test_full_overlap_supports_identical(self, tmp_path):
        out = tmp_path / "prob.json"
        assert run(["gen", "--p", "16", "--r", "2", "--s", "2", "--kappa", "1.0",
                    "--n", "12", "--seed", "7", "--out", str(out)]) == 0
        _, beta_star, _ = problem_from_dict(json.loads(out.read_text()))
        nz0 = set(np.flatnonzero(beta_star[:, 0]))
        nz1 = set(np.flatnonzero(beta_star[:, 1]))
        assert nz0 == nz1 and len(nz0) == 2

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["gen", "--r", "2", "--kappa", "0.5", "--n", "4", "--seed", "1"])
        assert err.value.code == 2

    @pytest.mark.parametrize("extra, field", [(["--r", "0"], "r=0"), (["--s", "-2"], "s=-2")])
    def test_count_out_of_range_is_input_error(self, capsys, extra, field):
        """A task count below 1 or a negative support size exits 2 naming its
        field, not 3 with an index or numpy error."""
        assert run(["gen", "--p", "10", "--kappa", "0.5", "--n", "5", "--seed", "1",
                    *extra]) == 2
        assert field in capsys.readouterr().err

    def test_non_finite_noise_variance_is_input_error(self, capsys):
        """A NaN variance exits 2 naming the field, not 2 with "non-finite
        data" from the drawn responses."""
        assert run(["gen", "--p", "10", "--kappa", "0.5", "--n", "5", "--seed", "1",
                    "--noise-variance", "nan"]) == 2
        assert "noise_variance must be finite" in capsys.readouterr().err

    def test_float_round_trip_is_exact(self, tmp_path):
        out = tmp_path / "prob.json"
        run(["gen", "--p", "6", "--r", "2", "--s", "1", "--kappa", "0.0",
             "--n", "4", "--seed", "3", "--out", str(out)])
        problem, _, _ = problem_from_dict(json.loads(out.read_text()))
        from mtgreedy import SynthSpec, gen_synthetic
        direct, _ = gen_synthetic(SynthSpec(p=6, n=4, r=2, s=1, kappa=0.0,
                                            noise_variance=0.1, seed=3))
        for a, b in zip(problem.tasks, direct.tasks):
            assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


class TestFit:
    @pytest.fixture
    def noiseless_file(self, tmp_path):
        path = tmp_path / "prob.json"
        run(["gen", "--p", "16", "--r", "2", "--s", "2", "--kappa", "1.0",
             "--n", "14", "--noise-variance", "0", "--seed", "7", "--out", str(path)])
        return path

    def test_exact_recovery_flag(self, noiseless_file, tmp_path):
        out = tmp_path / "fit.json"
        assert run(["fit", "--in", str(noiseless_file), "--epsilon", "1e-9",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["recovery"]["sign_support_exact"] is True
        assert doc["recovery"]["frob_error"] <= 1e-6
        assert doc["termination"] == "gain-below-threshold"

    def test_no_rows_empties_row_set(self, noiseless_file, tmp_path):
        out = tmp_path / "fit.json"
        assert run(["fit", "--in", str(noiseless_file), "--epsilon", "1e-9",
                    "--no-rows", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["pattern"]["rows"] == []

    def test_trace_pairs_each_removal_with_its_addition(self, tmp_path):
        """Every backward step names the forward step it pops, as in the
        in-memory report."""
        prob, out = tmp_path / "prob.json", tmp_path / "fit.json"
        assert run(["gen", "--p", "60", "--r", "2", "--kappa", "0.3", "--n", "25",
                    "--seed", "5", "--noise-variance", "1.0", "--out", str(prob)]) == 0
        assert run(["fit", "--in", str(prob), "--epsilon", "1e-3", "--out", str(out)]) == 0
        steps = json.loads(out.read_text())["steps"]
        problem, _, _ = problem_from_dict(json.loads(prob.read_text()))
        report = fit(problem, GreedyConfig(epsilon=1e-3))
        backward = [k for k, s in enumerate(steps) if s["kind"] == "backward"]
        assert backward and len(steps) == len(report.steps)
        for k in backward:
            assert steps[steps[k]["popped_step"]]["kind"] == "forward"
            assert steps[k]["popped_step"] == report.steps[k].popped_step
        assert all("popped_step" not in s for s in steps if s["kind"] == "forward")

    def test_invalid_backward_factor_rejected(self, noiseless_file):
        assert run(["fit", "--in", str(noiseless_file), "--epsilon", "1e-9",
                    "--nu", "1.5"]) == 2

    def test_infinite_epsilon_is_input_error(self, noiseless_file, capsys):
        """An infinite threshold exits 2 naming the field, not 0 with an
        empty fit."""
        assert run(["fit", "--in", str(noiseless_file), "--epsilon", "inf"]) == 2
        assert "epsilon must be finite" in capsys.readouterr().err

    def test_infinite_weight_on_one_task_rejected(self, tmp_path):
        """With r = 1 no w <= r check applies; an infinite w is still a usage error."""
        prob = tmp_path / "prob.json"
        assert run(["gen", "--p", "8", "--r", "1", "--kappa", "0.5", "--n", "12",
                    "--seed", "1", "--out", str(prob)]) == 0
        assert run(["fit", "--in", str(prob), "--epsilon", "1e-9", "--w", "inf"]) == 2

    def test_malformed_input_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"p": 4, "r": 2, "tasks": []}')
        assert run(["fit", "--in", str(bad), "--epsilon", "1e-9"]) == 2
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        assert run(["fit", "--in", str(garbled), "--epsilon", "1e-9"]) == 2
        flat = tmp_path / "flat.json"
        flat.write_text('{"p": 2, "r": 1, "tasks": [{"X": [1.0, 2.0], "y": [1.0, 2.0]}]}')
        assert run(["fit", "--in", str(flat), "--epsilon", "1e-9"]) == 2

    @pytest.mark.parametrize("change, field", [
        (lambda doc: doc.update(p=2.9), "p must be an integer, got 2.9"),
        (lambda doc: doc.update(p="2"), "p must be an integer, got '2'"),
        (lambda doc: doc.update(r=1.5), "r must be an integer, got 1.5"),
        (lambda doc: doc.update(r=True), "r must be an integer, got True"),
        (lambda doc: doc["tasks"][0].update(n=2.2), "task 0: n must be an integer, got 2.2"),
        (lambda doc: doc["tasks"][0].update(n=None), "task 0: n must be an integer, got None"),
        (lambda doc: doc.update(tasks=5), "tasks must be a list, got 5"),
        (lambda doc: doc.update(beta_star={"a": 1}), "beta_star: float() argument"),
    ], ids=["float-p", "string-p", "float-r", "bool-r", "float-n", "null-n", "scalar-tasks",
            "dict-beta-star"])
    def test_a_field_of_the_wrong_type_is_input_error(self, tmp_path, capsys, change, field):
        """A declared p, r or n that is not a JSON integer, a ``tasks`` that
        is not a list and a ``beta_star`` that numpy cannot convert to
        floats exit 2 naming the field: none is truncated, coerced or left
        to raise TypeError, which would exit 3 as an internal error."""
        prob = tmp_path / "prob.json"
        doc = problem_doc()
        prob.write_text(json.dumps(doc))
        assert run(["fit", "--in", str(prob), "--epsilon", "1e-9"]) == 0
        change(doc)
        prob.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["fit", "--in", str(prob), "--epsilon", "1e-9"]) == 2
        assert f"malformed problem file: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["fit", "--epsilon", "1e-9"],
                                         ["diagnose", "--d", "2", "--s", "2"]])
    def test_non_finite_truth_rejected_at_parse_time(self, tmp_path, capsys, command):
        """A NaN in beta_star is refused when the file is read, naming the
        field, before any fit runs or output is written."""
        prob, out = tmp_path / "prob.json", tmp_path / "out.json"
        assert run(["gen", "--p", "8", "--r", "2", "--kappa", "0.5", "--n", "12",
                    "--seed", "1", "--out", str(prob)]) == 0
        doc = json.loads(prob.read_text())
        doc["beta_star"][0][0] = float("nan")
        prob.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="beta_star"):
            problem_from_dict(json.loads(prob.read_text()))
        capsys.readouterr()
        assert run([command[0], "--in", str(prob), *command[1:], "--out", str(out)]) == 2
        assert "beta_star" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_single_point_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--p", "32", "--kappa", "0.5", "--theta-min", "4",
                    "--theta-max", "4", "--theta-step", "0.5", "--trials", "1",
                    "--seed", "1", "--epsilon-c", "1e-5",
                    "--noise-variance", "1e-4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kappa,theta,n,trials,successes,success_rate,mean_frob_error"
        assert len(lines) == 2
        assert "50% crossing" in capsys.readouterr().out

    def test_empty_grid_is_usage_error(self, capsys):
        """Refused by the sweep itself, the one check of an empty theta grid."""
        assert run(["sweep", "--p", "32", "--kappa", "0.5", "--theta-min", "2",
                    "--theta-max", "1", "--theta-step", "0.5", "--trials", "1",
                    "--seed", "1", "--epsilon-c", "1e-5"]) == 2
        assert "the theta grid is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--theta-step", "nan"), ("--theta-min", "nan"), ("--theta-min", "-1")])
    def test_bad_theta_flag_is_input_error(self, capsys, flag, value):
        """A NaN or negative theta flag exits 2 naming the flag, not with a
        float-to-integer conversion error or a negative sample size."""
        flags = {"--theta-min": "1", "--theta-max": "2", "--theta-step": "0.5", flag: value}
        assert run(["sweep", "--p", "32", "--kappa", "0.5", "--trials", "1", "--seed", "1",
                    "--epsilon-c", "1e-5", *(x for item in flags.items() for x in item)]) == 2
        assert f"{flag} must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "-1"])
    def test_bad_epsilon_c_is_input_error(self, capsys, value):
        """An infinite or negative constant exits 2 naming the field, not 0
        with every fit empty or 2 naming the threshold derived from it."""
        assert run(["sweep", "--p", "32", "--kappa", "0.5", "--theta-min", "1",
                    "--theta-max", "1", "--theta-step", "1", "--trials", "1",
                    "--seed", "1", "--epsilon-c", value]) == 2
        assert "epsilon_c must be finite and >= 0" in capsys.readouterr().err

    def test_empty_default_support_is_input_error(self, capsys):
        """At p = 4 the default support size p / 10 rounds to 0: exit 2
        naming s, not 3 with a division by zero."""
        assert run(["sweep", "--p", "4", "--kappa", "0.5", "--theta-min", "1",
                    "--theta-max", "1", "--theta-step", "1", "--trials", "1",
                    "--seed", "1", "--epsilon-c", "1e-3"]) == 2
        assert "s=0" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, digest", PINNED_SWEEP_DIGESTS)
    def test_printed_sweep_is_pinned(self, capsys, extra, digest):
        """sha256 of the printed CSV and crossing line: it pins the sweep
        protocol byte for byte, per-task baseline included."""
        assert run([*PINNED_SWEEP, *extra]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.skipif(USABLE_CPUS < 2, reason="needs two usable CPUs")
    @pytest.mark.parametrize("extra, digest", PINNED_SWEEP_DIGESTS)
    def test_a_split_sweep_prints_the_pinned_bytes(self, extra, digest):
        """The real CLI in fresh interpreters with BLAS pinned: with the
        size rules at 0 the sweep forks, unchanged this sweep is too small
        to split, and both print the pinned bytes."""
        runs = [subprocess.run([sys.executable, "-c", COUNTING_MAIN, limit, *PINNED_SWEEP,
                                *extra], env=pinned_env(), capture_output=True, timeout=300)
                for limit in ("0", "")]
        for run in runs:
            assert run.returncode == 0, run.stderr.decode()
            assert hashlib.sha256(run.stdout).hexdigest() == digest
        started = [int(run.stderr.rsplit(b"children started:", 1)[1]) for run in runs]
        assert started[0] >= 1 and started[1] == 0

    def test_a_w_above_the_task_count_is_refused_by_its_flag(self, capsys, monkeypatch):
        """Exit 2 naming --w before any problem is drawn; the per-task
        baseline reads no w."""
        drawn = []
        monkeypatch.setattr(experiments, "gen_synthetic", lambda spec: drawn.append(spec))
        for w in ("3", "0.5"):
            assert run([*PINNED_SWEEP, "--w", w]) == 2
            assert capsys.readouterr().err.startswith("error: --w: w")
        assert drawn == []
        monkeypatch.undo()
        assert run([*PINNED_SWEEP, "--w", "3", "--single-task"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            PINNED_SWEEP_DIGESTS[1][1])

    def test_crossing_line_carries_its_standard_error(self, capsys):
        assert run(["sweep", "--p", "64", "--kappa", "1", "--theta-min", "0.5",
                    "--theta-max", "2.5", "--theta-step", "1", "--trials", "4",
                    "--seed", "1", "--epsilon-c", "1e-4", "--noise-variance", "1e-4"]) == 0
        # rates 0 and 1 over 4 trials: the variances are taken at the rates
        # 0.5/5 and 4.5/5, so the error is sqrt(2 * 0.5^2 * 0.1 * 0.9 / 4), not 0
        assert capsys.readouterr().out.endswith(
            "50% crossing: theta = 1, standard error 0.106\n")

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--p", "32", "--kappa", "0.5", "--theta-min", "1",
                "--theta-max", "2", "--theta-step", "0.5", "--trials", "3",
                "--seed", "5", "--epsilon-c", "1e-5", "--noise-variance", "1e-4"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestDiagnose:
    def test_small_problem_fully_populated(self, tmp_path):
        prob = tmp_path / "prob.json"
        run(["gen", "--p", "8", "--r", "2", "--s", "2", "--kappa", "0.5",
             "--n", "20", "--noise-variance", "0", "--seed", "2", "--out", str(prob)])
        out = tmp_path / "diag.json"
        assert run(["diagnose", "--in", str(prob), "--d", "2", "--s", "2",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["lambda"] == 0.0
        assert doc["epsilon_lower"] == 0.0
        assert doc["C_min"] > 0 and doc["rho"] >= 1.0
        assert doc["eta_lower"] > 2.0 and doc["error_bound"] == 0.0
        assert len(doc["partition"]["shared_rows"]) == 1

    def test_infeasible_enumeration_nulls_rep_fields(self, tmp_path, capsys):
        prob = tmp_path / "prob.json"
        run(["gen", "--p", "500", "--r", "2", "--s", "3", "--kappa", "0.5",
             "--n", "12", "--seed", "2", "--out", str(prob)])
        out = tmp_path / "diag.json"
        assert run(["diagnose", "--in", str(prob), "--d", "2", "--s", "3",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["C_min"] is None and doc["rho"] is None
        assert doc["error_bound"] is None
        assert doc["lambda"] is not None and doc["partition"]["s_star"]

    def test_requires_truth(self, tmp_path):
        prob = tmp_path / "prob.json"
        run(["gen", "--p", "8", "--r", "2", "--s", "2", "--kappa", "0.5",
             "--n", "10", "--seed", "2", "--out", str(prob)])
        doc = json.loads(prob.read_text())
        del doc["beta_star"]
        stripped = tmp_path / "stripped.json"
        stripped.write_text(json.dumps(doc))
        assert run(["diagnose", "--in", str(stripped), "--d", "2", "--s", "2"]) == 2


class TestDigitsCommand:
    def test_missing_dataset_exits_with_expected_files(self, tmp_path, capsys):
        assert run(["digits", "--data-dir", str(tmp_path), "--n-per-class", "10",
                    "--seed", "1"]) == 2
        assert "mfeat-fac" in capsys.readouterr().err

    def test_one_row_per_class_exits_2(self, mfeat_dir, capsys):
        assert run(["digits", "--data-dir", str(mfeat_dir), "--n-per-class", "1",
                    "--seed", "1"]) == 2
        assert "class 0 has 1 training row" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "0.1,-1"])
    def test_bad_epsilon_c_grid_is_input_error(self, mfeat_dir, capsys, value):
        """A negative or non-finite constant exits 2 naming the flag, not
        naming the threshold derived from it."""
        assert run(["digits", "--data-dir", str(mfeat_dir), "--n-per-class", "10",
                    "--seed", "1", "--epsilon-c-grid", value]) == 2
        assert "--epsilon-c-grid: c must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_bad_trial_count_is_refused_before_the_dataset_loads(self, mfeat_dir, capsys,
                                                                  monkeypatch, trials):
        loads = []
        monkeypatch.setattr(digits, "load_mfeat", lambda *args: loads.append(args))
        assert run(["digits", "--data-dir", str(mfeat_dir), "--n-per-class", "10",
                    "--seed", "1", "--trials", trials]) == 2
        assert "need trials >= 1" in capsys.readouterr().err
        assert loads == []

    @pytest.mark.parametrize("n_per_class", ["0", "200", "201"])
    def test_bad_row_count_is_refused_before_the_dataset_loads(self, mfeat_dir, capsys,
                                                                monkeypatch, n_per_class):
        """200 rows per class would leave no test row, and every class would
        score 0.0."""
        loads = []
        monkeypatch.setattr(digits, "load_mfeat", lambda *args: loads.append(args))
        assert run(["digits", "--data-dir", str(mfeat_dir), "--n-per-class", n_per_class,
                    "--seed", "1"]) == 2
        assert "--n-per-class must lie in [1, 199]" in capsys.readouterr().err
        assert loads == []

    @pytest.mark.parametrize("extra, code, message", [
        (["--w-grid", "1.5,x"], 2, "argument --w-grid: bad float list '1.5,x'"),
        (["--epsilon-c-grid", ","], 2, "argument --epsilon-c-grid: empty list"),
        ([], 3, "internal error: the loader broke"),
    ], ids=["bad-list", "empty-list", "internal"])
    def test_exit_codes(self, mfeat_dir, capsys, monkeypatch, extra, code, message):
        """A bad float list is a usage error, exit 2 from the parser; an
        exception that is not an input error exits 3."""
        def broken(directory):
            raise RuntimeError("the loader broke")

        monkeypatch.setattr(digits, "load_mfeat", broken)
        try:
            got = run(["digits", "--data-dir", str(mfeat_dir), "--n-per-class", "10",
                       "--seed", "1", *extra])
        except SystemExit as exc:
            got = exc.code
        assert got == code
        assert message in capsys.readouterr().err

    def test_single_trial_report(self, mfeat_dir, tmp_path, capsys):
        out = tmp_path / "digits.json"
        assert run(["digits", "--data-dir", str(mfeat_dir), "--n-per-class", "10",
                    "--trials", "1", "--seed", "5", "--epsilon-c-grid", "0.005",
                    "--w-grid", "1.5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["trials"] == 1
        assert set(doc["mean"]) == {"avg_error", "error_variance",
                                    "avg_row_support", "avg_support"}
        assert len(doc["per_trial"]) == 1
        assert doc["per_trial"][0]["avg_error"] <= 0.5  # planted marker columns
        # two trials on the default grids
        assert run(["digits", "--data-dir", str(mfeat_dir), "--n-per-class", "10",
                    "--trials", "2", "--seed", "1"]) == 0
        printed = capsys.readouterr().out.encode()
        assert hashlib.sha256(printed).hexdigest() == DIGITS_SEED1_SHA256

    @pytest.mark.skipif(USABLE_CPUS < 2, reason="needs two usable CPUs")
    def test_a_split_grid_search_prints_the_same_bytes(self, mfeat_dir):
        """The real CLI in fresh interpreters with BLAS pinned: with the
        split size at 0 every grid search forks, at infinity none does, and
        both print the pinned bytes."""
        args = ["digits", "--data-dir", str(mfeat_dir), "--n-per-class", "10",
                "--trials", "2", "--seed", "1"]
        runs = [subprocess.run([sys.executable, "-c", COUNTING_MAIN, limit, *args],
                               env=pinned_env(), capture_output=True, timeout=300)
                for limit in ("0", "inf")]
        for run in runs:
            assert run.returncode == 0, run.stderr.decode()
        assert runs[0].stdout == runs[1].stdout
        assert hashlib.sha256(runs[0].stdout).hexdigest() == DIGITS_SEED1_SHA256
        started = [int(run.stderr.rsplit(b"children started:", 1)[1]) for run in runs]
        assert started[0] >= 2 and started[1] == 0       # two trials, two grid searches


class TestRoundTrip:
    def test_parse_then_serialize_is_byte_stable(self, tmp_path):
        out = tmp_path / "prob.json"
        run(["gen", "--p", "10", "--r", "2", "--s", "2", "--kappa", "0.5",
             "--n", "8", "--seed", "21", "--out", str(out)])
        original = out.read_text().rstrip("\n")
        doc = json.loads(original)
        problem, beta_star, meta = problem_from_dict(doc)
        from mtgreedy.fileio import problem_to_dict
        again = to_json(problem_to_dict(problem, beta_star=beta_star, meta=meta))
        assert again == original


def problem_doc():
    """A valid two-feature, one-task problem document."""
    return {"p": 2, "r": 1, "beta_star": [[1.0], [2.0]],
            "tasks": [{"n": 2, "X": [[1.0, 0.0], [0.0, 1.0]], "y": [1.0, 2.0]}]}


@pytest.mark.parametrize("change, refusal", [
    (lambda doc: doc.pop("p"), "malformed problem file"),
    (lambda doc: doc.update(r="one"), "malformed problem file"),
    (lambda doc: doc["tasks"][0].pop("y"), "task 0: malformed arrays"),
    (lambda doc: doc["tasks"][0].update(X=[[1.0, 0.0], [0.0]]), "task 0: malformed arrays"),
    (lambda doc: doc["tasks"][0].update(n=3), "task 0: declared n=3 but X has 2 rows"),
    (lambda doc: doc["tasks"][0].update(X=[1.0, 0.0]), r"task 0: design shape \(2,\) is not 2-d"),
    (lambda doc: doc.update(p=3), "problem file declares p=3 but its designs have 2 columns"),
    (lambda doc: doc.update(beta_star=[[1.0, 2.0]]),
     r"beta_star shape \(1, 2\) does not match \(2, 1\)"),
], ids=["no-p", "bad-r", "no-y", "ragged-X", "declared-n", "flat-X", "declared-p",
        "beta-star-shape"])
def test_problem_from_dict_refuses_a_malformed_document(change, refusal):
    problem_from_dict(problem_doc())
    doc = problem_doc()
    change(doc)
    with pytest.raises(ValueError, match=refusal):
        problem_from_dict(doc)


class TestSerialization:
    def test_seventeen_digit_floats(self):
        assert format_float(2.0) == "2"
        x = 0.1 + 0.2
        assert float(format_float(x)) == x
        assert format_float(1.0 / 3.0) == "0.33333333333333331"

    def test_to_json_is_deterministic(self):
        doc = {"a": [1.5, 2, None], "b": {"c": True, "d": "x"}}
        assert to_json(doc) == to_json(doc)
        parsed = json.loads(to_json(doc))
        assert parsed == {"a": [1.5, 2, None], "b": {"c": True, "d": "x"}}

    @pytest.mark.parametrize("obj, text", [
        ({}, "{}"),
        ({"meta": {}, "rows": []}, '{\n  "meta": {},\n  "rows": []\n}'),
    ])
    def test_empty_containers(self, obj, text):
        assert to_json(obj) == text and json.loads(text) == obj

    def test_rejects_an_array(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            to_json({"beta": np.zeros(2)})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            format_float(float("nan"))
