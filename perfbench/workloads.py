"""The benchmark's workloads: input generation, the timed operation, and the
output summary that is compared with the reference recorded for a seed.

Every workload draws its inputs from the ``--seed`` argument; the program
only receives the generated problems.  Within one run the operations cycle
over ``cycle`` instances drawn from the seed, each instance built from fresh
arrays, so the same seed always measures the same work.  All calls into the
package go through module attributes at call time so that the probes of
``tracer`` see them.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mtgreedy import digits, engine, experiments, model

REL_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_references(name):
    """Recorded output summaries of a workload: {seed: [summary per instance]}."""
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)


def derive_seed(seed, tag, k):
    """Seed of instance k of a workload, independent of every other instance."""
    ss = np.random.SeedSequence(entropy=(int(seed), int(tag), int(k)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _digest(value):
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fit_summary(report):
    """What a fit must reproduce: pattern, step kinds, stop reason, loss."""
    kinds = "".join(
        ("f" if s.kind == "forward" else "b") + ("r" if s.object_kind == "row" else "s")
        for s in report.steps)
    pattern = [sorted(report.pattern.rows),
               sorted([int(i), int(j)] for i, j in report.pattern.singletons)]
    return {
        "pattern_sha": _digest([[int(m) for m in pattern[0]], pattern[1]]),
        "rows": len(report.pattern.rows),
        "singletons": len(report.pattern.singletons),
        "step_kinds_sha": _digest(kinds),
        "forward_steps": kinds.count("f"),
        "backward_steps": kinds.count("b"),
        "termination": report.termination,
        "final_loss": float(report.final_loss),
    }


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _fit_matches(got, want):
    return all(_close(got[k], want[k]) if k == "final_loss" else got[k] == want[k]
               for k in want)


@dataclass(frozen=True)
class SweepWorkload:
    """``run_sweep`` on the phase-transition protocol; one operation is one
    sweep over the whole theta grid with ``trials`` fresh problems per point."""

    name: str = "sweep_p128"
    p: int = 128
    kappa: float = 2.0 / 3.0
    theta_grid: tuple = tuple(round(0.2 * k, 1) for k in range(1, 11))
    trials: int = 5
    epsilon_c: float = 1e-5
    w: float = 1.5
    nu: float = 0.5
    noise_variance: float = 1e-4
    cycle: int = 32
    tag: int = 1

    def prepare(self, seed):
        return experiments.SweepConfig(
            epsilon_c=self.epsilon_c, w=self.w, nu=self.nu,
            noise_variance=self.noise_variance, check_traces=True)

    def instance(self, ctx, seed, k):
        return derive_seed(seed, self.tag, k)

    def run(self, ctx, master_seed):
        return experiments.run_sweep(
            self.kappa, self.p, self.theta_grid, self.trials, ctx, master_seed)

    def summary(self, result):
        return {"successes": [row.successes for row in result]}

    def mismatched_fits(self, got, want):
        """Fit indices (in call order) behind each differing theta point."""
        if len(got["successes"]) != len(want["successes"]):
            return set(range(len(want["successes"]) * self.trials))
        bad = set()
        for t, (a, b) in enumerate(zip(got["successes"], want["successes"])):
            if a != b:
                bad.update(range(t * self.trials, (t + 1) * self.trials))
        return bad


@dataclass(frozen=True)
class FitWorkload:
    """One large ``fit``; one operation is one fit on a fresh problem."""

    name: str = "fit_p2000_r4"
    p: int = 2000
    n: int = 800
    r: int = 4
    kappa: float = 0.5
    epsilon_c: float = 1e-5
    w: float = 1.5
    nu: float = 0.5
    noise_variance: float = 1e-4
    cycle: int = 1
    tag: int = 2

    def prepare(self, seed):
        sweep = experiments.SweepConfig(
            epsilon_c=self.epsilon_c, w=self.w, nu=self.nu,
            noise_variance=self.noise_variance)
        s = experiments.SynthSpec(p=self.p, n=self.n).support_size
        return sweep.greedy_config(s, self.p, self.n)

    def instance(self, ctx, seed, k):
        spec = experiments.SynthSpec(
            p=self.p, n=self.n, r=self.r, kappa=self.kappa,
            noise_variance=self.noise_variance, seed=derive_seed(seed, self.tag, k))
        problem, _ = experiments.gen_synthetic(spec)
        return problem

    def run(self, ctx, problem):
        return engine.fit(problem, ctx)

    def summary(self, result):
        return fit_summary(result)

    def mismatched_fits(self, got, want):
        return set() if _fit_matches(got, want) else {0}


@dataclass(frozen=True)
class CrossValidateWorkload:
    """Holdout grid search plus the final fit on a digits-shaped problem.

    The stand-in for the six-view digit data: ``classes * per_class`` rows of
    ``features`` Gaussian columns shifted by a per-class mean, standardized
    per column as ``digits.load_mfeat`` does, then split by
    ``digits.build_tasks`` into ten indicator tasks sharing one design.
    """

    name: str = "cv_shared_p649_r10"
    features: int = 649
    classes: int = 10
    per_class: int = 200
    n_per_class: int = 40
    class_shift: float = 0.5
    c_grid: tuple = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    w_grid: tuple = (1.0, 1.25, 1.5, 1.75, 2.0)
    nu: float = 0.5
    cycle: int = 2
    tag: int = 3

    def prepare(self, seed):
        return None

    def instance(self, ctx, seed, k):
        rng = np.random.default_rng(derive_seed(seed, self.tag, k))
        labels = np.repeat(np.arange(self.classes), self.per_class)
        means = self.class_shift * rng.standard_normal((self.classes, self.features))
        raw = means[labels] + rng.standard_normal((labels.size, self.features))
        features = (raw - raw.mean(axis=0)) / raw.std(axis=0)
        dataset = digits.DigitDataset(features=features, labels=labels)
        problem, _ = digits.build_tasks(dataset, self.n_per_class, int(rng.integers(2**31)))
        return problem

    def run(self, ctx, problem):
        train, holdout = digits.split_for_validation(problem)
        s_hint = max(1, round(problem.p / 10))
        _, w_best, cv = experiments.cross_validate(
            train, holdout, list(self.c_grid), list(self.w_grid), self.nu, s_hint)
        eps = cv["best_c"] * s_hint * math.log(problem.p) / problem.tasks[0].n
        final = engine.fit(problem, model.GreedyConfig(epsilon=eps, w=w_best, nu=self.nu))
        return cv, w_best, final

    def summary(self, result):
        cv, w_best, final = result
        return {
            "best_c": cv["best_c"],
            "best_w": w_best,
            "holdout_scores": [row["holdout_score"] for row in cv["rows"]],
            "final": fit_summary(final),
        }

    def mismatched_fits(self, got, want):
        """Grid point g is fit g; the final fit comes after the whole grid."""
        scores = want["holdout_scores"]
        bad = {g for g, (a, b) in enumerate(zip(got["holdout_scores"], scores))
               if not _close(a, b)}
        if len(got["holdout_scores"]) != len(scores):
            bad.update(range(len(scores)))
        if (got["best_c"] != want["best_c"] or got["best_w"] != want["best_w"]
                or not _fit_matches(got["final"], want["final"])):
            bad.add(len(scores))
        return bad


WORKLOADS = {wl.name: wl for wl in (SweepWorkload(), FitWorkload(), CrossValidateWorkload())}
