"""Seeded corpus of small fits whose outcomes are pinned in golden_fits.json.

Each case builds its problem from its own seed with numpy's default_rng, so
the corpus does not depend on the package's data generators.  The corpus
covers ordinary planted problems plus degenerate designs: zero, duplicate and
linearly dependent columns, fewer samples than support entries at
epsilon = 0, a single task, integer sharing weights and w = r.

Re-record (only after an intended change of the engine's decisions):

    PYTHONPATH=src python3 tests/golden_corpus.py
"""

import json
import sys
from pathlib import Path

import numpy as np

from mtgreedy import GreedyConfig, MultiTaskProblem

FIXTURE = Path(__file__).with_name("golden_fits.json")


def _planted(rng, p, r, n, s_shared, s_own, noise):
    """Designs plus responses with s_shared common and s_own per-task features."""
    ns = [n] * r if isinstance(n, int) else list(n)
    feats = rng.choice(p, size=s_shared + r * s_own, replace=False)
    beta = np.zeros((p, r))
    beta[feats[:s_shared], :] = rng.standard_normal((s_shared, r))
    for j in range(r):
        own = feats[s_shared + j * s_own: s_shared + (j + 1) * s_own]
        beta[own, j] = rng.standard_normal(s_own)
    designs = [rng.standard_normal((ns[j], p)) for j in range(r)]
    responses = [designs[j] @ beta[:, j] + noise * rng.standard_normal(ns[j])
                 for j in range(r)]
    return designs, responses, beta


def planted(seed, p, r, n, s_shared, s_own, noise=0.01):
    rng = np.random.default_rng(seed)
    designs, responses, _ = _planted(rng, p, r, n, s_shared, s_own, noise)
    return MultiTaskProblem.from_arrays(designs, responses)


def zero_column(seed, all_tasks):
    """Feature 0 is an all-zero column, in every task or only in task 0 while
    it carries signal in the other tasks (a row add then holds a zero column)."""
    rng = np.random.default_rng(seed)
    p, r, n = 14, 3, 20
    designs, _, beta = _planted(rng, p, r, n, 2, 1, 0.0)
    beta[0, :] = [0.0, 1.5, -1.2] if not all_tasks else 0.0
    targets = range(r) if all_tasks else (0,)
    for j in targets:
        designs[j][:, 0] = 0.0
    responses = [designs[j] @ beta[:, j] + 0.01 * rng.standard_normal(n) for j in range(r)]
    return MultiTaskProblem.from_arrays(designs, responses)


def duplicate_column(seed, in_row):
    """Task 0's column 1 duplicates its column 0.  With in_row, both features
    carry signal in task 1, so row adds put both copies in task 0's support."""
    rng = np.random.default_rng(seed)
    p, r, n = 12, 2, 18
    designs, _, beta = _planted(rng, p, r, n, 1, 1, 0.0)
    beta[0, :] = [1.0, 0.9]
    beta[1, :] = [0.0, -1.1] if in_row else 0.0
    designs[0][:, 1] = designs[0][:, 0]
    responses = [designs[j] @ beta[:, j] + 0.01 * rng.standard_normal(n) for j in range(r)]
    return MultiTaskProblem.from_arrays(designs, responses)


def dependent_column(seed):
    """Column 2 of task 0 equals columns 0 + 1; all three carry signal in task 1."""
    rng = np.random.default_rng(seed)
    p, r, n = 12, 2, 20
    designs, _, beta = _planted(rng, p, r, n, 0, 1, 0.0)
    beta[0, :] = [1.0, 1.2]
    beta[1, :] = [0.8, -1.0]
    beta[2, :] = [0.0, 0.9]
    designs[0][:, 2] = designs[0][:, 0] + designs[0][:, 1]
    responses = [designs[j] @ beta[:, j] + 0.01 * rng.standard_normal(n) for j in range(r)]
    return MultiTaskProblem.from_arrays(designs, responses)


def short_task(seed, n_short):
    """Task 0 has n_short samples while task 1 has many, so shared rows push
    task 0's support past its sample count."""
    rng = np.random.default_rng(seed)
    designs, responses, _ = _planted(rng, 20, 2, (n_short, 40), 6, 1, 0.01)
    return MultiTaskProblem.from_arrays(designs, responses)


def correlated(seed, p, r, n, rho, noise):
    """Planted problem whose design columns share a common factor (correlation
    rho), which makes early picks redundant and brings on backward steps."""
    rng = np.random.default_rng(seed)
    designs, _, beta = _planted(rng, p, r, n, 2, 2, 0.0)
    designs = [np.sqrt(1 - rho) * X + np.sqrt(rho) * rng.standard_normal((n, 1))
               for X in designs]
    responses = [designs[j] @ beta[:, j] + noise * rng.standard_normal(n) for j in range(r)]
    return MultiTaskProblem.from_arrays(designs, responses)


def noise_only(seed, p, n):
    """One task of pure noise; at epsilon = 0 the fit interpolates it."""
    rng = np.random.default_rng(seed)
    return MultiTaskProblem.from_arrays([rng.standard_normal((n, p))], [rng.standard_normal(n)])


def cases():
    """(name, problem, config) of every corpus case, in fixture order."""
    out = []

    def add(name, problem, **config):
        out.append((name, problem, GreedyConfig(**config)))

    # Ordinary planted problems across sizes, overlaps and weights.
    for k, (p, r, n, sh, own, w) in enumerate([
            (30, 2, 25, 2, 1, 1.5), (40, 2, 30, 3, 2, 1.5), (40, 3, 35, 3, 1, 2.0),
            (50, 4, 40, 4, 1, 2.5), (60, 2, 50, 5, 2, 1.25), (24, 2, 16, 2, 2, 1.75),
            (36, 3, 30, 0, 3, 1.5), (36, 3, 30, 4, 0, 1.5), (45, 4, 60, 3, 2, 3.0),
            (28, 2, (20, 30), 2, 1, 1.5), (32, 3, (18, 25, 40), 2, 1, 1.5),
            (50, 2, 40, 6, 0, 1.1)]):
        add(f"planted_{k}", planted(100 + k, p, r, n, sh, own), epsilon=1e-3, w=w)
    # Low and zero thresholds with noise: long fits with backward steps.
    for k in range(4):
        add(f"noisy_eps_small_{k}", planted(200 + k, 30, 2, 22, 2, 2, noise=0.3),
            epsilon=1e-4, w=1.5)
    add("noisy_eps_zero", planted(210, 20, 2, 16, 2, 1, noise=0.3), epsilon=0.0, w=1.5)
    add("noisy_nu_high", planted(211, 30, 3, 25, 2, 2, noise=0.2), epsilon=1e-4, w=2.0, nu=0.9)
    for k, (rho, nu) in enumerate([(0.6, 0.5), (0.8, 0.9), (0.9, 0.9), (0.7, 0.7)]):
        add(f"correlated_{k}", correlated(220 + k, 24, 2, 30, rho, 0.3),
            epsilon=1e-4, w=1.5, nu=nu)
    # Object-class switches.
    add("rows_disabled", planted(300, 30, 3, 25, 3, 1), epsilon=1e-3, rows_enabled=False)
    add("no_coalescing", planted(301, 30, 3, 25, 3, 1), epsilon=1e-3, coalesce_rows=False)
    add("step_cap", planted(302, 30, 2, 25, 3, 2), epsilon=1e-6, max_forward_steps=4)
    # r = 1, integer w, w = r.
    add("single_task", planted(400, 30, 1, 20, 0, 4), epsilon=1e-3)
    add("single_task_noisy", planted(401, 25, 1, 18, 0, 3, noise=0.3), epsilon=1e-4, w=1.0)
    add("integer_w_2_r3", planted(402, 30, 3, 25, 3, 1), epsilon=1e-3, w=2.0)
    add("integer_w_3_r4", planted(403, 30, 4, 25, 3, 1), epsilon=1e-3, w=3.0)
    add("w_equals_r_2", planted(404, 30, 2, 25, 3, 1), epsilon=1e-3, w=2.0)
    add("w_equals_r_3", planted(405, 30, 3, 25, 2, 2), epsilon=1e-3, w=3.0)
    add("w_one", planted(406, 30, 3, 25, 3, 1), epsilon=1e-3, w=1.0)
    # Degenerate designs.
    add("zero_column_all_tasks", zero_column(500, True), epsilon=1e-4)
    add("zero_column_in_row", zero_column(501, False), epsilon=1e-4)
    add("zero_column_in_row_w1", zero_column(502, False), epsilon=1e-4, w=1.0)
    add("duplicate_column", duplicate_column(503, False), epsilon=1e-4)
    add("duplicate_column_in_row", duplicate_column(504, True), epsilon=1e-4, w=1.0)
    add("dependent_column", dependent_column(505), epsilon=1e-4, w=1.0)
    add("dependent_column_w15", dependent_column(506), epsilon=1e-4)
    # Fewer samples than support entries at epsilon = 0.
    add("short_task_eps_zero", short_task(600, 5), epsilon=0.0, w=1.25)
    add("short_task_eps_zero_w1", short_task(601, 4), epsilon=0.0, w=1.0)
    add("short_task_eps_small", short_task(602, 6), epsilon=1e-6, w=1.5)
    add("short_task_noisy_eps_zero", short_task(604, 3), epsilon=0.0, w=1.5, nu=0.9)
    add("interpolate_single_task", noise_only(603, 15, 8), epsilon=0.0)
    return out


def summarize(report):
    """The parts of a fit the corpus pins: moves, stop reason, pattern, loss."""
    return {
        "steps": [[s.kind, s.object_kind, list(s.index), s.promoted_row] for s in report.steps],
        "termination": report.termination,
        "singletons": sorted(list(c) for c in report.pattern.singletons),
        "rows": sorted(report.pattern.rows),
        "final_loss": report.final_loss,
    }


def record():
    from mtgreedy import fit

    out = {name: summarize(fit(problem, config)) for name, problem, config in cases()}
    lines = [f"{json.dumps(name)}: {json.dumps(summary)}" for name, summary in out.items()]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return out


if __name__ == "__main__":
    recorded = record()
    print(f"recorded {len(recorded)} cases to {FIXTURE.name}", file=sys.stderr)
