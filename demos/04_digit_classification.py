"""One-vs-all digit classification
==================================

Runs the handwritten-numerals experiment: the six-view digit dataset (2000
class-ordered rows split over files mfeat-fac/fou/kar/mor/pix/zer) is
concatenated to 649 standardized features, a class-balanced training split
feeds ten indicator-response tasks sharing one design, hyperparameters come
from a holdout grid search, and the fitted model is scored on the held-out
rows.

Supply the dataset directory as argv[1] or via MTGREEDY_MFEAT_DIR.  The
files are not downloaded automatically.
"""

import os
import sys

from mtgreedy import GreedyConfig, cross_validate, fit
from mtgreedy.experiments import stopping_threshold
from mtgreedy.digits import (
    build_tasks,
    classify_and_report,
    expected_files,
    load_mfeat,
    split_for_validation,
)

data_dir = sys.argv[1] if len(sys.argv) > 1 else os.environ.get("MTGREEDY_MFEAT_DIR")
if not data_dir or not os.path.isdir(data_dir):
    print("dataset directory not found; expected the six files:")
    for path in expected_files(data_dir or "<data-dir>"):
        print(f"  {path}")
    sys.exit(1)

dataset = load_mfeat(data_dir)
print(f"loaded {dataset.features.shape[0]} samples x {dataset.features.shape[1]} features")

n_per_class = 10
problem, test = build_tasks(dataset, n_per_class=n_per_class, seed=1)
print(f"training on {problem.tasks[0].n} rows, testing on {test.features.shape[0]}")

cv_train, cv_hold = split_for_validation(problem)
s_hint = max(1, round(problem.p / 10))
_, w_best, cv = cross_validate(
    cv_train, cv_hold,
    c_grid=[1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0],
    w_grid=[1.0, 1.25, 1.5, 1.75, 2.0],
    nu=0.5, s_hint=s_hint)
eps = stopping_threshold(cv["best_c"], s_hint, problem.p, problem.tasks[0].n)
print(f"grid search chose c={cv['best_c']}, w={w_best} (epsilon={eps:.4g})")

report = fit(problem, GreedyConfig(epsilon=eps, w=w_best, nu=0.5))
scored = classify_and_report(report, test)
print(f"average classification error: {scored.avg_error:.3f}")
print(f"error variance:               {scored.error_variance:.5f}")
print(f"row support size:             {scored.avg_row_support:.0f}")
print(f"total support size:           {scored.avg_support:.0f}")
print("per-digit errors:", " ".join(f"{e:.2f}" for e in scored.per_digit_errors))
