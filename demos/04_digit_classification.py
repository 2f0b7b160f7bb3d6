"""One-vs-all digit classification
==================================

Runs the handwritten-numerals experiment: the six-view digit dataset (2000
class-ordered rows split over files mfeat-fac/fou/kar/mor/pix/zer) is
concatenated to 649 standardized features, a class-balanced training split
feeds ten indicator-response tasks sharing one design, hyperparameters come
from a holdout grid search, and the fitted model is scored on the held-out
rows: one call to ``mtgreedy.digits.run_trial``.

Supply the dataset directory as argv[1] or via MTGREEDY_MFEAT_DIR.  The
files are not downloaded automatically.
"""

import os
import sys

from mtgreedy.digits import N_CLASSES, expected_files, load_mfeat, run_trial

data_dir = sys.argv[1] if len(sys.argv) > 1 else os.environ.get("MTGREEDY_MFEAT_DIR")
if not data_dir or not os.path.isdir(data_dir):
    print("dataset directory not found; expected the six files:")
    for path in expected_files(data_dir or "<data-dir>"):
        print(f"  {path}")
    sys.exit(1)

dataset = load_mfeat(data_dir)
print(f"loaded {dataset.features.shape[0]} samples x {dataset.features.shape[1]} features")

n_per_class = 10
n_train = N_CLASSES * n_per_class
print(f"training on {n_train} rows, testing on {dataset.features.shape[0] - n_train}")

scored, eps, w, c = run_trial(dataset, n_per_class, seed=1)
print(f"grid search chose c={c}, w={w} (epsilon={eps:.4g})")
print(f"average classification error: {scored.avg_error:.3f}")
print(f"error variance:               {scored.error_variance:.5f}")
print(f"row support size:             {scored.avg_row_support:.0f}")
print(f"total support size:           {scored.avg_support:.0f}")
print("per-digit errors:", " ".join(f"{e:.2f}" for e in scored.per_digit_errors))
