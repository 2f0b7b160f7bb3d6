"""Handwritten-digit experiment: one-vs-all indicator regression with a
shared design across the ten digit tasks.

The dataset is the six-view numeral collection: 2000 rows (200 per digit,
class-ordered) split over six space-separated files, one per feature family.
Views are concatenated to 649 columns and standardized per column before
fitting.  The user supplies the files; nothing is downloaded.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import fit
from .experiments import _default_sparsity, cross_validate, stopping_threshold
from .model import GreedyConfig, MultiTaskProblem, Task

# (file suffix, column count), concatenated in this order.
FEATURE_FILES = (
    ("fac", 216),
    ("fou", 76),
    ("kar", 64),
    ("mor", 6),
    ("pix", 240),
    ("zer", 47),
)
N_SAMPLES = 2000
N_CLASSES = 10
PER_CLASS = 200
N_FEATURES = sum(c for _, c in FEATURE_FILES)
# Columns per chunk of a row gather (``design_rows``).
GATHER_COLUMNS = 64
# The default (c, w) grid of ``run_trial``'s holdout search.
C_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
W_GRID = (1.0, 1.25, 1.5, 1.75, 2.0)


@dataclass(frozen=True)
class DigitDataset:
    """Digit rows with their labels: the whole set, or the rows a training
    split leaves for testing."""

    features: np.ndarray       # (rows, 649), standardized
    labels: np.ndarray         # (rows,), ints 0..9


@dataclass(frozen=True)
class ClassificationReport:
    avg_error: float
    error_variance: float
    avg_row_support: float
    avg_support: float
    per_digit_errors: tuple


def expected_files(directory):
    return [str(Path(directory) / f"mfeat-{name}") for name, _ in FEATURE_FILES]


def load_mfeat(directory):
    """Load and standardize the six-view digit dataset from a directory.

    Raises FileNotFoundError listing the expected files when any is missing,
    and ValueError naming the offending file and line on malformed content.
    """
    directory = Path(directory)
    missing = [p for p in expected_files(directory) if not Path(p).is_file()]
    if missing:
        raise FileNotFoundError(
            "digit dataset incomplete; missing: " + ", ".join(missing))
    blocks = []
    for name, ncols in FEATURE_FILES:
        path = directory / f"mfeat-{name}"
        rows = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != ncols:
                    raise ValueError(
                        f"{path}:{lineno}: expected {ncols} columns, found {len(parts)}")
                try:
                    rows.append([float(v) for v in parts])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: non-numeric value") from exc
        if len(rows) != N_SAMPLES:
            raise ValueError(f"{path}: expected {N_SAMPLES} rows, found {len(rows)}")
        blocks.append(np.asarray(rows, dtype=float))
    features = np.hstack(blocks)
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std_safe = np.where(std > 0.0, std, 1.0)
    features = (features - mean) / std_safe
    features[:, std == 0.0] = 0.0
    labels = np.repeat(np.arange(N_CLASSES), PER_CLASS)
    return DigitDataset(features=features, labels=labels)


def build_tasks(dataset, n_per_class, seed):
    """Sample a class-balanced training split and build the ten-task problem.

    Every task shares the same column-major training design; task i's
    response is the 0/1 indicator of digit i.  Rows not drawn form the test
    split.
    """
    if not (1 <= n_per_class <= PER_CLASS):
        raise ValueError(f"n_per_class must lie in [1, {PER_CLASS}], got {n_per_class}")
    rng = np.random.default_rng(seed)
    train_idx = []
    for c in range(N_CLASSES):
        block = np.flatnonzero(dataset.labels == c)
        take = rng.choice(block, size=n_per_class, replace=False)
        train_idx.extend(sorted(int(i) for i in take))
    train_idx = np.asarray(train_idx)
    mask = np.zeros(dataset.features.shape[0], dtype=bool)
    mask[train_idx] = True
    X = design_rows(dataset.features, train_idx)
    train_labels = dataset.labels[train_idx]
    tasks = tuple(
        Task(X, (train_labels == i).astype(float)) for i in range(N_CLASSES))
    problem = MultiTaskProblem(p=dataset.features.shape[1], r=N_CLASSES, tasks=tasks)
    test = DigitDataset(features=dataset.features[~mask], labels=dataset.labels[~mask])
    return problem, test


def design_rows(X, rows):
    """Rows ``rows`` of X as a float column-major design, in one copy.

    ``X[rows]`` is row-major whatever the layout of X, so making it
    column-major (``model.design_array``) would hold a second copy; the rows
    are gathered GATHER_COLUMNS columns at a time instead, so only one small
    chunk is held besides the result.
    """
    out = np.empty((len(rows), X.shape[1]), order="F")
    for a in range(0, X.shape[1], GATHER_COLUMNS):
        out[:, a:a + GATHER_COLUMNS] = X[rows, a:a + GATHER_COLUMNS]
    return out


def classify_and_report(fit_report, test):
    """Score one-vs-all predictions on a test split.

    Predicted class is the argmax over task scores (ties to the lower class
    id).  Row support counts features nonzero in any task; support counts all
    nonzero coefficients.
    """
    beta = fit_report.coefficients
    if beta.shape[1] != N_CLASSES:
        raise ValueError(f"expected {N_CLASSES} task columns, got {beta.shape[1]}")
    scores = test.features @ beta
    pred = np.argmax(scores, axis=1)
    per_digit = []
    for c in range(N_CLASSES):
        mine = test.labels == c
        if not np.any(mine):
            per_digit.append(0.0)
            continue
        per_digit.append(float(np.mean(pred[mine] != c)))
    per_digit = tuple(per_digit)
    errs = np.asarray(per_digit)
    return ClassificationReport(
        avg_error=float(errs.mean()),
        error_variance=float(errs.var()),
        avg_row_support=float(np.count_nonzero(np.any(beta != 0.0, axis=1))),
        avg_support=float(np.count_nonzero(beta)),
        per_digit_errors=per_digit,
    )


def split_for_validation(problem):
    """Halve a digit training problem per class for holdout tuning.

    Tasks share the design, so the split is computed once on the indicator
    responses and applied to every task, and X is gathered once per half
    into a column-major array (``design_rows``): every task of a half holds
    that half's one design array, so a fit shares its orthogonalizations
    between them.  Returns (train, holdout) problems.  A class with fewer
    than two rows cannot be halved, so it raises ValueError.
    """
    X = problem.tasks[0].X
    labels = np.full(X.shape[0], -1, dtype=int)
    for i in range(problem.r):
        labels[problem.tasks[i].y > 0.5] = i
    first, second = [], []
    for c in range(problem.r):
        block = np.flatnonzero(labels == c)
        if block.size < 2:
            raise ValueError(f"class {c} has {block.size} training row(s); halving needs 2")
        half = block.size // 2
        first.extend(block[:half])
        second.extend(block[half:])
    first = np.asarray(first)
    second = np.asarray(second)
    halves = []
    for rows in (first, second):
        X_half = design_rows(X, rows)
        tasks = tuple(Task(X_half, t.y[rows]) for t in problem.tasks)
        halves.append(MultiTaskProblem(p=problem.p, r=problem.r, tasks=tasks))
    return tuple(halves)


def run_trial(dataset, n_per_class, seed, c_grid=C_GRID, w_grid=W_GRID, nu=0.5):
    """One seeded trial: tune (c, w) on the training split's halves with the
    sparsity hint s = p / 10, refit the whole split at epsilon =
    c * s * log(p) / n, and score it on the test rows.  Returns the
    ``ClassificationReport`` and the final fit's epsilon, w and c.
    """
    problem, test = build_tasks(dataset, n_per_class, seed)
    s_hint = _default_sparsity(problem.p)
    _, w, cv = cross_validate(*split_for_validation(problem), c_grid, w_grid, nu, s_hint)
    eps = stopping_threshold(cv["best_c"], s_hint, problem.p, problem.tasks[0].n)
    report = fit(problem, GreedyConfig(epsilon=eps, w=w, nu=nu))
    return classify_and_report(report, test), eps, w, cv["best_c"]
