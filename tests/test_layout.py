"""Every design the package builds is column-major, and one design object
stays one array, so tasks on it keep sharing their basis steps."""

import numpy as np
import pytest

from mtgreedy import MultiTaskProblem, SynthSpec, gen_synthetic
from mtgreedy.digits import (
    N_CLASSES,
    PER_CLASS,
    DigitDataset,
    build_tasks,
    split_for_validation,
)
from mtgreedy.fileio import problem_from_dict, problem_to_dict


def designs(problem):
    return [t.X for t in problem.tasks]


def assert_column_major(problem):
    for X in designs(problem):
        assert X.flags.f_contiguous and X.dtype == np.float64


def test_every_built_design_is_column_major():
    generated, _ = gen_synthetic(SynthSpec(p=30, n=20, r=3, s=3, seed=4))
    assert_column_major(generated)

    # one array per design object: equal copies stay apart, and an array
    # already column-major is held as it is
    X = np.arange(24.0).reshape(6, 4)
    F = np.asfortranarray(X + 1.0)
    made = MultiTaskProblem.from_arrays([X, X.copy(), F, X], [np.ones(6)] * 4)
    assert_column_major(made)
    held = designs(made)
    assert held[0] is held[3] and held[1] is not held[0] and held[2] is F
    assert np.array_equal(held[0], X) and np.array_equal(held[1], X)

    read, _, _ = problem_from_dict(problem_to_dict(generated))
    assert_column_major(read)
    for got, want in zip(designs(read), designs(generated)):
        assert np.array_equal(got, want)

    rng = np.random.default_rng(5)
    dataset = DigitDataset(
        features=rng.standard_normal((N_CLASSES * PER_CLASS, 12)),
        labels=np.repeat(np.arange(N_CLASSES), PER_CLASS))
    problem, _ = build_tasks(dataset, n_per_class=6, seed=1)
    halves = split_for_validation(problem)
    for sub in (problem, *halves):
        assert_column_major(sub)
        assert all(t.X is sub.tasks[0].X for t in sub.tasks)


@pytest.mark.parametrize("n", [30, 130])
def test_chunked_draw_equals_one_row_major_draw(n):
    """gen_synthetic's column-major design holds the values of one C-order
    draw of the same stream, bit for bit, at n below the draw's row chunk
    and at n not a multiple of it."""
    spec = SynthSpec(p=40, n=n, r=2, s=4, kappa=0.5, noise_variance=0.1, seed=11)
    problem, beta = gen_synthetic(spec)
    rng = np.random.default_rng(spec.seed)
    own = spec.support_size - spec.shared_count
    rng.choice(spec.p, size=spec.shared_count + spec.r * own, replace=False)
    for j in range(spec.r):
        rng.standard_normal(np.count_nonzero(beta[:, j]))
    for t in problem.tasks:
        want = rng.standard_normal((n, spec.p))
        rng.standard_normal(n)
        assert np.array_equal(t.X, want)
