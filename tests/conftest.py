import numpy as np
import pytest

from mtgreedy import MultiTaskProblem, SupportPattern, gain_matrix, refit, residuals


def random_problem(rng, p, r, n_range=(15, 30)):
    designs, responses = [], []
    for _ in range(r):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        designs.append(X)
        responses.append(y)
    return MultiTaskProblem.from_arrays(designs, responses)


def random_pattern(rng, p, r, n_singles, n_rows):
    rows = set(int(i) for i in rng.choice(p, size=n_rows, replace=False)) if n_rows else set()
    free = [(i, j) for i in range(p) if i not in rows for j in range(r)]
    singles = set()
    if n_singles and free:
        picks = rng.choice(len(free), size=min(n_singles, len(free)), replace=False)
        singles = {free[int(k)] for k in picks}
    return SupportPattern(singletons=frozenset(singles), rows=frozenset(rows))


def random_state(rng, p, r):
    """A problem plus an estimate at the restricted optimum of a random pattern."""
    problem = random_problem(rng, p, r)
    pattern = random_pattern(rng, p, r,
                             n_singles=int(rng.integers(0, 4)),
                             n_rows=int(rng.integers(0, 2)))
    beta = refit(problem, pattern)
    return problem, pattern, beta


def gains_at(problem, beta):
    """The engine's (p, r) singleton gain matrix at estimate beta."""
    colsq = [np.einsum("ij,ij->j", t.X, t.X) for t in problem.tasks]
    return gain_matrix(problem, residuals(problem, beta), colsq)


def planted_shared_problem(seed, p=6, r=2, n=24, balanced=False):
    """Noiseless instance with one shared feature row plus one singleton per task.

    Returns (problem, beta_star, shared_feature, own_features).
    """
    rng = np.random.default_rng(seed)
    feats = rng.choice(p, size=1 + r, replace=False)
    m = int(feats[0])
    own = [int(f) for f in feats[1:]]
    beta = np.zeros((p, r))
    if balanced:
        mags = 1.0 + 0.3 * rng.random(r)
        beta[m, :] = rng.choice([-1.0, 1.0], size=r) * mags
    else:
        beta[m, :] = rng.standard_normal(r)
    for j in range(r):
        beta[own[j], j] = rng.standard_normal()
    designs = [rng.standard_normal((n, p)) for _ in range(r)]
    responses = [designs[j] @ beta[:, j] for j in range(r)]
    return MultiTaskProblem.from_arrays(designs, responses), beta, m, own


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
