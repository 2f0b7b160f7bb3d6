"""The step-level referee: every step of a fit against the brute-force oracles.

Each fit on a tiny drawn instance (p <= 6, r <= 3) is replayed through a
``SupportState`` and the reference ``refit``.  At every forward step the
recorded reward must equal ``gain_oracle`` of the chosen object (a row's
gain divided by w) and no admissible object's oracle gain may exceed it; at
every backward step the recorded cost must equal ``cost_oracle`` and no held
object may cost less.  A fit stopped at its gate leaves no admissible object
whose oracle gain clears epsilon.  Every comparison allows REL_TOL times the
loss at beta = 0.

Two strategies aim at the cases the other property tests rarely reach: a
short task whose support outgrows its sample count, and near-collinear
columns under nu near 1, which make the fit remove what it added.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from mtgreedy import GreedyConfig, MultiTaskProblem, cost_oracle, fit, gain_oracle, loss, refit
from mtgreedy.engine import SupportState

REL_TOL = 1e-9


def short_task_problem(rng, p, r):
    """r tasks on designs of their own that load on one shared coefficient
    vector; task 0 has 1 to 3 samples, the others 6 to 14, so the rows the
    others earn push task 0's support past its sample count."""
    shared = rng.standard_normal(p) * (rng.random(p) < 0.6)
    designs, responses = [], []
    for j in range(r):
        n = int(rng.integers(1, 4) if j == 0 else rng.integers(6, 15))
        X = rng.standard_normal((n, p))
        designs.append(X)
        responses.append(X @ shared + 0.1 * rng.standard_normal(n))
    return MultiTaskProblem.from_arrays(designs, responses)


def collinear_problem(rng, p, r):
    """Each task's y is x_a + x_b, and column c lies near (x_a + x_b) / sqrt(2):
    c earns the first step, and once a and b are in it costs little, so
    the fit removes it."""
    n = int(rng.integers(6, 16))
    a, b, c = (int(k) for k in rng.choice(p, size=3, replace=False))
    designs, responses = [], []
    for _ in range(r):
        X = rng.standard_normal((n, p))
        X[:, c] = (X[:, a] + X[:, b]) / np.sqrt(2.0) + 0.2 * rng.standard_normal(n)
        designs.append(X)
        responses.append(X[:, a] + X[:, b] + 0.05 * rng.standard_normal(n))
    return MultiTaskProblem.from_arrays(designs, responses)


def forward_values(problem, beta, state, config):
    """Oracle gain at ``beta`` of every object a forward step may add, by
    (object kind, index): cells off the support and off its rows, and, with
    rows enabled, every feature not held as a row, its gain divided by w."""
    values = {}
    for i in range(problem.p):
        if i in state.rows:
            continue
        for j in range(problem.r):
            if (i, j) not in state.singles:
                values["singleton", (i, j)] = gain_oracle(problem, beta, ("singleton", i, j))
        if config.rows_enabled:
            values["row", (i,)] = gain_oracle(problem, beta, ("row", i), config.w)
    return values


def backward_values(problem, beta, state, config):
    """Oracle cost at ``beta`` of every held object, a row's divided by w."""
    values = {("singleton", cell): cost_oracle(problem, beta, ("singleton", *cell))
              for cell in state.singles}
    for m in state.rows:
        values["row", (m,)] = cost_oracle(problem, beta, ("row", m), config.w)
    return values


def referee(problem, config, report):
    """Check every step of ``report`` against the oracles; return whether
    some task's support outgrew its sample count along the way."""
    state = SupportState(config, problem.p, problem.r)
    beta = np.zeros((problem.p, problem.r))
    tol = REL_TOL * loss(problem, beta)
    outgrown = False
    for k, s in enumerate(report.steps):
        chosen = (s.object_kind, s.index)
        if s.kind == "forward":
            values = forward_values(problem, beta, state, config)
            assert chosen in values, f"step {k}: adds {chosen}, which is not admissible"
            assert abs(values[chosen] - s.reward_or_cost) <= tol, f"step {k}"
            assert max(values.values()) <= s.reward_or_cost + tol, f"step {k}"
            state.add(*chosen)
        else:
            values = backward_values(problem, beta, state, config)
            assert chosen in values, f"step {k}: removes {chosen}, which is not held"
            assert abs(values[chosen] - s.reward_or_cost) <= tol, f"step {k}"
            assert min(values.values()) >= s.reward_or_cost - tol, f"step {k}"
            state.remove(*chosen)
        beta = refit(problem, state)
        outgrown |= any(len(state.task_support(j)) > t.n for j, t in enumerate(problem.tasks))
    if report.termination == "gain-below-threshold":
        values = forward_values(problem, beta, state, config)
        assert max(values.values(), default=0.0) <= config.epsilon + tol
    return outgrown


@st.composite
def drawn_fits(draw, make, min_r, nus):
    """(problem, config) on a ``make`` instance with p in [3, 6], r in
    [min_r, 3], epsilon 0, w in {1, 1.5, 2, r} capped at r, and nu from ``nus``."""
    p = draw(st.integers(3, 6))
    r = draw(st.integers(min_r, 3))
    problem = make(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), p, r)
    w = draw(st.sampled_from([1.0, 1.5, 2.0, float(r)]))
    config = GreedyConfig(epsilon=0.0, w=min(w, r), nu=draw(st.sampled_from(nus)))
    return problem, config


@settings(max_examples=30, deadline=None, derandomize=True)
@given(drawn_fits(short_task_problem, 2, [0.5]))
def test_each_step_of_a_fit_with_a_short_task_is_the_oracles_best(case):
    problem, config = case
    referee(problem, config, fit(problem, config))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(drawn_fits(collinear_problem, 1, [0.9, 0.99]))
def test_each_step_of_a_fit_that_removes_is_the_oracles_best(case):
    problem, config = case
    referee(problem, config, fit(problem, config))


def test_the_strategies_reach_their_cases():
    """Of 20 seeded instances each, a fair share reach the case their
    strategy aims at: a task support past its sample count, or a removal."""
    outgrown = removing = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        problem = short_task_problem(rng, 5, 2)
        config = GreedyConfig(epsilon=0.0, w=1.0, nu=0.5)
        outgrown += referee(problem, config, fit(problem, config))
        problem = collinear_problem(rng, 5, 2)
        config = GreedyConfig(epsilon=0.0, w=1.5, nu=0.9)
        report = fit(problem, config)
        referee(problem, config, report)
        removing += any(s.kind == "backward" for s in report.steps)
    assert outgrown >= 5 and removing >= 5, (outgrown, removing)
