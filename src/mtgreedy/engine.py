"""Forward-backward greedy fitting over two object classes.

The engine grows a support pattern of singleton cells and whole shared rows,
always keeping the estimate at the restricted least-squares optimum of the
current pattern.  Forward steps add the object with the largest weighted loss
decrease (row gains are divided by the sharing weight w, so a row must beat
the best singleton by that factor).  After every addition, backward steps
remove objects whose weighted cost is at most nu times the most recently
recorded reward, popping that reward off a ledger so that every removal is
matched one-to-one with a prior addition.  Forward steps stop once the best
weighted gain is at most epsilon plus COMPARISON_TOLERANCE times the loss at
beta = 0.

Each quantity has one closed form over the (p, r) coefficient grid:
``gain_matrix`` gives every singleton's forward gain and ``removal_costs``
every entry's backward cost, and a row's value is the sum over its entries.
The referees in ``oracle`` (``gain_oracle``, ``cost_oracle``) re-evaluate the
loss instead.

A fit keeps its estimate in two (p, r) grids made by ``start_factors``: B,
the coefficients, and C, whose column j is c_j = X_j^T r_j.  Column j of each
is the only full-length copy of task j's values, and task j's
``LeastSquaresFactor`` owns it and writes it in place when, and only when,
the task's support moves.  An added column is orthogonalized against the
task's current columns; the factor writes B[cols, j], updates the residual
and loss in O(n) and sets C[:, j] -= zeta X^T q.  A removal refactors that
task, zeroes the columns it drops and writes C[:, j] = X^T r afresh.  A task
whose columns become dependent, or outnumber its samples, falls back to the
minimum-norm solve of the reference ``refit`` until a removal makes it
factor again.  The updated correlations agree with the product to
round-off.  A task whose support did not move does no work.

Tasks whose designs are one array object (``t.X is``; the digit tasks are)
share the orthogonalizations.  The factors of such tasks start on one empty
``Basis`` and hold the same immutable basis as long as their columns move
alike.  Each ``refit`` keeps a memo of the steps taken from each basis, with
the X^T q of every append, so a row added to ten tasks on one design is
orthogonalized once and takes one product with the design, not ten; the
memo is dropped when ``refit`` returns.  Designs are matched by object
identity only, never by value, so tasks with designs of their own (the
synthetic sweeps, problems read from files) share nothing.  Each task still
does the same floating-point operations as with a basis of its own.

The two full products with a design, each append's X^T q and the fresh
X^T r after a removal, go through ``linalg.design_product``.  A column-major
design of at least 2^19 elements (4 MiB; the p = 2000, n = 800 fits) has
its columns split across the process's cores, with the same bits as one
``X.T @ v`` under one BLAS thread per call, so no step, pattern or
coefficient depends on the split.  Sweep and digit designs are smaller and
start no thread.

A move is a few whole-array expressions over B and C, so the backward
removal costs after a refit and the next forward gains read the same grids.
The ``SupportState`` keeps a boolean mask of its singleton cells and one of
its rows next to the sets, so each selector is one masked argmax or argmin.
Ties go to the first cell in sorted (i, j) order and the first row in
sorted order, and a row beats a singleton of equal value.

Epsilon enters a fit only at its forward gate, so for one problem and one
config up to epsilon, the fit at a larger epsilon is a step-by-step prefix
of the fit at a smaller one.  A ``FitPath`` holds a fit's live state, and
``fit`` given one continues it at a smaller or equal epsilon, with the same
report as a fresh fit.  ``experiments.cross_validate`` runs each sharing
weight's grid of thresholds as one such path, from the largest down.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .linalg import Basis, LeastSquaresFactor, effective_condition, solve_least_squares
from .model import (
    FitReport,
    GreedyConfig,
    StepRecord,
    SupportPattern,
    loss,
    residuals as compute_residuals,
)


# Slack at the stopping gate, relative to the loss at beta = 0: scaling X and
# y by s scales every gain and that loss by s^2, so a fit with epsilon scaled
# by s^2 takes the same steps.
COMPARISON_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Candidate:
    """An object the selectors pick: value is its weighted reward (an
    addition) or its weighted cost (a removal)."""

    kind: str          # "singleton" | "row"
    index: tuple       # (i, j) or (m,)
    value: float


def refit(problem, pattern, factors=None):
    """Restricted least-squares re-estimate on a support pattern.

    ``pattern`` is a ``SupportPattern`` or a ``SupportState``; only its
    ``task_support(j)`` is read.  Without ``factors`` every task is solved
    from scratch on its supported columns and the (p, r) estimate is
    returned, with exact zeros off the pattern and the minimum-norm solution
    on rank-deficient supports (the reference).  With one
    ``LeastSquaresFactor`` per task, each factor is moved to the task's
    support instead and nothing is returned: the factors' coefficient and
    correlation columns, residuals and losses are then current.  The factors
    share one memo for this call, so a step from one basis is computed once
    however many tasks take it.
    """
    if factors is not None:
        memo = {}
        for j, f in enumerate(factors):
            f.move_to(pattern.task_support(j), memo)
        return
    beta = np.zeros((problem.p, problem.r))
    for j, t in enumerate(problem.tasks):
        cols = sorted(pattern.task_support(j))
        if cols:
            beta[cols, j] = solve_least_squares(t.X[:, cols], t.y)
    return beta


class Scales(NamedTuple):
    """Per-fit constants of the (p, r) grid, made once by ``grid_scales``."""

    colsq: np.ndarray    # (p, r): squared norm of column i of task j's design
    two_n: np.ndarray    # (r,): 2 n_j
    denom: np.ndarray    # (p, r): 2 n_j colsq, inf where the column is zero


def grid_scales(problem, colsq):
    """The ``Scales`` of a problem from each task's squared column norms."""
    sq = np.column_stack(colsq)
    two_n = np.array([2.0 * t.n for t in problem.tasks])
    return Scales(sq, two_n, np.where(sq > 0.0, two_n * sq, np.inf))


def gain_matrix(problem, correlations, scales):
    """Every singleton gain of ``problem`` at the current residuals, as a (p, r) array.

    Entry (i, j) is the best loss decrease from adjusting that entry alone.
    With x the i-th design column of task j and r its residual, the
    one-dimensional quadratic gives (x.r)^2 / (2 n ||x||^2); zero columns
    score zero, since their denominator is inf.  ``correlations`` is the
    (p, r) array whose column j is X^T r of task j.  A row's gain is the sum
    of its entries, which the selector divides by w.
    """
    return correlations * correlations / scales.denom


def _best_forward(problem, singles, rows, config, gains):
    """Pick the best admissible candidate; None when the support is saturated.

    ``singles`` and ``rows`` are the ``MaskedSet``s of a ``SupportState``.
    Singleton candidates exclude supported cells and features already held as
    rows; row candidates exclude current rows.  The first cell in (i, j)
    order and the first row win ties within a class, and the row wins a tie
    between classes.
    """
    masked = np.where(singles.mask | rows.mask[:, None], -1.0, gains)
    i, j = divmod(int(np.argmax(masked)), problem.r)
    best_single = masked[i, j]

    best_row = -1.0
    best_m = -1
    if config.rows_enabled:
        row_sums = np.where(rows.mask, -1.0, gains.sum(axis=1))
        best_m = int(np.argmax(row_sums))
        if row_sums[best_m] >= 0.0:
            best_row = row_sums[best_m] / config.w

    if best_single < 0.0 and best_row < 0.0:
        return None
    if best_row >= best_single:
        return Candidate("row", (best_m,), float(best_row))
    return Candidate("singleton", (i, j), float(best_single))


def removal_costs(beta, correlations, scales):
    """Every entry's removal cost, as a (p, r) array.

    Entry (i, j) is the exact loss increase from zeroing beta[i, j] alone:
    ||r + b x||^2 - ||r||^2 over 2 n, i.e. (b^2 ||x||^2 + 2 b x.r) / (2 n), with
    b = beta[i, j], x the i-th column of task j and r its residual.
    ``correlations`` is the (p, r) array ``gain_matrix`` reads.  A row's cost
    is the sum of its entries, which the selector divides by w.  Entries with
    b = 0, off-support ones included, cost 0.
    """
    return (beta * beta * scales.colsq + 2.0 * beta * correlations) / scales.two_n


def _worst_backward(problem, beta, singles, rows, config, correlations, scales):
    """Cheapest removal across both classes; rows are removed on ties.

    ``singles`` and ``rows`` are the ``MaskedSet``s of a ``SupportState``.
    Within a class, the first object in sorted order wins ties.
    """
    costs = removal_costs(beta, correlations, scales)
    best_s = None
    if singles:
        i, j = divmod(int(np.argmin(np.where(singles.mask, costs, np.inf))), problem.r)
        best_s = Candidate("singleton", (i, j), float(costs[i, j]))
    best_r = None
    if rows:
        c = np.where(rows.mask, costs.sum(axis=1) / config.w, np.inf)
        m = int(np.argmin(c))
        best_r = Candidate("row", (m,), float(c[m]))
    if best_r is not None and (best_s is None or best_r.value <= best_s.value):
        return best_r
    return best_s


def coalesce_threshold(w):
    """Singleton count at which a feature row out-earns the w-weighted row gate."""
    return math.floor(w) + 1


class MaskedSet(set):
    """A set of grid keys kept with a boolean mask: ``mask[key]`` is True
    exactly for the members.  Only ``add`` and ``remove`` keep the mask."""

    def __init__(self, shape):
        super().__init__()
        self.mask = np.zeros(shape, dtype=bool)

    def add(self, key):
        super().add(key)
        self.mask[key] = True

    def remove(self, key):
        super().remove(key)
        self.mask[key] = False


class SupportState:
    """The support a fit holds: singleton cells (i, j) plus shared feature rows.

    Every move is applied here, so a fit and the replay of its trace move
    identically.  Adding a row drops that feature's singletons.  Adding a
    singleton promotes its feature to a row once the feature holds
    coalesce_threshold(w) singletons, when rows and coalescing are both on.
    Removing an object the support does not hold raises KeyError.

    ``singles`` (cells over the (p, r) grid) and ``rows`` (features over p)
    are ``MaskedSet``s, so row i of ``singles.mask`` marks the tasks holding
    a singleton on feature i, and ``task_support(j)`` is task j's column set;
    every move updates them all.
    """

    def __init__(self, config, p, r):
        self.singles = MaskedSet((p, r))
        self.rows = MaskedSet(p)
        self._columns = [set() for _ in range(r)]
        self.promote_at = (coalesce_threshold(config.w)
                           if config.rows_enabled and config.coalesce_rows else None)

    def add(self, kind, index):
        """Add a "row" (m,) or a "singleton" (i, j); return the promoted feature or None."""
        i = index[0]
        if kind == "row":
            for j in np.flatnonzero(self.singles.mask[i]).tolist():
                self.singles.remove((i, j))
            self.rows.add(i)
            for cols in self._columns:
                cols.add(i)
            return None
        j = index[1]
        self.singles.add(index)
        self._columns[j].add(i)
        if (self.promote_at is not None
                and np.count_nonzero(self.singles.mask[i]) >= self.promote_at):
            self.add("row", (i,))
            return i
        return None

    def remove(self, kind, index):
        i = index[0]
        if kind == "row":
            self.rows.remove(i)
            for cols in self._columns:
                cols.remove(i)
        else:
            self.singles.remove(index)
            self._columns[index[1]].remove(i)

    def task_support(self, j):
        """Feature indices active for task j; the state's own set, not a copy."""
        return self._columns[j]

    def pattern(self):
        return SupportPattern(singletons=frozenset(self.singles), rows=frozenset(self.rows))


def start_factors(problem):
    """(factors, colsq, beta, correlations) of a fit at beta = 0.

    ``beta`` and ``correlations`` are the fit's (p, r) coefficient and X^T r
    grids, and the empty ``LeastSquaresFactor`` of task j owns their column
    j; ``colsq`` lists each task's squared column norms.  Tasks whose designs
    are one array object share its empty basis and its column norms;
    designs are told apart by identity, not compared by value.
    """
    designs = {}
    for t in problem.tasks:
        if id(t.X) not in designs:
            designs[id(t.X)] = (Basis(t.X), np.einsum("ij,ij->j", t.X, t.X))
    beta = np.zeros((problem.p, problem.r))
    correlations = np.empty((problem.p, problem.r))
    factors = [LeastSquaresFactor(designs[id(t.X)][0], t.y, beta[:, j], correlations[:, j])
               for j, t in enumerate(problem.tasks)]
    colsq = [designs[id(t.X)][1] for t in problem.tasks]
    return factors, colsq, beta, correlations


class FitPath:
    """The live state of a greedy path, which ``fit`` continues.

    Made at beta = 0 for one problem object and one config; a ``fit`` given
    the path goes on from where the previous one stopped, for a config that
    differs from the path's only in a smaller or equal epsilon.  The path
    holds the ``SupportState``, the factors with the fit's B and C grids,
    the ``Scales``, the loss at beta = 0, the ledger, the steps and the
    count of forward steps taken.
    """

    def __init__(self, problem, config):
        if config.rows_enabled and problem.r > 1 and config.w > problem.r:
            raise ValueError(f"w={config.w} exceeds the task count r={problem.r}")
        self.problem = problem
        self.config = config
        self.state = SupportState(config, problem.p, problem.r)
        self.factors, colsq, self.beta, self.correlations = start_factors(problem)
        self.scales = grid_scales(problem, colsq)
        self.zero_loss = sum(f.loss for f in self.factors)
        # (reward, step index) of every forward step not yet matched by a removal
        self.ledger = []
        self.steps = []
        self.forward_taken = 0


def fit(problem, config, path=None):
    """Run the full greedy procedure and return a FitReport with its trace.

    Forward steps stop once the best weighted gain falls to epsilon plus
    COMPARISON_TOLERANCE times the loss at beta = 0, or the step cap is hit.
    When row coalescing is on, a feature accumulating floor(w) + 1 singletons
    is reclassified as a shared row, mirroring how true supports are
    partitioned by per-row entry counts.

    Epsilon enters only at that forward gate, and the step cap and every
    choice are independent of it.  So for one problem and a config fixed up
    to epsilon, the fit at a larger epsilon is exactly a prefix of the fit
    at a smaller one: it ends at the first forward candidate the larger
    gate stops.  Given a ``FitPath``, the fit continues the path from where
    its previous fit stopped, and the report equals that of a fresh fit bit
    for bit.  ValueError is raised when the path belongs to another problem
    object, when the config differs from the path's in more than epsilon,
    or when epsilon exceeds the path's last one.  The report's coefficients
    are a copy, since the path goes on writing its grid in place.
    """
    if not isinstance(config, GreedyConfig):
        raise TypeError("config must be a GreedyConfig")
    if path is None:
        path = FitPath(problem, config)
    elif problem is not path.problem:
        raise ValueError("the path belongs to another problem object")
    elif replace(config, epsilon=path.config.epsilon) != path.config:
        raise ValueError("the config differs from the path's in more than epsilon")
    elif config.epsilon > path.config.epsilon:
        raise ValueError(
            f"epsilon={config.epsilon} exceeds the path's last epsilon {path.config.epsilon}")
    path.config = config

    state, factors, ledger, steps = path.state, path.factors, path.ledger, path.steps
    beta, correlations, scales = path.beta, path.correlations, path.scales
    gate = config.epsilon + COMPARISON_TOLERANCE * path.zero_loss
    cap = config.step_cap(problem.p, problem.r)
    termination = "gain-below-threshold"

    while True:
        if path.forward_taken >= cap:
            termination = "max-steps"
            break
        gains = gain_matrix(problem, correlations, scales)
        cand = _best_forward(problem, state.singles, state.rows, config, gains)
        if cand is None or cand.value <= gate:
            break

        path.forward_taken += 1
        promoted = state.add(cand.kind, cand.index)
        ledger.append((cand.value, len(steps)))
        refit(problem, state, factors)
        steps.append(StepRecord(
            kind="forward",
            object_kind=cand.kind,
            index=cand.index,
            reward_or_cost=cand.value,
            loss_after=sum(f.loss for f in factors),
            ledger_depth=len(ledger),
            promoted_row=promoted,
        ))

        # Backward passes: keep removing while the cheapest removal costs at
        # most nu times the most recent recorded reward.
        while ledger and (state.singles or state.rows):
            back = _worst_backward(problem, beta, state.singles, state.rows, config,
                                   correlations, scales)
            top_reward, top_step = ledger[-1]
            if back.value > config.nu * top_reward:
                break
            ledger.pop()
            state.remove(back.kind, back.index)
            refit(problem, state, factors)
            steps.append(StepRecord(
                kind="backward",
                object_kind=back.kind,
                index=back.index,
                reward_or_cost=back.value,
                loss_after=sum(f.loss for f in factors),
                ledger_depth=len(ledger),
                popped_reward=top_reward,
                popped_step=top_step,
            ))

    return FitReport(
        coefficients=beta.copy(),
        pattern=state.pattern(),
        final_loss=sum(f.loss for f in factors),
        steps=tuple(steps),
        termination=termination,
    )


def check_step_records(report, config, initial_loss):
    """Cheap trace invariants computed from recorded values only.

    Checks, for every step: rewards cleared the stopping gate; each removal
    popped the latest unmatched addition, by step index and by reward, and
    cost at most nu times that reward; each matched add/remove pair
    strictly decreased the loss; and the final pattern keeps fewer than
    floor(w) + 1 singletons on any non-shared feature row when rows are in
    play with a non-integer weight.  Raises AssertionError on violation,
    also under ``python -O``.
    """
    loss_before = [initial_loss]
    for s in report.steps:
        loss_before.append(s.loss_after)
    stack = []
    for idx, s in enumerate(report.steps):
        if s.kind == "forward":
            if not s.reward_or_cost > config.epsilon:
                raise AssertionError(
                    f"step {idx}: recorded reward {s.reward_or_cost} under threshold")
            stack.append(idx)
        else:
            if not s.reward_or_cost >= -1e-10:
                raise AssertionError(f"step {idx}: negative removal cost")
            if not stack:
                raise AssertionError(f"step {idx}: removal with empty ledger")
            fidx = stack.pop()
            forward = report.steps[fidx]
            if s.popped_step != fidx:
                raise AssertionError(
                    f"step {idx}: pops step {s.popped_step}, ledger top is step {fidx}")
            if s.popped_reward != forward.reward_or_cost:
                raise AssertionError(f"step {idx}: popped reward mismatch with step {fidx}")
            if not s.reward_or_cost <= config.nu * s.popped_reward:
                raise AssertionError(
                    f"step {idx}: cost {s.reward_or_cost} exceeds nu * {s.popped_reward}")
            drop = loss_before[fidx] - forward.loss_after
            rise = s.loss_after - loss_before[idx]
            if not drop - rise > 0.0:
                raise AssertionError(
                    f"steps {fidx}/{idx}: paired add/remove did not decrease the loss")
    if config.rows_enabled and config.coalesce_rows and config.w != math.floor(config.w):
        d = coalesce_threshold(config.w)
        counts: dict = {}
        for (i, _) in report.pattern.singletons:
            counts[i] = counts.get(i, 0) + 1
        worst = max(counts.values(), default=0)
        if worst > d - 1:
            raise AssertionError(f"a non-shared row holds {worst} singletons; limit is {d - 1}")


def verify_trace(problem, config, report, grad_tol=1e-8, loss_tol=1e-10):
    """Replay a fit trace and verify the engine's state invariants.

    On top of ``check_step_records`` this re-applies every move through a
    ``SupportState``, refits, and checks that each addition adds an object
    the support does not hold and each removal one it holds, that each
    replayed promotion equals the recorded one, that recorded losses match
    to loss_tol, that the loss gradient vanishes on the support after every
    refit, and that the replayed final pattern and coefficients agree with
    the report.  A violation raises AssertionError naming the step, also
    under ``python -O``.

    The solve checks scale with the data.  The gradient x_i.r_j / n of a
    supported entry must stay within grad_tol * ||x_i|| ||y_j|| / n, the size
    at which round-off enters it (||r_j|| is no scale: it vanishes when a
    support interpolates).  Task j's coefficients must match the reference
    solve within 1e-12 * kappa * (||b_j|| + kappa ||r_j|| / s_max), the
    first-order least-squares perturbation bound, with s_max and kappa the
    largest singular value and the condition number of its supported columns.
    """
    check_step_records(report, config, loss(problem, np.zeros((problem.p, problem.r))))
    xnorm = [np.linalg.norm(t.X, axis=0) for t in problem.tasks]
    ynorm = [np.linalg.norm(t.y) for t in problem.tasks]
    state = SupportState(config, problem.p, problem.r)
    for idx, s in enumerate(report.steps):
        if s.kind == "forward":
            if s.index[0] in state.rows or s.index in state.singles:
                raise AssertionError(
                    f"step {idx}: adds {s.object_kind} {s.index}, which the support holds")
            promoted = state.add(s.object_kind, s.index)
            if promoted != s.promoted_row:
                raise AssertionError(
                    f"step {idx}: replay promotes row {promoted}, trace records {s.promoted_row}")
        else:
            try:
                state.remove(s.object_kind, s.index)
            except KeyError:
                raise AssertionError(f"step {idx}: removing absent {s.object_kind}") from None
        pattern = state.pattern()
        beta = refit(problem, pattern)
        step_loss = loss(problem, beta)
        if not abs(step_loss - s.loss_after) <= loss_tol * (1.0 + abs(step_loss)):
            raise AssertionError(
                f"step {idx}: replayed loss {step_loss} vs recorded {s.loss_after}")
        res = compute_residuals(problem, beta)
        for j, t in enumerate(problem.tasks):
            grad = -(t.X.T @ res[j]) / t.n
            for i in pattern.task_support(j):
                bound = grad_tol * xnorm[j][i] * ynorm[j] / t.n
                if not abs(grad[i]) <= bound:
                    raise AssertionError(
                        f"step {idx}: gradient {grad[i]} on supported ({i},{j}) "
                        f"exceeds {bound:.3g}")
    if state.pattern() != report.pattern:
        raise AssertionError("replayed pattern differs")
    beta = refit(problem, report.pattern)
    for j, (t, res) in enumerate(zip(problem.tasks, compute_residuals(problem, beta))):
        cols = sorted(report.pattern.task_support(j))
        s_max, kappa = effective_condition(t.X[:, cols])
        # an empty or all-zero support leaves both solves at exact zeros
        tol = 0.0 if s_max == 0.0 else 1e-12 * kappa * (
            np.linalg.norm(beta[cols, j]) + kappa * np.linalg.norm(res) / s_max)
        diff = float(np.max(np.abs(beta[:, j] - report.coefficients[:, j])))
        if not diff <= tol:
            raise AssertionError(
                f"task {j}: replayed coefficients differ by {diff:.3g}, tolerance {tol:.3g}")
    final_loss = loss(problem, beta)
    if not abs(final_loss - report.final_loss) <= loss_tol * (1.0 + report.final_loss):
        raise AssertionError(
            f"replayed final loss {final_loss} vs recorded {report.final_loss}")
