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

A fit keeps its estimate in two (p, r) grids made by ``FitPath``: B,
the coefficients, and C, whose column j is c_j = X_j^T r_j.  Column j of each
is the only full-length copy of task j's values, and task j's
``LeastSquaresFactor`` owns it and writes it in place when, and only when,
the task's support moves.  An added column is orthogonalized against the
task's current columns; the factor writes B[cols, j], updates the residual
and loss in O(n) and sets C[:, j] -= zeta X^T q.  Any other move refactors
that task by a QR, or, on dependent columns or more columns than samples, by
the minimum-norm solve of the reference ``refit``; either zeroes the columns
it drops and writes C[:, j] = X^T r afresh.  The updated correlations agree
with the product to round-off.  A task whose support did not move does no work.

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
X^T r after a removal, are each one ``X.T @ v`` on the calling thread: a
fit runs on one core, and only ``processes``' forked children use others.

A move is a few whole-array expressions over B and C, so the backward
removal costs after a refit and the next forward gains read the same grids.
The ``SupportState`` keeps a boolean mask of its singleton cells and one of
its rows next to the sets, so each selector is one masked argmax or argmin,
taken as the array's method: the module functions ``np.argmax`` and
``np.argmin`` add numpy's Python dispatch, about 1-2 us a call, four calls a
move.  Ties go to the first cell in sorted (i, j) order and the first row in
sorted order, and a row beats a singleton of equal value.

Epsilon enters a fit only at its forward gate, so for one problem and one
config up to epsilon, the fit at a larger epsilon is a step-by-step prefix
of the fit at a smaller one.  A ``FitPath`` is the live state of one such
fit, one w's, made at beta = 0 and served over that w's epsilons, never
rising: each ``fit`` on it returns the next point's report, the same as a
fresh fit's.  A fresh fit is the path of a one-point grid.
``experiments._path_fits`` alone fits longer grids, each built by
``experiments._path_grid`` and refused there by ``_check_points``: it
makes each w's path on the one problem it is given at the w's first
point and drops it after its last, for ``cross_validate`` and
``sweep_grid``, and never forks.  The w's share nothing, though fits at
different w often make the same moves for a while (in the digit grid
search, w = 1.25 retraces w = 1), so each such move is refit once per w.
Sharing such moves would refit each once, but it needs a copy of the state
wherever the w's part and per-w bookkeeping on every move, one-w fits
included.  Without it the grid search of the benchmark's
``cv_shared_p649_r10`` (6 c x 5 w on a digit-shaped problem) refits 25-53%
more often (seeds 0-2).  In-process on a 2-core VM, an operation of that
workload (the grid search and the final fit) took 1.2 times as long fit
serially and 1.15 times as long with the w's split over two processes
(``processes``): medians of 6 alternating process pairs of 6 operations
each, seeds 0-5.
"""

import math
from dataclasses import replace
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
# Round-off allowed in a supported entry's gradient, relative to ||x_i|| ||y_j|| / n.
GRADIENT_TOLERANCE = 1e-8


class Candidate(NamedTuple):
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
    """Per-fit constants of the (p, r) grid, made once by ``FitPath``."""

    colsq: np.ndarray    # (p, r): squared norm of column i of task j's design
    two_n: np.ndarray    # (r,): 2 n_j
    denom: np.ndarray    # (p, r): 2 n_j colsq, inf where the column is zero


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


def _best_forward(singles, rows, config, gains):
    """Pick the best admissible candidate under ``config``, or None when the
    support is saturated.

    ``singles`` and ``rows`` are the ``MaskedSet``s of a ``SupportState`` and
    ``gains`` the (p, r) matrix of ``gain_matrix``.  Only the config's w and
    rows_enabled are read; w only divides the best row's sum.  Singleton
    candidates exclude supported cells and features already held as rows;
    row candidates exclude current rows.  The first cell in (i, j) order and
    the first row win ties within a class, and the row wins a tie between
    classes.
    """
    masked = np.where(singles.mask | rows.mask[:, None], -1.0, gains)
    i, j = divmod(int(masked.argmax()), gains.shape[1])
    best_single = masked[i, j]
    best_row = -1.0
    if config.rows_enabled:
        row_sums = np.where(rows.mask, -1.0, gains.sum(axis=1))
        m = int(row_sums.argmax())
        if row_sums[m] >= 0.0:
            best_row = row_sums[m] / config.w
    if best_single < 0.0 and best_row < 0.0:
        return None
    if best_row >= best_single:
        return Candidate("row", (m,), float(best_row))
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
    """Cheapest removal across both classes under ``config``; rows are
    removed on ties.

    ``singles`` and ``rows`` are the ``MaskedSet``s of a non-empty
    ``SupportState``; the config's w divides the row sums.  Within a class,
    the first object in sorted order wins ties.
    """
    costs = removal_costs(beta, correlations, scales)
    best = None
    if singles:
        i, j = divmod(int(np.where(singles.mask, costs, np.inf).argmin()), problem.r)
        best = Candidate("singleton", (i, j), float(costs[i, j]))
    if rows:
        held = np.where(rows.mask, costs.sum(axis=1), np.inf) / config.w
        m = int(held.argmin())
        if best is None or held[m] <= best.value:
            best = Candidate("row", (m,), float(held[m]))
    return best


def _check_weight(config, r):
    """Refuse a rows-enabled ``config`` whose w exceeds the task count r > 1."""
    if config.rows_enabled and r > 1 and config.w > r:
        raise ValueError(f"w={config.w} exceeds the task count r={r}")


def promotion_count(config):
    """Singleton count at which a fit under ``config`` promotes a feature to
    a row, the count at which the feature's row out-earns the w-weighted row
    gate: floor(w) + 1 with rows enabled, None with rows off."""
    return math.floor(config.w) + 1 if config.rows_enabled else None


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
    ``promotion_count(config)`` singletons, whenever rows are enabled.
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
        self.promote_at = promotion_count(config)

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


def _check_points(points, r):
    """Refuse ``points`` unless they are one w's path on a problem of ``r``
    tasks: a non-empty sequence of configs that differ only in epsilon,
    which never rises, at a w that ``_check_weight`` takes."""
    if not points:
        raise ValueError("the grid is empty")
    base = points[0]
    _check_weight(base, r)
    for before, config in zip(points, points[1:]):
        if replace(config, epsilon=base.epsilon) != base:
            raise ValueError("a path's points differ in more than epsilon")
        if config.epsilon > before.epsilon:
            raise ValueError(f"the grid's epsilons rise at w={config.w}")


class FitPath:
    """One w's greedy fit of one problem, continued down that w's epsilons,
    which ``fit`` serves one point at a time.

    ``points`` is a non-empty sequence of ``GreedyConfig``s that differ only
    in epsilon, which never rises (``_check_points``), so points of two
    w's are refused.  The path serves its points in that order, each to one
    ``fit``, which must name the point.  Its numeric state is made at
    beta = 0: the ``SupportState``, the B and C grids ``beta`` and
    ``correlations`` with the ``factors`` that own each task's column of
    them, and ``forward_taken``, the count of forward steps taken.
    ``ledger`` holds the (reward, step index) of every forward step not yet
    matched by a removal and ``steps`` the step records.  Each ``fit`` goes
    on from where the previous point stopped, exactly as a fresh fit at the
    smaller epsilon would.  The path also holds its ``points``, the count
    ``served`` of those fit, the ``Scales`` and the loss at beta = 0.

    ``remote`` is None or a stream, an object whose ``receive()`` returns
    its next report, that holds the path's reports next in order; ``fit``
    then serves every point from it, and the path keeps only its points and
    its loss at beta = 0.
    """

    def __init__(self, problem, points, remote=None):
        self.points = tuple(points)
        _check_points(self.points, problem.r)
        self.served = 0
        self.problem = problem
        self.zero_loss = sum(float(t.y @ t.y) / (2.0 * t.n) for t in problem.tasks)
        self.remote = remote
        if remote is not None:
            return
        p, r = problem.p, problem.r
        self.cap = self.points[0].step_cap(p, r)
        # one empty basis and one set of column norms per design object;
        # designs are told apart by identity, not compared by value
        designs = {}
        for t in problem.tasks:
            if id(t.X) not in designs:
                designs[id(t.X)] = (Basis(t.X), np.einsum("ij,ij->j", t.X, t.X))
        colsq = np.column_stack([designs[id(t.X)][1] for t in problem.tasks])
        two_n = np.array([2.0 * t.n for t in problem.tasks])
        self.scales = Scales(colsq, two_n, np.where(colsq > 0.0, two_n * colsq, np.inf))
        self.slack = COMPARISON_TOLERANCE * self.zero_loss
        self.state = SupportState(self.points[0], p, r)
        self.beta, self.correlations = np.zeros((p, r)), np.empty((p, r))
        self.factors = [LeastSquaresFactor(designs[id(t.X)][0], t.y, self.beta[:, j],
                                           self.correlations[:, j])
                        for j, t in enumerate(problem.tasks)]
        self.forward_taken = 0
        self.ledger, self.steps = [], []

    def _advance(self, config):
        """Go on with the fit until ``config``'s forward gate stops it, and
        return the report made there.

        Each forward step adds the best candidate and then removes while the
        cheapest removal costs at most nu times the most recent recorded
        reward.
        """
        problem, scales, gate = self.problem, self.scales, config.epsilon + self.slack
        beta, correlations = self.beta, self.correlations
        singles, rows = self.state.singles, self.state.rows
        while True:
            if self.forward_taken >= self.cap:
                termination, pick = "max-steps", None
            else:
                termination = "gain-below-threshold"
                pick = _best_forward(singles, rows, config,
                                     gain_matrix(problem, correlations, scales))
            if pick is None or pick.value <= gate:
                break
            self._move("forward", pick)
            while self.ledger and (singles or rows):
                back = _worst_backward(problem, beta, singles, rows, config,
                                       correlations, scales)
                if not back.value <= config.nu * self.ledger[-1][0]:
                    break
                self._move("backward", back)
        return FitReport(
            coefficients=beta.copy(),
            pattern=self.state.pattern(),
            final_loss=sum(f.loss for f in self.factors),
            steps=tuple(self.steps),
            termination=termination,
        )

    def _move(self, kind, pick):
        """Add the picked object and push its reward on the ledger
        ("forward"), or remove it and pop the ledger ("backward"); then
        refit and record the step."""
        promoted, popped = None, (None, None)
        if kind == "forward":
            self.forward_taken += 1
            promoted = self.state.add(pick.kind, pick.index)
            self.ledger.append((pick.value, len(self.steps)))
        else:
            self.state.remove(pick.kind, pick.index)
            popped = self.ledger.pop()
        refit(self.problem, self.state, self.factors)
        self.steps.append(StepRecord(
            kind=kind, object_kind=pick.kind, index=pick.index,
            reward_or_cost=pick.value, loss_after=sum(f.loss for f in self.factors),
            ledger_depth=len(self.ledger), popped_reward=popped[0],
            popped_step=popped[1], promoted_row=promoted))


def fit(problem, config, path=None):
    """Run the full greedy procedure and return a FitReport with its trace.

    Forward steps stop once the best weighted gain falls to epsilon plus
    COMPARISON_TOLERANCE times the loss at beta = 0, or the step cap is hit.
    When rows are enabled, a feature accumulating floor(w) + 1 singletons is
    reclassified as a shared row, mirroring how true supports are
    partitioned by per-row entry counts.

    Epsilon enters only at that forward gate, and the step cap and every
    choice are independent of it.  So for one problem and a config fixed up
    to epsilon, the fit at a larger epsilon is exactly a prefix of the fit
    at a smaller one: it ends at the first forward candidate the larger
    gate stops.  Without a path the fit is that of the one-point path
    ``FitPath(problem, [config])``.  Given a ``FitPath``, ``problem`` must
    be the path's own problem object and ``config`` the path's next point,
    or ValueError is raised; the fit then goes on from where the path's
    previous fit stopped, and the report equals that of a fresh fit bit for
    bit; a remote path serves it from its stream instead.  The report's
    coefficients are a copy, since the path goes on writing its B grid in
    place.
    """
    if not isinstance(config, GreedyConfig):
        raise TypeError("config must be a GreedyConfig")
    if path is None:
        path = FitPath(problem, [config])
    points = path.points
    if (problem is not path.problem or path.served == len(points)
            or config != points[path.served]):
        raise ValueError("a path fits its own problem object at its next grid point only")
    path.served += 1
    if path.remote is not None:
        return path.remote.receive()
    return path._advance(config)


def check_step_records(report, config, initial_loss):
    """Cheap trace invariants computed from recorded values only.

    Checks, for every step: rewards cleared the stopping gate; each removal
    popped the latest unmatched addition, by step index and by reward, and
    cost at most nu times that reward and at least -1e-10 times
    ``initial_loss``, the loss at beta = 0; each matched add/remove pair
    strictly decreased the loss; and the final pattern keeps fewer than
    floor(w) + 1 singletons on any non-shared feature row when rows are
    enabled with a non-integer weight.  Raises AssertionError on violation,
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
            if not s.reward_or_cost >= -1e-10 * initial_loss:
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
    d = promotion_count(config)
    if d is not None and config.w != math.floor(config.w):
        counts: dict = {}
        for (i, _) in report.pattern.singletons:
            counts[i] = counts.get(i, 0) + 1
        worst = max(counts.values(), default=0)
        if worst > d - 1:
            raise AssertionError(f"a non-shared row holds {worst} singletons; limit is {d - 1}")


def verify_trace(problem, config, report):
    """Replay a fit trace and verify the engine's state invariants.

    On top of ``check_step_records`` this re-applies every move through a
    ``SupportState``, refits it with the reference ``refit``, and checks that
    each addition adds an object the support does not hold and each removal
    one it holds, that each replayed promotion equals the recorded one, that
    after every refit the loss gradient vanishes on the support and then the
    recorded loss matches to 1e-10 times the loss at beta = 0, and that the
    replayed final pattern and coefficients agree with the report.  A
    violation raises AssertionError naming the step, also under ``python -O``.

    Every check scales with the data.  The gradient x_i.r_j / n of a
    supported entry must stay within GRADIENT_TOLERANCE * ||x_i|| ||y_j|| / n,
    the size at which round-off enters it (||r_j|| is no scale: it vanishes
    when a support interpolates).  Task j's coefficients must match the reference
    solve within 1e-12 * kappa * (||b_j|| + kappa ||r_j|| / s_max), the
    first-order least-squares perturbation bound, with s_max and kappa the
    largest singular value and the condition number of its supported columns.
    """
    zero_loss = loss(problem, np.zeros((problem.p, problem.r)))
    check_step_records(report, config, zero_loss)
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
        beta = refit(problem, state)
        res = compute_residuals(problem, beta)
        for j, t in enumerate(problem.tasks):
            grad = -(t.X.T @ res[j]) / t.n
            for i in state.task_support(j):
                bound = GRADIENT_TOLERANCE * xnorm[j][i] * ynorm[j] / t.n
                if not abs(grad[i]) <= bound:
                    raise AssertionError(
                        f"step {idx}: gradient {grad[i]} on supported ({i},{j}) "
                        f"exceeds {bound:.3g}")
        step_loss = loss(problem, beta)
        if not abs(step_loss - s.loss_after) <= 1e-10 * zero_loss:
            raise AssertionError(
                f"step {idx}: replayed loss {step_loss} vs recorded {s.loss_after}")
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
    if not abs(final_loss - report.final_loss) <= 1e-10 * zero_loss:
        raise AssertionError(
            f"replayed final loss {final_loss} vs recorded {report.final_loss}")
