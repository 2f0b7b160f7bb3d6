"""Forward-backward greedy fitting over two object classes.

The engine grows a support pattern of singleton cells and whole shared rows,
always keeping the estimate at the restricted least-squares optimum of the
current pattern.  Forward steps add the object with the largest weighted loss
decrease (row gains are divided by the sharing weight w, so a row must beat
the best singleton by that factor).  After every addition, backward steps
remove objects whose weighted cost is at most nu times the most recently
recorded reward, popping that reward off a ledger so that every removal is
matched one-to-one with a prior addition.

A fit keeps one ``LeastSquaresFactor`` per task and moves it with the
support: an added column is orthogonalized against the task's current
columns and updates the residual and loss in O(n); a removal refactors that
task; a task whose support did not change does no work.  A task whose columns
become dependent, or outnumber its samples, falls back to the minimum-norm
solve of the reference ``refit`` until a removal makes it factor again.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import LeastSquaresFactor, solve_least_squares
from .model import (
    FitReport,
    GreedyConfig,
    StepRecord,
    SupportPattern,
    loss,
    residuals as compute_residuals,
)


@dataclass(frozen=True)
class ForwardCandidate:
    kind: str          # "singleton" | "row"
    index: tuple       # (i, j) or (m,)
    weighted_reward: float


@dataclass(frozen=True)
class BackwardCandidate:
    kind: str
    index: tuple
    weighted_cost: float


def singleton_cost(problem, beta, i, j, residuals=None, pattern=None):
    """Exact loss increase from zeroing entry (i, j) of the current estimate.

    When a pattern is supplied, (i, j) must be one of its singleton cells.
    """
    if pattern is not None and (i, j) not in pattern.singletons:
        raise ValueError(f"({i}, {j}) is not a supported singleton")
    b = float(beta[i, j])
    t = problem.tasks[j]
    x = t.X[:, i]
    r = residuals[j] if residuals is not None else t.y - t.X @ beta[:, j]
    # ||r + b x||^2 - ||r||^2 expanded; exact for a single-entry change.
    return (b * b * float(x @ x) + 2.0 * b * float(x @ r)) / (2.0 * t.n)


def row_cost(problem, beta, m, w, residuals=None, pattern=None):
    """Weighted loss increase from zeroing the whole feature row m.

    When a pattern is supplied, m must be one of its shared rows.
    """
    if pattern is not None and m not in pattern.rows:
        raise ValueError(f"feature {m} is not a supported row")
    total = 0.0
    for j in range(problem.r):
        total += singleton_cost(problem, beta, m, j, residuals)
    return total / w


def refit(problem, pattern, factors=None):
    """Restricted least-squares re-estimate on a support pattern.

    Each task is solved independently on its supported columns; entries off
    the pattern are exact zeros.  Rank-deficient supports take the
    minimum-norm solution.  Without ``factors`` every task is solved from
    scratch (the reference).  With one ``LeastSquaresFactor`` per task, each
    factor is moved to the task's support instead, and its residual and loss
    are then current.
    """
    beta = np.zeros((problem.p, problem.r))
    for j, t in enumerate(problem.tasks):
        if factors is None:
            cols = sorted(pattern.task_support(j))
            if cols:
                beta[cols, j] = solve_least_squares(t.X[:, cols], t.y)
        else:
            f = factors[j]
            f.move_to(pattern.task_support(j))
            beta[f.cols, j] = f.coef
    return beta


def gain_matrix(problem, residuals, colsq):
    """Every singleton gain at the current residuals, as a (p, r) array.

    Entry (i, j) is the best loss decrease from adjusting that entry alone.
    With x the i-th design column of task j and r its residual, the
    one-dimensional quadratic gives (x.r)^2 / (2 n ||x||^2); zero columns
    score zero.  colsq[j] holds the squared column norms of task j's design.
    A row's gain is the sum of its entries, which the selector divides by w.
    """
    gains = np.zeros((problem.p, problem.r))
    for j, t in enumerate(problem.tasks):
        c = t.X.T @ residuals[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(colsq[j] > 0.0, c * c / (2.0 * t.n * colsq[j]), 0.0)
        gains[:, j] = g
    return gains


def _best_forward(problem, singles, rows, config, gains):
    """Pick the best admissible candidate; None when the support is saturated.

    Singleton candidates exclude supported cells and features already held as
    rows; row candidates exclude current rows.  The row is chosen on ties.
    """
    masked = gains.copy()
    for (i, j) in singles:
        masked[i, j] = -1.0
    row_list = sorted(rows)
    if row_list:
        masked[row_list, :] = -1.0

    flat = int(np.argmax(masked))
    i, j = divmod(flat, problem.r)
    best_single = masked[i, j]

    best_row = -1.0
    best_m = -1
    if config.rows_enabled:
        row_sums = gains.sum(axis=1)
        if row_list:
            row_sums[row_list] = -1.0
        best_m = int(np.argmax(row_sums))
        if row_sums[best_m] >= 0.0:
            best_row = row_sums[best_m] / config.w

    if best_single < 0.0 and best_row < 0.0:
        return None
    if best_row >= best_single:
        return ForwardCandidate("row", (best_m,), float(best_row))
    return ForwardCandidate("singleton", (i, j), float(best_single))


def removal_costs(problem, beta, residuals, colsq):
    """Every entry's ``singleton_cost`` at once, as a (p, r) array.

    Entry (i, j) is (b^2 ||x||^2 + 2 b x.r) / (2 n) with b = beta[i, j], x the
    i-th column of task j and r its residual.  Entries with b = 0, off-support
    ones included, cost 0, so a task whose coefficients are all zero is
    skipped.
    """
    costs = np.zeros((problem.p, problem.r))
    for j, t in enumerate(problem.tasks):
        b = beta[:, j]
        if b.any():
            costs[:, j] = (b * b * colsq[j] + 2.0 * b * (t.X.T @ residuals[j])) / (2.0 * t.n)
    return costs


def _worst_backward(problem, beta, singles, rows, config, residuals, colsq):
    """Cheapest removal across both classes; rows are removed on ties.

    Within a class, the first object in sorted order wins ties.
    """
    costs = removal_costs(problem, beta, residuals, colsq)
    best_s = None
    if singles:
        cells = sorted(singles)
        ii, jj = zip(*cells)
        c = costs[list(ii), list(jj)]
        k = int(np.argmin(c))
        best_s = BackwardCandidate("singleton", cells[k], float(c[k]))
    best_r = None
    if rows:
        ms = sorted(rows)
        c = costs[ms, :].sum(axis=1) / config.w
        k = int(np.argmin(c))
        best_r = BackwardCandidate("row", (ms[k],), float(c[k]))
    if best_r is not None and (best_s is None or best_r.weighted_cost <= best_s.weighted_cost):
        return best_r
    return best_s


def coalesce_threshold(w):
    """Singleton count at which a feature row out-earns the w-weighted row gate."""
    return math.floor(w) + 1


class SupportState:
    """The support a fit holds: singleton cells (i, j) plus shared feature rows.

    Every move is applied here, so a fit and the replay of its trace move
    identically.  Adding a row drops that feature's singletons.  Adding a
    singleton promotes its feature to a row once the feature holds
    coalesce_threshold(w) singletons, when rows and coalescing are both on.
    Removing an object the support does not hold raises KeyError.
    """

    def __init__(self, config):
        self.singles = set()
        self.rows = set()
        self.promote_at = (coalesce_threshold(config.w)
                           if config.rows_enabled and config.coalesce_rows else None)

    def add(self, kind, index):
        """Add a "row" (m,) or a "singleton" (i, j); return the promoted feature or None."""
        i = index[0]
        if kind == "row":
            self.singles -= {cell for cell in self.singles if cell[0] == i}
            self.rows.add(i)
            return None
        self.singles.add(index)
        if self.promote_at is not None:
            held = {cell for cell in self.singles if cell[0] == i}
            if len(held) >= self.promote_at:
                self.singles -= held
                self.rows.add(i)
                return i
        return None

    def remove(self, kind, index):
        if kind == "row":
            self.rows.remove(index[0])
        else:
            self.singles.remove(index)

    def pattern(self):
        return SupportPattern(singletons=frozenset(self.singles), rows=frozenset(self.rows))


def fit(problem, config):
    """Run the full greedy procedure and return a FitReport with its trace.

    Forward steps stop once the best weighted gain falls to the stopping
    threshold (within the comparison tolerance) or the step cap is hit.
    When row coalescing is on, a feature accumulating floor(w) + 1 singletons
    is reclassified as a shared row, mirroring how true supports are
    partitioned by per-row entry counts.
    """
    if not isinstance(config, GreedyConfig):
        raise TypeError("config must be a GreedyConfig")
    if config.rows_enabled and problem.r > 1 and config.w > problem.r:
        raise ValueError(f"w={config.w} exceeds the task count r={problem.r}")

    p, r = problem.p, problem.r
    state = SupportState(config)
    beta = np.zeros((p, r))
    factors = [LeastSquaresFactor(t.X, t.y) for t in problem.tasks]
    res = [f.residual for f in factors]
    colsq = [np.einsum("ij,ij->j", t.X, t.X) for t in problem.tasks]
    # (reward, step index) of every forward step not yet matched by a removal
    ledger = []
    steps = []
    cap = config.step_cap(p, r)
    forward_taken = 0
    termination = "gain-below-threshold"

    while True:
        if forward_taken >= cap:
            termination = "max-steps"
            break
        gains = gain_matrix(problem, res, colsq)
        cand = _best_forward(problem, state.singles, state.rows, config, gains)
        if cand is None or cand.weighted_reward <= config.epsilon + config.comparison_tolerance:
            break

        forward_taken += 1
        promoted = state.add(cand.kind, cand.index)
        ledger.append((cand.weighted_reward, len(steps)))
        beta = refit(problem, state.pattern(), factors)
        res = [f.residual for f in factors]
        steps.append(StepRecord(
            kind="forward",
            object_kind=cand.kind,
            index=cand.index,
            reward_or_cost=cand.weighted_reward,
            loss_after=sum(f.loss for f in factors),
            ledger_depth=len(ledger),
            promoted_row=promoted,
        ))

        # Backward passes: keep removing while the cheapest removal costs at
        # most nu times the most recent recorded reward.
        while ledger and (state.singles or state.rows):
            back = _worst_backward(problem, beta, state.singles, state.rows, config, res, colsq)
            top_reward, top_step = ledger[-1]
            if back.weighted_cost > config.nu * top_reward:
                break
            ledger.pop()
            state.remove(back.kind, back.index)
            beta = refit(problem, state.pattern(), factors)
            res = [f.residual for f in factors]
            steps.append(StepRecord(
                kind="backward",
                object_kind=back.kind,
                index=back.index,
                reward_or_cost=back.weighted_cost,
                loss_after=sum(f.loss for f in factors),
                ledger_depth=len(ledger),
                popped_reward=top_reward,
                popped_step=top_step,
            ))

    return FitReport(
        coefficients=beta,
        pattern=state.pattern(),
        final_loss=sum(f.loss for f in factors),
        steps=tuple(steps),
        termination=termination,
    )


def check_step_records(report, config, initial_loss):
    """Cheap trace invariants computed from recorded values only.

    Checks, for every step: rewards cleared the stopping gate; each removal
    cost at most nu times the reward it popped; each matched add/remove pair
    strictly decreased the loss; and the final pattern keeps fewer than
    floor(w) + 1 singletons on any non-shared feature row when rows are in
    play with a non-integer weight.  Raises AssertionError on violation.
    """
    loss_before = [initial_loss]
    for s in report.steps:
        loss_before.append(s.loss_after)
    stack = []
    for idx, s in enumerate(report.steps):
        if s.kind == "forward":
            assert s.reward_or_cost > config.epsilon, (
                f"step {idx}: recorded reward {s.reward_or_cost} under threshold")
            stack.append(idx)
        else:
            assert s.reward_or_cost >= -1e-10, f"step {idx}: negative removal cost"
            assert stack, f"step {idx}: removal with empty ledger"
            fidx = stack.pop()
            forward = report.steps[fidx]
            assert s.popped_reward == forward.reward_or_cost, (
                f"step {idx}: popped reward mismatch with step {fidx}")
            assert s.reward_or_cost <= config.nu * s.popped_reward, (
                f"step {idx}: cost {s.reward_or_cost} exceeds "
                f"nu * {s.popped_reward}")
            drop = loss_before[fidx] - forward.loss_after
            rise = s.loss_after - loss_before[idx]
            assert drop - rise > 0.0, (
                f"steps {fidx}/{idx}: paired add/remove did not decrease the loss")
    if config.rows_enabled and config.coalesce_rows and config.w != math.floor(config.w):
        d = coalesce_threshold(config.w)
        counts: dict = {}
        for (i, _) in report.pattern.singletons:
            counts[i] = counts.get(i, 0) + 1
        worst = max(counts.values(), default=0)
        assert worst <= d - 1, (
            f"a non-shared row holds {worst} singletons; limit is {d - 1}")


def verify_trace(problem, config, report, grad_tol=1e-8, loss_tol=1e-10):
    """Replay a fit trace and verify the engine's state invariants.

    On top of ``check_step_records`` this re-applies every move through a
    ``SupportState``, refits, and asserts that each replayed promotion equals
    the recorded one, that recorded losses match to loss_tol, that the loss
    gradient vanishes on the support after every refit (|grad| <= grad_tol),
    and that the replayed final pattern and coefficients agree with the report.
    """
    check_step_records(report, config, loss(problem, np.zeros((problem.p, problem.r))))
    state = SupportState(config)
    for idx, s in enumerate(report.steps):
        if s.kind == "forward":
            promoted = state.add(s.object_kind, s.index)
            assert promoted == s.promoted_row, (
                f"step {idx}: replay promotes row {promoted}, trace records {s.promoted_row}")
        else:
            try:
                state.remove(s.object_kind, s.index)
            except KeyError:
                raise AssertionError(f"step {idx}: removing absent {s.object_kind}") from None
        pattern = state.pattern()
        beta = refit(problem, pattern)
        step_loss = loss(problem, beta)
        assert abs(step_loss - s.loss_after) <= loss_tol * (1.0 + abs(step_loss)), (
            f"step {idx}: replayed loss {step_loss} vs recorded {s.loss_after}")
        res = compute_residuals(problem, beta)
        for j, t in enumerate(problem.tasks):
            grad = -(t.X.T @ res[j]) / t.n
            for i in pattern.task_support(j):
                assert abs(grad[i]) <= grad_tol, (
                    f"step {idx}: gradient {grad[i]} on supported ({i},{j})")
    assert state.pattern() == report.pattern, "replayed pattern differs"
    beta = refit(problem, report.pattern)
    assert np.allclose(beta, report.coefficients, atol=1e-12, rtol=0.0), (
        "replayed coefficients differ")
    assert abs(loss(problem, beta) - report.final_loss) <= loss_tol * (1.0 + report.final_loss)
