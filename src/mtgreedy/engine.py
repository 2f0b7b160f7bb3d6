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
does the same floating-point operations as with a basis of its own.  A
copy of a fit's state (below) holds the same bases too, with grids,
residuals and z's of its own, and shares no memo.

The two full products with a design, each append's X^T q and the fresh
X^T r after a removal, go through ``linalg.design_product``, which splits
a large design's columns across the process's CPUs (its docstring gives the
rule) with the same bits as one ``X.T @ v`` under one BLAS thread per call,
so no step, pattern or coefficient depends on the split.

A move is a few whole-array expressions over B and C, so the backward
removal costs after a refit and the next forward gains read the same grids.
The ``SupportState`` keeps a boolean mask of its singleton cells and one of
its rows next to the sets, so each selector is one masked argmax or argmin.
Ties go to the first cell in sorted (i, j) order and the first row in
sorted order, and a row beats a singleton of equal value.

Epsilon enters a fit only at its forward gate, so for one problem and one
config up to epsilon, the fit at a larger epsilon is a step-by-step prefix
of the fit at a smaller one.  A ``FitPath`` holds the live state of the
fits of one problem over a grid of (epsilon, w) points, each w's epsilons
never rising, and serves the points in the order the grid gives: each
``fit`` on it returns the next point's report, the same as a fresh fit's.
Fits at different w often make the same moves (in the digit grid search,
w = 1.25 retraces w = 1), so the w's ride shared branches of numeric
state, one made with the path at beta = 0 per promotion count: a move
every w on a branch picks is refit once, and a w whose own decision
differs leaves on a copy of the branch taken at that state.  A fresh fit
is the path of a one-point grid.  ``experiments._path_fits``
alone fits longer grids, one path per problem (and task, for the per-task
baseline), w by w from the largest threshold down, for ``cross_validate``
and ``sweep_grid``.

A grid path's w's that fork early are independent fits, so a path on a
large problem shares them out over the process's CPUs (``FitPath`` gives
the rule): its first run of w's stays in the caller, and each later run is
fit on a path of its own in a forked child, which sends each report back
as soon as it is made.  A sweep shares out its trials the same way
(``experiments.sweep_grid``): a child draws and fits a later run of
trials, and the caller serves each of their points from the child's
stream on a path made with that child, which fits nothing itself.  One
mechanism does both: ``_split`` plans the runs under one set of guards,
and a ``_Child`` runs any stream of reports the caller has not started.
Each report equals a fresh fit's bit for bit, in whichever process it is
made, so the split changes no output; ``fit`` is still called once per
point in the caller, in grid order.
"""

import math
import queue
import threading
import weakref
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import linalg
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
# A grid path splits its w's across processes only on a problem of at least
# this many design elements, the sum of n_j * p over its tasks.  A fork, its
# report transfers and the join took 6-15 ms in a process of 100-140 MB.  On
# a 2-core Xeon VM with BLAS pinned, the split took 0.71-0.72 of the serial
# time of the digit grid search (6 c x 5 w, medians of 7) at 10 x 200 x 649
# elements (1.3e6), 0.75-0.83 at 6.5e5 but 1.20 in one run of 7, 0.94-1.08 at
# 3.2e5, and 1.12-1.19 on a sweep-sized 2 x 100 x 128 problem (3 w's).
FORK_ELEMENTS = 2 ** 20


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


def _best_forward(singles, rows, configs, gains):
    """Pick the best admissible candidate at each of ``configs``: a list with
    one Candidate per config, or None where the support is saturated.

    ``singles`` and ``rows`` are the ``MaskedSet``s of a ``SupportState`` and
    ``gains`` the (p, r) matrix of ``gain_matrix``.  Only each config's w and
    rows_enabled are read; the masked argmax and the row sums are taken once
    for them all, and a config's w only divides the best row's sum.
    Singleton candidates exclude supported cells and features already held as
    rows; row candidates exclude current rows.  The first cell in (i, j)
    order and the first row win ties within a class, and the row wins a tie
    between classes.
    """
    masked = np.where(singles.mask | rows.mask[:, None], -1.0, gains)
    i, j = divmod(int(np.argmax(masked)), gains.shape[1])
    best_single = masked[i, j]

    top = None
    picks = []
    for config in configs:
        best_row = -1.0
        if config.rows_enabled:
            if top is None:
                row_sums = np.where(rows.mask, -1.0, gains.sum(axis=1))
                best_m = int(np.argmax(row_sums))
                top = row_sums[best_m]
            if top >= 0.0:
                best_row = top / config.w
        if best_single < 0.0 and best_row < 0.0:
            picks.append(None)
        elif best_row >= best_single:
            picks.append(Candidate("row", (best_m,), float(best_row)))
        else:
            picks.append(Candidate("singleton", (i, j), float(best_single)))
    return picks


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


def _worst_backward(problem, beta, singles, rows, configs, correlations, scales):
    """Cheapest removal across both classes at each of ``configs``, one
    Candidate per config; rows are removed on ties.

    ``singles`` and ``rows`` are the ``MaskedSet``s of a non-empty
    ``SupportState``.  The removal costs, the cheapest singleton and the row
    sums are taken once; each config's w divides the row sums.  Within a
    class, the first object in sorted order wins ties.
    """
    costs = removal_costs(beta, correlations, scales)
    best_s = None
    if singles:
        i, j = divmod(int(np.argmin(np.where(singles.mask, costs, np.inf))), problem.r)
        best_s = Candidate("singleton", (i, j), float(costs[i, j]))
    if not rows:
        return [best_s] * len(configs)
    held = np.where(rows.mask, costs.sum(axis=1), np.inf)
    picks = []
    for config in configs:
        c = held / config.w
        m = int(np.argmin(c))
        best_r = Candidate("row", (m,), float(c[m]))
        picks.append(best_r if best_s is None or best_r.value <= best_s.value else best_s)
    return picks


def _check_weight(config, r):
    """Refuse a rows-enabled ``config`` whose w exceeds the task count r > 1."""
    if config.rows_enabled and r > 1 and config.w > r:
        raise ValueError(f"w={config.w} exceeds the task count r={r}")


def coalesce_threshold(w):
    """Singleton count at which a feature row out-earns the w-weighted row gate."""
    return math.floor(w) + 1


def promotion_count(config):
    """Singleton count at which a fit under ``config`` promotes a feature to
    a row: coalesce_threshold(w) with rows enabled, None with rows off."""
    return coalesce_threshold(config.w) if config.rows_enabled else None


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

    def copy(self):
        other = MaskedSet(self.mask.shape)
        set.update(other, self)
        other.mask[...] = self.mask
        return other


class SupportState:
    """The support a fit holds: singleton cells (i, j) plus shared feature rows.

    Every move is applied here, so a fit and the replay of its trace move
    identically.  Adding a row drops that feature's singletons.  Adding a
    singleton promotes its feature to a row once the feature holds
    coalesce_threshold(w) singletons, whenever rows are enabled.
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

    def copy(self):
        other = SupportState.__new__(SupportState)
        other.singles, other.rows = self.singles.copy(), self.rows.copy()
        other._columns = [set(cols) for cols in self._columns]
        other.promote_at = self.promote_at
        return other


class _Rider:
    """One sharing weight's own part of a ``FitPath``.

    ``config`` is the path's first config at this w; ``todo`` holds the
    epsilons the rider has yet to stop at, in grid order, and ``made`` the
    reports it stopped at and ``fit`` has not handed out, first in, first
    out.  ``ledger`` holds the (reward, step index) of every forward step
    not yet matched by a removal and ``steps`` the rider's step records;
    both are emptied once its grid is done.
    """

    __slots__ = ("config", "todo", "made", "ledger", "steps")

    def __init__(self, config):
        self.config = config
        self.todo = []
        self.made = []
        self.ledger = []
        self.steps = []


class _Branch:
    """The numeric state that riders of a ``FitPath`` share: the
    ``SupportState``, the B and C grids with the factor that owns each task's
    column of them, and the count of forward steps taken.  ``riders`` and
    ``configs``, their configs, change together in ``seat``.  A branch
    copied at a backward decision (``backward``) goes on with its backward
    passes before it selects forward again."""

    __slots__ = ("state", "beta", "correlations", "factors", "forward_taken", "riders",
                 "configs", "backward")

    def __init__(self, state, beta, correlations, factors, riders):
        self.state = state
        self.beta = beta
        self.correlations = correlations
        self.factors = factors
        self.forward_taken = 0
        self.backward = False
        self.seat(riders)

    def seat(self, riders):
        self.riders = riders
        self.configs = [rider.config for rider in riders]

    def copy(self, riders, backward):
        """A copy of the branch for ``riders``, which leave this one.  The
        copy takes its own grids; the factors' bases, z's and residuals are
        shared, since a move replaces them and never writes them in place."""
        beta, correlations = self.beta.copy(), self.correlations.copy()
        other = _Branch(self.state.copy(), beta, correlations,
                        [f.copy(beta[:, j], correlations[:, j])
                         for j, f in enumerate(self.factors)], riders)
        other.forward_taken, other.backward = self.forward_taken, backward
        return other


class FitPath:
    """The live state of the greedy fits of one problem over a grid, which
    ``fit`` serves one point at a time.

    ``grid`` is a non-empty sequence of ``GreedyConfig``s that differ only
    in (epsilon, w), in which no w's epsilons rise.  The path serves its
    points in that order, each to one ``fit``, which must name the point.

    Each distinct w is a ``_Rider`` with its own ledger, steps, rewards and
    epsilon cursor.  The riders share ``_Branch``es of numeric state: the
    ``SupportState``, the B and C grids with their factors, and the forward
    count.  The path makes one branch at beta = 0 per ``promotion_count``
    among its w's (rows off is one count), for the riders of that count.
    The fitted rider leads its branch; at each state the branch's selection
    work is done once and every rider on it decides with its own w, gate
    and ledger.  A move that every rider on the branch picks is refit once,
    for all of them.  Riders whose decision differs from the lead's leave
    together on a copy of the branch taken at that state, which waits there
    until one of them is fit.  A rider passing one of its epsilons while it
    rides keeps that point's report until ``fit`` reaches the point.  The
    path holds its ``points``, the count ``served`` of those fit, its
    ``riders`` by w, its live ``branches`` (a branch is dropped once every
    rider on it is done), the ``Scales`` and the loss at beta = 0.  No
    branch refers back to the path or a rider to its branch, so a dropped
    path is freed at once.

    A path also splits its distinct w's across processes when it has two
    or more, the problem has at least FORK_ELEMENTS design elements and
    this process may fork (``_split`` gives the guards: among them, BLAS
    pinned on two or more CPUs, no child of this process alive and a child
    never splitting again).  The w's, in grid order, are cut into
    min(CPUs, w's) contiguous runs of near-equal count (``_chunks``).  The
    first run rides the path's own branches; each other run is fit in a
    forked child on an ordinary path over its part of the grid
    (``_grid_reports`` in a ``_Child``), which sends each report as soon as
    it is made, while the caller fits its own run.
    ``fit`` serves a child's w from that child's stream: the child's
    exception is raised there, and a child that stopped before sending its
    report raises RuntimeError.  A child is joined when its last report is
    served; ``close`` stops and joins those still running, and so does a
    finalizer when a path is dropped.  ``remote`` maps each w fit in a
    child to that child, and ``riders`` holds the caller's w's only.

    Given ``child``, a sweep's ``_Child`` whose stream holds this path's
    reports next, in grid order, the path fits nothing itself and makes no
    branch: every w is remote to that child, which is the sweep's to stop,
    not the path's.
    """

    def __init__(self, problem, grid, child=None):
        self.points = tuple(grid)
        if not self.points:
            raise ValueError("the grid is empty")
        base = self.points[0]
        self.riders = {}
        for config in self.points:
            if config is not base and replace(config, epsilon=base.epsilon, w=base.w) != base:
                raise ValueError("the grid's configs differ in more than epsilon and w")
            _check_weight(config, problem.r)
            if config.w not in self.riders:
                self.riders[config.w] = _Rider(config)
            todo = self.riders[config.w].todo
            if todo and config.epsilon > todo[-1]:
                raise ValueError(f"the grid's epsilons rise at w={config.w}")
            todo.append(config.epsilon)
        self.served = 0
        self.problem = problem
        self.zero_loss = sum(float(t.y @ t.y) / (2.0 * t.n) for t in problem.tasks)
        self.remote, self._children = {}, []
        if child is not None:           # a sweep's child fits every point
            self.remote, self.riders = dict.fromkeys(self.riders, child), {}
            return
        # the later runs of w's go to children first, so they start at once
        runs = _fork_plan(problem, list(self.riders))
        if len(runs) > 1:
            weakref.finalize(self, _stop, self._children)
        for ws in runs[1:]:
            subgrid = [config for config in self.points if config.w in ws]
            child = _Child(_grid_reports(problem, subgrid), len(subgrid))
            self._children.append(child)
            for w in ws:
                self.remote[w] = child
                del self.riders[w]
        # each rider starts at beta = 0 on the branch of its promotion count
        groups = {}
        for rider in self.riders.values():
            groups.setdefault(promotion_count(rider.config), []).append(rider)
        self.nu = base.nu
        self.cap = base.step_cap(problem.p, problem.r)
        # one empty basis and one set of column norms per design object;
        # designs are told apart by identity, not compared by value
        designs = {}
        for t in problem.tasks:
            if id(t.X) not in designs:
                designs[id(t.X)] = (Basis(t.X), np.einsum("ij,ij->j", t.X, t.X))
        colsq = np.column_stack([designs[id(t.X)][1] for t in problem.tasks])
        two_n = np.array([2.0 * t.n for t in problem.tasks])
        self.scales = Scales(colsq, two_n, np.where(colsq > 0.0, two_n * colsq, np.inf))

        p, r = problem.p, problem.r
        self.branches = []
        for riders in groups.values():
            beta, correlations = np.zeros((p, r)), np.empty((p, r))
            factors = [LeastSquaresFactor(designs[id(t.X)][0], t.y, beta[:, j], correlations[:, j])
                       for j, t in enumerate(problem.tasks)]
            self.branches.append(_Branch(SupportState(riders[0].config, p, r), beta,
                                         correlations, factors, riders))
        self.slack = COMPARISON_TOLERANCE * self.zero_loss

    def close(self):
        """Stop and join every child still fitting this path's w's; the
        points they had yet to send can no longer be served."""
        _stop(self._children)

    def _advance(self, lead):
        """Move ``lead``'s branch on until ``lead`` stops at its next
        epsilon, and return the report it makes there.

        At each state the branch's forward candidate stops every rider
        whose gate it does not clear; unless ``lead`` has stopped, the
        riders that pick what it picks move, and each rider then removes
        while the cheapest removal costs at most nu times its most recent
        recorded reward.  ``lead`` never leaves its branch; a branch
        copied at a backward decision takes its backward passes first.
        """
        branch = next(branch for branch in self.branches if lead in branch.riders)
        problem, scales, slack, nu = self.problem, self.scales, self.slack, self.nu
        beta, correlations = branch.beta, branch.correlations
        singles, rows = branch.state.singles, branch.state.rows
        while not lead.made:
            if branch.backward:
                branch.backward = False
            else:
                riders = branch.riders
                if branch.forward_taken >= self.cap:       # every rider stops here
                    termination, picks = "max-steps", [None] * len(riders)
                else:
                    termination = "gain-below-threshold"
                    picks = _best_forward(singles, rows, branch.configs,
                                          gain_matrix(problem, correlations, scales))
                movers = []
                for rider, pick in zip(riders, picks):
                    if pick is None or pick.value <= rider.todo[0] + slack:
                        self._stop(branch, rider, pick, termination)
                    if rider.todo:
                        movers.append((rider, pick))
                if lead.made:
                    break
                if len(movers) > 1:
                    movers = self._part(branch, lead, movers, False)
                self._move(branch, "forward", movers)

            while lead.ledger and (singles or rows):
                backs = _worst_backward(problem, beta, singles, rows, branch.configs,
                                        correlations, scales)
                picks = [(rider, back if back.value <= nu * rider.ledger[-1][0] else None)
                         for rider, back in zip(branch.riders, backs)]
                if len(picks) > 1:
                    picks = self._part(branch, lead, picks, True)
                if picks[0][1] is None:
                    break
                self._move(branch, "backward", picks)
        return lead.made.pop(0)

    def _stop(self, branch, rider, pick, termination):
        """Make ``rider``'s report at each epsilon of its todo whose gate
        ``pick`` does not clear: every one when ``pick`` is None (the step
        cap, or a saturated support).  A rider whose grid is then done
        leaves the branch."""
        report = None
        while rider.todo and (pick is None or pick.value <= rider.todo[0] + self.slack):
            if report is None:
                report = FitReport(
                    coefficients=branch.beta.copy(),
                    pattern=branch.state.pattern(),
                    final_loss=sum(f.loss for f in branch.factors),
                    steps=tuple(rider.steps),
                    termination=termination,
                )
            else:
                report = replace(report, coefficients=report.coefficients.copy())
            rider.todo.pop(0)
            rider.made.append(report)
        if not rider.todo:
            branch.seat([other for other in branch.riders if other is not rider])
            if not branch.riders:
                self.branches.remove(branch)
            rider.steps.clear()                 # each report holds its own tuple
            rider.ledger.clear()

    def _part(self, branch, lead, picks, backward):
        """Keep on ``branch`` the riders that pick what ``lead`` picks and
        return their (rider, pick) pairs.  The riders of each other pick
        leave together on a copy of the branch at this state; a copy made at
        a removal goes on with its backward passes."""
        groups = {}
        for rider, pick in picks:
            key = None if pick is None else (pick.kind, pick.index)
            groups.setdefault(key, []).append((rider, pick))
            if rider is lead:
                mine = key
        stay = groups.pop(mine)
        for key, group in groups.items():
            self.branches.append(
                branch.copy([rider for rider, _ in group], backward and key is not None))
        branch.seat([rider for rider, _ in stay])
        return stay

    def _move(self, branch, kind, picks):
        """Add the picked object and push each rider's reward on its ledger
        ("forward"), or remove it and pop each rider's ledger ("backward");
        then refit once and record each rider's step."""
        cand = picks[0][1]
        promoted = None
        if kind == "forward":
            branch.forward_taken += 1
            promoted = branch.state.add(cand.kind, cand.index)
        else:
            branch.state.remove(cand.kind, cand.index)
        refit(self.problem, branch.state, branch.factors)
        loss_after = sum(f.loss for f in branch.factors)
        for rider, pick in picks:
            popped = (None, None)
            if kind == "forward":
                rider.ledger.append((pick.value, len(rider.steps)))
            else:
                popped = rider.ledger.pop()
            rider.steps.append(StepRecord(
                kind=kind, object_kind=cand.kind, index=cand.index,
                reward_or_cost=pick.value, loss_after=loss_after,
                ledger_depth=len(rider.ledger), popped_reward=popped[0],
                popped_step=popped[1], promoted_row=promoted))


def _chunks(items):
    """``items`` cut, in order, into min(``linalg._CPUS``, len(items))
    contiguous runs whose counts differ by at most one, the longer runs
    first."""
    k = min(linalg._CPUS, len(items))
    size, extra = divmod(len(items), k)
    edges = [i * size + min(i, extra) for i in range(k + 1)]
    return [items[a:b] for a, b in zip(edges, edges[1:])]


def _split(items, large):
    """The runs of ``items`` that each process takes, the caller's first:
    ``_chunks(items)`` when there are two or more items, ``large`` (the
    caller's size rule) holds and this process may fork, else one run.

    A process may fork when ``linalg._CPUS``, the CPUs ``design_product``
    may use, is at least two (BLAS is pinned); the "fork" start method
    exists; no other thread is alive (a forked child would hold copies of
    their locks); no child of its own is alive, so the processes never
    outnumber the CPUs; and it was not started by ``multiprocessing``, so a
    child never splits again.
    """
    if len(items) < 2 or not large or linalg._CPUS < 2:
        return [items]
    import multiprocessing      # here: at the top it adds 7-13 ms to importing the package

    if ("fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1 or multiprocessing.parent_process() is not None
            or multiprocessing.active_children()):
        return [items]
    return _chunks(items)


def _fork_plan(problem, ws):
    """The runs of a grid's distinct w's ``ws`` that each process fits, the
    caller's first: one run unless the path splits (see ``FitPath``)."""
    return _split(ws, sum(t.n for t in problem.tasks) * problem.p >= FORK_ELEMENTS)


class _Child:
    """A forked process that makes the ``count`` reports of ``reports``, an
    iterable the caller has not started, and sends each, in order, through
    a pipe of which it holds the only write end: once it stops, the caller
    reads the end of the stream instead of waiting.  ``left`` counts the
    reports not yet received."""

    __slots__ = ("process", "reader", "left")

    def __init__(self, reports, count):
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self.reader, writer = context.Pipe(duplex=False)
        self.process = context.Process(target=_serve, args=(reports, writer),
                                       name="mtgreedy-child", daemon=True)
        self.process.start()
        writer.close()
        self.left = count

    def receive(self):
        """The child's next report.  An exception the child sent is raised
        here, and a child that stopped first raises RuntimeError."""
        try:
            item = self.reader.recv()
        except (EOFError, OSError):
            code = self.stop()
            raise RuntimeError(f"a child process stopped (exit code {code}) "
                               f"with {self.left} reports unsent") from None
        self.left -= 1
        if isinstance(item, BaseException):
            self.stop()
            raise item
        if not self.left:
            self.stop(wait=True)
        return item

    def stop(self, wait=False):
        """Terminate the child, unless ``wait``, join it and return its exit
        code; a stopped child is left as it is."""
        if not self.reader.closed:
            if not wait:
                self.process.terminate()
            self.process.join()
            self.reader.close()
        return self.process.exitcode


def _stop(children):
    for child in children:
        child.stop()


def _grid_reports(problem, grid):
    """Each report of ``grid`` in grid order, fit on a path of its own."""
    path = FitPath(problem, grid)
    for config in grid:
        yield fit(problem, config, path)


def _serve(reports, writer):
    """A child's body: hand each report of ``reports`` to a sender thread,
    or the exception that stopped them.  A report can outgrow the pipe's
    buffer, so the child goes on while the sender waits for the caller to
    read."""
    outbox = queue.SimpleQueue()
    sender = threading.Thread(target=_send, args=(outbox, writer), name="mtgreedy-sender")
    sender.start()
    try:
        for report in reports:
            outbox.put(report)
    except Exception as exc:        # the caller's fit raises it
        outbox.put(exc)
    finally:
        outbox.put(None)
        sender.join()


def _send(outbox, writer):
    while (item := outbox.get()) is not None:
        writer.send(item)
    writer.close()


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
    gate stops.  Without a path the fit is that of the one-point grid
    ``FitPath(problem, [config])``.  Given a ``FitPath``, ``problem`` must
    be the path's own problem object and ``config`` the path's next grid
    point, or ValueError is raised; the fit then goes on at the config's w
    from where the path's previous fit at that w stopped, and the report
    equals that of a fresh fit bit for bit; a w that a split path fits in a
    child is served from that child's reports.  The report's coefficients
    are a copy, since the path goes on writing its B grid in place.
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
    if config.w in path.remote:
        return path.remote[config.w].receive()
    rider = path.riders[config.w]
    return rider.made.pop(0) if rider.made else path._advance(rider)


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


def verify_trace(problem, config, report, loss_tol=1e-10):
    """Replay a fit trace and verify the engine's state invariants.

    On top of ``check_step_records`` this re-applies every move through a
    ``SupportState``, refits it with the reference ``refit``, and checks that
    each addition adds an object the support does not hold and each removal
    one it holds, that each replayed promotion equals the recorded one, that
    recorded losses match to loss_tol times the loss at beta = 0, that the
    loss gradient vanishes on the support after every refit, and that the
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
        step_loss = loss(problem, beta)
        if not abs(step_loss - s.loss_after) <= loss_tol * zero_loss:
            raise AssertionError(
                f"step {idx}: replayed loss {step_loss} vs recorded {s.loss_after}")
        res = compute_residuals(problem, beta)
        for j, t in enumerate(problem.tasks):
            grad = -(t.X.T @ res[j]) / t.n
            for i in state.task_support(j):
                bound = GRADIENT_TOLERANCE * xnorm[j][i] * ynorm[j] / t.n
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
    if not abs(final_loss - report.final_loss) <= loss_tol * zero_loss:
        raise AssertionError(
            f"replayed final loss {final_loss} vs recorded {report.final_loss}")
