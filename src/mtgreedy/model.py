"""Core domain types for the multi-task sparse regression problem.

A problem bundles r regression tasks (X_j, y_j) over a common feature set of
size p.  Estimates are dense p-by-r coefficient matrices whose support is
described by a pattern of singleton entries plus whole shared rows.
"""

import math
from dataclasses import dataclass

import numpy as np


def design_array(X):
    """X as a float design in column-major (Fortran) order.

    Every design the package builds goes through here once, or is gathered
    straight into this layout (``digits.design_rows``), so a basis step
    reads each held column as contiguous memory.  An array already in that
    order is returned as it is.
    """
    return np.asfortranarray(X, dtype=float)


@dataclass(frozen=True)
class Task:
    """One regression task: design X of shape (n, p) and response y of length n.

    X is used as given.  The package's constructors hand it a column-major
    array (``design_array``); any other layout fits the same but runs slower,
    since each basis step then gathers strided columns.  Tasks on one design
    should hold the same array object, so that a fit shares their steps.
    """

    X: np.ndarray
    y: np.ndarray

    @property
    def n(self):
        return self.X.shape[0]


@dataclass(frozen=True)
class MultiTaskProblem:
    """r tasks over a shared feature index set of size p.

    Each task may have its own sample count; every design has exactly p
    columns.  Instances are treated as immutable once constructed.
    """

    p: int
    r: int
    tasks: tuple

    def __post_init__(self):
        if self.r < 1 or self.p < 1:
            raise ValueError(f"need p >= 1 and r >= 1, got p={self.p}, r={self.r}")
        if len(self.tasks) != self.r:
            raise ValueError(f"r={self.r} but {len(self.tasks)} tasks supplied")
        for j, t in enumerate(self.tasks):
            if t.X.ndim != 2 or t.X.shape[1] != self.p:
                raise ValueError(f"task {j}: design shape {t.X.shape} incompatible with p={self.p}")
            if t.X.shape[0] < 1:
                raise ValueError(f"task {j}: needs at least one sample")
            if t.y.ndim != 1 or t.y.shape[0] != t.X.shape[0]:
                raise ValueError(f"task {j}: response length {t.y.shape} vs {t.X.shape[0]} rows")
            if not (np.all(np.isfinite(t.X)) and np.all(np.isfinite(t.y))):
                raise ValueError(f"task {j}: non-finite data")

    @classmethod
    def from_arrays(cls, designs, responses):
        """A problem with task j on (designs[j], responses[j]).

        Each distinct design object is made column-major (``design_array``)
        once, so tasks passed the same array still hold one array.  No
        designs, a response count other than the design count, or a first
        design that is not 2-d, and so has no p, is refused.
        """
        designs, responses = list(designs), list(responses)   # alive, so no id is reused
        if not designs or len(responses) != len(designs):
            raise ValueError(f"need one response per design and at least one task, got "
                             f"{len(designs)} designs and {len(responses)} responses")
        made = {}
        for X in designs:
            if id(X) not in made:
                made[id(X)] = design_array(X)
        tasks = tuple(
            Task(made[id(X)], np.asarray(y, dtype=float))
            for X, y in zip(designs, responses)
        )
        if tasks[0].X.ndim != 2:
            raise ValueError(f"task 0: design shape {tasks[0].X.shape} is not 2-d")
        return cls(p=tasks[0].X.shape[1], r=len(tasks), tasks=tasks)

    def single_task(self, j):
        """View task j, for j in [0, r), as a standalone one-task problem."""
        if not 0 <= j < self.r:
            raise ValueError(f"task index j={j} is outside [0, r) for r={self.r}")
        return MultiTaskProblem(p=self.p, r=1, tasks=(self.tasks[j],))


@dataclass(frozen=True)
class SupportPattern:
    """Estimated support: singleton cells (feature, task) plus shared feature rows.

    A feature never appears both as a row and inside a singleton cell; the
    engine maintains that exclusion when it builds patterns.
    """

    singletons: frozenset = frozenset()
    rows: frozenset = frozenset()

    def __post_init__(self):
        overlap = {i for (i, _) in self.singletons} & set(self.rows)
        if overlap:
            raise ValueError(f"features {sorted(overlap)} appear both as rows and singletons")

    def task_support(self, j):
        """Feature indices active for task j: shared rows plus task-j singletons."""
        if j < 0:
            raise ValueError(f"task index {j} out of range")
        return set(self.rows) | {i for (i, jj) in self.singletons if jj == j}


@dataclass(frozen=True)
class GreedyConfig:
    """Tuning knobs for the greedy fit.

    epsilon           stopping threshold on the weighted forward gain, finite and >= 0;
                      the fit adds a slack relative to the loss at beta = 0
                      (engine.COMPARISON_TOLERANCE), so it is scale-free
    w                 sharing weight dividing row gains/costs, finite and in [1, r];
                      at w = 1 every forward step takes a whole row
    nu                backward factor in (0, 1): a removal must cost at most
                      nu times the recorded reward it is matched against
    rows_enabled      when False the row object class is never considered; when
                      True a feature holding floor(w) + 1 singletons is also
                      reclassified as a shared row
    max_forward_steps cap guarding pathological configurations (None: 16 + 4*p*r)
    """

    epsilon: float
    w: float = 1.5
    nu: float = 0.5
    rows_enabled: bool = True
    max_forward_steps: int | None = None

    def __post_init__(self):
        if not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not (0 < self.nu < 1):
            raise ValueError(f"nu must lie in (0, 1), got {self.nu}")
        if self.rows_enabled and not 1 <= self.w < math.inf:
            raise ValueError(f"w must be finite and >= 1 when rows are enabled, got {self.w}")
        if self.max_forward_steps is not None and self.max_forward_steps < 0:
            raise ValueError("max_forward_steps must be >= 0")

    def step_cap(self, p, r):
        if self.max_forward_steps is not None:
            return self.max_forward_steps
        return 16 + 4 * p * r


@dataclass(frozen=True)
class StepRecord:
    """One engine move: which object was added or removed and at what price.

    reward_or_cost is in weighted units (row values divided by w).  Backward
    records carry the reward they were matched against; forward records that
    trigger row coalescing name the promoted feature.
    """

    kind: str                      # "forward" | "backward"
    object_kind: str               # "singleton" | "row"
    index: tuple                   # (i, j) for singletons, (m,) for rows
    reward_or_cost: float
    loss_after: float
    ledger_depth: int              # depth after this step
    popped_reward: float | None = None
    popped_step: int | None = None
    promoted_row: int | None = None


@dataclass(frozen=True)
class FitReport:
    """Outcome of a greedy fit: estimate, pattern, trace, and stop reason."""

    coefficients: np.ndarray
    pattern: SupportPattern
    final_loss: float
    steps: tuple
    termination: str               # "gain-below-threshold" | "max-steps"


def loss(problem, beta):
    """Average squared-error loss: sum over tasks of ||y - X b||^2 / (2 n)."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (problem.p, problem.r):
        raise ValueError(f"beta shape {beta.shape} does not match ({problem.p}, {problem.r})")
    total = 0.0       # a plain loop: from Python 3.12 on, sum() compensates its additions
    for t, res in zip(problem.tasks, residuals(problem, beta)):
        total += float(res @ res) / (2.0 * t.n)
    return total


def residuals(problem, beta):
    """Per-task residual vectors y_j - X_j beta_j."""
    return [t.y - t.X @ beta[:, j] for j, t in enumerate(problem.tasks)]
