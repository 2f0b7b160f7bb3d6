"""Recovery-condition diagnostics for a known true coefficient matrix.

Quantities: the shared/non-shared support partition at a row-count threshold
d, the weakest signal magnitude the guarantees depend on, the gradient bound
at the truth, two-sided restricted eigenvalue constants of a design, and the
closed-form lower bounds and error bound that tie them together.
"""

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .model import SupportPattern

REP_ENUMERATION_LIMIT = 100_000


@dataclass(frozen=True)
class TruthPartition:
    """Split of a true support into shared rows and per-task singletons.

    A feature row with at least d nonzero entries counts as shared; every
    other nonzero cell is a singleton.  s_star[j] is the shared-row count
    plus task j's singleton count.
    """

    d: int
    shared_rows: frozenset
    nonshared: frozenset
    s_star: tuple
    s_star_max: int


@dataclass(frozen=True)
class TheoremInputs:
    """Everything the closed-form recovery bounds consume.

    lam is the gradient bound at the truth (zero in the noiseless case);
    s_star should be the largest per-task support size.
    """

    C_min: float
    rho: float
    lam: float
    eta: float
    w: float
    nu: float
    r: int
    s_star: int
    epsilon: float

    def __post_init__(self):
        if self.rho < 1:
            raise ValueError(f"rho must be >= 1, got {self.rho}")
        for name in ("C_min", "lam", "eta", "w", "nu", "epsilon"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def partition_supports(beta_star, d):
    """Partition the nonzeros of beta_star at row-count threshold d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    beta_star = np.asarray(beta_star, dtype=float)
    p, r = beta_star.shape
    nonzero = beta_star != 0.0
    is_shared = nonzero.sum(axis=1) >= d
    own = nonzero & ~is_shared[:, None]
    shared = frozenset(int(i) for i in np.flatnonzero(is_shared))
    nonshared = frozenset((int(i), int(j)) for i, j in np.argwhere(own))
    s_star = tuple(len(shared) + int(k) for k in own.sum(axis=0))
    return TruthPartition(
        d=d, shared_rows=shared, nonshared=nonshared,
        s_star=s_star, s_star_max=max(s_star) if s_star else 0)


def beta_min(beta_star, d):
    """Weakest magnitude the guarantees see: the smallest singleton entry or,
    per shared row, its d-th largest entry.  +inf when the support is empty."""
    beta_star = np.asarray(beta_star, dtype=float)
    part = partition_supports(beta_star, d)
    candidates = [abs(beta_star[i, j]) for (i, j) in part.nonshared]
    for m in part.shared_rows:
        mags = np.sort(np.abs(beta_star[m, :]))[::-1]
        candidates.append(float(mags[d - 1]))
    return min(candidates) if candidates else math.inf


def gradient_bound_lambda(problem, beta_star):
    """Largest per-task infinity norm of the loss gradient at the truth."""
    beta_star = np.asarray(beta_star, dtype=float)
    if beta_star.shape != (problem.p, problem.r):
        raise ValueError(f"beta shape {beta_star.shape} vs ({problem.p}, {problem.r})")
    worst = 0.0
    for j, t in enumerate(problem.tasks):
        grad = t.X.T @ (t.y - t.X @ beta_star[:, j]) / t.n
        worst = max(worst, float(np.max(np.abs(grad))) if grad.size else 0.0)
    return worst


def rep_constants(X, s):
    """Two-sided restricted eigenvalue constants of X over all size-s column
    subsets: (C_min, rho) with C_min the smallest restricted singular value of
    X/sqrt(n) and rho the largest-to-smallest ratio.

    Brute force; refuses when C(p, s) exceeds REP_ENUMERATION_LIMIT.
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if not (1 <= s <= min(n, p)):
        raise ValueError(f"need 1 <= s <= min(n, p), got s={s} for shape {X.shape}")
    if math.comb(p, s) > REP_ENUMERATION_LIMIT:
        raise ValueError(
            f"C({p},{s}) = {math.comb(p, s)} subsets exceed the "
            f"enumeration limit {REP_ENUMERATION_LIMIT}")
    scaled = X / math.sqrt(n)
    c_min = math.inf
    sig_max = 0.0
    for cols in combinations(range(p), s):
        sv = np.linalg.svd(scaled[:, cols], compute_uv=False)
        c_min = min(c_min, float(sv[-1]))
        sig_max = max(sig_max, float(sv[0]))
    if c_min <= 0.0:
        raise ValueError("restricted design is singular; constants undefined")
    return c_min, sig_max / c_min


def eta_lower_bound(r, rho, w, nu):
    """Smallest support-inflation factor the guarantees tolerate."""
    return 2.0 + 4.0 * r * rho**4 * (rho**4 - rho**2 + 2.0) / (w * nu)


def epsilon_lower_bound(inputs):
    """Smallest admissible stopping threshold for the given conditions."""
    return (4.0 * inputs.rho**2 * inputs.eta * inputs.r**2 * inputs.s_star
            * inputs.lam**2) / (inputs.w * inputs.nu * inputs.C_min**2)


def theorem_inputs(problem, sparsity, lam, s_star, w, nu):
    """Assemble the bound inputs for a problem at its smallest admissible epsilon.

    C_min is the smallest per-task restricted constant at the given sparsity
    and rho the largest restricted singular value over C_min; eta is its
    lower bound, and epsilon is set to the epsilon lower bound these imply.
    Raises like ``rep_constants`` when the enumeration is too large.
    """
    c_min = math.inf
    sig_max = 0.0
    for t in problem.tasks:
        c, rho = rep_constants(t.X, sparsity)
        c_min = min(c_min, c)
        sig_max = max(sig_max, rho * c)
    rho = sig_max / c_min
    inputs = TheoremInputs(
        C_min=c_min, rho=rho, lam=lam, eta=eta_lower_bound(problem.r, rho, w, nu),
        w=w, nu=nu, r=problem.r, s_star=s_star, epsilon=0.0)
    return replace(inputs, epsilon=epsilon_lower_bound(inputs))


def error_bound(inputs):
    """Frobenius error guarantee at the given conditions."""
    root = math.sqrt(inputs.r * inputs.s_star)
    return (root / inputs.C_min) * (
        inputs.lam * math.sqrt(inputs.eta) / inputs.C_min
        + 2.0 * inputs.rho * math.sqrt(inputs.epsilon))


def union_support_size(pattern, truth, j):
    """Size of task j's estimated-union-true feature support."""
    if not (0 <= j < len(truth.s_star)):
        raise ValueError(f"task index {j} out of range")
    true = SupportPattern(singletons=truth.nonshared, rows=truth.shared_rows)
    return len(pattern.task_support(j) | true.task_support(j))
