"""Brute-force reference computations for validating the greedy engine.

These deliberately avoid the engine's closed forms: gains are measured by
re-evaluating the full loss around candidate updates, removal costs by
re-evaluating it with the object zeroed, and best-fit supports are found by
exhaustive enumeration on desk-size instances.
"""

from itertools import combinations
from math import comb

import numpy as np

from .engine import refit
from .linalg import solve_least_squares
from .model import SupportPattern, loss

ENUMERATION_LIMIT = 1_000_000
GOLDEN_SECTION_STEPS = 120      # each shrinks the bracket by a factor 0.618


def _golden_section(f, lo, hi):
    """Minimize a unimodal scalar function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_SECTION_STEPS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def gain_oracle(problem, beta, obj, w=1.0):
    """Loss decrease of the best single-object update, measured from scratch.

    obj is ("singleton", i, j) or ("row", m).  Row gains are divided by w, so
    calling with the engine's w makes the value directly comparable to the
    engine's weighted reward, and w=1 gives the raw decrease.  Singleton
    results are cross-checked against a golden-section search on the update
    coefficient.
    """
    beta = np.asarray(beta, dtype=float)
    base = loss(problem, beta)
    if obj[0] == "singleton":
        _, i, j = obj
        t = problem.tasks[j]
        r = t.y - t.X @ beta[:, j]
        x = t.X[:, i]
        gamma = float(solve_least_squares(x.reshape(-1, 1), r)[0])

        def around(g):
            cand = beta.copy()
            cand[i, j] += g
            return loss(problem, cand)

        cand = beta.copy()
        cand[i, j] += gamma
        gain = base - loss(problem, cand)
        span = 1e10 * (1.0 + abs(gamma))
        g_star = _golden_section(around, -span, span)
        gain_gs = base - around(g_star)
        if abs(gain_gs - gain) > 1e-9 * (1.0 + abs(gain)):
            raise AssertionError(
                f"golden-section gain {gain_gs} disagrees with least-squares gain {gain}")
        return gain
    if obj[0] == "row":
        _, m = obj
        cand = beta.copy()
        for j, t in enumerate(problem.tasks):
            r = t.y - t.X @ beta[:, j]
            x = t.X[:, m]
            cand[m, j] += float(solve_least_squares(x.reshape(-1, 1), r)[0])
        return (base - loss(problem, cand)) / w
    raise ValueError(f"unknown object {obj!r}")


def cost_oracle(problem, beta, obj, w=1.0):
    """Loss increase from zeroing one object of beta, measured from scratch.

    obj is ("singleton", i, j) or ("row", m).  Row costs are divided by w, so
    calling with the engine's w makes the value directly comparable to the
    engine's weighted removal cost, and w=1 gives the raw increase.
    """
    beta = np.asarray(beta, dtype=float)
    zeroed = beta.copy()
    if obj[0] == "singleton":
        _, i, j = obj
        zeroed[i, j] = 0.0
        return loss(problem, zeroed) - loss(problem, beta)
    if obj[0] == "row":
        _, m = obj
        zeroed[m, :] = 0.0
        return (loss(problem, zeroed) - loss(problem, beta)) / w
    raise ValueError(f"unknown object {obj!r}")


def _enumeration_size(p, r, max_singletons, max_rows):
    total = 0
    for b in range(min(max_rows, p) + 1):
        cells = (p - b) * r
        per = sum(comb(cells, k) for k in range(min(max_singletons, cells) + 1))
        total += comb(p, b) * per
    return total


def exhaustive_best_fit(problem, max_singletons, max_rows):
    """Global loss minimizer over all patterns within the given budgets.

    Enumerates row sets first (sizes ascending, features in order), then
    singleton sets over the remaining cells; ties keep the earliest pattern,
    so the empty pattern wins when everything fits equally well.  Refuses
    when the pattern count exceeds ENUMERATION_LIMIT.
    """
    p, r = problem.p, problem.r
    size = _enumeration_size(p, r, max_singletons, max_rows)
    if size > ENUMERATION_LIMIT:
        raise ValueError(
            f"{size} patterns exceed the enumeration limit {ENUMERATION_LIMIT}")
    best = None
    for b in range(min(max_rows, p) + 1):
        for row_tuple in combinations(range(p), b):
            rowset = frozenset(row_tuple)
            free = [(i, j) for i in range(p) if i not in rowset for j in range(r)]
            for k in range(min(max_singletons, len(free)) + 1):
                for cells in combinations(free, k):
                    pattern = SupportPattern(frozenset(cells), rowset)
                    beta = refit(problem, pattern)
                    val = loss(problem, beta)
                    if best is None or val < best[2]:
                        best = (pattern, beta, val)
    return best
