"""Synthetic experiment harness: data generation, sample-size sweeps,
transition location, cross-validation, and the per-task baseline.

Success is measured as exact sign-support recovery: every entry of the
estimate must match the true coefficient's sign, with zero matched to exact
zero.  Sweeps are driven by the rescaled sample size
theta = n / (s * log(p - (2 - kappa) * s)), which puts problems with
different overlap levels kappa on a common axis.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import FitPath, _check_points, check_step_records, fit
from .model import GreedyConfig, MultiTaskProblem, residuals
from .processes import forked


# A grid search splits its w's across processes (``cross_validate``) only on a
# problem of at least this many design elements, the sum of n_j * p over its
# tasks.  On a 2-core VM with BLAS pinned, split over serial time of the digit
# grid search (6 c x 5 w) on the training halves of digits-shaped problems,
# 48 alternating in-process pairs per size, median (quartiles): 0.86
# (0.83-1.22) at 6.5e4 elements, 0.75 (0.71-0.89) at 1.3e5, 0.65-0.72 at
# 1.9e5-5.2e5 and 0.56 (0.52-0.69) at 1.3e6.  In 2 of 11 rounds of 8 pairs,
# while the host's second core was busy, the split lost at every size up to
# 5.2e5 (round medians 1.15-1.54).  Two-task synthetic 3 c x 3 w grids at
# 3.2e3-5.1e4 elements, 3-8 ms serial, took 2.0-3.2 times as long split in
# all of 72 pairs: a fork and its join cost more than such a grid.
FORK_ELEMENTS = 2 ** 16
# A sweep splits its trials across processes (``sweep_grid``) only when its
# count of fits times p is at least this: a fit's cost follows p and theta,
# not the design's size.  On a 2-core Xeon VM with BLAS pinned, split over
# serial time of in-process joint sweeps (theta in [0.2, 2], medians of 8-12
# alternating runs): p = 128 read 1.13 at 5 trials, 0.93 at 10, 0.76-0.80
# at 15-20 and 0.82 at 50; p = 32 read 1.05 at 10 trials, 0.82-0.89 at
# 20-30 and 0.72-0.98 at 50-100; p = 64 read 1.19 at 10, 0.98 at 20 and
# 0.79 at 30; p = 256 read 0.83-0.84 at 5-8.  The noise of that shared host
# is about 0.1 in each of these.
FORK_FIT_FEATURES = 2 ** 11
# gen_synthetic draws a design this many rows at a time into its column-major
# array: the values equal one C-order draw, without holding a second copy.
_DRAW_ROWS = 64


def _round_half_up(x):
    return int(math.floor(x + 0.5))


def _default_sparsity(p):
    """The default support size for p features: p / 10, halves rounded up."""
    return _round_half_up(p / 10)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one random problem instance.

    s defaults to p / 10, halves up; kappa is the fraction of each task's
    support shared by all tasks.  Everything is determined by the seed.
    """

    p: int
    n: int
    r: int = 2
    s: int | None = None
    kappa: float = 0.0
    noise_variance: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.r < 1 or (self.s is not None and self.s < 0):
            raise ValueError(
                f"need n >= 1, r >= 1 and s >= 0, got n={self.n}, r={self.r}, s={self.s}")
        if not (0.0 <= self.kappa <= 1.0):
            raise ValueError(f"kappa must lie in [0, 1], got {self.kappa}")
        if not 0.0 <= self.noise_variance < math.inf:
            raise ValueError(
                f"noise_variance must be finite and >= 0, got {self.noise_variance}")

    @property
    def support_size(self):
        return self.s if self.s is not None else _default_sparsity(self.p)

    @property
    def shared_count(self):
        return _round_half_up(self.kappa * self.support_size)


def gen_synthetic(spec):
    """Draw one seeded instance: (problem, true coefficient matrix).

    round(kappa * s) features are active in every task; each task gets
    s - round(kappa * s) further features of its own, all disjoint, chosen
    uniformly without replacement.  Active values, design entries, and noise
    are i.i.d. Gaussian (noise scaled to the configured variance).  Each
    design is column-major and holds the values of one C-order
    ``standard_normal((n, p))`` draw of the same stream.
    """
    s = spec.support_size
    shared = spec.shared_count
    own = s - shared
    need = shared + spec.r * own
    if need > spec.p:
        raise ValueError(f"supports need {need} features but p={spec.p}")
    rng = np.random.default_rng(spec.seed)
    chosen = rng.choice(spec.p, size=need, replace=False)
    shared_feats = chosen[:shared]
    beta = np.zeros((spec.p, spec.r))
    designs, responses = [], []
    sigma = math.sqrt(spec.noise_variance)
    for j in range(spec.r):
        own_feats = chosen[shared + j * own: shared + (j + 1) * own]
        active = np.concatenate([shared_feats, own_feats]).astype(int)
        beta[active, j] = rng.standard_normal(active.size)
    for j in range(spec.r):
        X = np.empty((spec.n, spec.p), order="F")
        for i in range(0, spec.n, _DRAW_ROWS):
            X[i:i + _DRAW_ROWS] = rng.standard_normal((min(_DRAW_ROWS, spec.n - i), spec.p))
        z = sigma * rng.standard_normal(spec.n)
        designs.append(X)
        responses.append(X @ beta[:, j] + z)
    return MultiTaskProblem.from_arrays(designs, responses), beta


def _theta_log(s, p, kappa):
    """log(p - (2 - kappa) * s), the log in the rescaled sample size."""
    if s < 1:
        raise ValueError(f"need support size s >= 1, got s={s}")
    inner = p - (2.0 - kappa) * s
    if inner <= 1.0:
        raise ValueError(f"log argument {inner} must exceed 1")
    return math.log(inner)


def theta(n, s, p, kappa):
    """Rescaled sample size n / (s * log(p - (2 - kappa) * s))."""
    return n / (s * _theta_log(s, p, kappa))


def n_for_theta(theta_value, s, p, kappa):
    """Smallest integer sample size reaching the requested rescaled size."""
    return int(math.ceil(theta_value * s * _theta_log(s, p, kappa)))


def stopping_threshold(c, s, p, n):
    """The stopping threshold epsilon = c * s * log(p) / n."""
    return c * s * math.log(p) / n


def sign_support_success(beta_hat, beta_star):
    """True iff sign patterns agree entrywise, zeros matched exactly."""
    beta_hat = np.asarray(beta_hat)
    beta_star = np.asarray(beta_star)
    if beta_hat.shape != beta_star.shape:
        raise ValueError(f"shape mismatch {beta_hat.shape} vs {beta_star.shape}")
    return bool(np.array_equal(np.sign(beta_hat), np.sign(beta_star)))


def trial_seed(master_seed, kappa, theta_index, trial_index):
    """Stable per-trial seed; independent of execution order."""
    ss = np.random.SeedSequence(
        entropy=int(master_seed) & 0xFFFFFFFFFFFFFFFF,
        spawn_key=(int(round(kappa * 1_000_000)), int(theta_index), int(trial_index)),
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class SweepConfig:
    """Per-sweep fitting policy.

    epsilon_c       a sample size n fits at epsilon_c * s * log(p) / n; finite, >= 0
    w               sharing weight of the joint fit; the baseline ignores it
    nu              backward factor in (0, 1)
    noise_variance  variance of the Gaussian noise in each drawn response
    single_task     fit the per-task baseline: each task alone, rows off
    check_traces    run ``check_step_records`` once on every fit's trace
    """

    epsilon_c: float
    w: float = 1.5
    nu: float = 0.5
    noise_variance: float = 0.1
    single_task: bool = False
    check_traces: bool = True

    def __post_init__(self):
        if not 0.0 <= self.epsilon_c < math.inf:
            raise ValueError(f"epsilon_c must be finite and >= 0, got {self.epsilon_c}")

    def greedy_config(self, s, p, n):
        eps = stopping_threshold(self.epsilon_c, s, p, n)
        return GreedyConfig(epsilon=eps, w=self.w, nu=self.nu)


@dataclass(frozen=True)
class SweepRow:
    kappa: float
    theta: float
    n: int
    trials: int
    successes: int
    success_rate: float
    mean_frob_error: float


def sweep_grid(kappa, p, theta_grid, trials, c_grid, w_grid, config, master_seed):
    """``run_sweep`` at each (c, w) of a grid, the rest of ``config`` kept:
    {(c, w): [SweepRow, ...]}, c-major.  Each theta's grid is built once by
    ``_path_grid``, and each trial's problem is drawn once and fit by
    ``_path_fits``, one path per w.  Only here is the per-task baseline
    known: its grid holds the first w only, rows off, and each task is fit
    alone, the tasks' paths zipped, each point standing for every w.  An
    empty theta, c or w grid, a w, nu or c that the fits refuse, and a
    kappa or noise variance that ``SynthSpec`` refuses, are refused before
    any problem is drawn or child forked.

    A large sweep shares its trials out over the process's CPUs: when its
    count of fits times p reaches FORK_FIT_FEATURES, ``processes.forked``
    cuts its (theta, trial) list, in order, into runs, under the guards it
    keeps for ``cross_validate``'s split of w's too.  The caller draws and fits
    the first run.  Each later run goes to a forked child, which draws its
    trials from their own ``trial_seed``s, fits its whole run along the
    same paths and then sends the reports.  The caller draws each remote
    trial again, for its true coefficients and its problem object, and
    serves every point of it from the child's stream, one ``fit`` per point
    in the same order, each report checked as a fresh one is; the first
    served ``fit`` of a child's run waits for that child to finish.  Each
    report equals the serial sweep's bit for bit, so the rows do too.
    ``forked`` stops every child when the sweep ends, however it ends.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    if not theta_grid:
        raise ValueError("the theta grid is empty")
    _check_c(c_grid)
    r = 2
    s = _default_sparsity(p)
    ns = [n_for_theta(theta_value, s, p, kappa) for theta_value in theta_grid]
    every_w = tuple(dict.fromkeys(w_grid))
    grids = [_path_grid({c: stopping_threshold(c, s, p, n) for c in c_grid},
                        every_w[:1] if config.single_task else every_w, config.nu, r,
                        rows_enabled=not config.single_task) for n in ns]
    specs = [SynthSpec(p=p, n=n, r=r, s=s, kappa=kappa, noise_variance=config.noise_variance)
             for n in ns]

    def draw(t_idx, trial):
        return gen_synthetic(replace(specs[t_idx],
                                     seed=trial_seed(master_seed, kappa, t_idx, trial)))

    def paths(problem, grid, check=False, remote=None):
        """Each point's (c, w, report)s: the joint fit's, or each task's alone."""
        tasks = [problem.single_task(j) for j in range(r)] if config.single_task else [problem]
        return zip(*(_path_fits(task, grid, check, remote) for task in tasks))

    fits = sum(map(len, grids[0].values())) * (r if config.single_task else 1)
    items = [(t_idx, trial) for t_idx in range(len(theta_grid)) for trial in range(trials)]
    out = {(c, w): [] for c in c_grid for w in w_grid}
    # the later runs go to children first, so they start at once
    with forked(items, len(items) * fits * p >= FORK_FIT_FEATURES,
                lambda run: (report for t_idx, trial in run
                             for point in paths(draw(t_idx, trial)[0], grids[t_idx])
                             for _, _, report in point)) as remote:
        for t_idx, theta_value in enumerate(theta_grid):
            hits, frob = dict.fromkeys(out, 0), dict.fromkeys(out, 0.0)
            for trial in range(trials):
                problem, beta_star = draw(t_idx, trial)
                for point in paths(problem, grids[t_idx], config.check_traces,
                                   remote.get((t_idx, trial))):
                    c, w, _ = point[0]
                    beta = np.hstack([report.coefficients for _, _, report in point])
                    hit = sign_support_success(beta, beta_star)
                    error = float(np.linalg.norm(beta - beta_star))
                    for w in every_w if config.single_task else (w,):
                        hits[c, w] += hit
                        frob[c, w] += error
            for point, rows in out.items():
                rows.append(SweepRow(kappa, theta_value, ns[t_idx], trials, hits[point],
                                     hits[point] / trials, frob[point] / trials))
    return out


def run_sweep(kappa, p, theta_grid, trials, config, master_seed):
    """Success statistics along a theta grid, one seeded batch per point: the
    one-point ``sweep_grid``, whose every path is one fit."""
    return sweep_grid(kappa, p, theta_grid, trials, (config.epsilon_c,), (config.w,),
                      config, master_seed)[config.epsilon_c, config.w]


def _bracket(rows):
    """The first adjacent rows, by theta, whose success rates meet 1/2; else None."""
    pts = sorted(rows, key=lambda row: row.theta)
    for a, b in zip(pts, pts[1:]):
        lo, hi = a.success_rate - 0.5, b.success_rate - 0.5
        if lo == 0.0 or lo * hi < 0.0 or hi == 0.0:
            return a, b
    return None


def transition_threshold(rows):
    """Linear interpolation of the 50% success crossing; None when absent."""
    if (pair := _bracket(rows)) is None:
        return None
    a, b = pair
    if a.success_rate == 0.5:
        return a.theta
    return a.theta + (0.5 - a.success_rate) * (b.theta - a.theta) / (
        b.success_rate - a.success_rate)


def crossing_se(rows):
    """Delta-method standard error of the crossing ``transition_threshold``
    reports: the binomial variance of the bracketing success rates p_a, p_b
    through theta_a + (1/2 - p_a) * (theta_b - theta_a) / (p_b - p_a), each
    variance taken at the Jeffreys-type rate (k + 1/2) / (n + 1) of k
    successes in n trials, so rates 0 and 1 keep a variance.  None without a
    crossing; inf when both rates are 1/2, which locate nothing.
    """
    if (pair := _bracket(rows)) is None:
        return None
    a, b = pair
    pa, pb = a.success_rate, b.success_rate
    if pa == pb:
        return math.inf
    scale = (b.theta - a.theta) / (pb - pa) ** 2
    var = 0.0
    for row, weight in ((a, pb - 0.5), (b, 0.5 - pa)):
        rate = (row.successes + 0.5) / (row.trials + 1)
        var += weight ** 2 * rate * (1.0 - rate) / row.trials
    return scale * math.sqrt(var)


def _path_grid(eps, w_grid, nu, r, *, rows_enabled=True):
    """The one place a grid is built and refused: {w: [(c, config), ...]}
    of the points ``_path_fits`` fits on a problem of ``r`` tasks, with
    ``eps`` mapping c to epsilon, w's in grid order and each w's points from
    the largest c down.  An empty grid is refused, and each w's points by
    ``engine._check_points``."""
    configs = [GreedyConfig(epsilon=0.0, w=w, nu=nu, rows_enabled=rows_enabled)
               for w in dict.fromkeys(w_grid)]
    if not configs:
        raise ValueError("the grid is empty")
    grid = {config.w: [(c, replace(config, epsilon=eps[c])) for c in sorted(eps, reverse=True)]
            for config in configs}
    for points in grid.values():
        _check_points([config for _, config in points], r)
    return grid


def _path_fits(problem, grid, check=False, remote=None):
    """Yield (c, w, report) once per point of ``grid``, a ``_path_grid``
    of ``problem``: the report of a fresh fit, checked once if ``check``.
    The one place a grid of more than one point is fit.  Each w's fit is
    one ``FitPath`` on ``problem``, made at the w's first point and dropped
    after its last, so at most one w's path is alive (the ``engine``
    docstring gives what fitting each w apart costs); ``fit`` is called
    once per point in grid order.  It never forks: given ``remote``, a
    child's stream that holds this call's reports next, every point is
    served from it."""
    for w, points in grid.items():
        path = FitPath(problem, [config for _, config in points], remote)
        for c, config in points:
            report = fit(problem, config, path)
            if check:
                check_step_records(report, config, path.zero_loss)
            yield c, w, report
        del path        # freed before the next w's path is made


def _check_c(c_grid):
    """Refuse a c of the stopping threshold's grid that is not finite and >= 0."""
    for c in c_grid:
        if not 0.0 <= c < math.inf:
            raise ValueError(f"c must be finite and >= 0, got {c}")


def cross_validate(train_problem, holdout_problem, c_grid, w_grid, nu, s_hint):
    """Grid search over (c, w) pairs scored by holdout squared error.

    The stopping threshold is c * s_hint * log(p) / n, each c finite and
    >= 0, with n the average training sample count.  ``_path_grid`` builds
    and refuses the grid, an empty one included, and one ``_path_fits`` per
    w fits and checks that w's points, an epsilon-continued fit from the
    largest c down.  On a training problem of at least FORK_ELEMENTS design
    elements ``processes.forked`` splits the w's, in grid order, as
    ``sweep_grid`` splits its trials: a child fits each w of its run by its
    own ``_path_fits``, and the caller's path of that w serves its reports,
    one checked ``fit`` per point.  The rows list the grid in the caller's
    (c, w) order, and ties keep the first point in that order: the smallest
    c, then the smallest w, on ascending grids.  Returns (epsilon, w,
    report): the winner's epsilon at the training problem's mean n
    (``digits.run_trial`` derives the final fit's again on the full problem)
    and a report naming the winning c "best_c" and listing every grid point.
    A holdout problem whose p or r differs from the training problem's is
    refused before any fit.
    """
    if s_hint < 1:
        raise ValueError("s_hint must be >= 1")
    train_shape = (train_problem.p, train_problem.r)
    holdout_shape = (holdout_problem.p, holdout_problem.r)
    if holdout_shape != train_shape:
        raise ValueError(f"the holdout problem's (p, r) = {holdout_shape} differs from "
                         f"the training problem's {train_shape}")
    _check_c(c_grid)
    n_avg = sum(t.n for t in train_problem.tasks) / train_problem.r
    eps = {c: stopping_threshold(c, s_hint, train_problem.p, n_avg) for c in c_grid}
    scores = {}
    grid = _path_grid(eps, w_grid, nu, train_problem.r)
    large = sum(t.n for t in train_problem.tasks) * train_problem.p >= FORK_ELEMENTS
    # the later runs go to children first, so they start at once
    with forked(list(grid), large,
                lambda run: (report for w in run for _, _, report
                             in _path_fits(train_problem, {w: grid[w]}))) as remote:
        for w, points in grid.items():
            for c, _, report in _path_fits(train_problem, {w: points}, check=True,
                                           remote=remote.get(w)):
                scores[c, w] = sum(float(res @ res)
                                   for res in residuals(holdout_problem, report.coefficients))
    rows = [{"c": c, "w": w, "epsilon": eps[c], "holdout_score": scores[c, w]}
            for c in c_grid for w in w_grid]
    best = min(rows, key=lambda row: row["holdout_score"])      # the first of equals
    return best["epsilon"], best["w"], {"best_c": best["c"], "rows": rows}

