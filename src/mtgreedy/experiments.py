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

from .engine import FitPath, _check_weight, check_step_records, fit, grid_by_w
from .model import GreedyConfig, MultiTaskProblem, residuals
from .processes import fork_runs, stop


# A grid search splits its w's across processes (``_path_fits``) only on a
# problem of at least this many design elements, the sum of n_j * p over its
# tasks.  A fork, its report transfers and the join took 6-15 ms in a process
# of 100-140 MB.  On a 2-core Xeon VM with BLAS pinned, the split took
# 0.71-0.72 of the serial time of the digit grid search (6 c x 5 w, medians
# of 7) at 10 x 200 x 649 elements (1.3e6), 0.75-0.83 at 6.5e5 but 1.20 in
# one run of 7, 0.94-1.08 at 3.2e5, and 1.12-1.19 on a sweep-sized 2 x 100 x
# 128 problem (3 w's).
FORK_ELEMENTS = 2 ** 20
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
    {(c, w): [SweepRow, ...]}, c-major.  Each trial's problem is drawn once
    and fit along ``_path_fits``'s paths.  A w or nu that the fits of the
    two tasks refuse, and a kappa or noise variance that ``SynthSpec``
    refuses, are refused before any problem is drawn or child forked.

    A large sweep shares its trials out over the process's CPUs: when its
    count of fits times p reaches FORK_FIT_FEATURES, ``processes.fork_runs``
    cuts its (theta, trial) list, in order, into runs, under the guards it
    keeps for ``_path_fits``' split of w's too.  The caller draws and fits
    the first run.  Each later run goes to a forked child, which draws its
    trials from their own ``trial_seed``s, fits them along the same paths
    and sends each report back as soon as it is made.  The caller draws each
    remote trial again, for its true coefficients and its problem object,
    and serves every point of it from the child's stream, one ``fit`` per
    point in the same order, each report checked as a fresh one is.  Each
    report equals the serial sweep's bit for bit, so the rows do too.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    r = 2
    for w in w_grid:
        _check_weight(GreedyConfig(epsilon=0.0, w=w, nu=config.nu,
                                   rows_enabled=not config.single_task), r)
    s = _default_sparsity(p)
    ns = [n_for_theta(theta_value, s, p, kappa) for theta_value in theta_grid]
    eps = [{c: stopping_threshold(c, s, p, n) for c in c_grid} for n in ns]
    specs = [SynthSpec(p=p, n=n, r=r, s=s, kappa=kappa, noise_variance=config.noise_variance)
             for n in ns]

    def draw(t_idx, trial):
        return gen_synthetic(replace(specs[t_idx],
                                     seed=trial_seed(master_seed, kappa, t_idx, trial)))

    # the reports of one trial: a point of ``_path_grid`` on each of its paths
    grid = _path_grid(dict.fromkeys(c_grid, 0.0), w_grid, config.nu, config.single_task)
    fits = len(grid) * (r if config.single_task else 1)
    items = [(t_idx, trial) for t_idx in range(len(theta_grid)) for trial in range(trials)]
    out = {(c, w): [] for c in c_grid for w in w_grid}
    # the later runs go to children first, so they start at once
    remote, children = fork_runs(
        items, len(items) * fits * p >= FORK_FIT_FEATURES,
        lambda run: _child_reports(
            _path_fits(draw(t_idx, trial)[0], eps[t_idx], w_grid, config.nu,
                       config.single_task) for t_idx, trial in run))
    try:
        for t_idx, theta_value in enumerate(theta_grid):
            hits, frob = dict.fromkeys(out, 0), dict.fromkeys(out, 0.0)
            for trial in range(trials):
                problem, beta_star = draw(t_idx, trial)
                for c, ws, reports in _path_fits(problem, eps[t_idx], w_grid, config.nu,
                                                 config.single_task, config.check_traces,
                                                 remote.get((t_idx, trial))):
                    beta = np.hstack([report.coefficients for report in reports])
                    hit = sign_support_success(beta, beta_star)
                    error = float(np.linalg.norm(beta - beta_star))
                    for w in ws:
                        hits[c, w] += hit
                        frob[c, w] += error
            for point, rows in out.items():
                rows.append(SweepRow(kappa, theta_value, ns[t_idx], trials, hits[point],
                                     hits[point] / trials, frob[point] / trials))
    finally:
        stop(children)
    return out


def run_sweep(kappa, p, theta_grid, trials, config, master_seed):
    """Success statistics along a theta grid, one seeded batch per point: the
    one-point ``sweep_grid``, where each of ``_path_fits``'s paths is one fit."""
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


def _path_grid(eps, w_grid, nu, single_task):
    """(c, config) at each point ``_path_fits`` fits, with ``eps`` mapping c
    to epsilon: w by w, each w from the largest c down; the per-task
    baseline fits its first w only, since a rows-off fit never reads w."""
    ws = list(dict.fromkeys(w_grid))
    return [(c, GreedyConfig(epsilon=eps[c], w=w, nu=nu, rows_enabled=not single_task))
            for w in (ws[:1] if single_task else ws) for c in sorted(eps, reverse=True)]


def _path_fits(problem, eps, w_grid, nu, single_task=False, check=False, child=None):
    """Yield (c, ws, reports) once per fitted point, with ``eps`` mapping c
    to epsilon and ``ws`` the distinct w's the point stands for: the
    reports of fresh fits, each checked once if ``check``.  The one place a
    grid of more than one point is fit.  The joint fit is one ``FitPath``
    on ``problem`` over ``_path_grid``, one epsilon-continued fit per w (the
    ``engine`` docstring gives what that costs); ``fit`` is called once per
    point in that order, and each point stands for its own w.  The per-task
    baseline is one rows-off path per task alone, made once for every w:
    each of its points stands for every w.  A grid the paths refuse is
    refused before any fork.  On a problem of at least FORK_ELEMENTS design
    elements ``processes.fork_runs`` may then fit later runs of the w's in
    children, stopped when the generator ends or is closed or dropped; the
    caller's paths, made after the fork, serve those w's from the
    children's streams.  Given ``child``, a sweep's child whose stream
    holds this problem's reports next, every point is served from it."""
    points = _path_grid(eps, w_grid, nu, single_task)
    if not points:
        return
    grid = [config for _, config in points]
    ws = list(grid_by_w(grid, problem.r))
    tasks = [problem.single_task(j) for j in range(problem.r)] if single_task else [problem]
    if child is not None:
        remote, children = dict.fromkeys(ws, child), []
    else:
        remote, children = fork_runs(
            ws, sum(t.n for t in problem.tasks) * problem.p >= FORK_ELEMENTS,
            lambda run: _child_reports([_path_fits(problem, eps, run, nu, single_task)]))
    every_w = tuple(dict.fromkeys(w_grid))
    try:
        paths = [FitPath(task, grid, remote) for task in tasks]
        for c, config in points:
            reports = [fit(path.problem, config, path) for path in paths]
            if check:
                for report, path in zip(reports, paths):
                    check_step_records(report, config, path.zero_loss)
            yield c, every_w if single_task else (config.w,), reports
    finally:
        stop(children)


def _child_reports(path_fits):
    """A child's body: the reports of the ``_path_fits`` generators
    ``path_fits`` in the order the caller serves them."""
    for points in path_fits:
        for _, _, reports in points:
            yield from reports


def cross_validate(train_problem, holdout_problem, c_grid, w_grid, nu, s_hint):
    """Grid search over (c, w) pairs scored by holdout squared error.

    The stopping threshold is c * s_hint * log(p) / n, each c finite and
    >= 0, with n the average training sample count.  ``_path_fits`` fits
    and checks the grid on one ``FitPath``, one epsilon-continued fit per w,
    w by w from the largest c down; a move that several w make alike is
    refit once per w (the ``engine`` docstring gives what that costs).  The
    rows list the grid in the caller's (c, w) order, and ties keep the first
    point in that order: the smallest c, then the smallest w, on ascending
    grids.  Returns
    (epsilon, w, report): the winner's epsilon at the training problem's mean n
    (``digits.run_trial`` derives the final fit's again on the full problem)
    and a report naming the winning c "best_c" and listing every grid point.
    A holdout problem whose p or r differs from the training problem's is
    refused before any fit.
    """
    if not c_grid or not w_grid:
        raise ValueError("grids must be non-empty")
    if s_hint < 1:
        raise ValueError("s_hint must be >= 1")
    train_shape = (train_problem.p, train_problem.r)
    holdout_shape = (holdout_problem.p, holdout_problem.r)
    if holdout_shape != train_shape:
        raise ValueError(f"the holdout problem's (p, r) = {holdout_shape} differs from "
                         f"the training problem's {train_shape}")
    for c in c_grid:
        if not 0.0 <= c < math.inf:
            raise ValueError(f"c must be finite and >= 0, got {c}")
    n_avg = sum(t.n for t in train_problem.tasks) / train_problem.r
    eps = {c: stopping_threshold(c, s_hint, train_problem.p, n_avg) for c in c_grid}
    scores = {}
    for c, (w,), (report,) in _path_fits(train_problem, eps, w_grid, nu, check=True):
        scores[c, w] = sum(float(res @ res)
                           for res in residuals(holdout_problem, report.coefficients))
    rows = [{"c": c, "w": w, "epsilon": eps[c], "holdout_score": scores[c, w]}
            for c in c_grid for w in w_grid]
    best = min(rows, key=lambda row: row["holdout_score"])      # the first of equals
    return best["epsilon"], best["w"], {"best_c": best["c"], "rows": rows}

