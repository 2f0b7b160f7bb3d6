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

from .engine import check_step_records, fit
from .model import FitReport, GreedyConfig, MultiTaskProblem, SupportPattern, loss


def _round_half_up(x):
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one random problem instance.

    s defaults to round(p / 10); kappa is the fraction of each task's support
    shared by all tasks.  Everything is determined by the seed.
    """

    p: int
    n: int
    r: int = 2
    s: int | None = None
    kappa: float = 0.0
    noise_variance: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        if not (0.0 <= self.kappa <= 1.0):
            raise ValueError(f"kappa must lie in [0, 1], got {self.kappa}")
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be >= 0")

    @property
    def support_size(self):
        return self.s if self.s is not None else _round_half_up(self.p / 10)

    @property
    def shared_count(self):
        return _round_half_up(self.kappa * self.support_size)


def gen_synthetic(spec):
    """Draw one seeded instance: (problem, true coefficient matrix).

    round(kappa * s) features are active in every task; each task gets
    s - round(kappa * s) further features of its own, all disjoint, chosen
    uniformly without replacement.  Active values, design entries, and noise
    are i.i.d. Gaussian (noise scaled to the configured variance).
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
        X = rng.standard_normal((spec.n, spec.p))
        z = sigma * rng.standard_normal(spec.n)
        designs.append(X)
        responses.append(X @ beta[:, j] + z)
    return MultiTaskProblem.from_arrays(designs, responses), beta


def theta(n, s, p, kappa):
    """Rescaled sample size n / (s * log(p - (2 - kappa) * s))."""
    inner = p - (2.0 - kappa) * s
    if inner <= 1.0:
        raise ValueError(f"log argument {inner} must exceed 1")
    return n / (s * math.log(inner))


def n_for_theta(theta_value, s, p, kappa):
    """Smallest integer sample size reaching the requested rescaled size."""
    inner = p - (2.0 - kappa) * s
    if inner <= 1.0:
        raise ValueError(f"log argument {inner} must exceed 1")
    return int(math.ceil(theta_value * s * math.log(inner)))


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
    """Per-sweep fitting policy: the stopping threshold is re-derived for
    every sample size as epsilon_c * s * log(p) / n."""

    epsilon_c: float
    w: float = 1.5
    nu: float = 0.5
    noise_variance: float = 0.1
    rows_enabled: bool = True
    single_task: bool = False
    check_traces: bool = True

    def greedy_config(self, s, p, n):
        eps = self.epsilon_c * s * math.log(p) / n
        return GreedyConfig(epsilon=eps, w=self.w, nu=self.nu, rows_enabled=self.rows_enabled)


@dataclass(frozen=True)
class SweepRow:
    kappa: float
    theta: float
    n: int
    trials: int
    successes: int
    success_rate: float
    mean_frob_error: float


def run_sweep(kappa, p, theta_grid, trials, config, master_seed):
    """Success statistics along a theta grid, one seeded batch per point."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    s = _round_half_up(p / 10)
    out = []
    for t_idx, theta_value in enumerate(theta_grid):
        n = n_for_theta(theta_value, s, p, kappa)
        successes = 0
        frob_sum = 0.0
        for trial in range(trials):
            seed = trial_seed(master_seed, kappa, t_idx, trial)
            spec = SynthSpec(p=p, n=n, r=2, s=s, kappa=kappa,
                             noise_variance=config.noise_variance, seed=seed)
            problem, beta_star = gen_synthetic(spec)
            gconf = config.greedy_config(s, p, n)
            if config.single_task:
                report = foba_single_task(problem, gconf)
            else:
                report = fit(problem, gconf)
                if config.check_traces:
                    check_step_records(report, gconf,
                                       loss(problem, np.zeros((problem.p, problem.r))))
            if sign_support_success(report.coefficients, beta_star):
                successes += 1
            frob_sum += float(np.linalg.norm(report.coefficients - beta_star))
        out.append(SweepRow(
            kappa=kappa,
            theta=theta_value,
            n=n,
            trials=trials,
            successes=successes,
            success_rate=successes / trials,
            mean_frob_error=frob_sum / trials,
        ))
    return out


def transition_threshold(rows):
    """Linear interpolation of the 50% success crossing; None when absent."""
    pts = sorted(rows, key=lambda row: row.theta)
    for a, b in zip(pts, pts[1:]):
        lo, hi = a.success_rate - 0.5, b.success_rate - 0.5
        if lo == 0.0:
            return a.theta
        if lo * hi < 0.0 or hi == 0.0:
            return a.theta + (0.5 - a.success_rate) * (b.theta - a.theta) / (
                b.success_rate - a.success_rate)
    return None


def cross_validate(train_problem, holdout_problem, c_grid, w_grid, nu, s_hint):
    """Grid search over (c, w) pairs scored by holdout squared error.

    The stopping threshold is c * s_hint * log(p) / n with n the average
    training sample count.  Ties keep the smallest c, then the smallest w.
    Returns (epsilon, w, report) where the report lists every grid point.
    """
    if not c_grid or not w_grid:
        raise ValueError("grids must be non-empty")
    if s_hint < 1:
        raise ValueError("s_hint must be >= 1")
    n_avg = sum(t.n for t in train_problem.tasks) / train_problem.r
    rows = []
    best = None
    for c in c_grid:
        for w in w_grid:
            eps = c * s_hint * math.log(train_problem.p) / n_avg
            report = fit(train_problem, GreedyConfig(epsilon=eps, w=w, nu=nu))
            score = 0.0
            for j, t in enumerate(holdout_problem.tasks):
                diff = t.y - t.X @ report.coefficients[:, j]
                score += float(diff @ diff)
            rows.append({"c": c, "w": w, "epsilon": eps, "holdout_score": score})
            if best is None or score < best["holdout_score"]:
                best = rows[-1]
    return best["epsilon"], best["w"], {"best_c": best["c"], "rows": rows}


def foba_single_task(problem, config):
    """Per-task greedy baseline: rows disabled, tasks fit independently.

    Step records keep per-task losses and indices remapped to the original
    task; the merged report's final_loss is the full multi-task loss.
    """
    config = replace(config, rows_enabled=False, coalesce_rows=False)
    beta = np.zeros((problem.p, problem.r))
    singles = set()
    steps = []
    termination = "gain-below-threshold"
    for j in range(problem.r):
        sub = problem.single_task(j)
        report = fit(sub, config)
        beta[:, j] = report.coefficients[:, 0]
        singles |= {(i, j) for (i, _) in report.pattern.singletons}
        steps.extend(replace(s, index=(s.index[0], j)) for s in report.steps)
        if report.termination == "max-steps":
            termination = "max-steps"
    return FitReport(
        coefficients=beta,
        pattern=SupportPattern(singletons=frozenset(singles), rows=frozenset()),
        final_loss=loss(problem, beta),
        steps=tuple(steps),
        termination=termination,
    )
