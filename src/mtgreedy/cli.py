"""Command-line interface: gen, fit, sweep, diagnose, digits.

Every command is deterministic given its full flag set; exit codes are 0 on
success, 2 for usage or input errors, and 3 for internal numerical failures.
"""

import argparse
import math
import sys
from dataclasses import asdict, astuple, fields

import numpy as np

from . import diagnostics, digits as digits_mod, experiments, fileio
from .engine import _check_weight, fit as engine_fit
from .model import GreedyConfig


def _float_list(text):
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mtgreedy",
        description="Greedy fitting of jointly sparse multi-task regression models.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic problem file")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--r", type=int, default=2)
    g.add_argument("--s", type=int, default=None)
    g.add_argument("--kappa", type=float, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--noise-variance", type=float, default=0.1)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", default="-")

    f = sub.add_parser("fit", help="fit a greedy model to a problem file")
    f.add_argument("--in", dest="infile", required=True)
    f.add_argument("--epsilon", type=float, required=True)
    f.add_argument("--w", type=float, default=1.5)
    f.add_argument("--nu", type=float, default=0.5)
    f.add_argument("--no-rows", action="store_true")
    f.add_argument("--max-steps", type=int, default=None)
    f.add_argument("--out", default="-")

    s = sub.add_parser("sweep", help="success-rate sweep over the rescaled sample size")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--kappa", type=float, required=True)
    s.add_argument("--theta-min", type=float, required=True)
    s.add_argument("--theta-max", type=float, required=True)
    s.add_argument("--theta-step", type=float, required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--epsilon-c", type=float, required=True)
    s.add_argument("--w", type=float, default=1.5,
                   help="sharing weight of the joint fit; the per-task baseline "
                        "(--single-task) has rows disabled and does not read it")
    s.add_argument("--nu", type=float, default=0.5)
    s.add_argument("--noise-variance", type=float, default=0.1)
    s.add_argument("--single-task", action="store_true")
    s.add_argument("--out", default="-")

    d = sub.add_parser("diagnose", help="recovery-condition diagnostics for a problem file")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--d", dest="threshold", type=int, required=True)
    d.add_argument("--s", dest="sparsity", type=int, required=True)
    d.add_argument("--w", type=float, default=1.5)
    d.add_argument("--nu", type=float, default=0.5)
    d.add_argument("--out", default="-")

    h = sub.add_parser("digits", help="one-vs-all digit classification experiment")
    h.add_argument("--data-dir", required=True)
    h.add_argument("--n-per-class", type=int, required=True)
    h.add_argument("--trials", type=int, default=1)
    h.add_argument("--seed", type=int, required=True)
    h.add_argument("--epsilon-c-grid", type=_float_list, default=digits_mod.C_GRID)
    h.add_argument("--w-grid", type=_float_list, default=digits_mod.W_GRID)
    h.add_argument("--nu", type=float, default=0.5)
    h.add_argument("--out", default="-")
    return parser


def cmd_gen(args):
    spec = experiments.SynthSpec(
        p=args.p, n=args.n, r=args.r, s=args.s, kappa=args.kappa,
        noise_variance=args.noise_variance, seed=args.seed)
    problem, beta_star = experiments.gen_synthetic(spec)
    meta = {
        "seed": args.seed,
        "kappa": args.kappa,
        "s": spec.support_size,
        "noise_variance": args.noise_variance,
    }
    fileio.write_text(args.out, fileio.to_json(
        fileio.problem_to_dict(problem, beta_star=beta_star, meta=meta)))
    return 0


def cmd_fit(args):
    problem, beta_star, _ = fileio.problem_from_dict(fileio.read_json(args.infile))
    config = GreedyConfig(
        epsilon=args.epsilon, w=args.w, nu=args.nu,
        rows_enabled=not args.no_rows, max_forward_steps=args.max_steps)
    report = engine_fit(problem, config)
    recovery = None
    if beta_star is not None:
        recovery = {
            "sign_support_exact": experiments.sign_support_success(
                report.coefficients, beta_star),
            "frob_error": float(np.linalg.norm(report.coefficients - beta_star)),
        }
    fileio.write_text(args.out, fileio.to_json(fileio.report_to_dict(report, recovery)))
    return 0


def _theta_grid(lo, hi, step):
    for flag, value in (("--theta-min", lo), ("--theta-max", hi), ("--theta-step", step)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{flag} must be finite and > 0, got {value}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + k * step for k in range(count)]


def cmd_sweep(args):
    grid = _theta_grid(args.theta_min, args.theta_max, args.theta_step)
    if not args.single_task:
        # the joint fit of a sweep's two tasks refuses this w; say so by the flag
        try:
            _check_weight(GreedyConfig(epsilon=0.0, w=args.w), 2)
        except ValueError as exc:
            raise ValueError(f"--w: {exc}") from None
    config = experiments.SweepConfig(
        epsilon_c=args.epsilon_c, w=args.w, nu=args.nu,
        noise_variance=args.noise_variance, single_task=args.single_task)
    rows = experiments.run_sweep(args.kappa, args.p, grid, args.trials, config, args.seed)
    columns = fields(experiments.SweepRow)
    lines = [",".join(column.name for column in columns)]
    for row in rows:
        lines.append(",".join(fileio.format_float(v) if column.type is float else str(v)
                              for column, v in zip(columns, astuple(row))))
    fileio.write_text(args.out, "\n".join(lines))
    crossing = experiments.transition_threshold(rows)
    if crossing is None:
        print("50% crossing: none in range", file=sys.stdout)
    else:
        print(f"50% crossing: theta = {fileio.format_float(crossing)}, "
              f"standard error {experiments.crossing_se(rows):.3g}", file=sys.stdout)
    return 0


def cmd_diagnose(args):
    problem, beta_star, _ = fileio.problem_from_dict(fileio.read_json(args.infile))
    if beta_star is None:
        raise ValueError("diagnose requires beta_star in the problem file")
    part = diagnostics.partition_supports(beta_star, args.threshold)
    beta_min = diagnostics.beta_min(beta_star, args.threshold)
    doc = {
        "partition": {
            "d": part.d,
            "shared_rows": sorted(part.shared_rows),
            "nonshared": [[i, j] for (i, j) in sorted(part.nonshared)],
            "s_star": list(part.s_star),
            "s_star_max": part.s_star_max,
        },
        "beta_min": None if math.isinf(beta_min) else beta_min,
        "lambda": diagnostics.gradient_bound_lambda(problem, beta_star),
    }
    feasible = math.comb(problem.p, args.sparsity) <= diagnostics.REP_ENUMERATION_LIMIT
    if feasible:
        inputs = diagnostics.theorem_inputs(
            problem, args.sparsity, doc["lambda"], max(part.s_star_max, 1), args.w, args.nu)
        doc.update({
            "C_min": inputs.C_min,
            "rho": inputs.rho,
            "eta_lower": inputs.eta,
            "epsilon_lower": inputs.epsilon,
            "error_bound": diagnostics.error_bound(inputs),
        })
    else:
        print(f"warning: C({problem.p},{args.sparsity}) subsets exceed the "
              "enumeration limit; restricted-eigenvalue fields are null",
              file=sys.stderr)
        doc.update({"C_min": None, "rho": None, "eta_lower": None,
                    "epsilon_lower": None, "error_bound": None})
    fileio.write_text(args.out, fileio.to_json(doc))
    return 0


def cmd_digits(args):
    # refuse a bad c by the flag and a bad trial or row count, before the dataset loads
    try:
        experiments._check_c(args.epsilon_c_grid)
    except ValueError as exc:
        raise ValueError(f"--epsilon-c-grid: {exc}") from None
    if args.trials < 1:
        raise ValueError("need trials >= 1")
    if not 1 <= args.n_per_class < digits_mod.PER_CLASS:
        raise ValueError(f"--n-per-class must lie in [1, {digits_mod.PER_CLASS - 1}], "
                         f"got {args.n_per_class}")
    try:
        dataset = digits_mod.load_mfeat(args.data_dir)
    except FileNotFoundError as exc:
        raise ValueError(str(exc)) from exc
    keys = ("avg_error", "error_variance", "avg_row_support", "avg_support")
    per_trial = []
    for trial in range(args.trials):
        seed = experiments.trial_seed(args.seed, 0.0, 0, trial)
        scored, eps, w, _ = digits_mod.run_trial(
            dataset, args.n_per_class, seed, args.epsilon_c_grid, args.w_grid, args.nu)
        per_trial.append({"seed": seed, "epsilon": eps, "w": w, **asdict(scored)})
    doc = {
        "trials": args.trials,
        "n_per_class": args.n_per_class,
        "mean": {k: float(np.mean([t[k] for t in per_trial])) for k in keys},
        "stddev": {k: float(np.std([t[k] for t in per_trial])) for k in keys},
        "per_trial": per_trial,
    }
    fileio.write_text(args.out, fileio.to_json(doc))
    return 0


COMMANDS = {
    "gen": cmd_gen,
    "fit": cmd_fit,
    "sweep": cmd_sweep,
    "diagnose": cmd_diagnose,
    "digits": cmd_digits,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical or internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
