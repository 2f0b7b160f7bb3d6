"""Problem and report file formats.

Numbers are serialized with 17 significant digits so 64-bit floats
round-trip exactly and repeated runs produce byte-identical files.
"""

import json

import numpy as np

from .model import MultiTaskProblem, design_array


def format_float(x):
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return format(float(x), ".17g")


def to_json(obj, indent=0):
    """Deterministic JSON text with fixed float formatting; arrays go in as ``.tolist()``."""
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {to_json(v, indent + 2)}" for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        scalar = all(isinstance(v, (int, float, np.integer, np.floating)) for v in obj)
        if scalar:
            return "[" + ", ".join(to_json(v) for v in obj) + "]"
        inner = ",\n".join(f"{pad}  {to_json(v, indent + 2)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def problem_to_dict(problem, beta_star=None, meta=None):
    doc = {
        "p": problem.p,
        "r": problem.r,
        "tasks": [
            {"n": t.n, "X": t.X.tolist(), "y": t.y.tolist()} for t in problem.tasks
        ],
    }
    if beta_star is not None:
        doc["beta_star"] = np.asarray(beta_star).tolist()
    if meta is not None:
        doc["meta"] = meta
    return doc


def _count(value, field):
    """``value`` when it is an int (a bool is not), else ValueError naming ``field``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"malformed problem file: {field} must be an integer, got {value!r}")
    return value


def problem_from_dict(doc):
    """Parse and validate a problem document; returns (problem, beta_star, meta).

    The declared p, r and each task's n must be JSON integers; any other
    value is refused, never truncated.  Each design is read column-major,
    the layout ``gen_synthetic`` builds.
    """
    try:
        p, r, raw_tasks = doc["p"], doc["r"], doc["tasks"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed problem file: {exc}") from exc
    p, r = _count(p, "p"), _count(r, "r")
    if not isinstance(raw_tasks, list):
        raise ValueError(f"malformed problem file: tasks must be a list, got {raw_tasks!r}")
    if len(raw_tasks) != r:
        raise ValueError(f"problem file declares r={r} but has {len(raw_tasks)} tasks")
    tasks = []
    for j, entry in enumerate(raw_tasks):
        try:
            X = design_array(entry["X"])
            y = np.asarray(entry["y"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"task {j}: malformed arrays: {exc}") from exc
        if "n" in entry and _count(entry["n"], f"task {j}: n") != X.shape[0]:
            raise ValueError(f"task {j}: declared n={entry['n']} but X has {X.shape[0]} rows")
        tasks.append((X, y))
    problem = MultiTaskProblem.from_arrays([X for X, _ in tasks], [y for _, y in tasks])
    if problem.p != p:
        raise ValueError(f"problem file declares p={p} but its designs have {problem.p} columns")
    beta_star = None
    if doc.get("beta_star") is not None:
        try:
            beta_star = np.asarray(doc["beta_star"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed problem file: beta_star: {exc}") from exc
        if beta_star.shape != (p, r):
            raise ValueError(
                f"beta_star shape {beta_star.shape} does not match ({p}, {r})")
        if not np.all(np.isfinite(beta_star)):
            raise ValueError("beta_star has non-finite entries")
    return problem, beta_star, doc.get("meta")


def pattern_to_dict(pattern):
    return {
        "singletons": [[i, j] for (i, j) in sorted(pattern.singletons)],
        "rows": sorted(int(m) for m in pattern.rows),
    }


def report_to_dict(report, recovery=None):
    steps = []
    for s in report.steps:
        entry = {
            "kind": s.kind,
            "object": {"kind": s.object_kind, "index": list(s.index)},
            "reward_or_cost": s.reward_or_cost,
            "loss_after": s.loss_after,
            "ledger_depth": s.ledger_depth,
        }
        if s.popped_reward is not None:
            entry["popped_reward"] = s.popped_reward
        if s.popped_step is not None:
            entry["popped_step"] = s.popped_step
        if s.promoted_row is not None:
            entry["promoted_row"] = s.promoted_row
        steps.append(entry)
    doc = {
        "pattern": pattern_to_dict(report.pattern),
        "coefficients": report.coefficients.tolist(),
        "final_loss": report.final_loss,
        "steps": steps,
        "termination": report.termination,
    }
    if recovery is not None:
        doc["recovery"] = recovery
    return doc


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_text(path, text):
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
