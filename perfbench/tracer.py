"""Layer attribution from outside the package.

Each layer is a module-level function of mtgreedy, found by name at run time.
Installing a probe replaces every module-level binding of that function
object inside the ``mtgreedy`` package (so aliases such as
``engine.compute_residuals`` are covered too); nothing under ``src/`` is
edited.  A layer whose name no longer resolves is reported as absent rather
than raising.

While a ``Tracer`` is active every call records a span
``(span_id, layer, start, end, parent_id, run_id)`` in memory, and per-layer
call counts, self time (span time minus time in child spans) and computed
work counts are accumulated.  ``FitClock`` times each engine ``fit`` and keeps
the reports for the output checks done after the timed body.
"""

import functools
import gzip
import sys
import time
from dataclasses import dataclass, field


def resolve(module_name, names):
    """First function bound under one of ``names`` in the module, else None."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    for name in names:
        obj = getattr(module, name, None)
        if callable(obj):
            return obj
    return None


def _bindings(func):
    """Every (module, attribute) pair in mtgreedy bound to ``func``."""
    sites = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "mtgreedy" or mod_name.startswith("mtgreedy.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                sites.append((module, attr))
    return sites


class Patch:
    """Replace every binding of a function with a wrapper; undo restores them."""

    def __init__(self):
        self._undo = []

    def wrap(self, func, wrapper):
        for module, attr in _bindings(func):
            self._undo.append((module, attr, func))
            setattr(module, attr, wrapper)

    def undo(self):
        for module, attr, func in reversed(self._undo):
            setattr(module, attr, func)
        self._undo.clear()


# ------------------------------------------------------------ computed counts
#
# Each counter maps (args, kwargs, result) of one call to a number.  They are
# derived from array shapes and returned records, so they repeat exactly for
# the same inputs; they are labelled "computed" in their units.


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _fit_steps(kind):
    def count(args, kwargs, result):
        return sum(1 for s in result.steps if s.kind == kind)
    return count


def _gain_flops(args, kwargs, result):
    problem = _arg(args, kwargs, 0, "problem")
    return sum(2 * t.n * problem.p for t in problem.tasks)


def _objects_scored(args, kwargs, result):
    return len(_arg(args, kwargs, 2, "singles")) + len(_arg(args, kwargs, 3, "rows"))


def _lstsq_flops(args, kwargs, result):
    m, k = _arg(args, kwargs, 0, "A").shape
    return 2 * m * k * k


@dataclass(frozen=True)
class Layer:
    name: str                  # "<module>.<layer>" as reported
    module: str                # module searched for the function
    names: tuple               # attribute names tried in order
    counters: tuple = ()       # (suffix, unit, fn(args, kwargs, result))


LAYERS = (
    Layer("experiments.gen_synthetic", "mtgreedy.experiments", ("gen_synthetic",)),
    Layer("experiments.check_step_records", "mtgreedy.experiments", ("check_step_records",)),
    Layer("experiments.run_sweep", "mtgreedy.experiments", ("run_sweep",)),
    Layer("experiments.cross_validate", "mtgreedy.experiments", ("cross_validate",)),
    Layer("engine.fit", "mtgreedy.engine", ("fit",), (
        ("forward_steps", "count.computed", _fit_steps("forward")),
        ("backward_steps", "count.computed", _fit_steps("backward")))),
    Layer("engine.gain_matrix", "mtgreedy.engine", ("_gain_matrix", "gain_matrix"), (
        ("flops_computed", "flop.computed", _gain_flops),)),
    Layer("engine.best_forward", "mtgreedy.engine", ("_best_forward", "best_forward")),
    Layer("engine.worst_backward", "mtgreedy.engine", ("_worst_backward", "worst_backward"), (
        ("objects_scored", "count.computed", _objects_scored),)),
    Layer("engine.refit", "mtgreedy.engine", ("refit",)),
    Layer("linalg.solve_least_squares", "mtgreedy.linalg", ("solve_least_squares",), (
        ("flops_computed", "flop.computed", _lstsq_flops),)),
    Layer("model.residuals", "mtgreedy.model", ("residuals",)),
    Layer("model.loss", "mtgreedy.model", ("loss",)),
)

# Derived per-layer metrics that need more than one call's arguments.
DERIVED = (
    ("engine.refit.tasks_solved", "count.computed"),
    ("engine.refit.tasks_changed_frac", "frac.computed"),
    ("linalg.solve_least_squares.mean_cols", "col.computed"),
)


def metric_specs():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer.name}.calls", "count"))
        out.append((f"{layer.name}.self_s", "s"))
        for suffix, unit, _ in layer.counters:
            out.append((f"{layer.name}.{suffix}", unit))
    out.extend(DERIVED)
    out.append(("trace.overhead_frac", "frac"))
    return out


@dataclass
class _Stat:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Span recorder over the layers of ``LAYERS``; inactive until ``active``."""

    def __init__(self):
        self.active = False
        self.run_id = -1
        self.spans = []            # (span_id, layer, start, end, parent_id, run_id)
        self.absent = []
        self._stats = {layer.name: _Stat() for layer in LAYERS}
        self._stack = []           # [span_id, child_seconds] per open span
        self._patch = Patch()
        # engine.refit bookkeeping: supports seen at the previous refit of
        # the same problem object.
        self._refit_problem = None
        self._refit_supports = {}
        self._tasks_solved = 0
        self._tasks_changed = 0
        self._solve_cols = 0

    # -- installation ------------------------------------------------------
    def install(self):
        self.absent = []
        for layer in LAYERS:
            func = resolve(layer.module, layer.names)
            if func is None:
                self.absent.append(layer.name)
                continue
            self._patch.wrap(func, self._probe(layer, func))

    def uninstall(self):
        self._patch.undo()

    def _probe(self, layer, func):
        stat = self._stats[layer.name]
        is_refit = layer.name == "engine.refit"
        is_solve = layer.name == "linalg.solve_least_squares"

        @functools.wraps(func)
        def probe(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            result = self._span(layer.name, stat, func, args, kwargs)
            for suffix, _, counter in layer.counters:
                stat.counts[suffix] = stat.counts.get(suffix, 0) + counter(args, kwargs, result)
            if is_refit:
                self._note_refit(args, kwargs)
            elif is_solve:
                self._solve_cols += _arg(args, kwargs, 0, "A").shape[1]
            return result
        return probe

    def _span(self, name, stat, func, args, kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            if stat is not None:
                stat.calls += 1
                stat.self_s += duration - frame[1]
            self.spans[span_id] = (span_id, name, start, end, parent, self.run_id)

    def span(self, name, func, *args, **kwargs):
        """Run ``func`` inside a span that belongs to no layer (an operation)."""
        return self._span(name, None, func, args, kwargs)

    def _note_refit(self, args, kwargs):
        problem = _arg(args, kwargs, 0, "problem")
        pattern = _arg(args, kwargs, 1, "pattern")
        if problem is not self._refit_problem:
            self._refit_problem = problem
            self._refit_supports = {}
        for j in range(problem.r):
            cols = frozenset(pattern.task_support(j))
            if not cols:
                self._refit_supports.pop(j, None)
                continue
            self._tasks_solved += 1
            if self._refit_supports.get(j) != cols:
                self._tasks_changed += 1
            self._refit_supports[j] = cols

    # -- report ------------------------------------------------------------
    def metrics(self, overhead_frac):
        """Every per-layer metric as {name: {"value", "unit"}}; absent layers read 0."""
        values = {}
        for layer in LAYERS:
            stat = self._stats[layer.name]
            values[f"{layer.name}.calls"] = stat.calls
            values[f"{layer.name}.self_s"] = stat.self_s
            for suffix, _, _ in layer.counters:
                values[f"{layer.name}.{suffix}"] = stat.counts.get(suffix, 0)
        solves = self._stats["linalg.solve_least_squares"]
        values["engine.refit.tasks_solved"] = self._tasks_solved
        values["engine.refit.tasks_changed_frac"] = (
            self._tasks_changed / self._tasks_solved if self._tasks_solved else 0.0)
        values["linalg.solve_least_squares.mean_cols"] = (
            self._solve_cols / solves.calls if solves.calls else 0.0)
        values["trace.overhead_frac"] = overhead_frac
        return {name: {"value": values[name], "unit": unit} for name, unit in metric_specs()}

    def write_spans(self, path):
        """Write the recorded spans as gzipped CSV; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("span_id,layer,start,end,parent_id,run_id\n")
            for s in self.spans:
                if s is not None:
                    fh.write(f"{s[0]},{s[1]},{s[2]:.9f},{s[3]:.9f},{s[4]},{s[5]}\n")
        return len(self.spans)


class FitClock:
    """Times every engine ``fit`` call and keeps (problem, config, report,
    seconds) for the output checks made after the timed body.

    Installed in every run; its overhead is two clock reads per fit.  Time
    spent in the calibration kernel, if one is given, is excluded.
    """

    def __init__(self, calibrator=None):
        self.fits = []
        self.attempts = 0
        self._calibrator = calibrator
        self._patch = Patch()

    def excluded(self):
        """Seconds spent in the calibration kernel so far."""
        return self._calibrator.spent if self._calibrator is not None else 0.0

    def install(self):
        func = resolve("mtgreedy.engine", ("fit",))
        if func is None:
            raise RuntimeError("mtgreedy.engine.fit not found")

        @functools.wraps(func)
        def timed_fit(problem, config, *args, **kwargs):
            self.attempts += 1
            paused = self.excluded()
            start = time.perf_counter()
            report = func(problem, config, *args, **kwargs)
            seconds = time.perf_counter() - start - (self.excluded() - paused)
            self.fits.append((problem, config, report, seconds))
            return report
        self._patch.wrap(func, timed_fit)

    def uninstall(self):
        self._patch.undo()

    def take(self):
        """Fits completed and fits attempted since the previous call."""
        fits, attempts = self.fits, self.attempts
        self.fits, self.attempts = [], 0
        return fits, attempts
