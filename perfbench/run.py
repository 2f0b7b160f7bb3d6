"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload sweep_p128 --seed 3 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  BLAS is pinned to one thread before numpy loads.
A single caller runs operations back to back (closed loop) until
``--seconds`` have passed; outputs are checked after each operation, outside
its timed body.  ``--trace 0`` prints the end-to-end metrics, with timings
in calibrated seconds (see ``calibrate``); ``--trace 1`` runs each instance
of one fixed cycle untraced and then traced and prints the per-layer metrics.  The last stdout line is the JSON result; the line before
it records the environment.  Spans of a traced run are written to
``.bench_out/`` in the checkout.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_EARLY, SETUP_LATE = 3, 2
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import mtgreedy; "
    "print(time.perf_counter() - t)")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_cal_s", "cal_s"),
    ("fits_per_cal_s", "1/cal_s"),
    ("fit_p95_cal_ms", "cal_ms"),
)


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def setup_seconds(wl, seed):
    """One set-up: import the package in a fresh interpreter, then build the
    workload's context and instance 0.  Returns (seconds, ctx, instance)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                         check=True, capture_output=True, text=True, timeout=60)
    import_s = float(out.stdout.strip().splitlines()[-1])
    start = time.perf_counter()
    ctx = wl.prepare(seed)
    first = wl.instance(ctx, seed, 0)
    return import_s + time.perf_counter() - start, ctx, first


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Runner:
    """Runs operations of one workload and checks every output."""

    def __init__(self, wl, ctx, seed, clock, recorded, first, calibrator=None):
        self.wl, self.ctx, self.seed, self.clock = wl, ctx, seed, clock
        self.calibrator = calibrator
        # Expected summary per instance; None until recorded or first seen.
        self.references = [recorded[k] if k < len(recorded) else None
                           for k in range(wl.cycle)]
        self._first = first               # instance 0, built during set-up
        self.attempted = 0
        self.failed = 0
        self.op_seconds = []
        self.fit_seconds = []
        self.verify_target = None         # last fit of the first operation

    def inputs(self, k):
        if k == 0 and self._first is not None:
            inputs, self._first = self._first, None
            return inputs
        return self.wl.instance(self.ctx, self.seed, k)

    def run_op(self, k, trace=None):
        """Time one operation on instance k (traced when a tracer is given),
        then check its fits and its summary with the tracer off."""
        inputs = self.inputs(k)
        if self.calibrator is not None:
            self.calibrator.maybe_sample()
        self.clock.take()
        paused = self.clock.excluded()
        start = time.perf_counter()
        try:
            if trace is None:
                result = self.wl.run(self.ctx, inputs)
            else:
                trace.active, trace.run_id = True, k
                try:
                    result = trace.span("operation", self.wl.run, self.ctx, inputs)
                finally:
                    trace.active = False
            error = None
        except Exception:         # a failing operation is counted, not fatal
            result, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - start - (self.clock.excluded() - paused)
        fits, attempts = self.clock.take()
        attempts = max(attempts, 1)
        self.attempted += attempts
        if error is not None:
            print(f"operation {k} raised:\n{error}", file=sys.stderr)
            self.failed += attempts
            return
        self.op_seconds.append(elapsed)
        self.fit_seconds.extend(f[3] for f in fits)
        self.failed += min(len(self._failed_fits(k, result, fits)), attempts)
        if self.verify_target is None and fits:
            self.verify_target = fits[-1][:3]

    def _failed_fits(self, k, result, fits):
        from mtgreedy import engine, model

        bad = set()
        for i, (problem, config, report, _) in enumerate(fits):
            zero = model.loss(problem, np.zeros((problem.p, problem.r)))
            try:
                engine.check_step_records(report, config, zero)
            except AssertionError as exc:
                print(f"operation {k}, fit {i}: {exc}", file=sys.stderr)
                bad.add(i)
        got = self.wl.summary(result)
        want = self.references[k]
        if want is None:
            # No recorded reference for this seed: later repeats of the same
            # instance must reproduce the first.
            self.references[k] = got
        else:
            mismatch = self.wl.mismatched_fits(got, want)
            if mismatch:
                print(f"operation {k}: output differs from reference at fits "
                      f"{sorted(mismatch)}", file=sys.stderr)
            bad |= mismatch
        return bad

    def verify(self):
        """Replay one fit with ``verify_trace``, outside any timed body."""
        from mtgreedy import engine

        if self.verify_target is None:
            return
        problem, config, report = self.verify_target
        try:
            engine.verify_trace(problem, config, report)
        except AssertionError as exc:
            print(f"verify_trace failed: {exc}", file=sys.stderr)
            self.failed += 1


def measure(runner, seconds):
    """Closed loop for ``seconds``: end-to-end values except set-up, in
    calibrated seconds (see ``calibrate``); the wall-clock values go into
    the run record."""
    cal = runner.calibrator
    cal.install()
    try:
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            runner.run_op(i % runner.wl.cycle)
            i += 1
        cal.sample()
    finally:
        cal.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.verify()
    ops = runner.op_seconds
    fits = len(runner.fit_seconds)
    wall = {
        "op_s": sum(ops) / len(ops) if ops else 0.0,
        "fits_per_s": fits / sum(ops) if ops else 0.0,
        "fit_p95_ms": float(np.percentile(runner.fit_seconds, 95)) * 1e3 if fits else 0.0,
    }
    factor = cal.factor()
    values = {
        "peak_rss_mb": peak_rss_mb,
        "op_cal_s": wall["op_s"] * factor,
        "fits_per_cal_s": wall["fits_per_s"] / factor,
        "fit_p95_cal_ms": wall["fit_p95_ms"] * factor,
    }
    info = {"ops": len(ops), "fits": fits, "wall": wall,
            "calibration": {"samples": len(cal.samples),
                            "median_s": statistics.median(cal.samples)}}
    return values, info


def trace_cycle(runner):
    """Each instance of one cycle untraced, then at once traced.

    Fixed work makes the counts repeat exactly for a seed.  Running the two
    copies back to back lets host-speed drift cancel in the ratio of their
    wall times, the tracing overhead.  Returns the tracer and that overhead.
    """
    trace = tracer.Tracer()
    seconds = {False: 0.0, True: 0.0}
    for k in range(runner.wl.cycle):
        for traced in (False, True):
            done = len(runner.op_seconds)
            if traced:
                trace.install()
            try:
                runner.run_op(k, trace if traced else None)
            finally:
                trace.uninstall()
            seconds[traced] += sum(runner.op_seconds[done:])
    runner.verify()
    untraced = seconds[False]
    return trace, (seconds[True] / untraced - 1.0 if untraced > 0 else 0.0)


def main(argv=None):
    if not (SRC / "mtgreedy" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[args.workload]

    import mtgreedy
    if Path(mtgreedy.__file__).resolve().parent != SRC / "mtgreedy":
        print(f"imported mtgreedy from {mtgreedy.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # Set-up is timed several times and the median reported; some of the
    # repeats come after the timed loop, so that host-speed drift during the
    # run weighs on it as on the other metrics.
    setups = []
    for _ in range(SETUP_EARLY):
        seconds, ctx, first = setup_seconds(wl, args.seed)
        setups.append(seconds)

    # Warm-up outside any measurement: the first BLAS/LAPACK calls load code.
    warm, _ = workloads.experiments.gen_synthetic(
        workloads.experiments.SynthSpec(p=40, n=30, r=2, kappa=0.5, seed=0))
    workloads.engine.fit(warm, workloads.model.GreedyConfig(epsilon=1e-6))

    recorded = workloads.load_references(wl.name).get(str(args.seed), [])
    calibrator = calibrate.Calibrator() if args.trace == 0 else None
    clock = tracer.FitClock(calibrator)
    clock.install()
    try:
        runner = Runner(wl, ctx, args.seed, clock, recorded, first, calibrator)
        if args.trace == 0:
            values, info = measure(runner, args.seconds)
            setups += [setup_seconds(wl, args.seed)[0] for _ in range(SETUP_LATE)]
            values["setup_s"] = statistics.median(setups)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        else:
            trace, overhead = trace_cycle(runner)
            if trace.absent:
                print(f"absent layers (reported as 0): {', '.join(trace.absent)}",
                      file=sys.stderr)
            metrics = trace.metrics(overhead)
            span_file = ROOT / ".bench_out" / f"spans-{wl.name}-seed{args.seed}.csv.gz"
            info = {"ops": len(runner.op_seconds), "spans": trace.write_spans(span_file),
                    "span_file": str(span_file.relative_to(ROOT)),
                    "absent_layers": trace.absent}
    finally:
        clock.uninstall()

    info.update(workload=wl.name, seed=args.seed, trace=args.trace,
                reference="recorded" if recorded else "none", environment=environment())
    print(json.dumps(info))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
