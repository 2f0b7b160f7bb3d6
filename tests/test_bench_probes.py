"""The benchmark's layer probes still find the engine's layers.

``perfbench/tracer.py`` finds each layer by name at run time and reads some
of its arguments by position: ``gain_matrix``'s problem (argument 0),
``_worst_backward``'s singles and rows (arguments 2 and 3) and ``refit``'s
problem and pattern (arguments 0 and 1).  A renamed or re-signed engine
function would turn a layer "absent", or its counts wrong, without any
benchmark run failing; this test installs the tracer over the paths of a
small grid instead, one path per w.
"""

import importlib.util
import sys
from pathlib import Path

from mtgreedy import GreedyConfig, SynthSpec, engine, gen_synthetic

TRACER_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_FILE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_layer_resolves_and_counts_on_a_grid_path():
    problem, _ = gen_synthetic(SynthSpec(p=40, n=30, r=3, kappa=0.5,
                                         noise_variance=1e-2, seed=2))
    grid = [GreedyConfig(epsilon=eps, w=w, nu=0.5) for w in (1.25, 2.0) for eps in (1e-2, 0.0)]
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        tracer.active = True
        paths = {w: engine.FitPath(problem, [config for config in grid if config.w == w])
                 for w in (1.25, 2.0)}
        # through the module, where the tracer binds its probe
        reports = [engine.fit(problem, config, paths[config.w]) for config in grid]
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracer.absent == []
    assert all(report.steps for report in reports)
    metrics = {name: value["value"] for name, value in tracer.metrics(0.0).items()}
    assert metrics["engine.fit.calls"] == len(grid)
    for layer in ("engine.gain_matrix", "engine.best_forward", "engine.worst_backward",
                  "engine.refit"):
        assert metrics[f"{layer}.calls"] > 0, layer
    assert metrics["engine.worst_backward.objects_scored"] > 0
    assert metrics["engine.gain_matrix.flops_computed"] > 0
    assert metrics["engine.refit.tasks_solved"] > 0
