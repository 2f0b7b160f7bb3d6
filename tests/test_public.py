"""The public surface: every exported name resolves, every module-level
definition is used or exported, every config field is set outside the tests,
and the demos and README's python blocks run."""

import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mtgreedy

ROOT = Path(__file__).resolve().parents[1]
README_PYTHON = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           flags=re.S | re.M)


def run_with_src(args, cwd=None):
    """Run ``python args`` with the package's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_every_exported_name_resolves():
    missing = [name for name in mtgreedy.__all__ if not hasattr(mtgreedy, name)]
    assert missing == []
    assert len(set(mtgreedy.__all__)) == len(mtgreedy.__all__)


def test_every_module_level_definition_is_used_or_exported():
    """A function or class at module level of the package must be referenced
    by a line of ``src/`` outside its own definition, or be exported through
    ``__all__``.  ALL_CAPS and dunder names are exempt."""
    trees = {path: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "mtgreedy").glob("*.py"))}
    uses = []                          # (file, line, name) of every name read or imported
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                uses.append((path, node.lineno, node.name))
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.isupper() or (name.startswith("__") and name.endswith("__")):
                continue
            if name in mtgreedy.__all__:
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if not any(used == name and not (where == path and first <= line <= node.end_lineno)
                       for where, line, used in uses):
                unused.append(f"{path.name}:{name}")
    assert unused == []


def test_every_imported_name_is_read():
    """Each name that a file of ``src/``, ``tests/`` or ``demos/`` imports is
    read in that file, or listed in its ``__all__``."""
    unread = []
    for where in ("src", "tests", "demos"):
        for path in sorted((ROOT / where).rglob("*.py")):
            tree = ast.parse(path.read_text())
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and "__all__" in [
                        getattr(target, "id", None) for target in node.targets]:
                    read.update(ast.literal_eval(node.value))
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                        isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                    unread += [f"{path.relative_to(ROOT)}:{node.lineno}:{name}"
                               for name in (alias.asname or alias.name.split(".")[0]
                                            for alias in node.names)
                               if name not in read]
    assert unread == []


def imports_of(module):
    """The top-level modules a package module imports, and the package
    modules it imports by name (``from . import processes``)."""
    imported = set()
    for node in ast.walk(ast.parse((ROOT / "src" / "mtgreedy" / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
            if node.level:
                imported.update(alias.name for alias in node.names)
    return imported


def test_the_engine_imports_nothing_that_forks_or_starts_threads():
    """``engine`` is the estimator: sharing work out over processes stays in
    ``processes``, so ``engine`` imports neither it nor the standard modules
    that fork, start threads or finalize objects."""
    assert imports_of("engine") & {
        "multiprocessing", "threading", "queue", "weakref", "processes"} == set()


def test_processes_alone_owns_the_other_cpus():
    """``processes`` owns the CPU budget and the children: ``linalg``
    imports neither it nor any standard module that reads the CPUs, forks or
    starts threads, and ``processes`` reads no private name of another
    package module, by attribute or by import.  ``processes`` starts no
    thread either, so a fit runs on the calling thread alone and a forked
    child sends its reports from its one thread."""
    assert imports_of("linalg") & {
        "os", "queue", "threading", "multiprocessing", "processes"} == set()
    package = ROOT / "src" / "mtgreedy"
    modules = {path.stem for path in package.glob("*.py")} - {"processes"}
    tree = ast.parse((package / "processes.py").read_text())
    threads = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Call)
               and ast.unparse(node.func) in {"threading.Thread", "Thread"}]
    assert threads == []
    private = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules | {"mtgreedy"} and node.attr.startswith("_")):
            private.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "mtgreedy"):
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
    assert private == []


def package_nodes():
    """(scope, node) of every AST node in the package, where scope names the
    module-level function, class method or module statement holding it, as
    ``experiments.sweep_grid``."""
    for path in sorted((ROOT / "src" / "mtgreedy").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for scope in node.body if isinstance(node, ast.ClassDef) else [node]:
                name = f"{path.stem}.{getattr(scope, 'name', '<module>')}"
                for inner in ast.walk(scope):
                    yield name, inner


def test_only_whole_operations_fork():
    """``forked`` is called once in ``experiments.sweep_grid`` and once in
    ``experiments.cross_validate`` and nowhere else, and neither yields: a
    child lives inside one ``with`` of a plain function, never as long as a
    generator that nobody closed."""
    forks, yields = [], set()
    for name, node in package_nodes():
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "forked":
            forks.append(name)
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            yields.add(name)
    assert sorted(forks) == ["experiments.cross_validate", "experiments.sweep_grid"]
    assert yields.isdisjoint(forks)


def test_only_the_sweep_knows_the_per_task_baseline():
    """No function of the package takes a ``single_task`` parameter, and
    only ``experiments.sweep_grid`` splits a problem into its tasks with
    ``.single_task(j)``: the baseline is the sweep's decision alone, and
    ``_path_grid`` and ``_path_fits`` build and fit what they are given."""
    flags, splits = [], set()
    for name, node in package_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            flags += [name for param in params if param.arg == "single_task"]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "single_task"):
            splits.add(name)
    assert flags == []
    assert splits == {"experiments.sweep_grid"}


def test_the_fit_loop_takes_arg_extrema_as_array_methods():
    """``engine`` and ``linalg`` call ``argmax`` and ``argmin`` only as
    array methods, never as the module functions ``np.argmax`` and
    ``np.argmin`` (nor imported bare), which add numpy's Python dispatch,
    about 1-2 us a call, to every move."""
    module_calls = []
    for module in ("engine", "linalg"):
        path = ROOT / "src" / "mtgreedy" / f"{module}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id in {"argmax", "argmin"}) or (
                    isinstance(func, ast.Attribute) and func.attr in {"argmax", "argmin"}
                    and isinstance(func.value, ast.Name) and func.value.id in {"np", "numpy"}):
                module_calls.append(f"{module}:{node.lineno}:{ast.unparse(func)}")
    assert module_calls == []


def test_every_config_field_is_set_outside_the_tests():
    """Each field of ``GreedyConfig``, ``SweepConfig`` and ``SynthSpec`` is
    passed by keyword to that class, or to ``replace``, in some call in
    ``src/``, ``demos/`` or ``perfbench/`` (``test_*`` files excluded): a
    knob that only the tests turn has one legal value."""
    passed = {}                        # callee name -> keywords passed to it
    for where in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / where).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    callee = func.attr if isinstance(func, ast.Attribute) else getattr(
                        func, "id", None)
                    passed.setdefault(callee, set()).update(k.arg for k in node.keywords)
    unset = [f"{cls.__name__}.{field.name}"
             for cls in (mtgreedy.GreedyConfig, mtgreedy.SweepConfig, mtgreedy.SynthSpec)
             for field in dataclasses.fields(cls)
             if field.name not in passed.get(cls.__name__, set()) | passed.get("replace", set())]
    assert unset == []


@pytest.mark.parametrize("demo", ["01_greedy_fit_walkthrough.py",
                                  pytest.param("02_phase_transition.py", marks=pytest.mark.slow),
                                  "03_recovery_diagnostics.py", "04_digit_classification.py"])
def test_demo_runs(demo, request):
    # the digit demo reads its dataset directory from argv[1]
    argv = [str(request.getfixturevalue("mfeat_dir"))] if demo.startswith("04") else []
    out = run_with_src([str(ROOT / "demos" / demo), *argv])
    assert out.returncode == 0, out.stderr


def test_readme_python_blocks_run(tmp_path):
    """Each python block of README.md runs as written, outside the repo; the
    library quick start finds its planted row 3 and singleton (7, 0)."""
    assert README_PYTHON
    printed = []
    for block in README_PYTHON:
        out = run_with_src(["-c", block], cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        printed.append(out.stdout)
    assert printed[0].startswith("frozenset({3}) frozenset({(7, 0)})\n")
