"""The public surface: every exported name resolves, every module-level
definition is used or exported, every config field is set outside the tests,
and the demos run."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtgreedy

ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize("demo", ["01_greedy_fit_walkthrough.py", "03_recovery_diagnostics.py",
                                  "04_digit_classification.py"])
def test_demo_runs(demo, request):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # the digit demo reads its dataset directory from argv[1]
    argv = [str(request.getfixturevalue("mfeat_dir"))] if demo.startswith("04") else []
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo), *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
