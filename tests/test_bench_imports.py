"""The benchmark under ``bench/`` uses loopsift by name.  These tests parse
its files and fail when the package loses a name, an attribute or a
keyword argument that the benchmark uses, so such a deletion shows up in
the package's own test suite."""

import ast
import importlib
import inspect
import types
from pathlib import Path

from loopsift.consistency import DepthConsistencyScorer

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_files():
    paths = sorted(BENCH.glob("*.py"))
    assert paths, f"no benchmark files under {BENCH}"
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def resolve(module, name):
    """``from module import name`` without executing the statement."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")


def loopsift_bindings(tree):
    """Local name -> object for every ``from loopsift... import`` in a file."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "loopsift":
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, alias.name)
    return bound


def test_every_loopsift_import_resolves():
    missing = []
    for filename, tree in bench_files():
        for module, name in loopsift_bindings(tree).values():
            try:
                resolve(module, name)
            except ImportError:
                missing.append(f"{filename}: from {module} import {name}")
    assert not missing


def test_attributes_and_keywords_used_on_loopsift_names_exist():
    """``synth.ScenarioConfig(frames=...)`` needs the attribute and the field."""
    missing = []
    for filename, tree in bench_files():
        objects = {local: resolve(*source) for local, source in loopsift_bindings(tree).items()}

        def target(expr):
            if isinstance(expr, ast.Name):
                return objects.get(expr.id)
            if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
                    and isinstance(objects.get(expr.value.id), types.ModuleType)):
                return getattr(objects[expr.value.id], expr.attr, None)
            return None

        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and isinstance(objects.get(node.value.id), types.ModuleType)
                    and not hasattr(objects[node.value.id], node.attr)):
                missing.append(f"{filename}:{node.lineno}: {node.value.id}.{node.attr}")
            if isinstance(node, ast.Call) and callable(target(node.func)):
                params = inspect.signature(target(node.func)).parameters
                if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                    continue
                missing.extend(f"{filename}:{node.lineno}: keyword {kw.arg}="
                               for kw in node.keywords
                               if kw.arg is not None and kw.arg not in params)
    assert not missing


def test_scorer_methods_the_tracer_wraps_by_name():
    assert "score_frame" in DepthConsistencyScorer.__dict__
    assert "__call__" in DepthConsistencyScorer.__dict__
