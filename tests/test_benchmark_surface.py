"""What the benchmark in perfbench/ looks up in hecg still exists.

perfbench/run.py traces the functions its TRACED tuple names, and each
workload in perfbench/workloads.py counts per-segment gaps at the names
in its tick_points. A name that no longer resolves is skipped there, and
its metric reads zero instead of failing. So the names are read from
perfbench's own sources and resolved with perfbench's own
tracer._resolve, as the benchmark does, and every other hecg attribute
perfbench reads (hecg.backend_name, hecg.HAVE_COMPILED, ...) must exist.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import hecg
import hecg.cli  # imports every hecg module a traced name lives in

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


_spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def _assigned(tree: ast.Module, target: str) -> list:
    """The literal values assigned to target anywhere in tree, in order."""
    values = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == target for t in node.targets
        ):
            values.append(ast.literal_eval(node.value))
    return values


TRACED = [name for value in _assigned(_tree("run.py"), "TRACED") for name in value]
TICK_POINTS = [name for value in _assigned(_tree("workloads.py"), "tick_points") for name in value]
# hecg and the two of its modules that perfbench imports by name
MODULES = {"hecg": hecg, "pipeline": hecg.pipeline, "cli": hecg.cli}
ATTRIBUTES = sorted(
    {
        (node.value.id, node.attr)
        for name in ("run.py", "workloads.py")
        for node in ast.walk(_tree(name))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
    }
)


def test_names_were_found():
    assert "analysis.analyze_corpus" in TRACED
    assert "attacks.noise_attack" in TICK_POINTS
    assert ("hecg", "backend_name") in ATTRIBUTES
    assert ("hecg", "HAVE_COMPILED") in ATTRIBUTES


@pytest.mark.parametrize("qualname", sorted(set(TRACED + TICK_POINTS)))
def test_traced_and_ticked_names_resolve(qualname):
    owner, attr = tracer._resolve(qualname)
    assert owner is not None and attr in vars(owner), f"{qualname} does not resolve"


@pytest.mark.parametrize("module, attr", ATTRIBUTES)
def test_attributes_exist(module, attr):
    assert hasattr(MODULES[module], attr), f"{module}.{attr} is missing"
