"""What the benchmark in perfbench/ looks up in hecg still exists.

perfbench/run.py traces the functions its TRACED tuple names, and each
workload in perfbench/workloads.py counts per-segment gaps at the names
in its tick_points. A name that no longer resolves is skipped there, and
its metric reads zero instead of failing. So the names are read from
perfbench's own sources and resolved with perfbench's own
tracer._resolve, as the benchmark does, and every other hecg attribute
perfbench reads (hecg.backend_name, hecg.HAVE_COMPILED, ...) must exist.

A changed signature or a deleted flag would break only the benchmark, so
every call perfbench makes into hecg must also bind to the callee's
signature, and every literal argv it passes to run_cli must parse.
"""

import ast
import inspect
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




def _chain(node) -> list:
    """["hecg", "SegmentSource", "from_csv"] for hecg.SegmentSource.from_csv,
    else []."""
    names = []
    while isinstance(node, ast.Attribute):
        names.insert(0, node.attr)
        node = node.value
    return [node.id, *names] if isinstance(node, ast.Name) and names else []


# (source, line, dotted callee, positional count, keyword names) of each call
# into hecg through an attribute chain on one of MODULES
CALLS = sorted(
    (name, node.lineno, ".".join(chain), len(node.args), tuple(k.arg for k in node.keywords))
    for name in ("run.py", "workloads.py")
    for node in ast.walk(_tree(name))
    if isinstance(node, ast.Call) and (chain := _chain(node.func)) and chain[0] in MODULES
)
# the literal argv lists perfbench passes to hecg.cli.main through run_cli
RUN_CLI_ARGVS = [
    (node.lineno, node.args[0])
    for node in ast.walk(_tree("workloads.py"))
    if isinstance(node, ast.Call)
    and isinstance(node.func, ast.Name)
    and node.func.id == "run_cli"
    and node.args
    and isinstance(node.args[0], ast.List)
]


def test_names_were_found():
    assert "analysis.analyze_corpus" in TRACED
    assert "attacks.noise_attack" in TICK_POINTS
    assert ("hecg", "backend_name") in ATTRIBUTES
    assert ("hecg", "HAVE_COMPILED") in ATTRIBUTES
    callees = {callee for _, _, callee, _, _ in CALLS}
    assert {"pipeline.run_pipeline", "hecg.SegmentSource.from_csv", "cli.main"} <= callees
    assert len(RUN_CLI_ARGVS) >= 5


@pytest.mark.parametrize("qualname", sorted(set(TRACED + TICK_POINTS)))
def test_traced_and_ticked_names_resolve(qualname):
    owner, attr = tracer._resolve(qualname)
    assert owner is not None and attr in vars(owner), f"{qualname} does not resolve"


@pytest.mark.parametrize("module, attr", ATTRIBUTES)
def test_attributes_exist(module, attr):
    assert hasattr(MODULES[module], attr), f"{module}.{attr} is missing"


@pytest.mark.parametrize(
    "source, line, callee, positional, keywords", CALLS, ids=[f"{c[0]}:{c[2]}" for c in CALLS]
)
def test_calls_bind_to_their_signature(source, line, callee, positional, keywords):
    root, *attrs = callee.split(".")
    fn = MODULES[root]
    for attr in attrs:
        fn = getattr(fn, attr)
    try:
        inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))
    except TypeError as exc:
        pytest.fail(f"perfbench/{source}:{line}: {callee}: {exc}")


@pytest.mark.parametrize("line, argv", RUN_CLI_ARGVS, ids=[a.elts[0].value for _, a in RUN_CLI_ARGVS])
def test_run_cli_argv_parses(line, argv):
    # an element that is not a literal string is some value of perfbench's
    words = [e.value if isinstance(e, ast.Constant) else "1" for e in argv.elts]
    try:
        hecg.cli.build_parser().parse_args(words)
    except SystemExit:
        pytest.fail(f"perfbench/workloads.py:{line}: hecg {' '.join(words)} does not parse")
