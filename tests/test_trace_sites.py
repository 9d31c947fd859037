"""The benchmark (perfbench/) reaches mrbounds by module attribute: its span
tracer (tracing.py) wraps entry points by name, and its workloads
(workloads.py) call through ``module.name``.  Each such name must exist, so a
rename fails here rather than only in a benchmark run.  The benchmark's
source is only read, parsed or executed in a fresh namespace: nothing is
wrapped or imported from perfbench/, and nothing is written under it."""

import ast
import types
from pathlib import Path

import mrbounds

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def test_traced_names_exist():
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    sites = tracing._CALL_SITES + tracing._ITER_SITES
    assert sites
    for owner, attr, span in sites:
        name = getattr(owner, "__name__", repr(owner))
        assert callable(getattr(owner, attr, None)), f"{name}.{attr} (span {span}) is gone"


def test_workload_names_exist():
    tree = ast.parse(WORKLOADS.read_text(), str(WORKLOADS))
    # the package modules workloads.py imports, by the name it binds them to
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "mrbounds":
            for alias in node.names:
                module = getattr(mrbounds, alias.name, None)
                if isinstance(module, types.ModuleType):
                    modules[alias.asname or alias.name] = module
    assert modules
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert used
    missing = [f"{name}.{attr}" for name, attr in sorted(used) if not hasattr(modules[name], attr)]
    assert not missing, f"workloads.py reaches names that are gone: {missing}"
