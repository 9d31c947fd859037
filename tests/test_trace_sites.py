"""The benchmark's span tracer (perfbench/tracing.py) wraps mrbounds entry
points by module attribute.  Each traced name must exist, so a rename fails
here rather than only in a traced benchmark run.  The tracer's source is
only read and executed in a fresh namespace: nothing is wrapped, and nothing
is written under perfbench/."""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_exist():
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    sites = tracing._CALL_SITES + tracing._ITER_SITES
    assert sites
    for owner, attr, span in sites:
        name = getattr(owner, "__name__", repr(owner))
        assert callable(getattr(owner, attr, None)), f"{name}.{attr} (span {span}) is gone"
