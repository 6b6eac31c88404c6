"""The benchmark's tracer (perfbench/tracing.py) wraps pdbundle functions by
name, and `Tracer.install` raises when one is missing. Deleting a traced
function must fail here rather than break traced benchmark runs."""
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_targets_are_callables():
    # executed from source so that nothing is written under perfbench/
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         namespace)
    targets = namespace["TARGETS"]
    missing = [f"{module}.{name}" for module, name in targets
               if not callable(getattr(importlib.import_module(f"pdbundle.{module}"),
                                       name, None))]
    assert targets and missing == []
