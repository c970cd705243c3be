"""The benchmark's tracer wraps functions by name and skips a name the package
no longer has without a word; this catches a rename before a traced run does.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_is_a_package_callable():
    traced = _traced()
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"tbscatter.{module}"), name, None))
    ]
    assert sum(len(names) for names in traced.values()) > 0
    assert missing == []
