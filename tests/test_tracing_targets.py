"""The benchmark's traced run wraps functions by (module, attribute) name, so
renaming one of them must fail here rather than when `perfbench/run.py
--trace 1` installs its spans."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


@pytest.mark.parametrize("span, home, attr", [
    (span, home, attr) for span, home, attr, _ in tracing.TRACED_FUNCTIONS
])
def test_traced_function_resolves(span, home, attr):
    assert callable(getattr(importlib.import_module(home), attr)), span
