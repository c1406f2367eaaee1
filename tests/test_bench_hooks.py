"""The benchmark's trace hooks name functions that exist in the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    hooks = [(mod, fn) for mod, fn in spans.SPANS]
    hooks += [(mod, fn) for mod, fn, _ in spans.COUNTED]
    missing = [f"{mod}.{fn}" for mod, fn in hooks
               if not callable(getattr(
                   importlib.import_module(f"gamow_lab.{mod}"), fn, None))]
    assert hooks and missing == []
