"""Every function the benchmark's tracer wraps still exists under its name."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_hook_target_exists(monkeypatch):
    # spans.py imports only the standard library, so it loads on its own;
    # its dataclasses need the module registered while it executes.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    with tracer.installed():
        assert tracer.missing == []
