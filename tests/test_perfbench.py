"""The benchmark's traced split still finds every layer it names."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_name_resolves(monkeypatch):
    # `Tracer.installed()` skips a target whose attribute is gone, so a
    # refactor could drop a layer from `--trace 1` with no error
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    names = {name for _, _, name, _ in spans.TARGETS}
    resolved = {
        name
        for module, attr, name, _ in spans.TARGETS
        if hasattr(importlib.import_module(module), attr)
    }
    assert resolved == names
