"""The benchmark tracer (perfbench/tracing.py) wraps functions of this
package by module and attribute name; a refactor under src/ must keep every
name it lists, or traced benchmark runs break."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_resolves(monkeypatch):
    # read perfbench/ only: no bytecode cache is written next to tracing.py
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = []
    for module, qualname, _span in tracing.TARGETS:
        owner = importlib.import_module(module)
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{qualname}")
    assert not missing, f"trace targets gone: {missing}"
