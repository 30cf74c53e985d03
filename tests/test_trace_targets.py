"""The benchmark (perfbench/) wraps functions of this package by module and
attribute name and imports others directly; a refactor under src/ must keep
every name it lists or imports, or benchmark runs break."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_every_benchmark_import_resolves():
    # parse the sources only: nothing under perfbench/ is run or cached
    wanted = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "ssm_resolve":
                wanted += [(path.name, node.module, a.name)
                           for a in node.names]
            elif isinstance(node, ast.Import):
                wanted += [(path.name, a.name, None) for a in node.names
                           if a.name.split(".")[0] == "ssm_resolve"]
    assert any(name for _, _, name in wanted)
    missing = []
    for source, module, name in wanted:
        try:
            owner = importlib.import_module(module)
            if name is not None and not hasattr(owner, name):
                importlib.import_module(f"{module}.{name}")
        except ImportError:
            missing.append(f"{source}: {module} {name or ''}".rstrip())
    assert not missing, f"benchmark imports gone: {missing}"
