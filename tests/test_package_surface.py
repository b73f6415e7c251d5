"""Every top-level function and class in the package has a caller.

A name counts as used when another top-level statement of the package
refers to it (as a name or an attribute), or when it appears as a word in
the demos, the benchmark harness or the README.  Test scaffolding belongs
in ``tests/helpers.py``, not in ``src/``.
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stationcast"


def _used_names(node) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _definitions_and_uses():
    """(module, name) of each top-level def/class, and for each statement of
    the package the names it uses, tagged by the (module, name) it defines."""
    defs, uses = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                own = (path.stem, stmt.name)
                defs.append(own)
            uses.append((own, _used_names(stmt)))
    return defs, uses


def test_every_top_level_name_has_a_caller():
    defs, uses = _definitions_and_uses()
    outside = "\n".join(p.read_text(encoding="utf-8") for p in
                        [*sorted((ROOT / "demos").glob("*.py")),
                         *sorted((ROOT / "perfbench").glob("*.py")),
                         ROOT / "README.md"])
    unused = []
    for module, name in defs:
        if any(name in names for own, names in uses
               if own != (module, name)):
            continue
        if re.search(rf"\b{re.escape(name)}\b", outside):
            continue
        unused.append(f"{module}.{name}")
    assert not unused, f"nothing outside tests uses {unused}"


def test_the_scan_sees_definitions_and_calls():
    defs, uses = _definitions_and_uses()
    assert ("tape", "conv1d") in defs and ("data", "make_windows") in defs
    callers = [own for own, names in uses if "conv1d" in names]
    assert ("tape", "conv1d") not in callers  # its body never names it
    assert ("model", "temporal_multibranch") in callers


def test_every_name_the_benchmark_traces_exists(monkeypatch):
    """perfbench/tracer.py wraps package functions it looks up by name, so
    deleting or renaming one breaks the benchmark run; this test makes that
    a Tier-1 failure.  The tracer is read, never written: no bytecode."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracer)
    traced = [*tracer.LAYERS, *tracer.PROBES]
    assert ("cli", "main") in traced and ("model", "train") in traced
    missing = [f"{mod}.{attr}" for mod, attr in traced if not hasattr(
        importlib.import_module(f"stationcast.{mod}"), attr)]
    assert not missing, f"perfbench/tracer.py traces missing {missing}"
