"""The benchmark under bench/ imports library names; a deletion that would
break it fails here, in the tests the library is checked with."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bandsmp_imports():
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bandsmp":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_bench_import_from_bandsmp_resolves():
    found = list(bandsmp_imports())
    assert any(fname == "workloads.py" for fname, _, _ in found)
    missing = [f"{fname}: from {module} import {name}"
               for fname, module, name in found if not resolves(module, name)]
    assert missing == []
