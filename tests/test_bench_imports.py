"""The benchmark under bench/ and the scripts under demos/ import library
names; a deletion that would break them fails here, in the tests the
library is checked with."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bandsmp_imports(directory: str):
    for path in sorted((ROOT / directory).glob("*.py")):
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


def unresolved(directory: str, main_file: str) -> list[str]:
    found = list(bandsmp_imports(directory))
    assert any(fname == main_file for fname, _, _ in found)
    return [f"{directory}/{fname}: from {module} import {name}"
            for fname, module, name in found if not resolves(module, name)]


def test_every_bench_import_from_bandsmp_resolves():
    assert unresolved("bench", "workloads.py") == []


def test_every_demo_import_from_bandsmp_resolves():
    assert unresolved("demos", "sat_gadget.py") == []
