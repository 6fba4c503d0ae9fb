"""Every narrative script under demos/ runs to completion and prints
what ``tests/data/golden.json`` recorded, and the package's top level
binds exactly what those scripts and the benchmark import from it."""

from __future__ import annotations

import ast
import types

import pytest

import ordramsey
from test_golden import DEMOS, ROOT, load, run_demo


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = run_demo(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == load()["demos"][script.name]


def imported_from_package(script):
    """The names ``script`` imports with ``from ordramsey import ...``."""
    return {
        alias.name
        for node in ast.walk(ast.parse(script.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "ordramsey" and not node.level
        for alias in node.names
    }


def test_top_level_binds_what_demos_and_bench_import():
    wanted = {"OrdinalSyntaxError", "ResourceCapError"}
    for script in DEMOS + [ROOT / "bench" / "test_bench.py"]:
        wanted |= imported_from_package(script)
    bound = {
        name
        for name, value in vars(ordramsey).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == wanted
