"""Every Python file of the project parses as Python 3.10, the floor that
``requires-python`` in ``pyproject.toml`` declares.

This checks syntax only: a 3.11 grammar feature such as ``except*`` is
refused, but a call to a standard-library name that 3.10 lacks is not.
"""

from __future__ import annotations

import ast

import pytest

from test_golden import ROOT

SOURCES = sorted(
    path for folder in ("src", "tests", "bench", "demos") for path in (ROOT / folder).rglob("*.py")
)


def test_every_folder_has_sources():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {
        "src",
        "tests",
        "bench",
        "demos",
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
