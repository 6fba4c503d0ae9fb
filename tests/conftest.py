"""Fixtures shared by several test modules."""

from __future__ import annotations

import contextlib
import io
from types import SimpleNamespace

import pytest

from ordramsey import cli
from ordramsey.verify import run_all


@pytest.fixture(scope="session")
def verify_sweep():
    """The fixed ``verify`` sweep, run once per session: the report of
    ``run_all`` and what ``cli.main(["verify"])`` printed and returned for it."""
    report = run_all()
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run_all", lambda: report)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify"])
    return SimpleNamespace(report=report, code=code, stdout=out.getvalue(), stderr=err.getvalue())
