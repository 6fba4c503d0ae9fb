"""Golden output of the command line, byte for byte.

``tests/data/golden.json`` records stdout, stderr and the exit code of
``classify`` and ``bound`` (text and ``--json``) over every classifier
route, plus the full ``verify`` output.  Refactors must reproduce it
exactly.  Regenerate it only for a deliberate output change, with
``PYTHONPATH=src python3 tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from ordramsey.cli import main
from ordramsey.degrees import classify, pipeline_bound, replay_trace
from ordramsey.ordinal import parse

FIXTURE = Path(__file__).parent / "data" / "golden.json"

ROUTES = (
    # finite chains and the exact families
    "0", "1", "4", "w", "w + 1", "w + 3", "w*4", "w*2 + 3", "w*5 + 1",
    # the pipeline below w^w, d = 2..4, without and with a finite tail
    "w^2", "w^3*2 + w*5", "w^4 + w^2*3",
    "w^2*2 + 3", "w^3*2 + w*5 + 1", "w^4*2 + w + 2",
    # at and beyond w^w
    "w^w", "w^(w + 1)*2 + w^3 + 4", "w^(w^w) + 1",
    # malformed input
    "", "w^", "w +", "x", "w*0", "w^(w", "1 + ", "w^2*",
)


def cases():
    for command in ("classify", "bound"):
        for expr in ROUTES:
            for n in (0, 1, 2, 3):
                for extra in ((), ("--json",)):
                    yield [command, expr, "--n", str(n), *extra]
        for expr in ("w^2", "w*2 + 3"):
            yield [command, expr, "--n", "5", "--json"]
        yield [command, "w^2", "--n", "6"]
        yield [command, "w^3", "--n", "3", "--cap", "2"]
        yield [command, "w^2", "--n", "-1"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record():
    return {"cli": [run(argv) for argv in cases()], "verify": run(["verify"])}


def load():
    return json.loads(FIXTURE.read_text())


def test_cli_output_matches_fixture():
    golden = load()["cli"]
    assert [g["argv"] for g in golden] == list(cases())
    changed = [g["argv"] for g in golden if run(g["argv"]) != g]
    assert not changed


def test_verify_output_matches_fixture(verify_sweep):
    got = {"code": verify_sweep.code, "stdout": verify_sweep.stdout, "stderr": verify_sweep.stderr}
    assert {"argv": ["verify"], **got} == load()["verify"]


def test_every_trace_replays():
    replayed = 0
    for g in load()["cli"]:
        command, expr, _, n = g["argv"][:4]
        if g["code"] != 0:
            continue
        entry = classify if command == "classify" else pipeline_bound
        result = entry(parse(expr), int(n), cap=5)
        assert replay_trace(result) == result.value
        replayed += 1
    assert replayed > 100


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(), indent=1) + "\n")
