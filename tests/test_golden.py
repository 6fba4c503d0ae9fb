"""Golden output of the command line, byte for byte.

``tests/data/golden.json`` records stdout, stderr and the exit code of
``classify`` and ``bound`` (text and ``--json``) over every classifier
route; of small ``witness`` reports, one refusal per ``witness`` and
``types`` cap, small ``types`` and ``exact`` listings of every family,
every family's ``types --count-only`` and an empty listing; the full
``verify`` output; and the stdout of every script under ``demos/``.
Refactors must reproduce it exactly.  Regenerate it only for a
deliberate output change, with ``PYTHONPATH=src python3 tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from ordramsey.cli import main
from ordramsey.degrees import (
    RULES, DegreeResult, TraceStep, classify, pipeline_bound, replay_trace
)
from ordramsey.ordinal import parse

FIXTURE = Path(__file__).parent / "data" / "golden.json"
ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

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

# one small report, listing or value per family, each as text and --json
FAMILIES = (
    ("witness", "additive", "--n", "2", "--m", "3", "--sizes", "0,1,2"),
    ("witness", "strict", "--n", "2", "--m", "3", "--sizes", "1,2"),
    ("witness", "product", "--parts", "2,1", "--sizes", "2,3,6"),
    ("types", "additive", "--n", "2", "--m", "2"),
    ("types", "mult", "--n", "2", "--m", "2"),
    ("types", "strict", "--n", "2", "--m", "2"),
    ("types", "power", "--n", "3", "--m", "2"),
    ("types", "product", "--parts", "2,1"),
    ("exact", "omega", "--n", "3"),
    ("exact", "omega+m", "--n", "2", "--m", "3"),
    ("exact", "omega*m", "--n", "3", "--m", "2"),
    ("exact", "Z", "--n", "3"),
    ("exact", "signed", "--n", "2", "--signs", "+-"),
    # the bare count of every type family, and an empty listing
    ("types", "additive", "--n", "2", "--m", "2", "--count-only"),
    ("types", "mult", "--n", "2", "--m", "2", "--count-only"),
    ("types", "strict", "--n", "2", "--m", "2", "--count-only"),
    ("types", "power", "--n", "3", "--m", "2", "--count-only"),
    ("types", "product", "--parts", "2,1", "--count-only"),
    ("types", "power", "--n", "2", "--m", "0"),
)

# a refusal by each witness cap (listed objects, instance points, palette
# level counts), and a product report without its --parts; a refusal by
# each types cap (listed types, listed level counts, tree levels, listed
# block indices); an exact answer past its bits cap, and an exact request
# out of scope
REFUSED = (
    ("witness", "strict", "--n", "6", "--m", "6", "--sizes", "12"),
    ("witness", "additive", "--n", "0", "--m", "0", "--sizes", "10000000"),
    ("witness", "strict", "--n", "1", "--m", "5000", "--sizes", "1"),
    ("witness", "product", "--sizes", "3"),
    ("types", "strict", "--n", "12", "--m", "6"),
    ("types", "mult", "--n", "2", "--m", "120"),
    ("types", "power", "--n", "1", "--m", "101"),
    ("types", "product", "--parts", "1000,1"),
    ("exact", "omega*m", "--n", "5000", "--m", "9"),
    ("exact", "omega", "--n", "-1"),
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
    for argv in FAMILIES:
        for extra in ((), ("--json",)):
            yield [*argv, *extra]
    for argv in REFUSED:
        yield list(argv)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_demo(script):
    """The finished process of one demo script, run on this tree's package."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def record():
    return {
        "cli": [run(argv) for argv in cases()],
        "verify": run(["verify"]),
        "demos": {script.name: run_demo(script).stdout for script in DEMOS},
    }


def load():
    return json.loads(FIXTURE.read_text())


def degree_entries():
    """The recorded ``classify`` and ``bound`` runs, which carry traces."""
    return [g for g in load()["cli"] if g["argv"][0] in ("classify", "bound")]


def test_cli_output_matches_fixture():
    golden = load()["cli"]
    assert [g["argv"] for g in golden] == list(cases())
    changed = [g["argv"] for g in golden if run(g["argv"]) != g]
    assert not changed


def test_verify_output_matches_fixture(verify_sweep):
    got = {"code": verify_sweep.code, "stdout": verify_sweep.stdout, "stderr": verify_sweep.stderr}
    assert {"argv": ["verify"], **got} == load()["verify"]


def test_traces_use_every_rule():
    # a rule that no derivation emits has no place in RULES
    used = {
        step["rule"]
        for g in degree_entries()
        if g["code"] == 0 and "--json" in g["argv"]
        for step in json.loads(g["stdout"])["result"]["trace"]
    }
    assert used == set(RULES)


def test_every_trace_replays():
    replayed = 0
    for g in degree_entries():
        command, expr, _, n = g["argv"][:4]
        if g["code"] != 0:
            continue
        entry = classify if command == "classify" else pipeline_bound
        result = entry(parse(expr), int(n), cap=5)
        assert replay_trace(result) == result.value
        replayed += 1
    assert replayed > 100


def stored_result(result):
    """The ``DegreeResult`` a stored ``result`` object was printed from: JSON
    holds a table step's tuple as a list."""
    trace = []
    for step in result["trace"]:
        assert step["anchor"] == RULES[step["rule"]].statement
        value = step["value"]
        value = tuple(value) if isinstance(value, list) else value
        trace.append(TraceStep(step["rule"], step["inputs"], value))
    return DegreeResult(result["kind"], result.get("value"), tuple(trace))


def test_every_stored_trace_replays():
    # the traces the command line printed, not recomputed ones
    replayed = 0
    for g in degree_entries():
        if g["code"] != 0 or "--json" not in g["argv"]:
            continue
        stored = json.loads(g["stdout"])["result"]
        result = stored_result(stored)
        assert result.as_json() == stored
        assert replay_trace(result) == stored.get("value")
        replayed += 1
    assert replayed == 124


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(), indent=1) + "\n")
