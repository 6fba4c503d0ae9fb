"""The benchmark tracer still finds every binding it wraps.

``bench/tracer.py`` replaces functions at the names the package modules
call them by; a renamed or removed binding would otherwise surface only
in a traced benchmark run.  The check runs in a fresh interpreter,
because installing the tracer rebinds the package's functions.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json
from tracer import CACHES, Tracer

tracer = Tracer().install()
import ordramsey.cli
import ordramsey.verify

calls = lambda: {name: span["calls"] for name, span in tracer.summary()["spans"].items()}
# one witness report per family, before anything else runs
witness_argvs = (
    ["witness", "additive", "--n", "1", "--m", "2", "--sizes", "1"],
    ["witness", "strict", "--n", "1", "--m", "2", "--sizes", "1"],
    ["witness", "product", "--parts", "2,1", "--sizes", "3"],
)
before = calls()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [ordramsey.cli.main(argv) for argv in witness_argvs]
witness_spans = sorted(name for name, n in calls().items() if n > before.get(name, 0))

argvs = (
    ["classify", "w^2 + 1", "--n", "2"],
    ["bound", "w^2", "--n", "2"],
    ["types", "strict", "--n", "2", "--m", "2"],
    ["types", "product", "--parts", "2,1", "--count-only"],
    ["verify"],
)
with contextlib.redirect_stdout(io.StringIO()):
    codes += [ordramsey.cli.main(argv) for argv in argvs]
# the pipeline's power rule makes one table and calls no bound_pow
ordramsey.degrees.bound_pow(2, 2, (1,) * 5)
finite_ok = ordramsey.verify.check_finite_convention().ok
before = calls()
reference_ok = ordramsey.verify.check_reference_instances().ok
reference_spans = sorted(name for name, n in calls().items() if n > before.get(name, 0))
summary = tracer.summary()
print(json.dumps({
    "codes": codes,
    "finite_ok": finite_ok,
    "reference_ok": reference_ok,
    "reference_spans": reference_spans,
    "witness_spans": witness_spans,
    "spans": sorted(summary["spans"]),
    "counts": {name: summary["counts"][name] for name in ("verify.checks", "verify.mismatched")},
    "caches": sorted(summary["caches"]),
    "cache_names": sorted(name for name, _, _ in CACHES),
}))
"""


def test_tracer_installs_and_cli_calls_through_wrappers():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0] * 8
    assert got["finite_ok"] and got["reference_ok"]
    assert got["caches"] == got["cache_names"]
    # verify's reference instances extract and reconstruct through the
    # names verify binds, so their per-layer metrics are not left at 0
    assert got["reference_spans"] == ["typecalc.mult_type", "typecalc.reconstruct"]
    # the witness reports list their palettes, type their objects and
    # enumerate their instances through the names witness binds, and
    # realize their colors through the name cli binds; product's palette
    # count reaches product_bound and rank_counts through degrees, and
    # additive's reaches bound_add through the omega-plus-m rule
    assert got["witness_spans"] == [
        "chains.enumerate_embeddings",
        "chains.order_points",
        "degrees.bound_add",
        "degrees.product_bound",
        "typecalc.enum_additive",
        "typecalc.enum_product_types",
        "typecalc.enum_strict",
        "typecalc.mult_type",
        "typecalc.rank_counts",
        "witness.realized_colors",
    ]
    # the tracer counts verify's checks from the Report that run_all returns
    assert got["counts"] == {"verify.checks": 220, "verify.mismatched": 0}
    # the CLI's handlers and family tables reach each wrapped name, and
    # bound_pow and the finite-chain check are reached at their module
    # bindings; types product --count-only reaches product_bound and
    # rank_counts only through the names degrees binds; run_all reaches
    # each suite through the names verify binds
    for span in (
        "ordinal.parse",
        "degrees.classify",
        "degrees.pipeline_bound",
        "degrees.bound_add",
        "degrees.bound_pow",
        "degrees.product_bound",
        "typecalc.rank_counts",
        "typecalc.enum_strict",
        "witness.realized_colors",
        "verify.run_all",
        "verify.type_counts",
        "verify.product_bound",
        "verify.roundtrips",
        "verify.finite_convention",
    ):
        assert span in got["spans"]
