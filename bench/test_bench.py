"""Tests for the benchmark itself: ``python3 -m pytest bench -q``."""

import json
import re
import sys
from pathlib import Path

import pytest

import corpus
import reference
import run

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_same_seed_same_inputs(name):
    build = corpus.BUILDERS[name]
    assert json.dumps(build(7)).encode() == json.dumps(build(7)).encode()
    assert json.dumps(build(7)) != json.dumps(build(8))


def _cost_class(req):
    """What sets a request's cost: its route, and (d, n) on the pipeline."""
    spec = req.get("spec", req)
    if "terms" in spec and spec.get("route", "pipeline") == "pipeline":
        return f"pipeline d={spec['terms'][0][0]} n={spec['n']}"
    return spec.get("route") or spec["cmd"]


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_blocks_have_fixed_composition(name):
    shapes = {json.dumps(sorted(map(_cost_class, block))) for block in corpus.BUILDERS[name](3)}
    assert len(shapes) == 1


def test_readme_instance():
    value, _ = reference.pipeline([(3, 2), (1, 5)], 1, 2)
    assert value == 10751976


def test_reference_matches_library_on_a_sample():
    from ordramsey import classify, enum_product_types, parse, pipeline_bound

    for block in corpus.pipeline_sweep(11, blocks=1):
        for req in block:
            if req["terms"][0][0] > 4:
                continue
            call = classify if req["call"] == "classify" else pipeline_bound
            out = json.loads(json.dumps(call(parse(req["text"]), req["n"]).as_json()))
            assert reference.check_classify_json(dict(req, route="pipeline"), out), req["text"]
    for parts in ((1, 1), (2,), (1, 1, 1), (2, 1), (1, 2), (2, 2), (3, 1)):
        assert reference.product_palette(parts) == len(enum_product_types(parts))


def test_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(names) == len(set(names))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    emitted = run.per_layer({"spans": {}, "counts": {}, "caches": {}}, 1, 1.0, 1.0)
    assert sorted(emitted) == sorted(m["name"] for m in spec["per_layer"])
    for m in spec["per_layer"]:
        assert emitted[m["name"]]["unit"] == m["unit"]
