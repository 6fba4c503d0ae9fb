"""The immutable Record base: equality, hash, repr, copying, and import cost."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from ordramsey.chains import Embedding, Leveled, Power, Record, SumTail
from ordramsey.degrees import DegreeResult, TraceStep
from ordramsey.ordinal import parse
from ordramsey.typecalc import AdditiveType, MultiplicativeType

ROOT = Path(__file__).resolve().parents[1]

STEP = TraceStep("ramsey-omega", {"n": 2}, 1)

# one instance per record class, with the repr a frozen dataclass gives it;
# an Ordinal's repr keeps its canonical text instead
RECORDS = [
    (parse("w^(w + 1)*2 + w^3 + 5"), 'Ordinal("w^(w + 1)*2 + w^3 + 5")'),
    (SumTail((0, 1), 2), "SumTail(base=(0, 1), m=2)"),
    (Leveled(((0,), (1, 2))), "Leveled(levels=((0,), (1, 2)))"),
    (Power((0, 1), 2), "Power(base=(0, 1), m=2)"),
    (
        Embedding(Power((0, 1), 2), [(0, 1)]),
        "Embedding(codomain=Power(base=(0, 1), m=2), images=((0, 1),))",
    ),
    (AdditiveType(3, (2, 0)), "AdditiveType(m=3, tau=(0, 2))"),
    (
        MultiplicativeType((1, 1), ((1, 0),)),
        "MultiplicativeType(p=(1, 1), blocks=((0, 1),))",
    ),
    (STEP, "TraceStep(rule='ramsey-omega', inputs={'n': 2}, value=1)"),
    (
        DegreeResult("exact", 1, (STEP,)),
        "DegreeResult(kind='exact', value=1, trace=("
        "TraceStep(rule='ramsey-omega', inputs={'n': 2}, value=1),))",
    ),
]
IDS = [type(r).__name__ for r, _ in RECORDS]


def test_every_record_class_is_covered():
    assert {type(r) for r, _ in RECORDS} == set(Record.__subclasses__())


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_repr_matches_dataclass_format(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=IDS)
def test_fields_are_immutable(record):
    for name in record.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("value", [r for r, _ in RECORDS], ids=IDS)
@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_compare_equal(value, clone):
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value


def test_equality_needs_the_same_class():
    assert SumTail((0, 1), 2) != Power((0, 1), 2)
    assert SumTail([0, 1], 2) == SumTail((0, 1), 2)
    assert Power((0, 1), 2).__eq__(((0, 1), 2)) is NotImplemented


def test_hash_is_the_field_tuple_hash():
    assert hash(Power((0, 1), 2)) == hash(((0, 1), 2))
    assert hash(Leveled(((0,),))) == hash((((0,),),))
    assert hash(parse("w + 1")) == hash((parse("w + 1").terms,))


def test_trace_step_with_dict_inputs_stays_unhashable():
    with pytest.raises(TypeError):
        hash(STEP)


def test_import_leaves_out_heavy_stdlib_modules():
    # dataclasses pulls in the first five, and only JSON output needs json;
    # one stray import would cost every CLI call
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json")
    code = (
        "import ordramsey, ordramsey.cli, sys; "
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
