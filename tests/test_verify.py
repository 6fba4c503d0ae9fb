"""Report plumbing, the frozen reference fixtures, and the second routes
each check line runs."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

from ordramsey import cli, degrees, verify
from ordramsey.chains import Power
from ordramsey.degrees import RULES, Rule, count_product
from ordramsey.verify import (
    MISMATCH,
    OK,
    Report,
    check_finite_convention,
    check_product_bound,
    check_reference_instances,
    check_type_counts,
)


# a distinct wrong count per closed form
SENTINELS = {"additive": -1, "strict": -2, "product": -3, "power": -4, "mult": -5}


@pytest.fixture(scope="module")
def sentinel_counts():
    """check_type_counts, run once with each count_* returning its family's
    sentinel."""
    with pytest.MonkeyPatch.context() as mp:
        for family, sentinel in SENTINELS.items():
            mp.setattr(f"ordramsey.verify.count_{family}", lambda *args, s=sentinel: s)
        return check_type_counts()


class TestReport:
    def test_status_assignment(self):
        r = Report()
        r.add("a", {}, 1, 1)
        r.add("b", {}, 1, 2)
        assert [e.status for e in r.entries] == [OK, MISMATCH]
        assert not r.ok

    def test_lines(self):
        r = Report()
        r.add("count", {"n": 2}, 4, 4)
        r.add("count", {"n": 3}, 9, 8)
        lines = r.lines()
        assert lines[0] == "[ok] count n=2: 4"
        assert lines[1] == "[mismatch] count n=3: enumerated 8, formula 9"
        assert lines[-1] == "2 checks: 1 ok, 0 flagged, 1 mismatched"

    def test_extend_merges(self):
        a, b = Report(), Report()
        a.add("x", {}, 1, 1)
        b.add("y", {}, 2, 2)
        a.extend(b)
        assert [e.name for e in a.entries] == ["x", "y"]


class TestFiniteOracle:
    def test_convention_suite_green(self):
        # classify's value for a finite chain against its listed subchains
        report = check_finite_convention()
        assert report.ok
        assert [(e.name, e.params["c"], e.params["n"], e.actual) for e in report.entries] == [
            ("finite-chain", c, n, value)
            for c, row in enumerate(((1,), (2, 1), (3, 3, 1), (4, 6, 4), (5, 10, 10), (6, 15, 20)), 1)
            for n, value in enumerate(row, 1)
        ]


class TestCheckSuites:
    def test_reference_instances_exact(self):
        report = check_reference_instances()
        assert report.ok
        assert len(report.entries) == 8

    def test_product_bound_double_route(self):
        report = check_product_bound()
        assert report.ok

    def test_product_bound_mismatch_names_the_formula(self, monkeypatch):
        # the rule's value is the formula, the literal sum the enumeration
        right = verify.product_bound
        monkeypatch.setattr(verify, "product_bound", lambda parts, table: right(parts, table) + 1000)
        lines = [e.line() for e in check_product_bound().entries if e.name == "product-bound"]
        assert lines[0] == "[mismatch] product-bound parts=(1, 1) table=ones: enumerated 3, formula 1003"

    # the exact and count helpers read the rules they are base cases of,
    # so a rule's mutant fails the lines of every helper that reads it
    @pytest.mark.parametrize(
        "rule,names",
        [
            ("bound-add", ("tail-bound", "additive-count")),
            ("finite-chain-convention", ("finite-chain",)),
            ("omega-plus-m", ("additive-count",)),
            ("omega-times-m", ("strict-count",)),
            ("bound-pow", ("power-bound",)),
            ("omega-times-m-table", ("strict-count", "power-count")),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_a_wrong_rule_fails_only_its_lines(self, monkeypatch, verify_sweep, rule, names):
        statement, compute = RULES[rule]

        def off_by_one(inputs, table):
            value = compute(inputs, table)
            return tuple(v + 1 for v in value) if isinstance(value, tuple) else value + 1

        monkeypatch.setitem(RULES, rule, Rule(statement, off_by_one))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["verify"]) == cli.EXIT_FAILED
        mismatched = [line for line in out.getvalue().splitlines() if line.startswith("[mismatch]")]
        fed = [e.name for e in verify_sweep.report.entries if e.name in names]
        assert len(mismatched) == len(fed) and all(name in fed for name in names)
        assert all(line.split()[1] in names for line in mismatched)

    def test_roundtrips_small(self, verify_sweep):
        report = verify_sweep.report
        assert report.ok
        by_name = {e.name: e for e in report.entries if "roundtrip" in e.name}
        assert by_name["mult-roundtrip"].params["checked"] > 0
        assert by_name["power-roundtrip"].actual == 0

    def test_product_counts_are_strict(self, verify_sweep):
        report = verify_sweep.report
        assert report.ok
        counts = {
            e.params["parts"]: (e.status, e.actual, e.expected)
            for e in report.entries
            if e.name == "product-count"
        }
        assert counts == {
            (2,): (OK, 1, 1),
            (2, 1): (OK, 5, 5),
            (3,): (OK, 1, 1),
            (2, 2): (OK, 13, 13),
        }
        assert all(count_product(parts) == actual for parts, (_, actual, _) in counts.items())

    def test_every_type_count_has_lines(self, verify_sweep):
        report = verify_sweep.report
        names = [e.name for e in report.entries if e.name.endswith("-count")]
        assert {name: names.count(name) for name in set(names)} == {
            "additive-count": 36,
            "strict-count": 25,
            "product-count": 4,
            "power-count": 16,
            "mult-count": 16,
        }

    @pytest.mark.parametrize("family", SENTINELS)
    def test_counts_come_from_the_closed_forms(self, sentinel_counts, family):
        # a wrong closed form must show as a mismatch on every line it feeds,
        # and on no line another closed form feeds
        report, sentinel = sentinel_counts, SENTINELS[family]
        names = {f"{family}-count"} | ({"product-count-all-ones"} if family == "product" else set())
        assert {e.name for e in report.entries if e.expected == sentinel} == names
        assert all(
            (e.expected, e.status) == (sentinel, MISMATCH) for e in report.entries if e.name in names
        )
        assert {e.name for e in report.mismatches} == {
            f"{f}-count" for f in SENTINELS
        } | {"product-count-all-ones"}


@pytest.mark.parametrize(
    "helper,mismatched",
    [
        ("exact_omega_plus_m", {"additive-count": 19}),
        ("exact_omega_times_m", {"strict-count": 18}),
        ("bound_mul", {"mult-count": 4}),
        ("_power_table", {"power-bound": 24}),
        ("_weights", {"mult-count": 6, "power-bound": 30}),
        ("bound_add", {"additive-count": 19, "tail-bound": 13}),
    ],
)
def test_a_wrong_helper_fails_its_second_route(monkeypatch, helper, mismatched):
    """Each degrees helper that a closed form or bound rule computes
    through is caught by the lines that recompute it by enumeration.

    This covers the helpers; of the rules as the pipeline calls them, only
    a mutant of subsum still passes the sweep.
    """
    right = getattr(degrees, helper)

    def bumped(*args):
        # 1 more on an int above 3, or on every entry from index 2 of a sequence
        out = right(*args)
        if isinstance(out, int):
            return out + 1 if out > 3 else out
        return type(out)(v + 1 if i >= 2 else v for i, v in enumerate(out))

    monkeypatch.setattr(degrees, helper, bumped)
    names = [e.name for e in verify.run_all().mismatches]
    assert {name: names.count(name) for name in set(names)} == mismatched


def _mismatched():
    return {(e.name, tuple(e.params.values())) for e in verify.run_all().mismatches}


class TestSweepListings:
    """The enum-set lines read the round-trip sweep's types, and still
    check the listings against them."""

    def test_a_dropped_mult_type_fails_its_count_and_set(self, monkeypatch):
        right = verify.enum_mult
        monkeypatch.setattr(
            verify, "enum_mult", lambda n, m: right(n, m)[1:] if (n, m) == (2, 2) else right(n, m)
        )
        assert _mismatched() == {("mult-count", (2, 2)), ("mult-enum-set", (2, 2))}

    def test_a_dropped_power_type_fails_every_line_reading_it(self, monkeypatch):
        right = verify.enum_power
        monkeypatch.setattr(
            verify, "enum_power", lambda n, m: right(n, m)[1:] if (n, m) == (2, 2) else right(n, m)
        )
        assert _mismatched() == {
            ("power-count", (2, 2)),
            ("power-enum-set", (2, 2)),
            ("power-bound", (2, 2, "ones")),
            ("power-bound", (2, 2, "powers")),
        }

    def test_an_empty_scan_still_prints_its_line(self, monkeypatch):
        right, empty = verify.enumerate_embeddings, Power(range(2), 2)
        monkeypatch.setattr(
            verify,
            "enumerate_embeddings",
            lambda n, codomain: iter(()) if codomain == empty else right(n, codomain),
        )
        lines = verify.run_all().lines()
        assert [line for line in lines if line.startswith("[mismatch]")] == [
            "[mismatch] power-enum-set n=2 m=2: enumerated False, formula True"
        ]


class TestRunAll:
    def test_default_sweep_summary(self, verify_sweep):
        report = verify_sweep.report
        assert report.ok
        assert len(report.entries) == 220
        assert sum(e.status == OK for e in report.entries) == 220
        assert report.lines()[-1] == "220 checks: 220 ok, 0 flagged, 0 mismatched"

    def test_second_route_lines(self, verify_sweep):
        names = [e.name for e in verify_sweep.report.entries]
        counts = {name: names.count(name) for name in ("tail-bound", "finite-chain")}
        assert counts == {"tail-bound": 24, "finite-chain": 15}
        assert "finite-degree-oracle" not in names and "mult-enum-vs-scan" not in names

    def test_readme_quotes_the_sweep_size(self, verify_sweep):
        # the README states the sweep's size in prose and in its example
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        n = len(verify_sweep.report.entries)
        assert re.findall(r"The sweep is fixed at (\d+) checks", readme) == [str(n)]
        summaries = re.findall(r"^(\d+) checks: (\d+) ok, 0 flagged, 0 mismatched$", readme, re.M)
        assert summaries == [(str(n), str(n))]
