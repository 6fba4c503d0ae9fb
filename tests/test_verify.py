"""Report plumbing, the frozen reference fixtures, and the finite oracle."""

from __future__ import annotations

import pytest

from ordramsey.degrees import ResourceCapError
from ordramsey.verify import (
    FLAGGED,
    MISMATCH,
    OK,
    Report,
    check_finite_convention,
    check_product_bound,
    check_reference_instances,
    check_roundtrips,
    check_type_counts,
    finite_degree_oracle,
    run_all,
)


class TestReport:
    def test_status_assignment(self):
        r = Report()
        r.add("a", {}, 1, 1)
        r.add("b", {}, 1, 2)
        r.add("c", {}, 1, 2, flagged=True)
        assert [e.status for e in r.entries] == [OK, MISMATCH, FLAGGED]
        assert not r.ok
        assert len(r.flagged) == 1

    def test_flagged_alone_keeps_ok(self):
        r = Report()
        r.add("only", {"x": 1}, 3, 5, flagged=True)
        assert r.ok

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
    @pytest.mark.parametrize(
        "c,n,k,value", [(4, 2, 2, 2), (5, 2, 3, 3), (3, 3, 5, 1), (4, 1, 3, 3)]
    )
    def test_frozen_values(self, c, n, k, value):
        assert finite_degree_oracle(c, n, k) == value

    def test_caps(self):
        with pytest.raises(ResourceCapError):
            finite_degree_oracle(7, 2, 2)
        with pytest.raises(ResourceCapError):
            finite_degree_oracle(4, 4, 2)
        with pytest.raises(ResourceCapError):
            finite_degree_oracle(5, 2, 10)  # 10^10 colorings

    def test_convention_suite_green(self):
        report = check_finite_convention()
        assert report.ok
        assert not report.flagged


class TestCheckSuites:
    def test_reference_instances_exact(self):
        report = check_reference_instances()
        assert report.ok and not report.flagged
        assert len(report.entries) == 8

    def test_product_bound_double_route(self):
        report = check_product_bound()
        assert report.ok and not report.flagged

    def test_roundtrips_small(self):
        report = check_roundtrips()
        assert report.ok
        by_name = {e.name: e for e in report.entries if "roundtrip" in e.name}
        assert by_name["mult-roundtrip"].params["checked"] > 0
        assert by_name["power-roundtrip"].actual == 0

    def test_type_counts_flags_are_the_known_ones(self):
        report = check_type_counts()
        assert report.ok
        flagged = {
            e.params["parts"]: (e.actual, e.expected) for e in report.flagged
        }
        assert flagged == {
            (2,): (1, 3),
            (2, 1): (5, 13),
            (3,): (1, 13),
            (2, 2): (13, 75),
        }


class TestRunAll:
    def test_default_sweep_summary(self):
        report = run_all()
        assert report.ok
        assert len(report.entries) == 168
        assert len(report.flagged) == 4
        assert {e.name for e in report.flagged} == {"product-count"}
        assert sum(e.status == OK for e in report.entries) == 164
