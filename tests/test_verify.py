"""Report plumbing, the frozen reference fixtures, and the finite oracle."""

from __future__ import annotations

import pytest

from ordramsey.degrees import ResourceCapError, count_product
from ordramsey.verify import (
    MISMATCH,
    OK,
    Report,
    check_finite_convention,
    check_product_bound,
    check_reference_instances,
    check_type_counts,
    finite_degree_oracle,
)


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


class TestCheckSuites:
    def test_reference_instances_exact(self):
        report = check_reference_instances()
        assert report.ok
        assert len(report.entries) == 8

    def test_product_bound_double_route(self):
        report = check_product_bound()
        assert report.ok

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

    @pytest.mark.parametrize("family", ["additive", "strict", "product", "power", "mult"])
    def test_counts_come_from_the_closed_forms(self, monkeypatch, family):
        # a wrong closed form must show as a mismatch on every line it feeds
        monkeypatch.setattr(f"ordramsey.verify.count_{family}", lambda *args: -1)
        report = check_type_counts()
        names = {f"{family}-count"} | ({"product-count-all-ones"} if family == "product" else set())
        assert {e.name for e in report.mismatches} == names
        assert all(e.status == MISMATCH for e in report.entries if e.name in names)


class TestRunAll:
    def test_default_sweep_summary(self, verify_sweep):
        report = verify_sweep.report
        assert report.ok
        assert len(report.entries) == 200
        assert sum(e.status == OK for e in report.entries) == 200
        assert report.lines()[-1] == "200 checks: 200 ok, 0 flagged, 0 mismatched"
