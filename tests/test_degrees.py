"""Exact formulas, bound rules, the classifier, and trace replay.

Frozen constants were derived by hand and confirmed against a second
route before being pinned here; the regression value for the deep
pipeline run guards the whole rule stack at once.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordramsey import degrees
from ordramsey.degrees import (
    EXACT,
    FINITE_UNBOUNDED,
    INFINITE,
    UPPER_BOUND,
    DegreeResult,
    ResourceCapError,
    TraceStep,
    _by_rank,
    bound_add,
    bound_mul,
    bound_pow,
    classify,
    exact_integers,
    exact_omega,
    exact_omega_plus_m,
    exact_omega_times_m,
    exact_signed,
    pipeline_bound,
    product_bound,
    replay_trace,
)
from ordramsey.ordinal import OMEGA, Ordinal, parse
from ordramsey.typecalc import binom, enum_mult, enum_power, out_degrees, rank_counts


class TestExactFamilies:
    @given(st.integers(min_value=0, max_value=30))
    def test_omega_is_one(self, n):
        assert exact_omega(n) == 1

    @pytest.mark.parametrize(
        "n,m,value",
        [(0, 4, 1), (1, 3, 4), (2, 3, 7), (3, 3, 8), (5, 3, 8), (2, 0, 1)],
    )
    def test_omega_plus_m(self, n, m, value):
        assert exact_omega_plus_m(n, m) == value

    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
    def test_omega_plus_m_saturates(self, n, m):
        if n >= m:
            assert exact_omega_plus_m(n, m) == 2**m

    def test_omega_plus_m_matches_full_sum(self):
        for n in range(9):
            for m in range(9):
                assert exact_omega_plus_m(n, m) == sum(binom(m, j) for j in range(n + 1))

    @pytest.mark.parametrize("n,m", [(0, 3), (2, 1), (2, 3), (4, 2)])
    def test_omega_times_m(self, n, m):
        assert exact_omega_times_m(n, m) == m**n

    def test_signed_depends_only_on_part_count(self):
        assert exact_signed(3, "+-") == exact_signed(3, "--") == 8
        assert exact_signed(2, ("-",)) == 1

    @given(st.integers(min_value=0, max_value=10))
    def test_integers_match_two_signed_parts(self, n):
        assert exact_integers(n) == exact_signed(n, "-+") == 2**n

    def test_rejections(self):
        with pytest.raises(ValueError):
            exact_omega(-1)
        with pytest.raises(ValueError):
            exact_omega_times_m(2, 0)
        with pytest.raises(ValueError):
            exact_signed(2, "+x")
        with pytest.raises(ValueError):
            exact_signed(2, "")


def literal_differences(top, count):
    """D^r count(0) for r <= top, each as the inclusion-exclusion sum
    sum_i (-1)^i C(r, i) count(r - i), written out literally."""
    return [
        sum((-1) ** i * math.comb(r, i) * count(r - i) for i in range(r + 1))
        for r in range(top + 1)
    ]


def by_rank_double_sum(table, top, count):
    """The inclusion-exclusion sum over ranks, written out literally."""
    return sum(t * diff for t, diff in zip(table, literal_differences(top, count)))


def random_table(rng, top):
    """A monotone table starting at 1, like every degree table."""
    table = [1]
    for _ in range(top):
        table.append(table[-1] + rng.randrange(5))
    return tuple(table)


class TestBoundRules:
    def test_add_frozen(self):
        # C(3,0)*4 + C(3,1)*2 + C(3,2)*1 = 13
        assert bound_add(2, 3, (1, 2, 4)) == 13

    def test_add_matches_full_sum(self):
        # the terms with j > m vanish, so m < n sums fewer of them
        table = (1, 3, 4, 9, 10, 25, 31)
        for n in range(7):
            for m in range(7):
                full = sum(binom(m, j) * table[n - j] for j in range(n + 1))
                assert bound_add(n, m, table) == full

    @given(st.integers(min_value=0, max_value=5), st.lists(st.integers(min_value=1, max_value=9), min_size=6, max_size=6))
    def test_add_empty_tail_is_identity(self, n, table):
        assert bound_add(n, 0, table) == table[n]

    def test_mul_frozen(self):
        assert bound_mul(2, 2, (1, 1, 1)) == 5
        assert bound_mul(2, 2, (1, 2, 4)) == 18

    def test_mul_ones_counts_types(self):
        for n in range(4):
            for m in (1, 2, 3):
                assert bound_mul(n, m, (1,) * (n + 1)) == len(enum_mult(n, m))
                table = (1, 2, 4, 8)
                literal = sum(table[t.rank] for t in enum_mult(n, m))
                assert bound_mul(n, m, table) == literal

    @given(st.integers(min_value=0, max_value=5), st.lists(st.integers(min_value=1, max_value=9), min_size=6, max_size=6))
    def test_mul_single_level_is_identity(self, n, table):
        assert bound_mul(n, 1, table) == table[n]

    def test_product_frozen(self):
        ones = (1, 1, 1, 1)
        assert product_bound((1, 1), ones) == 3
        assert product_bound((2,), ones) == 1
        assert product_bound((1, 1, 1), ones) == 13

    def test_product_matches_literal_sum(self):
        table = tuple(3**j for j in range(5))
        from ordramsey.typecalc import enum_product_types

        for parts in ((1, 1), (2, 1), (2, 2)):
            literal = sum(table[t.rank] for t in enum_product_types(parts))
            assert product_bound(parts, table) == literal

    def test_pow_frozen(self):
        assert bound_pow(2, 2, (1,) * 5) == 36

    @given(st.integers(min_value=1, max_value=4), st.lists(st.integers(min_value=1, max_value=9), min_size=5, max_size=5))
    def test_pow_height_one_is_identity(self, n, table):
        assert bound_pow(n, 1, table) == table[n]

    @pytest.mark.parametrize("base", [1, 2])
    @pytest.mark.parametrize("d", range(1, 5))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_pow_decomposes_over_trees(self, n, d, base):
        table = tuple(base**j for j in range(n * d + 1))
        total = sum(product_bound(out_degrees(t), table) for t in enum_power(n, d))
        assert bound_pow(n, d, table) == total

    def test_by_rank_counts_each_label_size_once(self):
        calls = []

        def count(y):
            calls.append(y)
            return binom(y**2, 3)

        table = tuple(2**j for j in range(7))
        assert _by_rank(table, 6, count) == bound_pow(3, 2, table)
        assert calls == list(range(7))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=14).flatmap(
            lambda top: st.tuples(
                st.lists(st.integers(-50, 50), min_size=top + 1, max_size=top + 1),
                st.lists(st.integers(-(10**30), 10**30), min_size=top + 1, max_size=top + 1),
            )
        )
    )
    def test_by_rank_matches_double_sum(self, lists):
        # forward differences equal the inclusion-exclusion sum for any sequence
        table, counts = lists
        top = len(table) - 1
        assert _by_rank(table, top, counts.__getitem__) == by_rank_double_sum(
            table, top, counts.__getitem__
        )

    def test_pow_composes_over_exponent_products(self):
        # Power(range(y), d1*d2) is Power(Power(range(y), d1), d2)
        rng = random.Random(1904)
        for n in range(1, 5):
            for d1 in range(1, 4):
                for d2 in range(1, 4):
                    for _ in range(3):
                        table = random_table(rng, n * d1 * d2)
                        inner = (1,) + tuple(
                            bound_pow(j, d1, table) for j in range(1, n * d2 + 1)
                        )
                        assert bound_pow(n, d1 * d2, table) == bound_pow(n, d2, inner)

    def test_trees_count_labelled_power_subsets(self):
        # a tree whose internal vertices each carry a chain of y labels is
        # an n-subset of Power(range(y), d)
        for y in range(5):
            for d in range(1, 4):
                for n in range(1, 5):
                    trees = enum_power(n, d)
                    labelled = sum(math.prod(binom(y, k) for k in out_degrees(t)) for t in trees)
                    assert labelled == binom(y**d, n)

    def test_table_coverage_errors(self):
        with pytest.raises(ValueError):
            bound_add(3, 1, (1, 1, 1))
        with pytest.raises(ValueError):
            bound_pow(2, 2, (1, 1, 1))
        with pytest.raises(ValueError):
            bound_mul(2, 0, (1, 1, 1))
        with pytest.raises(ValueError):
            product_bound((0,), (1,))


class TestClassifier:
    def test_zero_domain(self):
        r = classify(parse("w^3 + 5"), 0)
        assert (r.kind, r.value) == (EXACT, 1)
        assert r.trace[0].rule == "zero-domain"

    @pytest.mark.parametrize("c,n,value", [(5, 2, 10), (4, 4, 1), (2, 3, 1), (0, 1, 1)])
    def test_finite_chains(self, c, n, value):
        r = classify(Ordinal.from_int(c), n)
        assert (r.kind, r.value) == (EXACT, value)

    def test_omega(self):
        r = classify(OMEGA, 4)
        assert (r.kind, r.value) == (EXACT, 1)

    def test_omega_plus_m(self):
        r = classify(parse("w + 3"), 2)
        assert (r.kind, r.value) == (EXACT, 7)
        assert r.trace[-1].rule == "omega-plus-m"

    def test_omega_times_m(self):
        r = classify(parse("w*4"), 3)
        assert (r.kind, r.value) == (EXACT, 64)

    def test_omega_times_m_plus_tail(self):
        r = classify(parse("w*2 + 3"), 2)
        assert (r.kind, r.value) == (UPPER_BOUND, 13)
        assert [s.rule for s in r.trace] == ["omega-times-m-table", "bound-add"]

    def test_pipeline_small(self):
        # by hand: ones table lifts to (1, 2, 2), the only height-2 tree on
        # one leaf is the path, and product over parts (1, 1) gives 2 + 4
        r = classify(parse("w^2"), 1)
        assert (r.kind, r.value) == (UPPER_BOUND, 6)
        assert [s.rule for s in r.trace] == [
            "omega-times-m-table",
            "bound-add",
            "bound-pow",
            "subsum",
        ]

    def test_pipeline_with_tail_appends_step(self):
        r = classify(parse("w^2 + 4"), 1)
        assert r.trace[-1].rule == "bound-add"
        assert r.value > classify(parse("w^2"), 1).value

    def test_pipeline_regression(self):
        r = classify(parse("w^3*2 + w*5 + 1"), 2)
        assert (r.kind, r.value) == (UPPER_BOUND, 10751976)

    def test_pipeline_enumerates_nothing(self):
        # the power rule is a closed form: neither entry point lists trees
        # or rank counts, so their caches see no call
        before = enum_power.cache_info(), rank_counts.cache_info()
        a = parse("w^3*2 + w*5 + 1")
        classify(a, 5)
        pipeline_bound(a, 5)
        assert (enum_power.cache_info(), rank_counts.cache_info()) == before

    def test_pipeline_work_per_rule(self, monkeypatch):
        # the tail rule's table step is one pass, not a bound_add per rank;
        # the power rule calls bound_pow once per rank 1..n
        calls = {"bound_add": 0, "bound_pow": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(degrees, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(degrees, name, counted)
        classify(parse("w^6*9 + 5"), 5)
        assert calls == {"bound_add": 1, "bound_pow": 5}

    def test_large_exponent_finishes(self):
        # 40^4 trees by listing; the closed form answers well inside the timeout
        proc = subprocess.run(
            [sys.executable, "-m", "ordramsey", "classify", "w^40", "--n", "5", "--json"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        blob = json.loads(proc.stdout)["result"]
        assert blob["kind"] == UPPER_BOUND
        steps = []
        for s in blob["trace"]:
            value = tuple(s["value"]) if isinstance(s["value"], list) else s["value"]
            steps.append(TraceStep(s["rule"], s["inputs"], value))
        result = DegreeResult(blob["kind"], blob["value"], tuple(steps))
        assert replay_trace(result) == blob["value"]

    @pytest.mark.parametrize("text", ["w^w", "w^w + 1", "w^(w + 1)", "w^(w^2)"])
    def test_beyond_threshold(self, text):
        a = parse(text)
        assert classify(a, 2).kind == INFINITE
        assert classify(a, 5).kind == INFINITE
        one = classify(a, 1)
        assert one.kind == FINITE_UNBOUNDED
        assert one.value is None

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            classify(parse("w^2"), 6)
        assert classify(parse("w^2"), 6, cap=6).kind == UPPER_BOUND

    @pytest.mark.parametrize("text", ["w^2*3 + w + 4", "w^3 + w^2*5", "w^4*2 + 1", "w^6"])
    def test_pipeline_size_prediction_bounds_the_answer(self, text):
        # (m + 1)^(n*d) * C((n*d)^d, n) * (tail + 1)^n bounds every value
        a = parse(text)
        m = max(c for e, c in a.terms if not e.is_zero)
        d = a.leading_exponent.as_int()
        tail = a.terms[-1][1] if a.terms[-1][0].is_zero else 0
        for n in range(1, 5):
            top = n * d
            bound = (m + 1) ** top * binom(top**d, n) * (tail + 1) ** n
            predicted = top * ((m + 1).bit_length() + top.bit_length()) + n * (tail + 1).bit_length()
            result = pipeline_bound(a, n)
            assert result.value <= bound and bound.bit_length() <= predicted
            for step in result.trace:
                if isinstance(step.value, tuple):
                    assert max(step.value) <= bound

    def test_every_result_replays(self):
        inputs = ["0", "3", "w", "w + 2", "w*3", "w*2 + 1", "w^2", "w^2*2 + w + 3", "w^w"]
        for text in inputs:
            for n in range(4):
                r = classify(parse(text), n)
                assert replay_trace(r) == r.value

    def test_json_round(self):
        r = classify(parse("w^2 + 1"), 2)
        blob = json.loads(json.dumps(r.as_json()))
        assert blob["kind"] == UPPER_BOUND
        assert blob["value"] == r.value
        assert [s["rule"] for s in blob["trace"]] == [s.rule for s in r.trace]
        assert all("anchor" in s for s in blob["trace"])


class TestPipelineBound:
    def test_dominates_exact_families(self):
        for text, exact in [("w", 1), ("w + 2", 4), ("w*3", 9)]:
            bound = pipeline_bound(parse(text), 2)
            assert bound.kind == UPPER_BOUND
            assert bound.value >= exact

    def test_matches_classifier_on_general_input(self):
        a = parse("w^2*2 + 3")
        assert pipeline_bound(a, 2).value == classify(a, 2).value

    def test_rejects_out_of_scope(self):
        with pytest.raises(ValueError):
            pipeline_bound(Ordinal.from_int(4), 2)
        with pytest.raises(ValueError):
            pipeline_bound(parse("w^w"), 2)
        with pytest.raises(ResourceCapError):
            pipeline_bound(parse("w^2"), 9)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=3),
    )
    def test_monotone_tables_under_growth(self, m, d, tail, n):
        """Bounds never shrink when n grows."""
        a = Ordinal(((Ordinal.from_int(d), m),)) + Ordinal.from_int(tail)
        values = [pipeline_bound(a, j).value for j in range(1, n + 1)]
        assert all(x <= y for x, y in zip(values, values[1:]))


class TestResultRecords:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            DegreeResult(EXACT, None)
        with pytest.raises(ValueError):
            DegreeResult(INFINITE, 3)
        with pytest.raises(ValueError):
            DegreeResult("approximate", 1)

    def test_trace_step_json_lists_tuples(self):
        step = TraceStep("omega-times-m-table", {"m": 2, "max_rank": 2}, (1, 2, 4))
        assert step.as_json()["value"] == [1, 2, 4]
        assert "w*m" in step.anchor

    def test_replay_rejects_tampered_step(self):
        r = classify(parse("w*2 + 3"), 2)
        bad_step = TraceStep("bound-add", r.trace[1].inputs, r.value + 1)
        tampered = DegreeResult(UPPER_BOUND, r.value + 1, (r.trace[0], bad_step))
        with pytest.raises(ValueError):
            replay_trace(tampered)

    def test_replay_rejects_wrong_total(self):
        r = classify(parse("w*2 + 3"), 2)
        off = DegreeResult(UPPER_BOUND, r.value + 1, r.trace)
        with pytest.raises(ValueError):
            replay_trace(off)
