"""Acceptance suite: seven criteria, one printed pass/fail line each.

Each criterion re-derives its expectations independently of the code
under test (inline big-integer arithmetic, explicit enumeration, frozen
hand-checked instances) and pins a wall-clock budget where one applies.
The lines print through ``capsys.disabled()`` so they show up in a plain
``pytest -v`` run.
"""

from __future__ import annotations

import contextlib
import math
import random
import time

from ordramsey.chains import Leveled, SumTail
from ordramsey.degrees import (
    EXACT,
    FINITE_UNBOUNDED,
    INFINITE,
    UPPER_BOUND,
    bound_add,
    bound_mul,
    bound_pow,
    classify,
    count_product,
    exact_integers,
    exact_omega,
    exact_omega_plus_m,
    exact_omega_times_m,
    exact_signed,
    replay_trace,
)
from ordramsey.ordinal import Ordinal, parse
from ordramsey.typecalc import (
    MultiplicativeType,
    enum_additive,
    enum_product_types,
    enum_strict,
    strict_to_word,
    word_to_strict,
)
from ordramsey.verify import (
    check_reference_instances,
    check_roundtrips,
    check_type_counts,
)
from ordramsey.witness import AdditiveWitness, StrictWitness, realized_colors, spread


@contextlib.contextmanager
def criterion(capsys, num, label, limit=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if limit is not None and elapsed >= limit:
            raise AssertionError(
                f"criterion {num} ran {elapsed:.2f}s, budget {limit:.0f}s"
            )
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {num} [FAIL] {label}")
        raise
    with capsys.disabled():
        print(f"\ncriterion {num} [PASS] {label} ({elapsed:.2f}s)")


def test_criterion_1_exact_formulas(capsys):
    """Closed-form families against inline arbitrary-precision arithmetic."""
    with criterion(capsys, 1, "exact formulas, n and m up to 6", limit=1.0):
        for n in range(7):
            assert exact_omega(n) == 1
            assert exact_integers(n) == 2**n
            for m in range(7):
                plus = sum(math.comb(m, j) for j in range(min(n, m) + 1))
                assert exact_omega_plus_m(n, m) == plus
                if n >= m:
                    assert exact_omega_plus_m(n, m) == 2**m
                if m >= 1:
                    assert exact_omega_times_m(n, m) == m**n
                    signs = tuple("+-"[i % 2] for i in range(m))
                    assert exact_signed(n, signs) == m**n


def test_criterion_2_classifier_kinds(capsys):
    """The finiteness partition on both sides of the threshold."""
    with criterion(capsys, 2, "classifier kind partition", limit=10.0):
        beyond = [parse(s) for s in ("w^w", "w^w + 1", "w^(w + 1)", "w^(w^2)")]
        for a in beyond:
            for n in (2, 3):
                assert classify(a, n).kind == INFINITE
            assert classify(a, 1).kind == FINITE_UNBOUNDED

        rng = random.Random(20260825)
        for _ in range(20):
            d = rng.randint(2, 4)
            terms = [(Ordinal.from_int(d), rng.randint(1, 4))]
            for e in range(d - 1, -1, -1):
                if rng.random() < 0.5:
                    terms.append((Ordinal.from_int(e), rng.randint(1, 4)))
            a = Ordinal(tuple(terms))
            n = rng.randint(1, 3)
            result = classify(a, n)
            assert result.kind == UPPER_BOUND
            assert result.value >= 1
            assert replay_trace(result) == result.value


def test_criterion_3_worked_instances(capsys):
    """The frozen reference embeddings, reconstruction, word, and tree."""
    with criterion(capsys, 3, "worked instances reproduced bit for bit"):
        report = check_reference_instances()
        assert report.ok
        assert len(report.entries) == 8

        t = word_to_strict("2302202", 4)
        assert t == MultiplicativeType(
            (2, 0, 4, 1), tuple((i,) for i in (2, 6, 0, 3, 4, 1, 5))
        )
        assert strict_to_word(t) == "2302202"


def ordered_bell(n):
    """Ordered partitions of an n-set, by the recurrence over the first
    block's size."""
    a = [1]
    for k in range(1, n + 1):
        a.append(sum(math.comb(k, j) * a[k - j] for j in range(1, k + 1)))
    return a[n]


def test_criterion_4_counting_oracles(capsys):
    """Counts by enumeration; the ordered-Bell overcount stays a fact."""
    with criterion(capsys, 4, "counting oracles and the ordered-Bell overcount", limit=30.0):
        for n in range(6):
            for m in range(6):
                if m >= 1:
                    assert len(enum_strict(n, m)) == m**n
                additive = sum(math.comb(m, j) for j in range(min(n, m) + 1))
                assert len(enum_additive(n, m)) == additive
        assert [ordered_bell(s) for s in range(5)] == [1, 1, 3, 13, 75]
        for s in range(1, 5):
            assert len(enum_product_types((1,) * s)) == ordered_bell(s)

        # with a part above 1, ordered partitions of all N indices overcount
        # the realizable types: indices of one part never share a block
        overcount = {(2,): (1, 3), (2, 1): (5, 13), (3,): (1, 13), (2, 2): (13, 75)}
        for parts, pair in overcount.items():
            assert (len(enum_product_types(parts)), ordered_bell(sum(parts))) == pair

        report = check_type_counts()
        assert report.ok
        lines = {e.params["parts"]: e for e in report.entries if e.name == "product-count"}
        assert set(lines) == set(overcount)
        for parts, (enumerated, _) in overcount.items():
            entry = lines[parts]
            assert entry.status == "ok"
            assert entry.actual == entry.expected == count_product(parts) == enumerated


def test_criterion_5_round_trips(capsys):
    """Extraction and reconstruction as exact inverses, zero failures."""
    with criterion(capsys, 5, "round-trip suites", limit=60.0):
        report = check_roundtrips()
        assert report.ok
        for name in (
            "mult-roundtrip",
            "power-roundtrip",
            "word-roundtrip",
            "transport-involution",
        ):
            entry = next(e for e in report.entries if e.name == name)
            assert entry.actual == 0
            assert entry.params["checked"] > 0


def test_criterion_6_witness_realization(capsys):
    """Lower-bound colorings attain their full palettes exhaustively."""
    with criterion(capsys, 6, "witness palette realization", limit=60.0):
        for n in range(1, 5):
            for m in range(1, 5):
                additive = AdditiveWitness(n, m)
                realized = realized_colors(additive, SumTail(tuple(range(n)), m))
                assert realized == set(range(additive.palette))
                assert additive.palette == sum(
                    math.comb(m, j) for j in range(min(n, m) + 1)
                )

                strict = StrictWitness(n, m)
                levels = Leveled(spread(tuple(range(n * m)), m))
                realized = realized_colors(strict, levels)
                assert len(realized) == m**n
                assert realized == set(range(strict.palette))


def test_criterion_7_rule_consistency(capsys):
    """Bound rules agree with closed forms and stay monotone."""
    with criterion(capsys, 7, "bound rule consistency"):
        omega_table = (1,) * 7
        for n in range(7):
            for m in range(7):
                assert bound_add(n, m, omega_table) == exact_omega_plus_m(n, m)

        tables = [(1, 2, 4, 8, 16), (1, 3, 9, 27, 81), (2, 5, 7, 11, 20)]
        for table in tables:
            for n in range(len(table)):
                assert bound_mul(n, 1, table) == table[n]
                if n >= 1:
                    assert bound_pow(n, 1, table) == table[n]

        for n in range(1, 5):
            for m in range(1, 5):
                assert bound_mul(n, m, (1,) * (n + 1)) >= m**n

        for family in (
            lambda n: exact_omega(n),
            lambda n: exact_integers(n),
            lambda n: exact_omega_plus_m(n, 4),
            lambda n: exact_omega_times_m(n, 3),
            lambda n: exact_signed(n, "+-+"),
        ):
            values = [family(n) for n in range(7)]
            assert all(x <= y for x, y in zip(values, values[1:]))

        for text in ("w*2 + 3", "w^2", "w^3*2 + w*5 + 1"):
            a = parse(text)
            values = [classify(a, n).value for n in range(4)]
            assert all(x <= y for x, y in zip(values, values[1:]))
            assert classify(a, 2).kind in (EXACT, UPPER_BOUND)
