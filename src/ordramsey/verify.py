"""Enumeration-backed verification of the calculus at desk scale.

Everything here recomputes results by a second, independent route:
type counts against the closed-form counters of :mod:`ordramsey.degrees`,
extraction against reconstruction, the closed-form rank counts and the
product, power and tail rules against literal sums over enumerated types,
and the finite-chain degree convention against the subchains listed
explicitly.  Checks land in a :class:`Report`.
"""

from __future__ import annotations

import itertools
from typing import List, NamedTuple

from .chains import (
    Embedding,
    Leveled,
    Power,
    SumTail,
    enumerate_embeddings,
)
from .degrees import (
    RULES,
    bound_pow,
    classify,
    count_additive,
    count_mult,
    count_power,
    count_product,
    count_strict,
    product_bound,
)
from .ordinal import Ordinal
from .typecalc import (
    MultiplicativeType,
    _power_pass,
    enum_additive,
    enum_mult,
    enum_power,
    enum_product_types,
    enum_strict,
    mult_points,
    mult_type,
    mult_val,
    out_degrees,
    power_type,
    power_val,
    rank_counts,
    reconstruct_mult,
    reconstruct_power,
    strict_to_word,
    word_to_strict,
)

OK = "ok"
MISMATCH = "mismatch"


class CheckEntry(NamedTuple):
    name: str
    params: dict
    expected: object
    actual: object
    status: str

    def line(self) -> str:
        params = " ".join(f"{k}={v}" for k, v in self.params.items())
        if self.status == OK:
            detail = f"{self.actual}"
        else:
            detail = f"enumerated {self.actual}, formula {self.expected}"
        return f"[{self.status}] {self.name} {params}: {detail}"


class Report:
    def __init__(self):
        self.entries: List[CheckEntry] = []

    def add(self, name, params, expected, actual):
        status = OK if expected == actual else MISMATCH
        self.entries.append(CheckEntry(name, params, expected, actual, status))

    @property
    def mismatches(self) -> List[CheckEntry]:
        return [e for e in self.entries if e.status == MISMATCH]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def extend(self, other: "Report"):
        self.entries.extend(other.entries)

    def lines(self) -> List[str]:
        out = [e.line() for e in self.entries]
        # no check is flagged any more; the field stays for readers that
        # parse all four counts
        out.append(
            f"{len(self.entries)} checks: "
            f"{sum(e.status == OK for e in self.entries)} ok, "
            f"0 flagged, {len(self.mismatches)} mismatched"
        )
        return out


# -- reference fixtures ----------------------------------------------
#
# Three hand-checked instances freeze the extraction and reconstruction
# procedures bit for bit.

# A 9-chain inside four levels: type (3,4,0,2) with six value classes.
REF_MULT_CODOMAIN = Leveled((tuple(range(10)),) * 4)
REF_MULT_IMAGES = (
    (2, 0), (3, 0), (8, 0),
    (1, 1), (3, 1), (5, 1), (8, 1),
    (3, 3), (9, 3),
)
REF_MULT_P = (3, 4, 0, 2)
REF_MULT_BLOCKS = ((3,), (0,), (1, 4, 7), (5,), (2, 6), (8,))
REF_MULT_VAL = (1, 2, 3, 5, 8, 9)

# Reconstruction input over five levels.  The block data here is not
# realizable (indices 0 and 1 share level 1 but the value order puts 1
# first, and 4, 5 collide outright), which is exactly why the literal
# point assignment below is the frozen expectation: the procedure is
# total and reproduces it verbatim.
REF_RECON_TYPE = MultiplicativeType((0, 2, 1, 0, 4), ((3,), (1,), (0, 2, 6), (4, 5)))
REF_RECON_VAL = (13, 19, 25, 43)
REF_RECON_POINTS = (
    (25, 1), (19, 1), (25, 2), (13, 4), (43, 4), (43, 4), (25, 4),
)

# A 12-chain inside height-4 tuples, its suffix tree, and all twenty
# child chains in top-to-bottom, left-to-right order.
REF_POWER_CODOMAIN = Power(tuple(range(9)), 4)
REF_POWER_IMAGES = (
    (0, 1, 0, 0), (3, 1, 0, 0), (1, 3, 6, 0), (2, 3, 6, 0),
    (5, 7, 0, 2), (0, 8, 1, 2), (1, 1, 3, 2),
    (4, 0, 2, 5), (1, 1, 2, 5), (3, 1, 2, 5), (5, 1, 4, 5), (7, 2, 4, 5),
)
_L = ()
REF_POWER_TREE = (
    (((_L, _L),), ((_L, _L),)),
    (((_L,),), ((_L,),), ((_L,),)),
    (((_L,), (_L, _L)), ((_L,), (_L,))),
)
REF_POWER_VAL = (
    (0, 2, 5),
    (0, 6), (0, 1, 3), (2, 4),
    (1,), (3,), (7,), (8,), (1,), (0, 1), (1, 2),
    (0, 3), (1, 2), (5,), (0,), (1,), (4,), (1, 3), (5,), (7,),
)


# -- type count checks -----------------------------------------------


def check_type_counts() -> Report:
    """Counts by enumeration against the closed-form counters that
    ``types --count-only`` prints: additive and strict for n, m <= 5,
    product for all-ones vectors of length s <= 4 and four others, power
    for n, m <= 4 and mult for n, m <= 3.
    """
    report = Report()

    def counts(name, count, listing, pairs):
        for n, m in pairs:
            report.add(name, {"n": n, "m": m}, count(n, m), len(listing(n, m)))

    counts("additive-count", count_additive, enum_additive, itertools.product(range(6), repeat=2))
    counts("strict-count", count_strict, enum_strict, itertools.product(range(1, 6), repeat=2))
    products = [("product-count-all-ones", {"s": s}, (1,) * s) for s in range(1, 5)]
    products += [("product-count", {"parts": p}, p) for p in ((2,), (2, 1), (3,), (2, 2))]
    for name, params, parts in products:
        report.add(name, params, count_product(parts), len(enum_product_types(parts)))
    counts("power-count", count_power, enum_power, itertools.product(range(1, 5), repeat=2))
    counts("mult-count", count_mult, enum_mult, itertools.product(range(4), repeat=2))
    # closed-form rank counts against the explicit enumeration
    for parts in ((1, 1), (2,), (1, 1, 1), (2, 1), (2, 2), (3, 1)):
        by_rank = {}
        for t in enum_product_types(parts):
            by_rank[t.rank] = by_rank.get(t.rank, 0) + 1
        report.add(
            "rank-counts",
            {"parts": parts},
            dict(rank_counts(parts)),
            by_rank,
        )
    return report


def _tables(top: int):
    """The ones and powers-of-2 base tables over ranks 0..top."""
    return ("ones", (1,) * (top + 1)), ("powers", tuple(2**j for j in range(top + 1)))


def check_product_bound() -> Report:
    """The rank-count product rule, the closed-form power rule (n, d <= 4) and
    the tail rule (n, m <= 3, and its table step to rank 4) against literal
    sums over enumerated types and trees, for two tables."""
    report = Report()
    for parts in ((1, 1), (2,), (1, 1, 1), (2, 1), (1, 2)):
        for label, table in _tables(sum(parts)):
            literal = sum(table[t.rank] for t in enum_product_types(parts))
            report.add(
                "product-bound",
                {"parts": parts, "table": label},
                product_bound(parts, table),
                literal,
            )
    for n, d in itertools.product(range(1, 5), repeat=2):
        for label, table in _tables(n * d):
            literal = sum(product_bound(out_degrees(t), table) for t in enum_power(n, d))
            params = {"n": n, "d": d, "table": label}
            report.add("power-bound", params, bound_pow(n, d, table), literal)

    def tail_literal(n, m, table):
        # an additive type hitting j tail points leaves n - j for the base
        return sum(table[n - len(t.tau)] for t in enum_additive(n, m))

    tail_rule = RULES["bound-add"].compute
    for n, m in itertools.product(range(1, 4), repeat=2):
        for label, table in _tables(n):
            formula = tail_rule({"m": m, "n": n}, table)
            params = {"n": n, "m": m, "table": label}
            report.add("tail-bound", params, formula, tail_literal(n, m, table))
    for m in range(1, 4):
        for label, table in _tables(4):
            formula = tail_rule({"m": m, "max_rank": 4}, table)
            literal = tuple(tail_literal(r, m, table) for r in range(5))
            report.add("tail-bound", {"m": m, "max_rank": 4, "table": label}, formula, literal)
    return report


# -- round-trip checks -----------------------------------------------


def _sweep(report, family, codomain, ns, extract, reconstruct, listing) -> None:
    """Round-trip each n-point embedding of codomain(s, m), n in ``ns`` and
    s, m <= 3, once; the types found at s = max(n, 1) must be listing(n, m),
    with one enum-set line per (n, m) even when the scan finds none."""
    checked = failures = 0
    scanned = {(n, m): set() for n in ns for m in range(1, 4)}
    for m, s in itertools.product(range(1, 4), repeat=2):
        target = codomain(s, m)
        for n in ns:
            for f in enumerate_embeddings(n, target):
                t, v = extract(f)
                checked += 1
                failures += reconstruct(t, v, target) != f
                if s == max(n, 1):
                    scanned[n, m].add(t)
    report.add(f"{family}-roundtrip", {"checked": checked}, 0, failures)
    for (n, m), types in scanned.items():
        report.add(f"{family}-enum-set", {"n": n, "m": m}, True, types == set(listing(n, m)))


def check_roundtrips() -> Report:
    """Extraction and reconstruction as exact inverses, exhaustively, for
    n, m and chain sizes up to 3, and the enumerated mult and power types
    against the types that those embeddings realize."""
    report = Report()
    _sweep(report, "mult", lambda s, m: Leveled((tuple(range(s)),) * m), range(4),
           lambda f: (mult_type(f), mult_val(f)), reconstruct_mult, enum_mult)
    _sweep(report, "power", lambda s, m: Power(tuple(range(s)), m), range(1, 4),
           _power_pass, reconstruct_power, enum_power)
    checked = failures = 0
    for n, m in itertools.product(range(7), range(1, 5)):
        for word in itertools.product("0123"[:m], repeat=n):
            text = "".join(word)
            checked += 1
            failures += strict_to_word(word_to_strict(text, m)) != text
    report.add("word-roundtrip", {"checked": checked}, 0, failures)

    report.extend(check_reference_instances())
    return report


def check_reference_instances() -> Report:
    """The frozen fixtures reproduce their recorded data bit for bit."""
    report = Report()
    f = Embedding(REF_MULT_CODOMAIN, REF_MULT_IMAGES)
    t = mult_type(f)
    report.add("reference-mult-p", {}, REF_MULT_P, t.p)
    report.add("reference-mult-blocks", {}, REF_MULT_BLOCKS, t.blocks)
    report.add("reference-mult-val", {}, REF_MULT_VAL, mult_val(f))
    report.add("reference-mult-rank", {}, len(REF_MULT_VAL), t.rank)

    points = mult_points(REF_RECON_TYPE, REF_RECON_VAL)
    report.add("reference-reconstruction", {}, REF_RECON_POINTS, points)

    g = Embedding(REF_POWER_CODOMAIN, REF_POWER_IMAGES)
    report.add("reference-power-tree", {}, REF_POWER_TREE, power_type(g))
    report.add("reference-power-val", {}, REF_POWER_VAL, power_val(g))
    back = reconstruct_power(REF_POWER_TREE, REF_POWER_VAL, REF_POWER_CODOMAIN)
    report.add("reference-power-reconstruction", {}, g, back)
    return report


# -- the finite-chain convention -------------------------------------


def check_finite_convention() -> Report:
    """T(n, c) as classify reports it for a finite chain, C(c, n) by the
    convention, against the n-subchains of a c-chain listed explicitly,
    for c <= 6 and 1 <= n <= min(c, 3)."""
    report = Report()
    for c in range(1, 7):
        chain = SumTail(tuple(range(c)), 0)
        for n in range(1, min(c, 3) + 1):
            formula = classify(Ordinal.from_int(c), n).value
            listed = sum(1 for _ in enumerate_embeddings(n, chain))
            report.add("finite-chain", {"c": c, "n": n}, formula, listed)
    return report


def run_all() -> Report:
    """Every check suite in one report."""
    report = Report()
    report.extend(check_type_counts())
    report.extend(check_product_bound())
    report.extend(check_roundtrips())
    report.extend(check_finite_convention())
    return report
