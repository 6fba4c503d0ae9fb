"""Degree formulas, recursive upper bounds, and the finiteness classifier.

T(n, C) is the least t such that every finite coloring of the n-element
subchains of C admits a copy of C realizing at most t colors.  The exact
family formulas, the three bound rules (tail, product, power), and
:func:`classify` below operate purely on Cantor normal forms and integer
tables; T(n, a) is finite for every a below w^w and infinite for n >= 2
once a reaches w^w.

Degree tables are plain sequences: ``table[j]`` holds the value (or an
upper bound) of T(j, a) for the base ordinal a of the rule being applied.
Every result carries a trace of rule applications; :data:`RULES` holds
each rule's statement and formula once, and both the classifier and
:func:`replay_trace` compute every step through it.
"""

from __future__ import annotations

from math import comb
from operator import add, mul, sub
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .chains import Record
from .ordinal import OMEGA, ONE, Ordinal
# enum_power and out_degrees are unused here: bench/tracer.py wraps them at these names
from .typecalc import binom, enum_power, out_degrees, rank_counts

EXACT = "exact"
UPPER_BOUND = "upper-bound"
INFINITE = "infinite"
FINITE_UNBOUNDED = "finite-unbounded"


class Rule(NamedTuple):
    """A rule's statement and ``compute(inputs, table)``, which maps a step's
    recorded inputs and the trace's latest table to the step's output: an
    int, a tuple for table steps, or None for the valueless kinds."""

    statement: str
    compute: Callable[[dict, Optional[tuple]], object]


def _tail_rule(inputs: dict, table: tuple):
    """bound-add at rank n, or at every rank up to max_rank in one pass.

    Rank r of the table step is sum_{j <= min(m, r)} C(m, j) * table[r - j],
    so it adds copies of the table shifted by j and weighted by C(m, j);
    it refuses what a per-rank bound_add would refuse, with its message.
    """
    m = inputs["m"]
    if "max_rank" not in inputs:
        return bound_add(inputs["n"], m, table)
    top = inputs["max_rank"]
    if top < 0:
        return ()
    if m < 0:
        raise ValueError("m must be >= 0")
    # a short table fails at the first rank it misses
    _check_table(table, min(top, len(table)))
    out = list(table[: top + 1])
    for j in range(1, min(m, top) + 1):
        weight = binom(m, j)
        out[j:] = map(add, out[j:], [weight * t for t in table[: top + 1 - j]])
    return tuple(out)


def _power_rule(inputs: dict, table: tuple) -> tuple:
    """bound-pow at every rank up to max_rank; rank 0 stays 1."""
    d, top = inputs["d"], inputs["max_rank"]
    return (1,) + tuple(bound_pow(j, d, table) for j in range(1, top + 1))


RULES = {
    "zero-domain": Rule("T(0, C) = 1 for every chain C", lambda i, t: 1),
    "finite-chain-convention": Rule(
        "convention: T(n, c) = C(c, n) for finite c >= n >= 1, else 1",
        lambda i, t: binom(i["c"], i["n"]) if i["c"] >= i["n"] else 1,
    ),
    "ramsey-omega": Rule("T(n, w) = 1", lambda i, t: 1),
    "omega-plus-m": Rule(
        "T(n, w + m) = sum_{j=0..n} C(m, j)",
        lambda i, t: exact_omega_plus_m(i["n"], i["m"]),
    ),
    "omega-times-m": Rule(
        "T(n, w*m) = m^n", lambda i, t: exact_omega_times_m(i["n"], i["m"])
    ),
    "omega-times-m-table": Rule(
        "T(j, w*m) = m^j for j = 0..R",
        lambda i, t: tuple(i["m"] ** j for j in range(i["max_rank"] + 1)),
    ),
    "bound-add": Rule(
        "T(n, a + m) <= sum_{j=0..n} C(m, j) * T(n - j, a)", _tail_rule
    ),
    "bound-mul": Rule(
        "T(n, a*m) <= sum over (n, m)-multiplicative types t of T(rank(t), a)",
        lambda i, t: bound_mul(i["n"], i["m"], t),
    ),
    "bound-pow": Rule(
        "T(n, a^d) <= sum over (n, d)-power types of the product bound on their out-degrees",
        _power_rule,
    ),
    "subsum": Rule(
        "T(n, b) <= T(n, a) when b is a subsum of a's remainder-invariant summands",
        lambda i, t: t[i["n"]],
    ),
    "infinite": Rule("T(n, a) = infinity for a >= w^w and n >= 2", lambda i, t: None),
    "finite-unbounded": Rule(
        "T(1, a) is finite for every countable ordinal; no value derived here",
        lambda i, t: None,
    ),
}


class ResourceCapError(RuntimeError):
    """Requested computation exceeds the configured desk-scale cap."""


# Largest answer, in bits: 2^14000 has 4215 decimal digits, so every answer
# below it prints under Python's default limit of 4300 digits.
MAX_ANSWER_BITS = 14_000
# Most big-integer steps a closed form may take, up to two seconds' work in
# a fresh process (Python 3.11, shared 2-vCPU machine): near the cap,
# classify 'w^3' --n 109 --cap 200 takes 0.7 s and types product
# --count-only over 1150 ones 1.6-1.7 s.  classify 'w^214' --n 5 needs
# about 1.26e6 steps for the power rule and takes 0.5-0.7 s.
MAX_STEPS = 2_000_000
# Most objects a witness report may list: its palette's types plus the
# embeddings of every instance, a few seconds' work.
MAX_LISTED = 100_000


def check_cap(amount: int, cap: int, what: str):
    """Refuse, before any computing, a request predicted to need ``amount``
    of ``what`` when that passes ``cap``."""
    if amount > cap:
        raise ResourceCapError(f"the request may need {amount} {what}, over the cap of {cap}")


def _check_bits(bits: int):
    check_cap(bits, MAX_ANSWER_BITS, "bits of answer")


class TraceStep(Record):
    """One rule application: its name, statement, inputs, and output.

    ``value`` is an int for scalar steps and a tuple for table steps.
    """

    __slots__ = ("rule", "inputs", "value")

    def __init__(self, rule: str, inputs: dict, value: object = None):
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "value", value)

    @property
    def anchor(self) -> str:
        return RULES[self.rule].statement

    def as_json(self) -> dict:
        value = list(self.value) if isinstance(self.value, tuple) else self.value
        return {
            "rule": self.rule,
            "anchor": self.anchor,
            "inputs": dict(self.inputs),
            "value": value,
        }


class DegreeResult(Record):
    """Outcome of the calculus: kind, value when finite, and the trace."""

    __slots__ = ("kind", "value", "trace")

    def __init__(
        self, kind: str, value: Optional[int] = None, trace: Tuple[TraceStep, ...] = ()
    ):
        if kind in (EXACT, UPPER_BOUND):
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{kind} results need a positive value")
        elif kind in (INFINITE, FINITE_UNBOUNDED):
            if value is not None:
                raise ValueError(f"{kind} results carry no value")
        else:
            raise ValueError(f"unknown result kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "trace", trace)

    def as_json(self) -> dict:
        out = {"kind": self.kind, "trace": [s.as_json() for s in self.trace]}
        if self.value is not None:
            out["value"] = self.value
        return out


# -- exact families --------------------------------------------------


def exact_omega(n: int) -> int:
    """T(n, w) = 1: some copy of w is monochromatic in every coloring."""
    _check_n(n)
    return 1


def exact_omega_plus_m(n: int, m: int) -> int:
    """T(n, w + m) = sum of C(m, j) for j <= n, which is 2^m once n >= m."""
    _check_n(n)
    if m < 0:
        raise ValueError("m must be >= 0")
    # at most 2^m, and at most (m + 1)^n
    _check_bits(min(m + 1, n * (m + 1).bit_length()))
    total, term = 0, 1
    for j in range(min(m, n) + 1):
        total += term
        term = term * (m - j) // (j + 1)  # C(m, j + 1) from C(m, j)
    return total


def exact_omega_times_m(n: int, m: int) -> int:
    """T(n, w*m) = m^n."""
    _check_n(n)
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_bits(n * m.bit_length())
    return m**n


def exact_signed(n: int, signs: Sequence[str]) -> int:
    """T(n, w^(s_0) + ... + w^(s_{m-1})) = m^n for any sign vector.

    Reversing parts transports colorings back and forth, so only the
    number of parts matters.
    """
    _check_n(n)
    signs = tuple(signs)
    if not signs or any(s not in ("+", "-") for s in signs):
        raise ValueError("signs must be a nonempty sequence over '+'/'-'")
    _check_bits(n * len(signs).bit_length())
    return len(signs) ** n


def exact_integers(n: int) -> int:
    """T(n, Z) = 2^n: the integers are the two-part case w^(-) + w."""
    _check_n(n)
    _check_bits(n * (2).bit_length())
    return 2**n


def _check_n(n: int):
    if n < 0:
        raise ValueError("n must be >= 0")


# -- type counts -----------------------------------------------------
#
# How many types each typecalc enumerator lists, in closed form and refusing
# the same arguments with the same messages, so counting lists nothing.


def count_additive(n: int, m: int) -> int:
    """len(enum_additive(n, m)): tail sets of at most n of m positions."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be >= 0")
    return exact_omega_plus_m(n, m)


def count_strict(n: int, m: int) -> int:
    """len(enum_strict(n, m)) = m^n, one type per word."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    return exact_omega_times_m(n, m)


def count_power(n: int, m: int) -> int:
    """len(enum_power(n, m)) = m^(n - 1): each two neighbouring leaves part
    at one of the m depths."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    _check_bits((n - 1) * m.bit_length())
    return m ** (n - 1)


def count_mult(n: int, m: int) -> int:
    """len(enum_mult(n, m)): the product rule over an all-ones table.

    A type using r values is one of C(m*r, n), so there are at most
    (n + 1) * (m*n)^n in all.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be >= 0")
    if m == 0:
        return int(n == 0)
    _check_bits(n * (m * n).bit_length() + (n + 1).bit_length())
    return bound_mul(n, m, (1,) * (n + 1))


def count_product(parts: Sequence[int]) -> int:
    """len(enum_product_types(parts)): the sum over rank_counts.

    A rank-r type is one of prod_l C(r, parts[l]), so with N = sum(parts)
    there are at most N^(N + 1); rank_counts takes about N * len(parts)
    binomials and N^2 / 2 subtractions, and the cap counts both.
    """
    parts = tuple(map(int, parts))
    if not parts or any(x < 1 for x in parts):
        raise ValueError("parts must be a nonempty tuple of positive sizes")
    total = sum(parts)
    _check_bits((total + 1) * total.bit_length())
    check_cap(total * len(parts) + total * total // 2, MAX_STEPS, "big-integer steps")
    return product_bound(parts, (1,) * (total + 1))


# -- bound rules -----------------------------------------------------


def bound_add(n: int, m: int, table: Sequence[int]) -> int:
    """Tail rule: T(n, a + m) <= sum_j C(m, j) * T(n - j, a).

    ``table[j]`` must bound T(j, a) for j = 0..n.
    """
    _check_n(n)
    if m < 0:
        raise ValueError("m must be >= 0")
    _check_table(table, n)
    # C(m, j) = 0 for j > m
    return sum(binom(m, j) * table[n - j] for j in range(min(m, n) + 1))


def bound_mul(n: int, m: int, table: Sequence[int]) -> int:
    """Product rule: sum of T(rank(t), a) over all (n, m)-multiplicative types.

    C(m*y, n) counts the (n, m)-types whose y value blocks may be empty.
    """
    _check_n(n)
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_table(table, n)
    return _by_rank(table, n, lambda y: comb(m * y, n))


def product_bound(parts: Sequence[int], table: Sequence[int]) -> int:
    """Sum of T(rank(t), a) over types with level counts exactly ``parts``.

    ``table`` must cover ranks up to sum(parts).
    """
    # sorted, so that equal multisets share one rank_counts cache entry
    parts = tuple(sorted(map(int, parts)))
    if any(x < 1 for x in parts):
        raise ValueError("parts must be positive")
    _check_table(table, sum(parts))
    return sum(count * table[r] for r, count in rank_counts(parts))


def bound_pow(n: int, m: int, table: Sequence[int]) -> int:
    """Power rule: T(n, a^m) <= sum over (n, m)-power types of the product
    bound on their out-degree sequences.

    C(y^m, n) counts the trees whose internal vertices each carry a chain
    of y labels, as n-subsets of Power(range(y), m).  Out-degrees across a
    tree sum to at most n*m, so ``table`` must cover ranks that far.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    _check_table(table, n * m)
    return _by_rank(table, n * m, lambda y: comb(y**m, n))


def _by_rank(table: Sequence[int], top: int, count: Callable[[int], int]) -> int:
    """sum_{r <= top} table[r] * D^r count(0), where count(y) counts types over
    y labels, some unused, and the r-th forward difference D^r count(0) =
    sum_i (-1)^i C(r, i) count(r - i) keeps those using all r.

    D = E - 1 for the shift E, so the sum is sum_{y <= top} count(y) * W[y],
    with W[y] the coefficient of x^y in sum_r table[r] * (x - 1)^r.  One
    Horner pass builds W in about (top + 1)^2 / 2 subtractions on the
    table's entries, in the pipeline much smaller than the counts; count is
    called once per y <= top, in order, and each count enters one product.
    """
    w = [table[top]]
    for entry in reversed(table[:top]):
        # W <- W * (x - 1) + entry
        w = [entry - w[0], *map(sub, w, w[1:]), w[-1]]
    return sum(map(mul, map(count, range(top + 1)), w))


def _check_table(table: Sequence[int], upto: int):
    if len(table) <= upto:
        raise ValueError(f"table must cover 0..{upto}, got length {len(table)}")


# -- classifier ------------------------------------------------------


def classify(a: Ordinal, n: int, cap: int = 5) -> DegreeResult:
    """Settle T(n, a) for a countable ordinal in Cantor normal form.

    Routes, in order: n = 0; finite a; the exact families w, w + m, w*m;
    w*m + p through the tail rule over the exact table; every other
    a below w^w through the power-of-successor pipeline; and the
    infinite / finite-without-value split at w^w and beyond.

    n above ``cap``, or an answer predicted to pass :data:`MAX_ANSWER_BITS`,
    raises :class:`ResourceCapError`.
    """
    _check_n(n)
    if n > cap:
        raise ResourceCapError(f"n = {n} exceeds the cap {cap}")
    if n == 0:
        return _derive(EXACT, ("zero-domain", {"alpha": str(a), "n": 0}))
    if a.is_finite:
        c = a.as_int()
        _check_bits(n * c.bit_length())  # C(c, n) <= c^n
        return _derive(EXACT, ("finite-chain-convention", {"c": c, "n": n}))
    if not a.below_omega_omega():
        # the two kinds here are also the names of their rules
        kind = INFINITE if n >= 2 else FINITE_UNBOUNDED
        return _derive(kind, (kind, {"alpha": str(a), "n": n}))

    terms = a.terms
    if a == OMEGA:
        return _derive(EXACT, ("ramsey-omega", {"n": n}))
    if terms[0][0] == ONE:
        # leading exponent 1 leaves only w*m or w*m + p shapes
        m = terms[0][1]
        tail = terms[1][1] if len(terms) == 2 else 0
        if m == 1:
            return _derive(EXACT, ("omega-plus-m", {"m": tail, "n": n}))
        if tail == 0:
            return _derive(EXACT, ("omega-times-m", {"m": m, "n": n}))
        # m^n * (tail + 1)^n bounds the tail rule's sum
        _check_bits(n * (m.bit_length() + (tail + 1).bit_length()))
        return _derive(
            UPPER_BOUND,
            ("omega-times-m-table", {"m": m, "max_rank": n}),
            ("bound-add", {"m": tail, "n": n}),
        )
    return _derive(UPPER_BOUND, *_pipeline(a, n))


def pipeline_bound(a: Ordinal, n: int, cap: int = 5) -> DegreeResult:
    """The general pipeline bound itself, without exact-family shortcuts.

    Defined for infinite a below w^w; :func:`classify` prefers exact
    formulas where they exist, this entry point always runs the pipeline.
    """
    _check_n(n)
    if n > cap:
        raise ResourceCapError(f"n = {n} exceeds the cap {cap}")
    if a.is_finite:
        raise ValueError("the pipeline needs an infinite ordinal below w^w")
    if not a.below_omega_omega():
        raise ValueError("no finite bound exists at or above w^w")
    if n == 0:
        return _derive(EXACT, ("zero-domain", {"alpha": str(a), "n": 0}))
    return _derive(UPPER_BOUND, *_pipeline(a, n))


def _pipeline(a: Ordinal, n: int):
    """The (rule, inputs) steps bounding T(n, a) for infinite a < w^w
    via a power of w*m + 1.

    With m the largest core coefficient and d the leading exponent,
    (w*m + 1)^d expands to w^d*m + ... + w*m + 1, and the core of a is a
    subsum of that expansion; a finite tail is then restored by the tail
    rule.  Tables run to rank R = n*d because the power rule consumes
    ranks up to the total out-degree of its trees.

    The answer is at most (m + 1)^R * C(R^d, n) * (tail + 1)^n, which also
    bounds every table on the way, so that size is checked before any step.
    So is the power rule's work: one difference table per rank j <= n, of
    about (j*d)^2 / 2 subtractions.
    """
    core = Ordinal(tuple((e, c) for e, c in a.terms if not e.is_zero))
    tail = a.terms[-1][1] if a.terms[-1][0].is_zero else 0
    m = max(c for _, c in core.terms)
    d = core.leading_exponent.as_int()
    top = n * d
    _check_bits(top * ((m + 1).bit_length() + top.bit_length()) + n * (tail + 1).bit_length())
    # sum_{j <= n} (j*d)^2 / 2
    check_cap(d * d * n * (n + 1) * (2 * n + 1) // 12, MAX_STEPS, "power-rule subtractions")
    base = f"w*{m} + 1"
    steps = [
        ("omega-times-m-table", {"m": m, "max_rank": top}),
        ("bound-add", {"m": 1, "max_rank": top}),
        ("bound-pow", {"d": d, "max_rank": n}),
        ("subsum", {"core": str(core), "power_base": base, "exponent": d, "n": n}),
    ]
    if tail:
        steps.append(("bound-add", {"m": tail, "n": n}))
    return steps


# -- derivation and replay -------------------------------------------


def _apply(steps):
    """Run (rule, inputs) steps through :data:`RULES`, feeding each the
    latest table; yield (rule, inputs, output) per step."""
    table = None
    for rule, inputs in steps:
        if rule not in RULES:
            raise ValueError(f"unknown trace rule {rule!r}")
        produced = RULES[rule].compute(inputs, table)
        if isinstance(produced, tuple):
            table = produced
        yield rule, inputs, produced


def _derive(kind: str, *steps) -> DegreeResult:
    """The result of ``steps``, valued by the output of the last one."""
    trace = tuple(TraceStep(*applied) for applied in _apply(steps))
    return DegreeResult(kind, trace[-1].value, trace)


def replay_trace(result: DegreeResult) -> Optional[int]:
    """Re-execute a trace from its recorded inputs and check every step.

    Returns the reproduced value (None for the valueless kinds); raises
    ValueError on any step that does not recompute to its recorded output.
    """
    value = None
    replayed = _apply((step.rule, step.inputs) for step in result.trace)
    for step, (rule, _, produced) in zip(result.trace, replayed):
        if step.value is not None and produced != step.value:
            raise ValueError(f"step {rule} replayed to {produced}, not {step.value}")
        value = None if isinstance(produced, tuple) else produced
    if value != result.value:
        raise ValueError(f"trace replays to {value}, result holds {result.value}")
    return value
