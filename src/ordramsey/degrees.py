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
each rule's statement and formula once, and the classifier,
:func:`replay_trace` and the exact and count helpers compute through it.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import comb
from operator import add, mul, sub
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .chains import Record
from .ordinal import OMEGA, ONE, Ordinal
# enum_power and out_degrees are unused here: bench/tracer.py wraps them at these names
from .typecalc import enum_power, out_degrees, rank_counts

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
    it refuses what a per-rank bound_add would refuse, with its message,
    then work past MAX_STEPS: min(m, R) passes of R + 1 multiply-adds.
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
    check_cap(min(m, top) * (top + 1), MAX_STEPS, "tail-rule steps")
    out = list(table[: top + 1])
    for j in range(1, min(m, top) + 1):
        weight = comb(m, j)
        out[j:] = map(add, out[j:], [weight * t for t in table[: top + 1 - j]])
    return tuple(out)


def _finite_chain_rule(inputs: dict, table: tuple) -> int:
    """C(c, n) for c >= n, else 1; refused past the answer cap, as C(c, n) <= c^n."""
    c, n = inputs["c"], inputs["n"]
    _check_bits(n * c.bit_length())
    return comb(c, n) if c >= n else 1


def _m_table_rule(inputs: dict, table: tuple) -> tuple:
    """(m^0, ..., m^R) as running products, refused past R * bitlen(m) bits; R < 0 gives ()."""
    m, top = inputs["m"], inputs["max_rank"]
    _check_bits(top * m.bit_length())
    return tuple(accumulate(repeat(m, top), mul, initial=1))[: top + 1]


RULES = {
    "zero-domain": Rule("T(0, C) = 1 for every chain C", lambda i, t: 1),
    "finite-chain-convention": Rule(
        "convention: T(n, c) = C(c, n) for finite c >= n >= 1, else 1", _finite_chain_rule
    ),
    "ramsey-omega": Rule("T(n, w) = 1", lambda i, t: 1),
    "omega-plus-m": Rule(
        "T(n, w + m) = sum_{j=0..n} C(m, j)",
        lambda i, t: exact_omega_plus_m(i["n"], i["m"]),
    ),
    "omega-times-m": Rule(
        "T(n, w*m) = m^n", lambda i, t: exact_omega_times_m(i["n"], i["m"])
    ),
    "omega-times-m-table": Rule("T(j, w*m) = m^j for j = 0..R", _m_table_rule),
    "bound-add": Rule(
        "T(n, a + m) <= sum_{j=0..n} C(m, j) * T(n - j, a)", _tail_rule
    ),
    "bound-pow": Rule(
        "T(n, a^d) <= sum over (n, d)-power types of the product bound on their out-degrees",
        lambda i, t: _power_table(t, i["d"], i["max_rank"]),
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
# classify 'w^3' --n 109 --cap 200 takes 0.2 s and types product
# --count-only over 1150 ones 1.3-1.5 s.  classify 'w^214' --n 5 is
# predicted at about 1.26e6 power-rule steps and takes 0.3 s.  The power
# rule's prediction, sum_{j <= n} (j*d)^2 / 2, is a loose upper bound on
# its one Horner pass of (n*d)^2 / 2 subtractions.  It also bounds the level
# counts that types mult lists, records times m: --n 1 --m 1414 takes 0.9 s.
# The tail rule's table step makes min(m, R) * (R + 1) multiply-adds, 1.1 s
# in process at m = 10^6 and R = 1400.
MAX_STEPS = 2_000_000
# Most records types may list, and most objects a witness report may list
# (palette types plus embeddings) or build (instance points, strict palette
# level counts): seconds of work.
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
    """T(n, w + m) = sum_{j <= n} C(m, j), the bound-add rule over T(j, w) = 1."""
    _check_n(n)
    if m < 0:
        raise ValueError("m must be >= 0")
    # at most 2^m, and at most (m + 1)^n
    _check_bits(min(m + 1, n * (m + 1).bit_length()))
    return RULES["bound-add"].compute({"m": m, "n": min(m, n)}, (1,) * (min(m, n) + 1))


def exact_omega_times_m(n: int, m: int) -> int:
    """T(n, w*m) = m^n, rank n of the omega-times-m-table rule."""
    _check_n(n)
    if m < 1:
        raise ValueError("m must be >= 1")
    return RULES["omega-times-m-table"].compute({"m": m, "max_rank": n}, None)[n]


def exact_signed(n: int, signs: Sequence[str]) -> int:
    """T(n, w^(s_0) + ... + w^(s_{m-1})) = m^n for any sign vector.

    Reversing parts transports colorings back and forth, so only the
    number of parts matters.
    """
    _check_n(n)
    if not signs or any(s not in ("+", "-") for s in signs):
        raise ValueError("signs must be a nonempty sequence over '+'/'-'")
    return exact_omega_times_m(n, len(signs))


def exact_integers(n: int) -> int:
    """T(n, Z) = 2^n: the integers are the two-part case w^(-) + w."""
    return exact_omega_times_m(n, 2)


def _check_n(n: int):
    if n < 0:
        raise ValueError("n must be >= 0")


# -- type counts -----------------------------------------------------
#
# How many types each typecalc enumerator lists, in closed form and refusing
# the same arguments with the same messages, so counting lists nothing.


def count_additive(n: int, m: int) -> int:
    """len(enum_additive(n, m)) = T(n, w + m), read from its rule."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be >= 0")
    return RULES["omega-plus-m"].compute({"m": m, "n": n}, None)


def count_strict(n: int, m: int) -> int:
    """len(enum_strict(n, m)) = T(n, w*m) = m^n, read from its rule."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    return RULES["omega-times-m"].compute({"m": m, "n": n}, None)


def count_power(n: int, m: int) -> int:
    """len(enum_power(n, m)) = m^(n - 1), rank n - 1 of the omega-times-m-table
    rule: two neighbouring leaves part at one of the m depths; 0^j = 0 for j >= 1."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    rank = n - 1 if m else min(n - 1, 1)
    return RULES["omega-times-m-table"].compute({"m": m, "max_rank": rank}, None)[rank]


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
    # C(m, j + 1) from C(m, j), and C(m, j) = 0 for j > m
    weights = accumulate(range(min(m, n)), lambda c, j: c * (m - j) // (j + 1), initial=1)
    return sum(map(mul, weights, reversed(table[: n + 1])))


def bound_mul(n: int, m: int, table: Sequence[int]) -> int:
    """Product rule: sum of T(rank(t), a) over all (n, m)-multiplicative types.

    C(m*y, n) counts the (n, m)-types whose y value blocks may be empty; the
    r-th forward difference at 0, sum_i (-1)^i C(r, i) C(m*(r - i), n), keeps
    the rank-r types, those using all r.  As D = E - 1 for the shift E, the
    sum over ranks is sum_{y <= n} C(m*y, n) * W[y], W from :func:`_weights`.
    """
    _check_n(n)
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_table(table, n)
    return sum(comb(m * y, n) * w for y, w in enumerate(_weights(table, n)))


def product_bound(parts: Sequence[int], table: Sequence[int]) -> int:
    """Sum of T(rank(t), a) over types with level counts exactly ``parts``.

    ``table`` must cover ranks up to sum(parts).
    """
    parts = tuple(map(int, parts))
    if any(x < 1 for x in parts):
        raise ValueError("parts must be positive")
    _check_table(table, sum(parts))
    return sum(count * table[r] for r, count in rank_counts(parts))


def bound_pow(n: int, m: int, table: Sequence[int]) -> int:
    """Power rule: T(n, a^m) <= sum over (n, m)-power types of the product
    bound on their out-degree sequences: rank n of the bound-pow rule's table.

    C(y^m, n) counts the trees whose internal vertices each carry a chain
    of y labels, as n-subsets of Power(range(y), m).  Out-degrees across a
    tree sum to at most n*m, so ``table`` must cover ranks that far.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    _check_table(table, n * m)
    return RULES["bound-pow"].compute({"d": m, "max_rank": n}, table)[n]


def _power_table(table: Sequence[int], d: int, max_rank: int) -> tuple:
    """(1, bound_pow(1, d, table), ..., bound_pow(max_rank, d, table)).

    C(y^d, j) is a polynomial of degree j*d in y, so its forward differences
    past rank j*d vanish, and one W over ranks up to max_rank*d serves every
    j: rank j is sum_{y <= max_rank*d} C(y^d, j) * W[y].  The counts come
    from the rank before, C(N, j) = C(N, j - 1) * (N - j + 1) / j.  Refusals
    are bound_pow's, rank by rank, then the work's: sum_{j <= max_rank}
    (j*d)^2 / 2 subtractions, loosely bounding the one Horner pass.
    """
    if max_rank < 1:
        return (1,)
    if d < 1:
        raise ValueError("need n >= 1 and m >= 1")
    for j in range(1, max_rank + 1):
        # a short table fails at the first rank it misses
        _check_table(table, j * d)
    steps = d * d * max_rank * (max_rank + 1) * (2 * max_rank + 1) // 12
    check_cap(steps, MAX_STEPS, "power-rule subtractions")
    w = _weights(table, max_rank * d)
    sizes = [y**d for y in range(len(w))]
    counts, out = sizes, [1, sum(map(mul, sizes, w))]  # C(y^d, 1) = y^d
    for j in range(2, max_rank + 1):
        counts = [c * (size - j + 1) // j for c, size in zip(counts, sizes)]
        out.append(sum(map(mul, counts, w)))
    return tuple(out)


def _weights(table: Sequence[int], top: int) -> list:
    """W[y], the coefficient of x^y in sum_{r <= top} table[r] * (x - 1)^r.

    One Horner pass builds W in about (top + 1)^2 / 2 subtractions on the
    table's entries, in the pipeline much smaller than the counts.
    """
    w = [table[top]]
    for entry in reversed(table[:top]):
        # W <- W * (x - 1) + entry
        w = [entry - w[0], *map(sub, w, w[1:]), w[-1]]
    return w


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
        return _derive(EXACT, ("finite-chain-convention", {"c": a.as_int(), "n": n}))
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
    bounds every table on the way, so that size is checked before any step;
    each rule bounds its own work.
    """
    core = Ordinal(tuple((e, c) for e, c in a.terms if not e.is_zero))
    tail = a.terms[-1][1] if a.terms[-1][0].is_zero else 0
    m = max(c for _, c in core.terms)
    d = core.terms[0][0].as_int()
    top = n * d
    _check_bits(top * ((m + 1).bit_length() + top.bit_length()) + n * (tail + 1).bit_length())
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

    Returns the reproduced value (None for the valueless kinds).  Raises
    ValueError, naming the step, on a malformed step (a missing input, one
    of the wrong type, a rank past its table) or on one that does not
    recompute to its recorded output; a step past a cap raises
    :class:`ResourceCapError`, since the rules refuse as they do for
    :func:`classify`.
    """
    value = None
    replayed = _apply((step.rule, step.inputs) for step in result.trace)
    for step in result.trace:
        try:
            _, _, produced = next(replayed)
        except (LookupError, TypeError, AttributeError) as exc:
            raise ValueError(f"step {step.rule} is malformed: {exc!r}") from exc
        if step.value is not None and produced != step.value:
            shown = f"{_shown(produced)}, not {_shown(step.value)}"
            raise ValueError(f"step {step.rule} replayed to {shown}")
        value = None if isinstance(produced, tuple) else produced
    if value != result.value:
        raise ValueError(f"trace replays to {_shown(value)}, result holds {_shown(result.value)}")
    return value


def _shown(value) -> str:
    """``value`` for a message, each int past MAX_ANSWER_BITS by its length: it may not print."""
    if isinstance(value, tuple):
        return f"({', '.join(map(_shown, value))})"
    if isinstance(value, int) and value.bit_length() > MAX_ANSWER_BITS:
        return f"<an int of {value.bit_length()} bits>"
    return str(value)
