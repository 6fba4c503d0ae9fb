"""The rewritten primitives, each against one oracle of another method.

* ``ref_rank_counts``, the literal inclusion-exclusion sum over ranks, and
  ``ref_tail_table``, one ``bound_add`` per rank, stand against the one
  difference table and the one-pass table step; the first also reaches
  level-count vectors past enumeration.
* ``test_degrees.by_rank_double_sum``, the literal double sum, stands
  against the power and product rules' Horner pass.
* ``ref_cmp``, ``ref_add``, ``ref_mul`` and ``RefParser`` compare term by
  term and add one monomial at a time, where the package orders CNFs as
  tuples and normalises once in ``_sum``: the only value oracle for CNF
  arithmetic and parse error positions.
* The power primitives go through extraction and reconstruction both ways,
  the tree listing and leaf paths; strict words through ``mult_type`` of
  the embedding that spells them; a product witness's colour through
  ``mult_points``; the finite-chain oracle against min(k, C(c, n)).  Frozen
  digests pin the tree listing and images no embedding has, and every
  refusal is pinned by its message.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import random
from functools import lru_cache, reduce
from operator import getitem, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordramsey.chains import Embedding, Leveled, Power, _as_chain, enumerate_embeddings
from ordramsey.degrees import (
    ResourceCapError,
    _tail_rule,
    bound_add,
    bound_mul,
    bound_pow,
    pipeline_bound,
)
from ordramsey.ordinal import (
    MAX_NESTING,
    OMEGA,
    ONE,
    Ordinal,
    OrdinalSyntaxError,
    _coerce,
    _Parser,
    compare,
    parse,
)
from ordramsey.typecalc import (
    MultiplicativeType,
    binom,
    enum_power,
    enum_product_types,
    enum_strict,
    internal_nodes,
    mult_points,
    mult_type,
    out_degrees,
    power_type,
    power_val,
    rank_counts,
    reconstruct_power,
    strict_to_word,
    tree_height,
    word_to_strict,
)
from ordramsey.verify import REF_POWER_TREE, finite_degree_oracle
from ordramsey.witness import ProductWitness
from test_degrees import by_rank_double_sum, literal_differences
from test_ordinal import cnf_ordinals

# -- the kept oracles ------------------------------------------------------


@lru_cache(maxsize=None)
def ref_rank_counts(parts):
    parts = tuple(sorted(parts))
    total = sum(parts)
    if total == 0:
        return ((0, 1),)
    out = []
    for r in range(1, total + 1):
        count = 0
        for i in range(r + 1):
            product = (-1) ** i * binom(r, i)
            for x in parts:
                product *= binom(r - i, x)
            count += product
        if count:
            out.append((r, count))
    return tuple(out)


def ref_tail_table(inputs, table):
    return tuple(bound_add(j, inputs["m"], table) for j in range(inputs["max_rank"] + 1))


def ref_cmp(a, b):
    """Three-way CNF comparison: lexicographic on (exponent, coefficient)."""
    for (e1, c1), (e2, c2) in zip(a.terms, b.terms):
        k = ref_cmp(e1, e2)
        if k:
            return k
        if c1 != c2:
            return -1 if c1 < c2 else 1
    n1, n2 = len(a.terms), len(b.terms)
    return 0 if n1 == n2 else (-1 if n1 < n2 else 1)


def ref_lt(self, other):
    other = _coerce(other)
    if other is None:
        return NotImplemented
    return ref_cmp(self, other) < 0


def ref_compare(a, b):
    a, b = _coerce(a), _coerce(b)
    if a is None or b is None:
        raise TypeError("compare expects ordinals or ints")
    return ref_cmp(a, b)


def ref_add(self, other):
    other = _coerce(other)
    if other is None:
        return NotImplemented
    if not other.terms:
        return self
    if not self.terms:
        return other
    e0 = other.terms[0][0]
    keep = [t for t in self.terms if ref_cmp(t[0], e0) > 0]
    if len(keep) < len(self.terms) and self.terms[len(keep)][0] == e0:
        merged = (e0, self.terms[len(keep)][1] + other.terms[0][1])
        return Ordinal((*keep, merged, *other.terms[1:]))
    return Ordinal((*keep, *other.terms))


def ref_mul(self, other):
    other = _coerce(other)
    if other is None:
        return NotImplemented
    if not self.terms or not other.terms:
        return Ordinal()
    a0 = self.terms[0][0]
    total = Ordinal()
    for e, c in other.terms:
        if e.terms:
            piece = Ordinal(((ref_add(a0, e), c),))
        elif a0.terms:
            # right factor finite: only the leading coefficient scales
            piece = Ordinal(((a0, self.terms[0][1] * c), *self.terms[1:]))
        else:
            piece = Ordinal.from_int(self.terms[0][1] * c)
        total = ref_add(total, piece)
    return total


class RefParser(_Parser):
    """The parser that summed one term at a time."""

    def expr(self):
        total = self.term()
        while True:
            self.skip_ws()
            if self.peek() != "+":
                return total
            self.pos += 1
            total = ref_add(total, self.term())

    def term(self):
        self.skip_ws()
        ch = self.peek()
        if "0" <= ch <= "9":
            return Ordinal.from_int(self.nat())
        if ch != "w":
            self.fail("expected 'w' or a number")
        self.pos += 1
        exponent = ONE
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            exponent = self.expo()
        coeff = 1
        self.skip_ws()
        if self.peek() == "*":
            self.pos += 1
            self.skip_ws()
            at = self.pos
            coeff = self.nat()
            if coeff == 0:
                self.pos = at
                self.fail("coefficient must be >= 1")
        if exponent.is_zero:
            return Ordinal.from_int(coeff)
        return Ordinal(((exponent, coeff),))


def ref_parse(text):
    return RefParser(text).run()


# -- comparison --------------------------------------------------------


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # the comparison is over any exception
        return "raised", type(exc), str(exc)


def same(new, ref, *args):
    assert outcome(new, *args) == outcome(ref, *args)


def digest(outcomes):
    """A frozen fingerprint of a run of outcomes, exceptions by type name."""
    named = [(o[0], o[1].__name__, o[2]) if o[0] == "raised" else o for o in outcomes]
    return hashlib.sha256(repr(named).encode()).hexdigest()


def fails_with(message, fn, *args, error=ValueError):
    """fn(*args) raises ``error`` with exactly this message."""
    with pytest.raises(error) as info:
        fn(*args)
    assert str(info.value) == message


NOT_A_NUMBER = "invalid literal for int() with base 10: 'x'"
NOT_NATURAL = "chain labels must be natural numbers"
NOT_INCREASING = "chain labels must be strictly increasing"


# -- power primitives ------------------------------------------------------


@lru_cache(maxsize=None)
def small_power_embeddings():
    """Every embedding of n <= 4 points into Power(range(s), m) for s <= 4
    and m <= 3, where there are at most 3000 of them for that (s, m, n),
    each with its extracted type and value tuple."""
    out = []
    for s, m in itertools.product(range(1, 5), range(1, 4)):
        codomain = Power(tuple(range(s)), m)
        for n in range(1, 5):
            if binom(s**m, n) <= 3000:
                for f in enumerate_embeddings(n, codomain):
                    out.append((f, power_type(f), power_val(f)))
    return tuple(out)


@st.composite
def power_embeddings(draw):
    s = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=4))
    codomain = Power(tuple(range(s)), m)
    points = sorted(
        draw(st.sets(st.tuples(*[st.integers(0, s - 1)] * m), min_size=1, max_size=10)),
        key=lambda point: point[::-1],
    )
    return Embedding(codomain, tuple(points))


# trees of any shape, leaves at any depth, as reconstruct_power accepts them
trees = st.recursive(
    st.just(()), lambda kids: st.lists(kids, min_size=1, max_size=3).map(tuple), max_leaves=10
)
chains = st.lists(st.integers(min_value=-1, max_value=6), max_size=4)


def leaf_paths(tree, path=()):
    """The child index paths from the root to each leaf, left to right."""
    if tree == ():
        return [path]
    return [p for i, child in enumerate(tree) for p in leaf_paths(child, path + (i,))]


def check_internal_nodes(tree):
    """internal_nodes lists each non-leaf subtree with its path, by depth and
    then by path; returns the chains labelling each one's children 0, 1, ..."""
    nodes = internal_nodes(tree)
    paths = {p[:k] for p in leaf_paths(tree) for k in range(len(p))}
    assert [path for path, _ in nodes] == sorted(paths, key=lambda p: (len(p), p))
    assert all(node == reduce(getitem, path, tree) for path, node in nodes)
    return tuple(tuple(range(len(node))) for _, node in nodes)


class TestPower:
    def test_extraction_exhaustive(self):
        # every extracted type is a listed tree, with one label chain per
        # internal vertex that fits its out-degree
        listed = {}
        for f, t, v in small_power_embeddings():
            key = (f.n, f.codomain.m)
            if key not in listed:
                listed[key] = set(enum_power(*key))
            assert t in listed[key]
            assert tuple(map(len, v)) == out_degrees(t)
        assert len(small_power_embeddings()) == 8359

    def test_reconstruction_exhaustive(self):
        for f, t, v in small_power_embeddings():
            assert reconstruct_power(t, v, f.codomain) == f
            back = reconstruct_power(t, v)
            assert back.images == f.images
            assert back.codomain.m == f.codomain.m

    @settings(max_examples=100, deadline=None)
    @given(power_embeddings())
    def test_extraction_random(self, f):
        t, v = power_type(f), power_val(f)
        paths = leaf_paths(t)
        assert len(paths) == f.n
        assert {len(p) for p in paths} == {f.codomain.m} == {tree_height(t)}
        assert tuple(map(len, v)) == out_degrees(t)
        assert reconstruct_power(t, v, f.codomain) == f

    def test_repeated_and_unsorted_images_group_as_before(self):
        # images that no embedding has: repeated and out of order
        codomain = Power((0, 1, 2), 2)
        outcomes = []
        for images in itertools.product(((0, 0), (1, 0), (2, 1), (0, 2)), repeat=4):
            f = Embedding(codomain, images)
            outcomes.append(outcome(lambda: (power_type(f), power_val(f))))
        assert digest(outcomes) == (
            "65cced13c1add5dd77f764294a1e1cc52d4a38d47e7e76f99394c2978d8cb5ac"
        )

    @settings(max_examples=150, deadline=None)
    @given(trees, st.lists(chains, max_size=8))
    def test_reconstruction_of_any_input(self, t, v):
        fitting = check_internal_nodes(t)
        if t == ():
            return  # the empty embedding needs its codomain, see test_typecalc
        # with child i labelled i, each image is its leaf's path read upwards
        f = reconstruct_power(t, fitting)
        assert f.images == tuple(p[::-1] for p in leaf_paths(t))
        assert reconstruct_power(t, fitting, Power((0, 1), 2)).images == f.images
        # any other chains reconstruct or are refused, first by their count
        if len(v) != len(fitting):
            message = f"got {len(v)} chains for {len(fitting)} internal vertices"
            fails_with(message, reconstruct_power, t, v)
        with contextlib.suppress(ValueError):
            reconstruct_power(t, v)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_tree_listing_and_valid_label_chains(self, m):
        for n in range(1, 5):
            for t in enum_power(n, m):
                v = check_internal_nodes(t)
                f = reconstruct_power(t, v)
                assert f.images == tuple(p[::-1] for p in leaf_paths(t))
                assert (power_type(f), power_val(f)) == (t, v)

    @pytest.mark.parametrize(
        "v,message",
        [
            # too few chains
            (((0, 2, 5), (0, 6), (0, 1, 3), (2, 4)), "got 4 chains for 20 internal vertices"),
            # root chain shorter than the out-degree
            (((0, 2),) + ((0,),) * 19, "chain (0, 2) does not fit out-degree 3 at ()"),
            # a second-level mismatch
            (
                ((0, 2, 5), (0, 6, 7)) + ((0,),) * 18,
                "chain (0, 6, 7) does not fit out-degree 2 at (0,)",
            ),
            (((2, 1, 5),) + ((0,),) * 19, NOT_INCREASING),
            (((0, 2, 5), (-1, 6)) + ((0,),) * 18, NOT_NATURAL),
            (((0, 2, 5), ("x",)) + ((0,),) * 18, NOT_A_NUMBER),
            # a mismatch before a bad chain
            (
                ((0, 2, 5), (0, 6), (0, 9), (0,)) + ((0,),) * 16,
                "chain (0, 9) does not fit out-degree 3 at (1,)",
            ),
        ],
        ids=[f"v{i}" for i in range(7)],
    )
    def test_invalid_chains_fail_alike(self, v, message):
        fails_with(message, reconstruct_power, REF_POWER_TREE, v)


# -- strict words ----------------------------------------------------------


def spelled(letters, m):
    """The embedding into m levels whose j-th value sits on level letters[j]."""
    codomain = Leveled((tuple(range(len(letters))),) * m)
    points = sorted(enumerate(letters), key=lambda point: point[::-1])
    return Embedding(codomain, tuple(points))


class TestStrict:
    def test_words_exhaustive(self):
        for m in range(1, 5):
            for n in range(5):
                for letters in itertools.product(range(m), repeat=n):
                    word = "".join(map(str, letters))
                    t = word_to_strict(word, m)
                    assert t == mult_type(spelled(letters, m))
                    assert strict_to_word(t) == word

    def test_enumeration(self):
        for m in range(1, 5):
            for n in range(5):
                words = ["".join(map(str, w)) for w in itertools.product(range(m), repeat=n)]
                assert [strict_to_word(t) for t in enum_strict(n, m)] == words

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789", max_size=12), st.integers(min_value=-1, max_value=12))
    def test_words_random(self, word, m):
        if not 1 <= m <= 10:
            fails_with("alphabet size must be between 1 and 10", word_to_strict, word, m)
        elif any(int(ch) >= m for ch in word):
            fails_with("word letter out of range", word_to_strict, word, m)
        else:
            t = word_to_strict(word, m)
            assert t == mult_type(spelled(tuple(map(int, word)), m))
            assert strict_to_word(t) == word

    @pytest.mark.parametrize(
        "word,m,message",
        [
            ("x", 3, NOT_A_NUMBER),
            ("-1", 3, "invalid literal for int() with base 10: '-'"),
            ("12", 2, "word letter out of range"),
            ("", 0, "alphabet size must be between 1 and 10"),
            ("", 11, "alphabet size must be between 1 and 10"),
            ("9", 9, "word letter out of range"),
        ],
        ids=["x-3", "-1-3", "12-2", "-0", "-11", "9-9"],
    )
    def test_bad_words_fail_alike(self, word, m, message):
        fails_with(message, word_to_strict, word, m)

    def test_types_of_embeddings(self):
        # a strict type's word lists the levels of its points in value
        # order; non-strict types and types past ten levels are refused
        for m in (1, 2, 3, 11):
            codomain = Leveled(((0, 1),) * m)
            for n in range(4):
                for f in enumerate_embeddings(n, codomain):
                    t = mult_type(f)
                    if not t.is_strict:
                        fails_with("only strict types have words", strict_to_word, t)
                    elif m > 10:
                        fails_with("digit words need at most 10 levels", strict_to_word, t)
                    else:
                        word = "".join(str(level) for _, level in sorted(f.images))
                        assert strict_to_word(t) == word

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=4), max_size=5),
        st.lists(st.lists(st.integers(min_value=0, max_value=9), max_size=4), max_size=4),
    )
    def test_type_fields_normalise_as_before(self, p, blocks):
        # counts become ints and each block is sorted, whatever the iterables
        fields = tuple(int(x) for x in p), tuple(tuple(sorted(b)) for b in blocks)
        t = MultiplicativeType(p, blocks)
        assert (t.p, t.blocks) == fields
        t = MultiplicativeType(map(str, p), iter(map(tuple, blocks)))
        assert (t.p, t.blocks) == fields


# -- chains and the finite-chain oracle ------------------------------------


class TestChains:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=-3, max_value=8), max_size=6))
    def test_as_chain_random(self, values):
        values = tuple(values)
        for given_as in (values, tuple(map(str, values))):
            if min(values, default=0) < 0:
                fails_with(NOT_NATURAL, _as_chain, given_as)
            elif values != tuple(sorted(set(values))):
                fails_with(NOT_INCREASING, _as_chain, given_as)
            else:
                assert _as_chain(given_as) == values

    @pytest.mark.parametrize(
        "values,expected",
        [
            ((), ()),
            ((0,), (0,)),
            ((0, 1, 5), (0, 1, 5)),
            ((3, -1), NOT_NATURAL),
            ((-1, 3), NOT_NATURAL),
            ((2, 2), NOT_INCREASING),
            ((3, 1), NOT_INCREASING),
            ((1, 2, 2), NOT_INCREASING),
            (("1", "x"), NOT_A_NUMBER),
            ((1.5, 2), (1, 2)),
            ([0, 4], (0, 4)),
        ],
        ids=[f"values{i}" for i in range(11)],
    )
    def test_as_chain_cases(self, values, expected):
        if isinstance(expected, str):
            fails_with(expected, _as_chain, values)
        else:
            assert _as_chain(values) == expected


class TestOracle:
    def test_finite_degree_oracle(self):
        # a c-chain is its only copy, so the worst colouring shows
        # min(k, C(c, n)) colours; the caps refuse with their sizes
        for c, n, k in itertools.product(range(8), range(5), range(5)):
            subchains = binom(c, n)
            if not (1 <= n <= 3 and c <= 6 and k >= 1):
                message = f"oracle caps exceeded: c={c}, n={n}, k={k}"
            elif k**subchains > 300_000:
                message = f"coloring space {k}^{subchains} exceeds 300000"
            else:
                assert finite_degree_oracle(c, n, k) == min(k, subchains)
                continue
            fails_with(message, finite_degree_oracle, c, n, k, error=ResourceCapError)


class TestCounts:
    def test_rank_counts(self):
        # every level-count vector of up to three entries in 0..6, and a few
        # past the enumeration's reach
        vectors = [p for k in range(4) for p in itertools.product(range(7), repeat=k)]
        for parts in vectors + [(30,), (12, 20, 5), (1,) * 25]:
            same(rank_counts, ref_rank_counts, parts)

    def test_enum_power_order(self):
        # the listing order is pinned: every tree of n <= 7 leaves and
        # height m <= 4, and the refusals
        pairs = itertools.product(range(-1, 8), range(-1, 5))
        assert digest(outcome(enum_power, n, m) for n, m in pairs) == (
            "aa9fe2df81f1f450ee82ca7a3eb5b198f5234093201ecff95107621358f3d807"
        )


@lru_cache(maxsize=None)
def power_differences(n, d):
    """The literal differences of C(y^d, n) up to rank n*d.  The power
    rule weights them by the table, so every table at (n, d) shares them."""
    counts = [binom(y**d, n) for y in range(n * d + 1)]
    return tuple(literal_differences(n * d, counts.__getitem__))


def literal_pow(table, n, d):
    return sum(map(mul, table, power_differences(n, d)))


class TestRules:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.none(), st.lists(st.integers(0, 10**6), max_size=12).map(tuple)),
        st.integers(min_value=-1, max_value=8),
        st.data(),
    )
    def test_tail_table_step(self, table, m, data):
        # the one-pass table step against one bound_add per rank, past the
        # table's end and with no table at all
        top = data.draw(st.integers(-1, (12 if table is None else len(table)) + 2))
        same(_tail_rule, ref_tail_table, {"m": m, "max_rank": top}, table)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 10, 16, 25, 40, 60])
    def test_power_and_product_rules_at_large_d(self, d):
        # random monotone tables of big entries, and the tables the pipeline
        # lifts from w*m + 1 and feeds to the power rule
        rng = random.Random(d)
        for n in range(6):
            table = [1]
            for _ in range(n * d):
                table.append(table[-1] * rng.randrange(1, 4) + rng.randrange(5))
            literal = by_rank_double_sum(table, n, lambda y: binom(d * y, n))
            assert bound_mul(n, d, table) == literal
            if n == 0:
                continue
            assert bound_pow(n, d, table) == literal_pow(table, n, d)
            for m in (1, 3):
                _, lifted, powered, _ = pipeline_bound(parse(f"w^{d}*{m}"), n).trace
                assert powered.value == (1,) + tuple(
                    literal_pow(lifted.value, j, d) for j in range(1, n + 1)
                )


# grammar atoms: monomials, canonical or not, with nested exponents
TERM_ATOMS = [
    "0", "1", "3", "12", "w", "w*2", "w^2", "w^2*3", "w^0*4", "w^(0)", "w^1",
    "w^w", "w^(w)", "w^(w + 1)*2", "w^(1 + w + w^2*3 + w)", "w^(w^(w^2 + w) + 2)",
]
# and pieces that break the grammar
BROKEN_ATOMS = ["w*0", ")", "(", "^", "*", "+", " ", "w^", "x", "w^w^w", "00", "²"]
well_formed = st.lists(st.sampled_from(TERM_ATOMS), min_size=1, max_size=6).map(" + ".join)
texts = st.one_of(
    well_formed,
    st.lists(st.sampled_from(TERM_ATOMS + BROKEN_ATOMS), min_size=0, max_size=6).map("".join),
    st.lists(st.sampled_from(TERM_ATOMS + BROKEN_ATOMS), min_size=1, max_size=6).map(" + ".join),
)
ordinals = st.one_of(cnf_ordinals(), well_formed.map(ref_parse))


def nested(depth, inner):
    return "w^(" * depth + inner + ")" * depth


def at_depth(frames, fn, *args):
    """fn(*args), called with ``frames`` more frames on the stack."""
    if frames:
        return at_depth(frames - 1, fn, *args)
    return fn(*args)


class TestOrdinal:
    @pytest.mark.parametrize(
        "text",
        ["1 + w + w^2*3 + w", "w^0*4", "w^(0) + 2", "w*0", ")", "", "0", "w + 0 + 0",
         "3 + 0", "w^(w + 0)", "w^(0 + w*0)", "w + w^w + 1 + w^(w + 1)"],
    )
    def test_parse_cases(self, text):
        same(parse, ref_parse, text)

    @settings(max_examples=300, deadline=None)
    @given(texts)
    def test_parse_random(self, text):
        same(parse, ref_parse, text)

    @settings(max_examples=300, deadline=None)
    @given(ordinals, ordinals)
    def test_order_and_arithmetic(self, a, b):
        assert (a < b) is ref_lt(a, b)
        assert compare(a, b) == ref_compare(a, b)
        assert (a + b).terms == ref_add(a, b).terms
        assert (a * b).terms == ref_mul(a, b).terms

    @settings(max_examples=100, deadline=None)
    @given(ordinals, st.integers(0, 3))
    def test_ints_and_powers(self, a, k):
        assert (a < k, k < a) == (ref_lt(a, k), ref_lt(Ordinal.from_int(k), a))
        assert compare(a, k) == ref_compare(a, k)
        assert (a + k) == ref_add(a, k)
        assert (k + a) == ref_add(Ordinal.from_int(k), a)
        assert (a * k) == ref_mul(a, k)
        assert (k * a) == ref_mul(Ordinal.from_int(k), a)
        assert a**k == reduce(ref_mul, [a] * k, ONE)

    def test_refusals(self):
        for a, b in [(OMEGA, "w"), (OMEGA, 1.0), ("w", 2), (OMEGA, None)]:
            same(compare, ref_compare, a, b)

    def test_recursion_headroom_at_the_cap(self):
        # the deepest exponents the parser admits, differing only at the
        # bottom, so that every operation recurses all the way down
        a, b = parse(nested(MAX_NESTING, "w^2")), parse(nested(MAX_NESTING, "w^3"))
        with pytest.raises(OrdinalSyntaxError, match="nest deeper"):
            parse(nested(MAX_NESTING + 1, "w^2"))
        assert at_depth(200, lambda: a < b)
        assert not at_depth(200, lambda: a == b)
        assert at_depth(200, compare, a, b) == -1
        assert at_depth(200, lambda: a + b) == b
        assert at_depth(200, lambda: a * b).terms == ((b.terms[0][0], 1),)
        assert at_depth(200, str, a).count("(") == MAX_NESTING
        assert at_depth(200, lambda: parse(str(a)) == a)


class TestProductWitness:
    @pytest.mark.parametrize(
        "parts",
        [p for k in (1, 2) for p in itertools.product(range(1, 4), repeat=k)]
        + list(itertools.product(range(1, 3), repeat=3)),
    )
    def test_colors_as_through_leveled(self, parts):
        # the palette type of a tuple's colour, given the tuple's values,
        # reconstructs the tuple's points on its levels
        w = ProductWitness(parts)
        palette = enum_product_types(w.parts)
        for u in range(7):
            for chains in w.domain(range(u)):
                points = tuple((v, level) for level, chain in enumerate(chains) for v in chain)
                values = sorted({v for chain in chains for v in chain})
                assert mult_points(palette[w.color_of(chains)], values) == points
        # wrong sizes, and chains that are no chains
        sizes = f"expected chains of sizes {w.parts}"
        first = tuple(range(parts[0] + 1))
        for chains, message in [
            ((), sizes),
            (tuple(() for _ in parts) + ((),), sizes),
            ((first,) + tuple(() for _ in parts[1:]), sizes),
            (((1, 0),) + tuple(() for _ in parts[1:]), NOT_INCREASING),
            (((-1,),), NOT_NATURAL),
            ((("x",),), NOT_A_NUMBER),
            (tuple(tuple(range(k)) for k in parts)[:-1], sizes),
        ]:
            fails_with(message, w.color_of, chains)
