"""The rewritten power, strict-word, chain and counting primitives against
their earlier implementations.

The ``ref_*`` functions below are the straightforward versions the
package used before it grouped suffixes in one pass, validated chains
with ``map``, mapped strict indices to levels once, listed one-level
power trees directly and counted product types by rank through one
difference table, built the tail rule's table one ``bound_add`` per
rank, and took the power and product rules' sum over ranks as a
difference table of the type counts, compared, added and multiplied
ordinals before every normal form came from one ``_sum``, parsed one
pairwise sum at a time, and typed a product witness's tuple through a
``Leveled`` codomain.  They are kept verbatim, apart from their names
(and the ``+`` they call, routed to ``ref_add``), as oracles: every
comparison requires the same result, or the same exception type and
message, a parse error's position included.  The one
intended difference is the empty power embedding, whose value tuple is
now () (``ref_power_val`` gives ((),)) and which now round-trips.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from operator import itemgetter

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
    _require_power,
    binom,
    enum_power,
    enum_strict,
    internal_nodes,
    rank_counts,
    mult_type,
    power_type,
    power_val,
    reconstruct_power,
    strict_to_word,
    tree_height,
    word_to_strict,
)
from ordramsey.verify import finite_degree_oracle
from ordramsey.witness import ProductWitness
from test_ordinal import cnf_ordinals

# -- the earlier implementations, verbatim -----------------------------


def ref_as_chain(values):
    values = tuple(int(v) for v in values)
    if any(v < 0 for v in values):
        raise ValueError("chain labels must be natural numbers")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError("chain labels must be strictly increasing")
    return values


def ref_labeled_tree(images: tuple, depth: int) -> tuple:
    """Children of a suffix-group node as (label, subtree) pairs."""
    if depth == 0:
        return ()
    kids = []
    for label, group in itertools.groupby(images, key=itemgetter(depth - 1)):
        kids.append((label, ref_labeled_tree(tuple(group), depth - 1)))
    return tuple(kids)


def ref_power_type(f):
    codomain = _require_power(f)
    labeled = ref_labeled_tree(f.images, codomain.m)
    return ref_shape(labeled)


def ref_shape(labeled: tuple):
    return tuple(ref_shape(child) for _, child in labeled)


def ref_power_val(f):
    codomain = _require_power(f)
    labeled = ref_labeled_tree(f.images, codomain.m)
    out = []
    queue = [labeled]
    while queue:
        node = queue.pop(0)
        out.append(tuple(label for label, _ in node))
        queue.extend(child for _, child in node if child != ())
    return tuple(out)


def ref_internal_nodes(tree) -> tuple:
    if tree == ():
        return ()
    out = []
    queue = [((), tree)]
    while queue:
        path, node = queue.pop(0)
        out.append((path, node))
        queue.extend(
            (path + (i,), child) for i, child in enumerate(node) if child != ()
        )
    return tuple(out)


def ref_reconstruct_power(t, v, codomain=None):
    nodes = ref_internal_nodes(t)
    if len(v) != len(nodes):
        raise ValueError(
            f"got {len(v)} chains for {len(nodes)} internal vertices"
        )
    chain_at = {}
    for (path, node), chain in zip(nodes, v):
        chain = ref_as_chain(chain)
        if len(chain) != len(node):
            raise ValueError(
                f"chain {chain} does not fit out-degree {len(node)} at {path}"
            )
        chain_at[path] = chain

    images = []

    def walk(node, path: tuple, above: tuple):
        chain = chain_at[path]
        for i, (label, child) in enumerate(zip(chain, node)):
            if child == ():
                images.append((label, *above))
            else:
                walk(child, path + (i,), (label, *above))

    walk(t, (), ())
    if codomain is None:
        base = tuple(sorted({x for img in images for x in img}))
        codomain = Power(base, tree_height(t))
    return Embedding(codomain, tuple(images))


def ref_strict_from_letters(letters, m):
    p = [0] * m
    for letter in letters:
        p[letter] += 1
    starts = [sum(p[:l]) for l in range(m)]
    used = [0] * m
    chain = []
    for letter in letters:
        chain.append(starts[letter] + used[letter])
        used[letter] += 1
    return MultiplicativeType(tuple(p), tuple((i,) for i in chain))


def ref_strict_to_word(t):
    if not t.is_strict:
        raise ValueError("only strict types have words")
    if t.m > 10:
        raise ValueError("digit words need at most 10 levels")
    return "".join(str(t.level_of(block[0])) for block in t.blocks)


def ref_word_to_strict(word, m):
    if m < 1 or m > 10:
        raise ValueError("alphabet size must be between 1 and 10")
    letters = tuple(int(ch) for ch in word)
    if any(letter >= m for letter in letters):
        raise ValueError("word letter out of range")
    return ref_strict_from_letters(letters, m)


def ref_finite_degree_oracle(c, n, k):
    if not (1 <= n <= 3 and 0 <= c <= 6 and k >= 1):
        raise ResourceCapError(f"oracle caps exceeded: c={c}, n={n}, k={k}")
    subchains = binom(c, n)
    space = k**subchains
    if space > 300_000:
        raise ResourceCapError(f"coloring space {k}^{subchains} exceeds 300000")
    worst = 0
    for coloring in itertools.product(range(k), repeat=subchains):
        worst = max(worst, len(set(coloring)))
    return worst


def ref_mult_fields(p, blocks):
    """The fields MultiplicativeType used to normalise its arguments to."""
    return tuple(int(x) for x in p), tuple(tuple(sorted(b)) for b in blocks)


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


@lru_cache(maxsize=None)
def ref_positive_compositions(n):
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        out.extend((first, *rest) for rest in ref_positive_compositions(n - first))
    return tuple(out)


@lru_cache(maxsize=None)
def ref_enum_power(n, m):
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if m == 0:
        return ((),) if n == 1 else ()
    out = []
    for comp in ref_positive_compositions(n):
        for kids in itertools.product(*(ref_enum_power(c, m - 1) for c in comp)):
            out.append(tuple(kids))
    return tuple(out)


def ref_tail_table(inputs, table):
    return tuple(bound_add(j, inputs["m"], table) for j in range(inputs["max_rank"] + 1))


def ref_by_rank(table, top, count):
    row = [count(y) for y in range(top + 1)]
    total = 0
    for r in range(top + 1):
        total += table[r] * row[0]
        row = [b - a for a, b in zip(row, row[1:])]
    return total


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


def ref_pow(self, m):
    out = Ordinal.from_int(1)
    for _ in range(m):
        out = ref_mul(out, self)
    return out


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
        if ch.isdigit():
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


def ref_mult_type(f):
    if not isinstance(f.codomain, Leveled):
        raise TypeError("mult_type expects an embedding into Leveled")
    p = [0] * f.codomain.m
    for _, level in f.images:
        p[level] += 1
    by_value = {}
    for i, (value, _) in enumerate(f.images):
        by_value.setdefault(value, []).append(i)
    blocks = tuple(tuple(by_value[v]) for v in sorted(by_value))
    return MultiplicativeType(tuple(p), blocks)


def ref_product_color_of(self, chains):
    chains = tuple(_as_chain(c) for c in chains)
    if len(chains) != len(self.parts) or any(
        len(c) != k for c, k in zip(chains, self.parts)
    ):
        raise ValueError(f"expected chains of sizes {self.parts}")
    codomain = Leveled(chains)
    images = tuple(
        (v, level) for level, chain in enumerate(chains) for v in chain
    )
    return self._index[ref_mult_type(Embedding(codomain, images))]


# -- comparison --------------------------------------------------------


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # the comparison is over any exception
        return "raised", type(exc), str(exc)


def same(new, ref, *args):
    assert outcome(new, *args) == outcome(ref, *args)


def small_power_embeddings():
    """Every embedding of n <= 4 points into Power(range(s), m) for s <= 4
    and m <= 3, where there are at most 3000 of them for that (s, m, n)."""
    for s, m in itertools.product(range(1, 5), range(1, 4)):
        codomain = Power(tuple(range(s)), m)
        for n in range(1, 5):
            if binom(s**m, n) <= 3000:
                yield from enumerate_embeddings(n, codomain)


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


class TestPower:
    def test_extraction_exhaustive(self):
        count = 0
        for f in small_power_embeddings():
            assert power_type(f) == ref_power_type(f)
            assert power_val(f) == ref_power_val(f)
            count += 1
        assert count == 8359

    def test_reconstruction_exhaustive(self):
        for f in small_power_embeddings():
            t, v = ref_power_type(f), ref_power_val(f)
            assert reconstruct_power(t, v, f.codomain) == ref_reconstruct_power(t, v, f.codomain)
            assert reconstruct_power(t, v) == ref_reconstruct_power(t, v)

    @settings(max_examples=100, deadline=None)
    @given(power_embeddings())
    def test_extraction_random(self, f):
        assert power_type(f) == ref_power_type(f)
        assert power_val(f) == ref_power_val(f)
        t, v = power_type(f), power_val(f)
        assert reconstruct_power(t, v, f.codomain) == ref_reconstruct_power(t, v, f.codomain) == f

    def test_repeated_and_unsorted_images_group_as_before(self):
        codomain = Power((0, 1, 2), 2)
        for images in itertools.product(((0, 0), (1, 0), (2, 1), (0, 2)), repeat=4):
            f = Embedding(codomain, images)
            assert power_type(f) == ref_power_type(f)
            assert power_val(f) == ref_power_val(f)

    @settings(max_examples=150, deadline=None)
    @given(trees, st.lists(chains, max_size=8))
    def test_reconstruction_of_any_input(self, t, v):
        assert internal_nodes(t) == ref_internal_nodes(t)
        if t == ():
            return  # the empty embedding, which the earlier version failed on
        fitting = tuple(tuple(range(len(node))) for _, node in ref_internal_nodes(t))
        for v in (tuple(v), fitting):
            same(reconstruct_power, ref_reconstruct_power, t, v)
            same(reconstruct_power, ref_reconstruct_power, t, v, Power((0, 1), 2))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_tree_listing_and_valid_label_chains(self, m):
        for n in range(1, 5):
            for t in enum_power(n, m):
                assert internal_nodes(t) == ref_internal_nodes(t)
                nodes = internal_nodes(t)
                v = tuple(tuple(range(len(node))) for _, node in nodes)
                assert reconstruct_power(t, v) == ref_reconstruct_power(t, v)

    @pytest.mark.parametrize(
        "v",
        [
            ((0, 2, 5), (0, 6), (0, 1, 3), (2, 4)),  # too few chains
            ((0, 2),) + ((0,),) * 19,  # root chain shorter than the out-degree
            ((0, 2, 5), (0, 6, 7)) + ((0,),) * 18,  # a second-level mismatch
            ((2, 1, 5),) + ((0,),) * 19,  # not increasing
            ((0, 2, 5), (-1, 6)) + ((0,),) * 18,  # not natural
            ((0, 2, 5), ("x",)) + ((0,),) * 18,  # not a number
            ((0, 2, 5), (0, 6), (0, 9), (0,)) + ((0,),) * 16,  # mismatch before a bad chain
        ],
    )
    def test_invalid_chains_fail_alike(self, v):
        from ordramsey.verify import REF_POWER_TREE

        assert outcome(reconstruct_power, REF_POWER_TREE, v)[0] == "raised"
        same(reconstruct_power, ref_reconstruct_power, REF_POWER_TREE, v)

    def test_empty_embedding_is_the_one_difference(self):
        f = Embedding(Power((0, 1), 2), ())
        assert power_type(f) == ref_power_type(f) == ()
        assert ref_power_val(f) == ((),)
        assert power_val(f) == ()
        with pytest.raises(KeyError):
            ref_reconstruct_power((), (), f.codomain)
        assert reconstruct_power((), (), f.codomain) == f


class TestStrict:
    def test_words_exhaustive(self):
        for m in range(1, 5):
            for n in range(5):
                for letters in itertools.product(range(m), repeat=n):
                    word = "".join(map(str, letters))
                    t = word_to_strict(word, m)
                    assert t == ref_word_to_strict(word, m)
                    assert t.p == ref_strict_from_letters(letters, m).p
                    assert strict_to_word(t) == ref_strict_to_word(t) == word

    def test_enumeration(self):
        for m in range(1, 5):
            for n in range(5):
                ref = tuple(
                    ref_strict_from_letters(w, m) for w in itertools.product(range(m), repeat=n)
                )
                assert enum_strict(n, m) == ref

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789", max_size=12), st.integers(min_value=-1, max_value=12))
    def test_words_random(self, word, m):
        # out-of-range letters and alphabet sizes fail with the same message
        same(word_to_strict, ref_word_to_strict, word, m)
        if 1 <= m <= 10 and all(int(ch) < m for ch in word):
            t = word_to_strict(word, m)
            assert strict_to_word(t) == ref_strict_to_word(t) == word

    @pytest.mark.parametrize("word,m", [("x", 3), ("-1", 3), ("12", 2), ("", 0), ("", 11), ("9", 9)])
    def test_bad_words_fail_alike(self, word, m):
        assert outcome(word_to_strict, word, m)[0] == "raised"
        same(word_to_strict, ref_word_to_strict, word, m)

    def test_types_of_embeddings(self):
        # non-strict types and types past ten levels fail alike
        for m in (1, 2, 3, 11):
            codomain = Leveled(((0, 1),) * m)
            for n in range(4):
                for f in enumerate_embeddings(n, codomain):
                    same(strict_to_word, ref_strict_to_word, mult_type(f))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=4), max_size=5),
        st.lists(st.lists(st.integers(min_value=0, max_value=9), max_size=4), max_size=4),
    )
    def test_type_fields_normalise_as_before(self, p, blocks):
        t = MultiplicativeType(p, blocks)
        assert (t.p, t.blocks) == ref_mult_fields(p, blocks)
        t = MultiplicativeType(map(str, p), iter(map(tuple, blocks)))
        assert (t.p, t.blocks) == ref_mult_fields(p, blocks)


class TestChains:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=-3, max_value=8), max_size=6))
    def test_as_chain_random(self, values):
        same(_as_chain, ref_as_chain, values)
        same(_as_chain, ref_as_chain, tuple(map(str, values)))

    @pytest.mark.parametrize(
        "values",
        [(), (0,), (0, 1, 5), (3, -1), (-1, 3), (2, 2), (3, 1), (1, 2, 2), ("1", "x"), (1.5, 2), [0, 4]],
    )
    def test_as_chain_cases(self, values):
        same(_as_chain, ref_as_chain, values)


class TestOracle:
    def test_finite_degree_oracle(self):
        for c, n, k in itertools.product(range(8), range(5), range(5)):
            same(finite_degree_oracle, ref_finite_degree_oracle, c, n, k)


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
        for n, m in itertools.product(range(-1, 8), range(-1, 5)):
            same(enum_power, ref_enum_power, n, m)


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
            assert bound_mul(n, d, table) == ref_by_rank(table, n, lambda y: binom(d * y, n))
            if n == 0:
                continue
            assert bound_pow(n, d, table) == ref_by_rank(
                table, n * d, lambda y: binom(y**d, n)
            )
            for m in (1, 3):
                _, lifted, powered, _ = pipeline_bound(parse(f"w^{d}*{m}"), n).trace
                assert powered.value == (1,) + tuple(
                    ref_by_rank(lifted.value, j * d, lambda y: binom(y**d, j))
                    for j in range(1, n + 1)
                )


# grammar atoms: monomials, canonical or not, with nested exponents
TERM_ATOMS = [
    "0", "1", "3", "12", "w", "w*2", "w^2", "w^2*3", "w^0*4", "w^(0)", "w^1",
    "w^w", "w^(w)", "w^(w + 1)*2", "w^(1 + w + w^2*3 + w)", "w^(w^(w^2 + w) + 2)",
]
# and pieces that break the grammar
BROKEN_ATOMS = ["w*0", ")", "(", "^", "*", "+", " ", "w^", "x", "w^w^w", "00"]
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
        assert a**k == ref_pow(a, k)

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
        w = ProductWitness(parts)
        for u in range(7):
            for chains in w.domain(range(u)):
                assert w.color_of(chains) == ref_product_color_of(w, chains)
        # wrong sizes, and chains that are no chains
        first = tuple(range(parts[0] + 1))
        for chains in [
            (), tuple(() for _ in parts) + ((),), (first,) + tuple(() for _ in parts[1:]),
            ((1, 0),) + tuple(() for _ in parts[1:]), ((-1,),), (("x",),),
            tuple(tuple(range(k)) for k in parts)[:-1],
        ]:
            same(w.color_of, lambda c: ref_product_color_of(w, c), chains)
