"""Additive, multiplicative, and power types of chain embeddings.

Each calculus compresses an embedding into the finite data that survives
order isomorphism of the ambient chain:

* additive: which tail positions of a SumTail codomain are hit,
* multiplicative: per-level counts plus the total quasiorder that the raw
  values induce across levels of a Leveled codomain,
* power: the ordered rooted tree of shared tuple suffixes in a Power
  codomain, with leaves at uniform depth m.

For the latter two the extracted (type, value) pair determines the
embedding, and the reconstruction procedures here invert extraction
exactly.  Enumeration orders are pinned and documented per function; the
witness colorings index their palettes by these orders.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from itertools import product
from operator import sub
from typing import Dict, Iterator, Tuple

from .chains import Chain, Embedding, Leveled, Power, Record, SumTail, _as_chain

Tree = tuple  # nested tuples; a leaf is ()
ValTuple = Tuple[Chain, ...]


# -- type records ----------------------------------------------------


class AdditiveType(Record):
    """Tail positions of a SumTail codomain hit by an embedding."""

    __slots__ = ("m", "tau")

    def __init__(self, m: int, tau: Tuple[int, ...]):
        tau = tuple(sorted(set(tau)))
        if tau and not (0 <= tau[0] and tau[-1] < m):
            raise ValueError("tail positions must lie in range(m)")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "tau", tau)

    def as_json(self) -> dict:
        return {"m": self.m, "tau": list(self.tau)}


class MultiplicativeType(Record):
    """Per-level counts p plus the value quasiorder as an ordered partition.

    ``p[l]`` counts domain indices landing on level l; index i therefore
    sits on the level whose window of cumulative counts contains i.
    ``blocks`` lists the classes of equal value in increasing value order.
    """

    __slots__ = ("p", "blocks")

    def __init__(self, p: Tuple[int, ...], blocks: Tuple[Tuple[int, ...], ...]):
        object.__setattr__(self, "p", tuple(map(int, p)))
        object.__setattr__(self, "blocks", tuple(map(tuple, map(sorted, blocks))))

    @property
    def n(self) -> int:
        return sum(self.p)

    @property
    def m(self) -> int:
        return len(self.p)

    @property
    def rank(self) -> int:
        return len(self.blocks)

    @property
    def is_strict(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    def as_json(self) -> dict:
        return {"p": list(self.p), "blocks": [list(b) for b in self.blocks]}


# -- additive calculus -----------------------------------------------


def additive_type(f: Embedding) -> AdditiveType:
    """Which tail positions an embedding into SumTail hits."""
    codomain = f.codomain
    if not isinstance(codomain, SumTail):
        raise TypeError("additive_type expects an embedding into SumTail")
    tau = tuple(v for v, part in f.images if part == 1)
    return AdditiveType(codomain.m, tau)


def enum_additive(n: int, m: int) -> tuple:
    """All sum binom(m, j), j <= n, additive types.

    Pinned order: by tail-set size, lexicographic within a size, so the
    empty pattern sits at index 0.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be >= 0")
    # combinations() copies all m positions, which the empty pattern needs
    # none of: with n = 0 the listing has one record however large m is
    out = [AdditiveType(m, ())]
    for j in range(1, min(n, m) + 1):
        for tau in itertools.combinations(range(m), j):
            out.append(AdditiveType(m, tau))
    return tuple(out)


# -- multiplicative calculus -----------------------------------------


def mult_type(f: Embedding) -> MultiplicativeType:
    """Level counts and value quasiorder of an embedding into Leveled."""
    if not isinstance(f.codomain, Leveled):
        raise TypeError("mult_type expects an embedding into Leveled")
    p = [0] * f.codomain.m
    for _, level in f.images:
        p[level] += 1
    return _leveled_type(p, [value for value, _ in f.images])


def _leveled_type(p, values) -> MultiplicativeType:
    """The type of indices 0..n-1 with level counts p that take these values."""
    by_value: Dict[int, list] = {}
    for i, value in enumerate(values):
        by_value.setdefault(value, []).append(i)
    return MultiplicativeType(p, (by_value[v] for v in sorted(by_value)))


def mult_val(f: Embedding) -> Chain:
    """The distinct raw values of an embedding into Leveled, as a chain."""
    if not isinstance(f.codomain, Leveled):
        raise TypeError("mult_val expects an embedding into Leveled")
    return tuple(sorted({value for value, _ in f.images}))


def mult_points(t: MultiplicativeType, v: Chain) -> tuple:
    """The literal (value, level) assignment determined by (t, v).

    Index i takes the level its position in p dictates and the value of
    its block.  This is the reconstruction procedure itself; it is total
    even for type data that no embedding realizes.
    """
    v = _as_chain(v)
    if len(v) != t.rank:
        raise ValueError(f"value chain has {len(v)} points, type has rank {t.rank}")
    value_of = {}
    for value, block in zip(v, t.blocks):
        for i in block:
            value_of[i] = value
    level_of = [lvl for lvl, count in enumerate(t.p) for _ in range(count)]
    return tuple((value_of[i], level_of[i]) for i in range(t.n))


def reconstruct_mult(t: MultiplicativeType, v: Chain, codomain: Leveled) -> Embedding:
    """The embedding into codomain with multiplicative type t and value chain v."""
    return Embedding(codomain, mult_points(t, v))


def _compositions(n: int, m: int) -> Iterator[Tuple[int, ...]]:
    """Weak compositions of n into m parts, lexicographic: the gaps between
    m - 1 bars among n + m - 1 places, the bars in lexicographic order."""
    if m == 0:
        if n == 0:
            yield ()
        return
    places = n + m - 1
    for bars in itertools.combinations(range(places), m - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, places)))


def _block_sequences(p: Tuple[int, ...]) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Realizable ordered partitions for level counts p.

    A block holds at most one index per level, so a type is a sequence of
    nonempty level sets using level l exactly p[l] times; a block names its
    indices by how often each level was used before it.  Only levels with
    p[l] > 0 can occur, so only those are built.  Pinned order: the first
    block's level set in ascending bitmask order, then the rest of the
    sequence in this order.

    ``tails[rem]`` lists the sequences that use the live levels rem times
    each, as (first block, rest) pairs.  Each rest is an entry of a smaller
    vector's list, shared rather than copied, and the product order fills
    every smaller vector first.  A sequence is flattened once, at the end.
    """
    first = list(itertools.accumulate(p, initial=0))  # first[l] = sum(p[:l])
    live = [l for l in range(len(p)) if p[l]]
    full = tuple(p[l] for l in live)
    # bit i stands for live[i], which keeps the ascending order of the masks
    masks = [
        [i for i in range(len(live)) if mask >> i & 1] for mask in range(1, 1 << len(live))
    ]
    tails = {}
    for rem in product(*(range(c + 1) for c in full)):
        # the all-zero vector comes first and is the one with no block to place
        row = tails[rem] = [] if any(rem) else [()]
        for mask in masks:
            if all(rem[i] for i in mask):
                # levels ascend, and so do their next free indices
                block = tuple(first[live[i]] + full[i] - rem[i] for i in mask)
                rest = list(rem)
                for i in mask:
                    rest[i] -= 1
                row += [(block, tail) for tail in tails[tuple(rest)]]
    for node in tails[full]:
        blocks = []
        while node:
            block, node = node
            blocks.append(block)
        yield tuple(blocks)


def enum_mult(n: int, m: int) -> tuple:
    """All realizable multiplicative types with |domain| = n over m levels.

    Pinned order: level counts lexicographically, then block sequences in
    the :func:`_block_sequences` order.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be >= 0")
    out = []
    for p in _compositions(n, m):
        for blocks in _block_sequences(p):
            out.append(MultiplicativeType(p, blocks))
    return tuple(out)


def _strict_from_letters(letters: Tuple[int, ...], m: int) -> MultiplicativeType:
    p = [0] * m
    for letter in letters:
        p[letter] += 1
    # the next free index on each level, starting where the level starts
    free = list(itertools.accumulate(p, initial=0))
    blocks = []
    for letter in letters:
        blocks.append((free[letter],))
        free[letter] += 1
    # p holds ints and each block is one index, so there is nothing for the
    # constructor to normalise
    t = object.__new__(MultiplicativeType)
    object.__setattr__(t, "p", tuple(p))
    object.__setattr__(t, "blocks", tuple(blocks))
    return t


def enum_strict(n: int, m: int) -> tuple:
    """The m^n strict types, in lexicographic order of their words."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    return tuple(_strict_from_letters(w, m) for w in product(range(m), repeat=n))


def enum_product_types(parts: Tuple[int, ...]) -> tuple:
    """Realizable types whose level counts equal ``parts`` exactly."""
    parts = tuple(int(x) for x in parts)
    if not parts or any(x < 1 for x in parts):
        raise ValueError("parts must be a nonempty tuple of positive sizes")
    return tuple(MultiplicativeType(parts, blocks) for blocks in _block_sequences(parts))


@lru_cache(maxsize=None)
def rank_counts(parts: Tuple[int, ...]) -> Tuple[Tuple[int, int], ...]:
    """How many realizable types with level counts ``parts`` have each rank.

    Counted in closed form: a rank-r type is a sequence of r nonempty
    level sets using level l exactly parts[l] times, and by inclusion and
    exclusion over empty blocks there are
    sum_i (-1)^i C(r, i) prod_l C(r - i, parts[l]) of them, the r-th
    forward difference at 0 of prod_l C(y, parts[l]).  One difference
    table gives every r in about sum(parts)^2 / 2 subtractions.  Agreement
    with the explicit enumeration is enforced in the verify module.
    """
    parts = tuple(sorted(parts))
    total = sum(parts)
    if total == 0:
        return ((0, 1),)
    row = [math.prod(math.comb(y, x) for x in parts) for y in range(total + 1)]
    out = []
    for r in range(total + 1):
        if row[0]:
            out.append((r, row[0]))
        row = list(map(sub, row[1:], row))
    return tuple(out)


def check_word_levels(m: int):
    """Words spell levels as single digits, so they need m <= 10."""
    if m > 10:
        raise ValueError("digit words need at most 10 levels")


def strict_to_word(t: MultiplicativeType) -> str:
    """The word of a strict type: levels read along the value order."""
    try:
        indices = [i for (i,) in t.blocks]
    except ValueError:  # a block that is not a single index
        raise ValueError("only strict types have words") from None
    check_word_levels(t.m)
    levels = "".join([str(level) * count for level, count in enumerate(t.p)])
    return "".join([levels[i] for i in indices])


def word_to_strict(word: str, m: int) -> MultiplicativeType:
    """Inverse of :func:`strict_to_word` for words over alphabet m."""
    if m < 1 or m > 10:
        raise ValueError("alphabet size must be between 1 and 10")
    letters = tuple(map(int, word))
    if letters and max(letters) >= m:
        raise ValueError("word letter out of range")
    return _strict_from_letters(letters, m)


# -- power calculus --------------------------------------------------


def _power_pass(f: Embedding) -> Tuple[Tree, ValTuple]:
    """The suffix tree shape and the child label chains of an embedding into
    Power, from one pass over its images.

    ``levels[d]`` collects the child label chains of the depth-d vertices,
    left to right.  An image sharing its last k coordinates with the image
    before it adds a child to the open depth-k vertex and opens a new vertex
    at every depth below that; the first image opens one at every depth, and
    a repeat (k = m) adds nothing.
    """
    if not isinstance(f.codomain, Power):
        raise TypeError("expected an embedding into Power")
    m = f.codomain.m
    levels = [[] for _ in range(m)]
    prev = None
    for image in f.images:
        down = image[m - 1 :: -1]  # coordinates from the root's children down
        k = 0
        if prev is not None:
            while k < m and down[k] == prev[k]:
                k += 1
            if k == m:
                continue
            levels[k][-1].append(down[k])
            k += 1
        for depth in range(k, m):
            levels[depth].append([down[depth]])
        prev = down
    # bottom-up: the deepest vertices have only leaves as children, and every
    # other vertex takes the next len(chain) subtrees of the row below
    row = [((),) * len(chain) for chain in levels[-1]]
    for chains in reversed(levels[:-1]):
        below, row, start = row, [], 0
        for chain in chains:
            row.append(tuple(below[start : start + len(chain)]))
            start += len(chain)
    tree = row[0] if row else ()
    return tree, tuple(map(tuple, itertools.chain.from_iterable(levels)))


def power_type(f: Embedding) -> Tree:
    """The suffix tree shape of an embedding into Power.

    Vertices at depth d group images sharing their last d coordinates;
    out-degree-1 vertices are kept, so every leaf sits at depth m.
    """
    return _power_pass(f)[0]


def power_val(f: Embedding) -> ValTuple:
    """Child label chains of every internal vertex, top to bottom then left
    to right; () for an embedding with no images."""
    return _power_pass(f)[1]


def internal_nodes(tree: Tree) -> tuple:
    """Internal vertices in the same top-to-bottom, left-to-right order
    that :func:`power_val` uses, each as (path, node)."""
    if tree == ():
        return ()
    queue = [((), tree)]
    for path, node in queue:
        queue.extend(
            (path + (i,), child) for i, child in enumerate(node) if child != ()
        )
    return tuple(queue)


def out_degrees(tree: Tree) -> Tuple[int, ...]:
    """Out-degree sequence over the internal vertices of a power type."""
    return tuple(len(node) for _, node in internal_nodes(tree))


def reconstruct_power(t: Tree, v: ValTuple, codomain: Power) -> Embedding:
    """The embedding into codomain with suffix tree t and label chains v.

    The i-th chain labels the children of the i-th internal vertex in
    :func:`internal_nodes` order and must match its out-degree.
    """
    nodes = [] if t == () else [t]  # internal vertices, in internal_nodes order
    for node in nodes:
        nodes += [child for child in node if child != ()]
    if len(v) != len(nodes):
        raise ValueError(f"got {len(v)} chains for {len(nodes)} internal vertices")
    # top-down: down[i] holds the labels from the root to internal vertex i,
    # and leaves those to each leaf; the internal children of each vertex
    # join down in the order nodes lists them
    down, leaves = [()], []
    for i, (node, chain) in enumerate(zip(nodes, v)):
        chain = _as_chain(chain)
        if len(chain) != len(node):
            path = internal_nodes(t)[i][0]
            raise ValueError(f"chain {chain} does not fit out-degree {len(node)} at {path}")
        for label, child in zip(chain, node):
            (leaves if child == () else down).append(down[i] + (label,))
    # every chain increases, so two leaves' labels first differ below their
    # lowest common ancestor, in left-to-right order, and neither is a prefix
    # of the other: sorted order is depth-first order
    return Embedding(codomain, tuple(labels[::-1] for labels in sorted(leaves)))


@lru_cache(maxsize=None)
def enum_power(n: int, m: int) -> tuple:
    """Ordered trees of height m with n leaves, all at depth m.

    Pinned order: leaf counts of the root's children in composition order
    (first part ascending, then the rest in the same order), then the
    children in product order, each in this order one height down.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if m == 0:
        return ((),) if n == 1 else ()
    if m == 1:
        # every leaf hangs off the root: listing the 2^(n - 1) compositions
        # would find only the all-ones one
        return (((),) * n,)
    comps = [((),)]  # comps[k]: the compositions of k, in the pinned order
    for k in range(1, n + 1):
        comps.append(tuple((i, *rest) for i in range(1, k + 1) for rest in comps[k - i]))
    # trees[k], for k >= 1: the trees of the height built so far with k leaves,
    # from height 1 up, each height's children taken from the one below
    trees = [(((),) * k,) for k in range(n + 1)]
    for _ in range(m - 1):
        trees = [
            tuple([kids for comp in comps[k] for kids in product(*[trees[c] for c in comp])])
            for k in range(n + 1)
        ]
    return trees[n]
