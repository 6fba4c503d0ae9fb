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
from operator import sub
from typing import Dict, Iterator, Optional, Tuple

from .chains import Chain, Embedding, Leveled, Power, Record, SumTail, _as_chain

Tree = tuple  # nested tuples; a leaf is ()
ValTuple = Tuple[Chain, ...]


# -- counters --------------------------------------------------------


def binom(m: int, j: int) -> int:
    """C(m, j), zero when j exceeds m."""
    if j < 0:
        return 0
    return math.comb(m, j)


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
    out = []
    for j in range(min(n, m) + 1):
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


def reconstruct_mult(
    t: MultiplicativeType, v: Chain, codomain: Optional[Leveled] = None
) -> Embedding:
    """The embedding with multiplicative type t and value chain v.

    Default codomain puts the whole value chain on every level; pass the
    original codomain to land round trips on identical records.
    """
    images = mult_points(t, v)
    if codomain is None:
        codomain = Leveled((tuple(v),) * t.m)
    return Embedding(codomain, images)


def _compositions(n: int, m: int) -> Iterator[Tuple[int, ...]]:
    """Weak compositions of n into m parts, lexicographic."""
    if m == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, m - 1):
            yield (first, *rest)


def _block_sequences(p: Tuple[int, ...]) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Realizable ordered partitions for level counts p.

    A block holds at most one index per level, so a type is a sequence of
    nonempty level sets using level l exactly p[l] times; blocks then name
    their indices by how often each level was used before.  Level sets are
    tried in ascending bitmask order, which pins the output order; only
    sets of levels with p[l] > 0 can occur, so only those are built.
    """
    m = len(p)
    starts = [sum(p[:l]) for l in range(m)]
    live = [l for l in range(m) if p[l]]
    # bit i stands for live[i], which keeps the ascending order of the masks
    masks = [
        tuple(l for i, l in enumerate(live) if mask >> i & 1)
        for mask in range(1, 1 << len(live))
    ]

    def rec(remaining, used, acc):
        if all(r == 0 for r in remaining):
            yield tuple(acc)
            return
        for levels in masks:
            if any(remaining[l] == 0 for l in levels):
                continue
            block = tuple(starts[l] + used[l] for l in levels)
            for l in levels:
                remaining[l] -= 1
                used[l] += 1
            acc.append(tuple(sorted(block)))
            yield from rec(remaining, used, acc)
            acc.pop()
            for l in levels:
                remaining[l] += 1
                used[l] -= 1

    yield from rec(list(p), [0] * m, [])


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
    free, start = [], 0
    for count in p:
        free.append(start)
        start += count
    blocks = []
    for letter in letters:
        blocks.append((free[letter],))
        free[letter] += 1
    return MultiplicativeType(p, blocks)


def enum_strict(n: int, m: int) -> tuple:
    """The m^n strict types, in lexicographic order of their words."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    return tuple(
        _strict_from_letters(w, m) for w in itertools.product(range(m), repeat=n)
    )


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
    row = [math.prod(binom(y, x) for x in parts) for y in range(total + 1)]
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
    if not t.is_strict:
        raise ValueError("only strict types have words")
    check_word_levels(t.m)
    levels = "".join(str(level) * count for level, count in enumerate(t.p))
    return "".join([levels[i] for (i,) in t.blocks])


def word_to_strict(word: str, m: int) -> MultiplicativeType:
    """Inverse of :func:`strict_to_word` for words over alphabet m."""
    if m < 1 or m > 10:
        raise ValueError("alphabet size must be between 1 and 10")
    letters = tuple(map(int, word))
    if letters and max(letters) >= m:
        raise ValueError("word letter out of range")
    return _strict_from_letters(letters, m)


# -- power calculus --------------------------------------------------


def _require_power(f: Embedding) -> Power:
    if not isinstance(f.codomain, Power):
        raise TypeError("expected an embedding into Power")
    return f.codomain


def _suffix_levels(f: Embedding) -> list:
    """Per depth 0..m-1, the child label chains of that depth's vertices,
    left to right.

    One pass over the images: an image sharing its last k coordinates with
    the image before it adds a child to the open depth-k vertex and opens a
    new vertex at every depth below that; the first image opens one at
    every depth, and a repeat (k = m) adds nothing.
    """
    m = _require_power(f).m
    levels = [[] for _ in range(m)]
    prev = None
    for image in f.images:
        k = 0
        if prev is not None:
            while k < m and image[m - 1 - k] == prev[m - 1 - k]:
                k += 1
            if k == m:
                continue
            levels[k][-1].append(image[m - 1 - k])
            k += 1
        for depth in range(k, m):
            levels[depth].append([image[m - 1 - depth]])
        prev = image
    return levels


def power_type(f: Embedding) -> Tree:
    """The suffix tree shape of an embedding into Power.

    Vertices at depth d group images sharing their last d coordinates;
    out-degree-1 vertices are kept, so every leaf sits at depth m.
    """
    levels = _suffix_levels(f)
    # bottom-up: each vertex takes the next len(chain) subtrees of the row below
    row = [()] * sum(map(len, levels[-1]))
    for chains in reversed(levels):
        below, row, start = row, [], 0
        for chain in chains:
            row.append(tuple(below[start : start + len(chain)]))
            start += len(chain)
    return row[0] if row else ()


def power_val(f: Embedding) -> ValTuple:
    """Child label chains of every internal vertex, top to bottom then left
    to right; () for an embedding with no images."""
    return tuple(tuple(chain) for chains in _suffix_levels(f) for chain in chains)


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


def tree_height(tree: Tree) -> int:
    if tree == ():
        return 0
    return 1 + tree_height(tree[0])


def reconstruct_power(
    t: Tree, v: ValTuple, codomain: Optional[Power] = None
) -> Embedding:
    """The embedding into Power with suffix tree t and label chains v.

    The i-th chain labels the children of the i-th internal vertex in
    :func:`internal_nodes` order and must match its out-degree.  Default
    codomain uses all labels as the base and the tree height, so the empty
    embedding (t = v = ()) needs its codomain passed.
    """
    # internal vertices in internal_nodes order, where the internal children
    # of each take consecutive places, starting at first[i] for vertex i
    nodes, first = ([] if t == () else [t]), []
    for node in nodes:
        first.append(len(nodes))
        nodes.extend(child for child in node if child != ())
    if len(v) != len(nodes):
        raise ValueError(
            f"got {len(v)} chains for {len(nodes)} internal vertices"
        )
    chains = []
    for i, (node, chain) in enumerate(zip(nodes, v)):
        chain = _as_chain(chain)
        if len(chain) != len(node):
            path = internal_nodes(t)[i][0]
            raise ValueError(
                f"chain {chain} does not fit out-degree {len(node)} at {path}"
            )
        chains.append(chain)

    images = []

    def walk(i: int, above: tuple):
        below = first[i]
        for label, child in zip(chains[i], nodes[i]):
            if child == ():
                images.append((label, *above))
            else:
                walk(below, (label, *above))
                below += 1

    if nodes:
        walk(0, ())
    if codomain is None:
        base = tuple(sorted({x for img in images for x in img}))
        codomain = Power(base, tree_height(t))
    return Embedding(codomain, tuple(images))


def _positive_compositions(n: int) -> tuple:
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        out.extend((first, *rest) for rest in _positive_compositions(n - first))
    return tuple(out)


@lru_cache(maxsize=None)
def enum_power(n: int, m: int) -> tuple:
    """Ordered trees of height m with n leaves, all at depth m.

    Pinned order: leaf counts of the root's children in composition
    order (first part ascending), recursively.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if m == 0:
        return ((),) if n == 1 else ()
    if m == 1:
        # every leaf hangs off the root: listing the 2^(n - 1) compositions
        # would find only the all-ones one
        return (((),) * n,)
    out = []
    for comp in _positive_compositions(n):
        for kids in itertools.product(*(enum_power(c, m - 1) for c in comp)):
            out.append(tuple(kids))
    return tuple(out)
