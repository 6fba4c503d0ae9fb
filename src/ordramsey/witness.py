"""Witness colorings that force degree lower bounds.

Each coloring maps an object to the index of its type in the pinned
enumeration order of :mod:`ordramsey.typecalc`, so palettes line up with
degree formulas: a configuration realizing the whole palette witnesses
that fewer colors cannot suffice.  :func:`realized_colors` is always
exhaustive over the instance, never sampled.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence, Set, Tuple

from .chains import Chain, Embedding, Leveled, SumTail, _as_chain, enumerate_embeddings
from .typecalc import (
    _leveled_type,
    additive_type,
    enum_additive,
    enum_product_types,
    enum_strict,
    mult_type,
)


class Witness:
    """Colors an object by the index of its type in a pinned type listing.

    ``type_of`` maps an object to a type of ``types``, and ``domain``
    lists the objects of an instance; the palette is the whole listing.
    """

    def __init__(self, types: Sequence, type_of: Callable, domain: Callable):
        self._index = {t: i for i, t in enumerate(types)}
        self.palette = len(self._index)
        self.type_of = type_of
        self.domain = domain

    def color_of(self, x) -> int:
        return self._index[self.type_of(x)]


def _embeddings(n: int, kind: type, m: int, codomain) -> Iterator[Embedding]:
    """The n-point embeddings into a ``kind`` codomain of m levels."""
    if not isinstance(codomain, kind) or codomain.m != m:
        raise ValueError(f"expected a {kind.__name__} codomain with m = {m}")
    return enumerate_embeddings(n, codomain)


def AdditiveWitness(n: int, m: int) -> Witness:
    """Colors embeddings into a SumTail codomain by their tail pattern.

    Color 0 is the empty pattern (image inside the base); the palette is
    the full additive type count sum_{j<=n} C(m, j).
    """
    return Witness(enum_additive(n, m), additive_type, partial(_embeddings, n, SumTail, m))


def StrictWitness(n: int, m: int) -> Witness:
    """Colors embeddings into a Leveled codomain by their strict type.

    Strict types are indexed in word order, m^n in all; any non-strict
    type collapses onto color 0.  On spread configurations (disjoint
    per-level values) collisions cannot occur and the full m^n palette is
    realized.
    """
    types = enum_strict(n, m)

    def type_of(f: Embedding):
        t = mult_type(f)
        return t if t.is_strict else types[0]

    return Witness(types, type_of, partial(_embeddings, n, Leveled, m))


def ProductWitness(parts: Sequence[int]) -> Witness:
    """Colors tuples of chains by the type of their leveled concatenation.

    A tuple (A_0, ..., A_{s-1}) with |A_i| = parts[i] concatenates into
    the embedding that sends block i onto level i; its multiplicative
    type indexes the palette, the realizable types with exactly these
    level counts.
    """
    parts = tuple(int(x) for x in parts)

    def type_of(chains: Tuple[Chain, ...]):
        chains = tuple(_as_chain(c) for c in chains)
        if len(chains) != len(parts) or any(len(c) != k for c, k in zip(chains, parts)):
            raise ValueError(f"expected chains of sizes {parts}")
        return _leveled_type(parts, (v for chain in chains for v in chain))

    def domain(universe: Iterable[int]) -> Iterator[Tuple[Chain, ...]]:
        universe = _as_chain(universe)
        pools = [itertools.combinations(universe, k) for k in parts]
        return itertools.product(*pools)

    return Witness(enum_product_types(parts), type_of, domain)


def spread(source: Sequence[int], m: int) -> Tuple[Chain, ...]:
    """Split a chain into m levels, level i taking every m-th element
    starting at the i-th; an empty source gives m empty levels.  Distinct
    levels never share a value, which keeps the strict witness collision-free."""
    source = _as_chain(source)
    if m < 1:
        raise ValueError(f"need m >= 1 levels, not {m}")
    if 0 < len(source) < m:
        raise ValueError(f"need at least m = {m} source points")
    return tuple(source[i::m] for i in range(m))


def realized_colors(coloring, instance) -> Set[int]:
    """Every color the instance realizes, by exhaustive enumeration."""
    return {coloring.color_of(x) for x in coloring.domain(instance)}
