"""Witness colorings that force degree lower bounds.

Each coloring maps an object to the index of its type in the pinned
enumeration order of :mod:`ordramsey.typecalc`, so palettes line up with
degree formulas: a configuration realizing the whole palette witnesses
that fewer colors cannot suffice.  :func:`realized_colors` is always
exhaustive over the instance, never sampled.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence, Set, Tuple

from .chains import Chain, Embedding, Leveled, SumTail, _as_chain, enumerate_embeddings
from .typecalc import (
    _leveled_type,
    additive_type,
    enum_additive,
    enum_product_types,
    enum_strict,
    mult_type,
)


class AdditiveWitness:
    """Colors embeddings into a SumTail codomain by their tail pattern.

    Color 0 is the empty pattern (image inside the base); the palette is
    the full additive type count sum_{j<=n} C(m, j).
    """

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self._index = {t: i for i, t in enumerate(enum_additive(n, m))}
        self.palette = len(self._index)

    def color_of(self, f: Embedding) -> int:
        return self._index[additive_type(f)]

    def domain(self, codomain: SumTail) -> Iterator[Embedding]:
        if not isinstance(codomain, SumTail) or codomain.m != self.m:
            raise ValueError(f"expected a SumTail codomain with m = {self.m}")
        return enumerate_embeddings(self.n, codomain)


class StrictWitness:
    """Colors embeddings into a Leveled codomain by their strict type.

    Strict types are indexed in word order, m^n in all; any non-strict
    type collapses onto color 0.  On spread configurations (disjoint
    per-level values) collisions cannot occur and the full m^n palette is
    realized.
    """

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self._index = {t: i for i, t in enumerate(enum_strict(n, m))}
        self.palette = len(self._index)

    def color_of(self, f: Embedding) -> int:
        t = mult_type(f)
        return self._index[t] if t.is_strict else 0

    def domain(self, codomain: Leveled) -> Iterator[Embedding]:
        if not isinstance(codomain, Leveled) or codomain.m != self.m:
            raise ValueError(f"expected a Leveled codomain with m = {self.m}")
        return enumerate_embeddings(self.n, codomain)


class ProductWitness:
    """Colors tuples of chains by the type of their leveled concatenation.

    A tuple (A_0, ..., A_{s-1}) with |A_i| = parts[i] concatenates into
    the embedding that sends block i onto level i; its multiplicative
    type indexes the palette, the realizable types with exactly these
    level counts.
    """

    def __init__(self, parts: Sequence[int]):
        self.parts = tuple(int(x) for x in parts)
        self._index = {t: i for i, t in enumerate(enum_product_types(self.parts))}
        self.palette = len(self._index)
        self.n = sum(self.parts)

    def color_of(self, chains: Tuple[Chain, ...]) -> int:
        chains = tuple(_as_chain(c) for c in chains)
        if len(chains) != len(self.parts) or any(
            len(c) != k for c, k in zip(chains, self.parts)
        ):
            raise ValueError(f"expected chains of sizes {self.parts}")
        values = (v for chain in chains for v in chain)
        return self._index[_leveled_type(self.parts, values)]

    def domain(self, universe: Iterable[int]) -> Iterator[Tuple[Chain, ...]]:
        universe = _as_chain(universe)
        pools = [itertools.combinations(universe, k) for k in self.parts]
        return itertools.product(*pools)


def spread(source: Sequence[int], m: int) -> Tuple[Chain, ...]:
    """Split a chain into m levels, level i taking every m-th element
    starting at the i-th.  Distinct levels never share a value, which is
    what keeps the strict witness collision-free."""
    source = _as_chain(source)
    if len(source) < m or m < 1:
        raise ValueError(f"need at least m = {m} source points")
    return tuple(source[i::m] for i in range(m))


def realized_colors(coloring, instance) -> Set[int]:
    """Every color the instance realizes, by exhaustive enumeration."""
    return {coloring.color_of(x) for x in coloring.domain(instance)}
