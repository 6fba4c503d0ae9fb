"""Finite chains, structured codomains, and order embeddings.

A chain is a strictly increasing tuple of natural labels.  Three codomain
shapes cover the targets the degree calculus works inside:

* :class:`SumTail`   -- a base chain followed by an m-point tail (A + m),
* :class:`Leveled`   -- per-level chains U_0 + ... + U_{m-1} inside A*m,
  ordered level-major: (a, l) precedes (b, k) iff l < k, or l = k and a < b,
* :class:`Power`     -- m-tuples over a base chain in antilexicographic
  order, last coordinate dominant.

An :class:`Embedding` records its codomain and the image points of
0 < 1 < ... < n-1 in increasing codomain order.  Construction does not
re-validate (the reconstruction procedures in :mod:`ordramsey.typecalc`
must be able to materialize reference data verbatim); use
:func:`check_embedding` where validity matters.

The immutable records of every module derive from :class:`Record`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import attrgetter, ge
from typing import Iterator, Tuple, Union

Chain = Tuple[int, ...]


def _as_chain(values) -> Chain:
    values = tuple(map(int, values))
    # a negative label is reported before a break in the order; an
    # increasing chain can only start with one
    if any(map(ge, values, values[1:])):
        if min(values) < 0:
            raise ValueError("chain labels must be natural numbers")
        raise ValueError("chain labels must be strictly increasing")
    if values and values[0] < 0:
        raise ValueError("chain labels must be natural numbers")
    return values


class Record:
    """Immutable record whose fields are its class's ``__slots__``.

    Each subclass's ``__init__`` sets every field once with
    ``object.__setattr__``.  Records are equal when their types and fields
    are, the hash is that of the field tuple, and the repr reads
    ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda r: (get(r),))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = zip(self.__slots__, self._values(self))
        body = ", ".join(f"{name}={value!r}" for name, value in fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values(self)


class SumTail(Record):
    """A + m: base chain points, then an m-point tail after all of them."""

    __slots__ = ("base", "m")

    def __init__(self, base: Chain, m: int):
        object.__setattr__(self, "base", _as_chain(base))
        if m < 0:
            raise ValueError("tail length must be >= 0")
        object.__setattr__(self, "m", m)


class Leveled(Record):
    """U_0 + ... + U_{m-1}: one finite chain per level, level-major order."""

    __slots__ = ("levels",)

    def __init__(self, levels: Tuple[Chain, ...]):
        object.__setattr__(self, "levels", tuple(_as_chain(u) for u in levels))

    @property
    def m(self) -> int:
        return len(self.levels)


class Power(Record):
    """A^m: all m-tuples over the base, antilex (last coordinate dominant)."""

    __slots__ = ("base", "m")

    def __init__(self, base: Chain, m: int):
        object.__setattr__(self, "base", _as_chain(base))
        if m < 1:
            raise ValueError("power height must be >= 1")
        object.__setattr__(self, "m", m)


Codomain = Union[SumTail, Leveled, Power]


@lru_cache(maxsize=None)
def order_points(codomain: Codomain) -> tuple:
    """All points of the codomain in increasing order.

    SumTail and Leveled points are (value, level) pairs; Power points are
    the m-tuples themselves.
    """
    if isinstance(codomain, SumTail):
        base = tuple((v, 0) for v in codomain.base)
        tail = tuple((j, 1) for j in range(codomain.m))
        return base + tail
    if isinstance(codomain, Leveled):
        return tuple(
            (v, level) for level, chain in enumerate(codomain.levels) for v in chain
        )
    if isinstance(codomain, Power):
        # product varies the last slot fastest; reversing each tuple makes
        # the first coordinate fastest, which is exactly antilex order
        return tuple(
            t[::-1] for t in itertools.product(codomain.base, repeat=codomain.m)
        )
    raise TypeError(f"not a codomain: {codomain!r}")


class Embedding(Record):
    """Images of the chain 0 < ... < n-1 inside a codomain."""

    __slots__ = ("codomain", "images")

    def __init__(self, codomain: Codomain, images: tuple):
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "images", tuple(images))


def check_embedding(f: Embedding) -> Embedding:
    """Raise ValueError unless f is strictly increasing inside its codomain."""
    rank = {p: i for i, p in enumerate(order_points(f.codomain))}
    last = -1
    for point in f.images:
        r = rank.get(point)
        if r is None:
            raise ValueError(f"image {point!r} is not a codomain point")
        if r <= last:
            raise ValueError("images must be strictly increasing")
        last = r
    return f


def enumerate_embeddings(n: int, codomain: Codomain) -> Iterator[Embedding]:
    """All embeddings of an n-chain, C(size, n) of them, in image order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for combo in itertools.combinations(order_points(codomain), n):
        yield Embedding(codomain, combo)
