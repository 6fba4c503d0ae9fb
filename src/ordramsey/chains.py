"""Finite chains, structured codomains, and order embeddings.

A chain is a strictly increasing tuple of natural labels.  Four codomain
shapes cover the targets the degree calculus works inside:

* :class:`SumTail`   -- a base chain followed by an m-point tail (A + m),
* :class:`Leveled`   -- per-level chains U_0 + ... + U_{m-1} inside A*m,
  ordered level-major: (a, l) precedes (b, k) iff l < k, or l = k and a < b,
* :class:`Power`     -- m-tuples over a base chain in antilexicographic
  order, last coordinate dominant,
* :class:`Signed`    -- a sum of finite parts each read forwards ('+') or
  backwards ('-'), the backwards parts standing for reversed copies.

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

PLUS = "+"
MINUS = "-"


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


class Signed(Record):
    """Parts in order, each a finite chain tagged '+' (as is) or '-' (reversed)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Tuple[Tuple[Chain, str], ...]):
        cleaned = []
        for part, sign in parts:
            if sign not in (PLUS, MINUS):
                raise ValueError(f"sign must be '+' or '-', got {sign!r}")
            cleaned.append((_as_chain(part), sign))
        object.__setattr__(self, "parts", tuple(cleaned))


Codomain = Union[SumTail, Leveled, Power, Signed]


@lru_cache(maxsize=None)
def order_points(codomain: Codomain) -> tuple:
    """All points of the codomain in increasing order.

    SumTail and Leveled and Signed points are (value, level) pairs; Power
    points are the m-tuples themselves.
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
    if isinstance(codomain, Signed):
        points = []
        for index, (part, sign) in enumerate(codomain.parts):
            values = part if sign == PLUS else part[::-1]
            points.extend((v, index) for v in values)
        return tuple(points)
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


def leveled_of(signed: Signed) -> Leveled:
    """The unsigned companion: same part chains, every sign read forwards."""
    return Leveled(tuple(part for part, _ in signed.parts))


def reverse_transport(f: Embedding) -> Embedding:
    """Carry an embedding into a Signed codomain over to its unsigned companion.

    Within each '-' part the value is replaced by its mirror image in that
    part's chain; '+' parts pass through.  The point map is an involution,
    so transporting back with :func:`reverse_transport_inverse` returns f.
    """
    signed = f.codomain
    if not isinstance(signed, Signed):
        raise TypeError("reverse_transport expects an embedding into Signed")
    images = tuple(_transport_images(f.images, signed))
    return Embedding(leveled_of(signed), images)


def reverse_transport_inverse(g: Embedding, signed: Signed) -> Embedding:
    """Inverse of :func:`reverse_transport` for the given Signed codomain."""
    if not isinstance(g.codomain, Leveled):
        raise TypeError("expected an embedding into Leveled")
    if g.codomain != leveled_of(signed):
        raise ValueError("codomain does not match the signed parts")
    images = tuple(_transport_images(g.images, signed))
    return Embedding(signed, images)


def _transport_images(images, signed: Signed):
    for value, index in images:
        part, sign = signed.parts[index]
        yield (value if sign == PLUS else part[len(part) - 1 - part.index(value)], index)
