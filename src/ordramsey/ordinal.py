"""Ordinal arithmetic in Cantor normal form.

An ordinal is kept as a sum ``w^e0*c0 + ... + w^ek*ck`` with strictly
decreasing exponents (themselves ordinals) and integer coefficients >= 1;
the empty sum is 0.  Arithmetic follows the usual ordinal rules, so ``+``
and ``*`` are associative but not commutative and addition absorbs on the
left (``1 + w == w``).

The concrete syntax accepted by :func:`parse` and produced by ``str()``:

    expr  :=  term ('+' term)*
    term  :=  'w' ('^' expo)? ('*' nat)?  |  nat
    expo  :=  nat  |  '(' expr ')'  |  'w'

Whitespace is insignificant, and parenthesized exponents nest at most
:data:`MAX_NESTING` deep.  ``str()`` emits the canonical spelling:
terms in decreasing exponent order, ``^1`` and ``*1`` suppressed, ``" + "``
between terms, so ``parse(str(a)) == a`` exactly.
"""

from __future__ import annotations

import functools
from typing import Iterable, Tuple


# Deepest parenthesized exponent the parser accepts.  Parsing, comparing
# and printing recurse once per level, so this keeps them far from the
# interpreter's recursion limit.
MAX_NESTING = 100


class OrdinalSyntaxError(ValueError):
    """Malformed ordinal expression; ``position`` is the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@functools.total_ordering
class Ordinal:
    """An ordinal below epsilon_0, immutable and hashable.

    ``terms`` is the Cantor normal form as a tuple of (exponent,
    coefficient) pairs.  Ints coerce in arithmetic and comparisons, and
    ``**`` accepts natural exponents only.
    """

    __slots__ = ("terms",)

    terms: Tuple[Tuple["Ordinal", int], ...]

    def __init__(self, terms: Iterable[Tuple["Ordinal", int]] = ()):
        terms = tuple((e, int(c)) for e, c in terms)
        for e, c in terms:
            if not isinstance(e, Ordinal):
                raise TypeError(f"exponent must be an Ordinal, got {e!r}")
            if c < 1:
                raise ValueError(f"coefficient must be >= 1, got {c}")
        for (e1, _), (e2, _) in zip(terms, terms[1:]):
            if _cmp(e1, e2) <= 0:
                raise ValueError("exponents must be strictly decreasing")
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    def __reduce__(self):
        return Ordinal, (self.terms,)

    # -- construction ------------------------------------------------

    @classmethod
    def from_int(cls, c: int) -> "Ordinal":
        if c < 0:
            raise ValueError("ordinals are non-negative")
        if c == 0:
            return cls()
        return cls(((cls(), c),))

    @classmethod
    def parse(cls, text: str) -> "Ordinal":
        """Parse the ASCII grammar above; raises OrdinalSyntaxError."""
        return _Parser(text).run()

    # -- predicates and views ----------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    def as_int(self) -> int:
        if not self.is_finite:
            raise ValueError(f"{self} is not finite")
        return self.terms[0][1] if self.terms else 0

    def below_omega_omega(self) -> bool:
        """True when every exponent in the normal form is finite."""
        return all(e.is_finite for e, _ in self.terms)

    @property
    def leading_exponent(self) -> "Ordinal":
        if not self.terms:
            raise ValueError("0 has no leading term")
        return self.terms[0][0]

    # -- comparison --------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _cmp(self, other) < 0

    def __hash__(self) -> int:
        return hash(self.terms)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other) -> "Ordinal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        e0 = other.terms[0][0]
        keep = [t for t in self.terms if _cmp(t[0], e0) > 0]
        if len(keep) < len(self.terms) and self.terms[len(keep)][0] == e0:
            merged = (e0, self.terms[len(keep)][1] + other.terms[0][1])
            return Ordinal((*keep, merged, *other.terms[1:]))
        return Ordinal((*keep, *other.terms))

    def __radd__(self, other) -> "Ordinal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + self

    def __mul__(self, other) -> "Ordinal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return Ordinal()
        a0 = self.terms[0][0]
        total = Ordinal()
        for e, c in other.terms:
            if e.terms:
                piece = Ordinal(((a0 + e, c),))
            elif a0.terms:
                # right factor finite: only the leading coefficient scales
                piece = Ordinal(((a0, self.terms[0][1] * c), *self.terms[1:]))
            else:
                piece = Ordinal.from_int(self.terms[0][1] * c)
            total = total + piece
        return total

    def __rmul__(self, other) -> "Ordinal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, m: int) -> "Ordinal":
        if not isinstance(m, int):
            return NotImplemented
        if m < 0:
            raise ValueError("only natural powers are defined")
        out = Ordinal.from_int(1)
        for _ in range(m):
            out = out * self
        return out

    # -- formatting --------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(_term_str(e, c) for e, c in self.terms)

    def __repr__(self) -> str:
        return f'Ordinal("{self}")'


def _coerce(x) -> "Ordinal | None":
    if isinstance(x, Ordinal):
        return x
    if isinstance(x, int):
        return Ordinal.from_int(x)
    return None


def _cmp(a: Ordinal, b: Ordinal) -> int:
    """Three-way CNF comparison: lexicographic on (exponent, coefficient)."""
    for (e1, c1), (e2, c2) in zip(a.terms, b.terms):
        k = _cmp(e1, e2)
        if k:
            return k
        if c1 != c2:
            return -1 if c1 < c2 else 1
    n1, n2 = len(a.terms), len(b.terms)
    return 0 if n1 == n2 else (-1 if n1 < n2 else 1)


def compare(a, b) -> int:
    """Return -1, 0 or 1 as a is less than, equal to or greater than b."""
    a, b = _coerce(a), _coerce(b)
    if a is None or b is None:
        raise TypeError("compare expects ordinals or ints")
    return _cmp(a, b)


def _term_str(e: Ordinal, c: int) -> str:
    if e.is_zero:
        return str(c)
    out = "w"
    if e != ONE:
        if e.is_finite:
            out += f"^{e.as_int()}"
        elif e == OMEGA:
            out += "^w"
        else:
            out += f"^({e})"
    if c != 1:
        out += f"*{c}"
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def run(self) -> Ordinal:
        value = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("unexpected trailing input")
        return value

    def fail(self, message: str):
        raise OrdinalSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> Ordinal:
        total = self.term()
        while True:
            self.skip_ws()
            if self.peek() != "+":
                return total
            self.pos += 1
            total = total + self.term()

    def term(self) -> Ordinal:
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

    def expo(self) -> Ordinal:
        self.skip_ws()
        ch = self.peek()
        if ch.isdigit():
            return Ordinal.from_int(self.nat())
        if ch == "w":
            self.pos += 1
            return OMEGA
        if ch == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"exponents nest deeper than {MAX_NESTING} levels")
            self.pos += 1
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.skip_ws()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            return inner
        self.fail("expected an exponent")

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected a number")
        return int(self.text[start : self.pos])


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal(((ONE, 1),))


def parse(text: str) -> Ordinal:
    """Module-level alias for :meth:`Ordinal.parse`."""
    return Ordinal.parse(text)
