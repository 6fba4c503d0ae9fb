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

Every normal form is made in one place, :func:`_sum`: ``+``, ``*`` and
the parser each hand it the monomials of a sum, left to right.  CNF
order is Python's lexicographic order on the ``terms`` tuples, with
exponents compared by the same ``<``.
"""

from __future__ import annotations

import functools
from typing import Iterable, Tuple


# Deepest parenthesized exponent the parser accepts.  Parsing, comparing,
# arithmetic and printing recurse a few frames per level, so this keeps
# them far from the interpreter's recursion limit.
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
            if not e2 < e1:
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
        return cls(((ZERO, c),)) if c else ZERO

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
        return self.terms < other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other) -> "Ordinal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Ordinal(_sum(self.terms + other.terms))

    def __radd__(self, other) -> "Ordinal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + self

    def __mul__(self, other) -> "Ordinal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms:
            return self
        # left distributivity: self * w^e*c for each term of other, summed
        (a0, c0), rest = self.terms[0], self.terms[1:]
        pieces = []
        for e, c in other.terms:
            if e.terms:
                pieces.append((a0 + e, c))
            else:
                # finite factor: only the leading coefficient scales
                pieces += ((a0, c0 * c), *rest)
        return Ordinal(_sum(pieces))

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
        out = ONE
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


def _sum(terms: Iterable[Tuple[Ordinal, int]]) -> Tuple[Tuple[Ordinal, int], ...]:
    """The normal form of the sum of monomials ``w^e*c``, taken left to right.

    Each term absorbs the earlier terms of smaller exponent and merges
    with one of equal exponent.  Coefficients must be >= 1.
    """
    out = []
    for e, c in terms:
        while out and out[-1][0] < e:
            out.pop()
        if out and out[-1][0] == e:
            c += out.pop()[1]
        out.append((e, c))
    return tuple(out)


def compare(a, b) -> int:
    """Return -1, 0 or 1 as a is less than, equal to or greater than b."""
    a, b = _coerce(a), _coerce(b)
    if a is None or b is None:
        raise TypeError("compare expects ordinals or ints")
    return (b < a) - (a < b)


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
        terms = [self.term()]
        self.skip_ws()
        while self.peek() == "+":
            self.pos += 1
            terms.append(self.term())
            self.skip_ws()
        # a literal 0 adds nothing
        return Ordinal(_sum(t for t in terms if t[1]))

    def term(self) -> Tuple[Ordinal, int]:
        """One monomial as an (exponent, coefficient) pair."""
        self.skip_ws()
        ch = self.peek()
        if "0" <= ch <= "9":
            return ZERO, self.nat()
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
        return exponent, coeff

    def expo(self) -> Ordinal:
        self.skip_ws()
        ch = self.peek()
        if "0" <= ch <= "9":
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
        # ASCII digits only: str.isdigit() also takes digits such as '²'
        # that int() refuses
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
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
