"""Cantor normal form arithmetic, parsing, and ordering."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordramsey.degrees import classify
from ordramsey.ordinal import OMEGA, ONE, ZERO, Ordinal, OrdinalSyntaxError, parse

# the most digits int() converts from a string here; 0 means no limit
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this interpreter converts numerals of any length"
)


def ord_terms(exponents, coefficients):
    return Ordinal(
        tuple((Ordinal.from_int(e), c) for e, c in zip(exponents, coefficients))
    )


@st.composite
def cnf_ordinals(draw, max_exp=4, max_coeff=5, max_terms=3):
    """Ordinals with finite exponents <= max_exp and small coefficients."""
    k = draw(st.integers(0, max_terms))
    exps = sorted(
        draw(
            st.lists(
                st.integers(0, max_exp), min_size=k, max_size=k, unique=True
            )
        ),
        reverse=True,
    )
    coeffs = draw(st.lists(st.integers(1, max_coeff), min_size=k, max_size=k))
    return ord_terms(exps, coeffs)


class TestParse:
    def test_zero(self):
        assert parse("0") == ZERO
        assert parse("0").terms == ()

    def test_plain_terms(self):
        assert parse("w") == OMEGA
        assert parse("w*3").terms == ((ONE, 3),)
        assert parse("w^2").terms == ((Ordinal.from_int(2), 1),)
        assert parse("7") == Ordinal.from_int(7)

    def test_like_terms_merge(self):
        assert parse("w + w") == parse("w*2")
        assert parse("1 + w") == OMEGA

    def test_nested_exponents(self):
        a = parse("w^(w + 1)*2")
        assert a.terms == ((OMEGA + 1, 2),)
        assert parse("w^w") == Ordinal(((OMEGA, 1),))
        assert parse("w^(w^2)").terms[0][0] == Ordinal(
            ((Ordinal.from_int(2), 1),)
        )

    def test_whitespace_insignificant(self):
        assert parse(" w^3*2+w *5 + 1 ") == parse("w^3*2 + w*5 + 1")

    @pytest.mark.parametrize("bad", ["", "w^", "w*0", "x", "w^w^w", "1 2", "w*"])
    def test_rejects(self, bad):
        with pytest.raises(OrdinalSyntaxError):
            parse(bad)

    def test_error_position(self):
        with pytest.raises(OrdinalSyntaxError) as info:
            parse("w + ?")
        assert info.value.position == 4

    def test_non_ascii_digit_position(self):
        # '²' passes str.isdigit() but not int(); it is no digit of the grammar
        with pytest.raises(OrdinalSyntaxError, match="expected a number") as info:
            parse("w*²")
        assert info.value.position == 2

    def test_zero_coefficient_position(self):
        with pytest.raises(OrdinalSyntaxError) as info:
            parse("w*0")
        assert info.value.position == 2

    @needs_digit_limit
    @pytest.mark.parametrize("prefix", ["", "w*", "w^", "w^2 + "])
    def test_overlong_numeral_position(self, prefix):
        # int() refuses it; the parser reports where the numeral starts
        with pytest.raises(OrdinalSyntaxError, match="number too long") as info:
            parse(prefix + "1" * (DIGIT_LIMIT + 1))
        assert info.value.position == len(prefix)

    @needs_digit_limit
    def test_numeral_at_the_digit_limit_parses(self):
        assert parse("w*" + "1" * DIGIT_LIMIT) == ord_terms([1], [int("1" * DIGIT_LIMIT)])


class TestFormat:
    @pytest.mark.parametrize(
        "text",
        ["0", "5", "w", "w*2", "w^2", "w^3*2 + w*5 + 1", "w^w", "w^(w + 1)*2", "w^(w^2)"],
    )
    def test_canonical_roundtrip(self, text):
        assert str(parse(text)) == text

    def test_suppresses_units(self):
        assert str(Ordinal(((ONE, 1),))) == "w"
        assert str(ord_terms([2], [1])) == "w^2"

    @given(cnf_ordinals())
    def test_parse_format_identity(self, a):
        assert parse(str(a)) == a


class TestArithmetic:
    def test_left_absorption(self):
        assert 1 + OMEGA == OMEGA
        assert OMEGA + 1 != OMEGA

    def test_add_merges(self):
        assert parse("w^2 + w") + parse("w") == parse("w^2 + w*2")
        assert parse("w*2 + 3") + parse("w") == parse("w*3")

    def test_mul_examples(self):
        assert parse("w*3 + 1") * OMEGA == parse("w^2")
        assert 2 * OMEGA == OMEGA
        assert OMEGA * 2 == parse("w*2")
        assert parse("w*2") * 3 == parse("w*6")

    def test_mul_zero(self):
        assert OMEGA * 0 == ZERO
        assert ZERO * OMEGA == ZERO

    def test_successor_square(self):
        assert parse("w*2 + 1") ** 2 == parse("w^2*2 + w*2 + 1")

    def test_successor_cube(self):
        # frozen: repeated multiplication expands (w*3 + 1)^3 term by term
        assert parse("w*3 + 1") ** 3 == parse("w^3*3 + w^2*3 + w*3 + 1")

    def test_pow_trivia(self):
        assert parse("w^2") ** 0 == ONE
        assert parse("w^2") ** 1 == parse("w^2")

    @given(cnf_ordinals(), cnf_ordinals(), cnf_ordinals())
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(cnf_ordinals(), cnf_ordinals(), cnf_ordinals())
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(cnf_ordinals(), cnf_ordinals(), cnf_ordinals())
    def test_left_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(cnf_ordinals(), cnf_ordinals())
    def test_results_stay_canonical(self, a, b):
        for value in (a + b, a * b):
            exps = [e for e, _ in value.terms]
            assert exps == sorted(exps, reverse=True)
            assert len(set(exps)) == len(exps)
            assert all(c >= 1 for _, c in value.terms)


class TestOrder:
    def test_compare_examples(self):
        assert OMEGA < parse("w*2")
        assert parse("w^2") > parse("w*9 + 5")
        assert parse("w + 1") == parse("w + 1")
        assert parse("w") < parse("w + 1")

    def test_total_order_with_ints(self):
        assert ZERO < 1 < OMEGA < parse("w + 1") < parse("w*2") < parse("w^2")

    @given(cnf_ordinals(), cnf_ordinals())
    def test_compare_antisymmetric(self, a, b):
        assert (a < b) is (b > a)
        assert [a < b, a == b, a > b].count(True) == 1

    @given(cnf_ordinals())
    def test_add_is_increasing(self, a):
        assert a + 1 > a
        assert a + OMEGA >= OMEGA


class TestThreshold:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", True),
            ("17", True),
            ("w^4*2 + w*5", True),
            ("w^w", False),
            ("w^w + 1", False),
            ("w^(w + 1)", False),
            ("w^(w^2)", False),
        ],
    )
    def test_below_omega_omega(self, text, expected):
        assert parse(text).below_omega_omega() is expected


class TestMisc:
    def test_as_int(self):
        assert parse("12").as_int() == 12
        assert ZERO.as_int() == 0
        with pytest.raises(ValueError):
            OMEGA.as_int()

    def test_immutability(self):
        with pytest.raises(AttributeError):
            OMEGA.terms = ()

    def test_shared_constants_refuse_del(self):
        # every ordinal is built from these three, so a deleted field
        # would break every later call
        value = classify(parse("w^2 + 1"), 2).value
        for constant in (ZERO, ONE, OMEGA):
            with pytest.raises(AttributeError):
                del constant.terms
        assert classify(parse("w^2 + 1"), 2).value == value

    def test_hashable(self):
        assert len({parse("w + 1"), parse("w + 1"), parse("w")}) == 2

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Ordinal(((ZERO, 0),))
        with pytest.raises(ValueError):
            Ordinal(((ONE, 1), (ONE, 2)))
        with pytest.raises(TypeError):
            Ordinal(((1, 1),))
