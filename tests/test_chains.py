"""Codomain point orders, embedding enumeration, and sign transport."""

from __future__ import annotations

import itertools
import math

import pytest

from ordramsey.chains import (
    Embedding,
    Leveled,
    Power,
    Signed,
    SumTail,
    check_embedding,
    enumerate_embeddings,
    leveled_of,
    order_points,
    reverse_transport,
    reverse_transport_inverse,
)


class TestOrderPoints:
    def test_sum_tail(self):
        assert order_points(SumTail((5, 9), 2)) == ((5, 0), (9, 0), (0, 1), (1, 1))

    def test_leveled(self):
        assert order_points(Leveled(((1, 4), (0, 2)))) == (
            (1, 0),
            (4, 0),
            (0, 1),
            (2, 1),
        )

    def test_power_antilex(self):
        assert order_points(Power((0, 1), 2)) == ((0, 0), (1, 0), (0, 1), (1, 1))

    def test_power_last_coordinate_dominates(self):
        points = order_points(Power((0, 1, 2), 3))
        assert points.index((2, 2, 0)) < points.index((0, 0, 1))

    def test_signed_reverses_negative_parts(self):
        signed = Signed((((0, 1, 2), "-"), ((4, 5), "+")))
        assert order_points(signed) == ((2, 0), (1, 0), (0, 0), (4, 1), (5, 1))

    def test_sizes(self):
        assert len(order_points(SumTail((5, 9), 2))) == 4
        assert len(order_points(Power((0, 1, 2), 3))) == 27
        assert len(order_points(Leveled(((0,), (0, 1))))) == 3
        assert len(order_points(Signed((((0, 1), "-"),)))) == 2


class TestValidation:
    def test_chain_must_increase(self):
        with pytest.raises(ValueError):
            SumTail((3, 1), 0)
        with pytest.raises(ValueError):
            Leveled(((0, 0),))

    def test_labels_natural(self):
        with pytest.raises(ValueError):
            Power((-1, 0), 1)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            Signed((((0, 1), "x"),))

    def test_check_embedding(self):
        codomain = Leveled(((0, 1), (0, 1)))
        good = Embedding(codomain, ((0, 0), (0, 1)))
        assert check_embedding(good) is good
        with pytest.raises(ValueError):
            check_embedding(Embedding(codomain, ((0, 1), (0, 0))))
        with pytest.raises(ValueError):
            check_embedding(Embedding(codomain, ((7, 0),)))


class TestEnumeration:
    @pytest.mark.parametrize(
        "codomain",
        [
            SumTail((0, 1, 2), 2),
            Leveled(((0, 1), (0, 1, 2))),
            Power((0, 1), 2),
            Signed((((0, 1), "-"), ((0, 1, 2), "+"))),
        ],
    )
    def test_counts_and_validity(self, codomain):
        total = len(order_points(codomain))
        for n in range(total + 2):
            found = list(enumerate_embeddings(n, codomain))
            assert len(found) == math.comb(total, n)
            assert len(set(found)) == len(found)
            for f in found:
                check_embedding(f)

    def test_zero_and_full(self):
        codomain = SumTail((0,), 1)
        assert [f.images for f in enumerate_embeddings(0, codomain)] == [()]
        assert list(enumerate_embeddings(3, codomain)) == []


class TestTransport:
    def test_single_negative_part(self):
        signed = Signed((((0, 1, 2), "-"),))
        f = Embedding(signed, ((0, 0),))
        g = reverse_transport(f)
        assert g.codomain == Leveled(((0, 1, 2),))
        assert g.images == ((2, 0),)

    def test_transport_preserves_validity(self):
        signed = Signed((((0, 1, 2), "-"), ((0, 1), "+")))
        for n in range(6):
            for f in enumerate_embeddings(n, signed):
                check_embedding(reverse_transport(f))

    def test_involution_exhaustive(self, verify_sweep):
        # verify transports back and forth every embedding into two parts of
        # sizes a, b <= 3 under each of the four sign pairs: 4 * 2^(a + b)
        checked = sum(4 * 2 ** (a + b) for a, b in itertools.product((1, 2, 3), repeat=2))
        assert f"[ok] transport-involution checked={checked}: 0" in verify_sweep.stdout.splitlines()

    def test_transport_is_bijection(self):
        signed = Signed((((0, 2, 5), "-"), ((1, 3), "-")))
        forward = {
            reverse_transport(f) for f in enumerate_embeddings(2, signed)
        }
        companion = leveled_of(signed)
        assert companion == Leveled(((0, 2, 5), (1, 3)))
        everything = set(enumerate_embeddings(2, companion))
        assert forward == everything

    def test_wrong_codomain_rejected(self):
        leveled = Leveled(((0, 1),))
        with pytest.raises(TypeError):
            reverse_transport(Embedding(leveled, ((0, 0),)))

    def test_inverse_needs_the_companion_levels(self):
        signed = Signed((((0, 2, 5), "-"), ((1, 3), "+")))
        g = Embedding(leveled_of(signed), ((0, 0), (1, 1)))
        assert reverse_transport_inverse(g, signed).images == ((5, 0), (1, 1))
        # other chains, fewer parts, or more parts than the signed codomain
        for levels in (((0, 2, 5), (1, 4)), ((0, 2, 5),), ((0, 2, 5), (1, 3), ())):
            with pytest.raises(ValueError, match="^codomain does not match the signed parts$"):
                reverse_transport_inverse(Embedding(Leveled(levels), ()), signed)
        with pytest.raises(TypeError):
            reverse_transport_inverse(Embedding(signed, ()), signed)
