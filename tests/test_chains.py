"""Codomain point orders and embedding enumeration."""

from __future__ import annotations

import math

import pytest

from ordramsey.chains import (
    Embedding,
    Leveled,
    Power,
    SumTail,
    check_embedding,
    enumerate_embeddings,
    order_points,
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

    def test_sizes(self):
        assert len(order_points(SumTail((5, 9), 2))) == 4
        assert len(order_points(Power((0, 1, 2), 3))) == 27
        assert len(order_points(Leveled(((0,), (0, 1))))) == 3


class TestValidation:
    def test_chain_must_increase(self):
        with pytest.raises(ValueError):
            SumTail((3, 1), 0)
        with pytest.raises(ValueError):
            Leveled(((0, 0),))

    def test_labels_natural(self):
        with pytest.raises(ValueError):
            Power((-1, 0), 1)

    def test_order_points_refuses_other_values(self):
        with pytest.raises(TypeError, match=r"^not a codomain: \(0, 1\)$"):
            order_points((0, 1))

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

