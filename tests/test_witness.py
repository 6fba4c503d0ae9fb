"""Lower-bound witness colorings realize their full palettes."""

from __future__ import annotations

import pytest

from ordramsey.chains import Embedding, Leveled, SumTail
from ordramsey.degrees import exact_omega_plus_m, exact_omega_times_m
from ordramsey.typecalc import enum_product_types
from ordramsey.witness import (
    AdditiveWitness,
    ProductWitness,
    StrictWitness,
    realized_colors,
    spread,
)


class TestAdditiveWitness:
    def test_palette_matches_formula(self):
        for n in range(5):
            for m in range(5):
                assert AdditiveWitness(n, m).palette == exact_omega_plus_m(n, m)

    def test_empty_pattern_is_color_zero(self):
        w = AdditiveWitness(2, 3)
        codomain = SumTail((0, 1, 2), 3)
        inside = Embedding(codomain, ((0, 0), (2, 0)))
        assert w.color_of(inside) == 0

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 2), (2, 3), (4, 4)])
    def test_full_palette_realized(self, n, m):
        w = AdditiveWitness(n, m)
        codomain = SumTail(tuple(range(n)), m)
        assert realized_colors(w, codomain) == set(range(w.palette))

    def test_rejects_wrong_codomain(self):
        w = AdditiveWitness(2, 3)
        with pytest.raises(ValueError):
            list(w.domain(SumTail((0, 1), 2)))
        with pytest.raises(ValueError):
            list(w.domain(Leveled(((0, 1),) * 3)))


class TestStrictWitness:
    def test_palette(self):
        for n in range(1, 5):
            for m in range(1, 5):
                assert StrictWitness(n, m).palette == exact_omega_times_m(n, m)

    def test_nonstrict_collapses_to_zero(self):
        w = StrictWitness(2, 2)
        codomain = Leveled(((0, 1), (0, 1)))
        shared = Embedding(codomain, ((0, 0), (0, 1)))
        assert w.color_of(shared) == 0

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 2), (2, 3), (4, 2), (2, 4)])
    def test_spread_realizes_full_palette(self, n, m):
        w = StrictWitness(n, m)
        levels = spread(range(n * m), m)
        assert realized_colors(w, Leveled(levels)) == set(range(w.palette))

    def test_shared_values_stay_within_palette(self):
        w = StrictWitness(2, 2)
        codomain = Leveled(((0, 1), (0, 1)))
        realized = realized_colors(w, codomain)
        assert realized <= set(range(w.palette))
        assert 0 in realized


class TestProductWitness:
    def test_palette_counts_types(self):
        for parts in ((1, 1), (2,), (2, 1), (1, 1, 1), (2, 2)):
            assert ProductWitness(parts).palette == len(enum_product_types(parts))

    @pytest.mark.parametrize("parts", [(1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1)])
    def test_full_palette_realized(self, parts):
        w = ProductWitness(parts)
        # a universe of size 2n leaves room for every collision pattern
        assert realized_colors(w, range(2 * sum(parts))) == set(range(w.palette))

    def test_color_is_type_index(self):
        w = ProductWitness((1, 1))
        assert len({w.color_of(((0,), (1,))), w.color_of(((1,), (0,))), w.color_of(((0,), (0,)))}) == 3

    def test_rejects_wrong_sizes(self):
        w = ProductWitness((2, 1))
        with pytest.raises(ValueError):
            w.color_of(((0,), (1,)))


class TestSpread:
    def test_levels_partition_source(self):
        levels = spread(range(10), 3)
        assert sorted(x for level in levels for x in level) == list(range(10))
        assert len(levels) == 3

    def test_levels_disjoint(self):
        levels = spread((2, 3, 5, 7, 11, 13), 2)
        assert set(levels[0]).isdisjoint(levels[1])

    def test_too_short(self):
        with pytest.raises(ValueError):
            spread((0, 1), 3)

    def test_empty_source_gives_empty_levels(self):
        # the instance of size 0: no embedding of n >= 1 points, and the
        # one empty embedding of n = 0 points
        assert spread((), 3) == ((), (), ())
        assert realized_colors(StrictWitness(2, 3), Leveled(spread((), 3))) == set()
        assert realized_colors(StrictWitness(0, 3), Leveled(spread((), 3))) == {0}

    @pytest.mark.parametrize("m", [0, -1])
    def test_needs_a_level(self, m):
        with pytest.raises(ValueError, match="need m >= 1"):
            spread((0, 1), m)
