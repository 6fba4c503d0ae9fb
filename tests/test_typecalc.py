"""Type extraction, reconstruction, enumeration, and counters."""

from __future__ import annotations

import hashlib
import itertools
import random
import time
import tracemalloc
from math import comb

import pytest

from ordramsey.chains import Embedding, Leveled, Power, SumTail, enumerate_embeddings
from ordramsey.typecalc import (
    AdditiveType,
    MultiplicativeType,
    additive_type,
    enum_additive,
    enum_mult,
    enum_power,
    enum_product_types,
    enum_strict,
    internal_nodes,
    mult_points,
    mult_type,
    mult_val,
    out_degrees,
    power_type,
    power_val,
    rank_counts,
    reconstruct_mult,
    reconstruct_power,
    strict_to_word,
    word_to_strict,
)
from ordramsey.verify import (
    REF_MULT_BLOCKS,
    REF_MULT_CODOMAIN,
    REF_MULT_IMAGES,
    REF_MULT_P,
    REF_MULT_VAL,
    REF_POWER_CODOMAIN,
    REF_POWER_IMAGES,
    REF_POWER_TREE,
    REF_POWER_VAL,
    REF_RECON_POINTS,
    REF_RECON_TYPE,
    REF_RECON_VAL,
)
from test_reference_primitives import leaf_paths


class TestAdditive:
    def test_extraction(self):
        codomain = SumTail((0, 1, 2), 2)
        f = Embedding(codomain, ((0, 0), (1, 0), (0, 1)))
        assert additive_type(f) == AdditiveType(2, (0,))
        inside = Embedding(codomain, ((0, 0), (2, 0)))
        assert additive_type(inside) == AdditiveType(2, ())

    def test_enum_counts(self):
        assert len(enum_additive(2, 3)) == 7
        assert len(enum_additive(3, 2)) == 4  # n >= m collapses to 2^m
        assert len(enum_additive(0, 5)) == 1

    def test_enum_order_starts_empty(self):
        types = enum_additive(2, 2)
        assert types[0] == AdditiveType(2, ())
        assert len(set(types)) == len(types)

    def test_tau_range_checked(self):
        with pytest.raises(ValueError):
            AdditiveType(2, (5,))


class TestMultExtraction:
    def test_reference_instance(self):
        f = Embedding(REF_MULT_CODOMAIN, REF_MULT_IMAGES)
        t = mult_type(f)
        assert t.p == REF_MULT_P
        assert t.blocks == REF_MULT_BLOCKS
        assert t.rank == 6
        assert mult_val(f) == REF_MULT_VAL

    def test_rank_is_val_size(self):
        codomain = Leveled(((0, 1, 2), (0, 1, 2)))
        for n in range(4):
            for f in enumerate_embeddings(n, codomain):
                assert mult_type(f).rank == len(mult_val(f))

    def test_strict_detection(self):
        codomain = Leveled(((0, 1), (0, 1)))
        distinct = Embedding(codomain, ((0, 0), (1, 1)))
        shared = Embedding(codomain, ((0, 0), (0, 1)))
        assert mult_type(distinct).is_strict
        assert not mult_type(shared).is_strict


class TestMultReconstruction:
    def test_roundtrip_exhaustive(self, verify_sweep):
        # verify runs this round trip over every embedding of n <= 3 points
        # into m <= 3 levels of s <= 3 values
        checked = sum(comb(s * m, n) for m in (1, 2, 3) for s in (1, 2, 3) for n in range(4))
        assert f"[ok] mult-roundtrip checked={checked}: 0" in verify_sweep.stdout.splitlines()

    def test_reconstruction_extracts_back(self):
        codomain = Leveled(((0, 1, 2),) * 2)
        for t in enum_mult(3, 2):
            v = tuple(range(t.rank))
            f = reconstruct_mult(t, v, codomain)
            assert mult_type(f) == t
            assert mult_val(f) == v

    def test_reference_reconstruction_is_literal(self):
        # the frozen input is not realizable; the procedure still produces
        # the recorded point assignment verbatim
        assert mult_points(REF_RECON_TYPE, REF_RECON_VAL) == REF_RECON_POINTS
        codomain = Leveled((REF_RECON_VAL,) * REF_RECON_TYPE.m)
        f = reconstruct_mult(REF_RECON_TYPE, REF_RECON_VAL, codomain)
        assert f.images == REF_RECON_POINTS

    def test_rank_mismatch(self):
        t = enum_mult(2, 2)[0]
        with pytest.raises(ValueError):
            reconstruct_mult(t, tuple(range(t.rank + 1)), Leveled(((0, 1, 2),) * 2))


class TestMultEnumeration:
    def test_count_2_2(self):
        types = enum_mult(2, 2)
        assert len(types) == 5
        assert len(set(types)) == 5

    def test_matches_embedding_scan(self, verify_sweep):
        # verify scans Leveled((range(n),) * m) for every n, m <= 3
        for n, m in [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3)]:
            assert f"[ok] mult-enum-set n={n} m={m}: True" in verify_sweep.stdout.splitlines()

    def test_every_type_realized_at_level_size_n(self):
        for n, m in [(2, 2), (3, 2), (2, 3)]:
            codomain = Leveled((tuple(range(n)),) * m)
            for t in enum_mult(n, m):
                f = reconstruct_mult(t, tuple(range(t.rank)), codomain)
                assert mult_type(f) == t

    def test_strict_counts(self):
        for n, m in [(1, 1), (2, 2), (3, 2), (2, 4), (4, 3)]:
            strict = enum_strict(n, m)
            assert len(strict) == m**n
            assert len(set(strict)) == m**n
            assert all(t.is_strict for t in strict)
            assert set(strict) <= set(enum_mult(n, m))

    def test_listing_order_is_pinned(self):
        # every mult listing with n <= 4, m <= 3 and every product listing
        # of up to three parts, each at most 3, summing to at most 6
        listings = [enum_mult(n, m) for n in range(5) for m in range(4)]
        for k in (1, 2, 3):
            for parts in itertools.product((1, 2, 3), repeat=k):
                if sum(parts) <= 6:
                    listings.append(enum_product_types(parts))
        pinned = repr([[(t.p, t.blocks) for t in listing] for listing in listings])
        assert sum(map(len, listings)) == 2873
        assert hashlib.sha256(pinned.encode()).hexdigest() == (
            "e378332a9805d0d855bbd629f0d51ef1820d0bf23055c47418328d0e7ef27d77"
        )

    def test_product_type_counts(self):
        assert len(enum_product_types((1, 1))) == 3
        assert len(enum_product_types((2,))) == 1
        assert len(enum_product_types((1, 1, 1))) == 13

    def test_product_forced_chain(self):
        (only,) = enum_product_types((2,))
        assert only.blocks == ((0,), (1,))

    def test_product_listing_shares_its_tails(self):
        # 301 types of up to 151 blocks: a table that copied every suffix
        # instead of sharing it would hold about 2 * 150^3 / 3 block references
        tracemalloc.start()
        try:
            types = enum_product_types((150, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(types) == 301
        assert peak < 12e6

    def test_rank_counts_match_enumeration(self):
        for parts in [(1, 1), (2,), (2, 1), (1, 1, 1), (2, 2), (3, 1)]:
            tally = {}
            for t in enum_product_types(parts):
                tally[t.rank] = tally.get(t.rank, 0) + 1
            assert dict(rank_counts(parts)) == tally

    def test_level_of(self):
        # index i sits on the level whose window of counts in p holds it
        t = MultiplicativeType((2, 0, 1), ((0,), (1,), (2,)))
        assert [level for _, level in mult_points(t, (4, 5, 6))] == [0, 0, 2]


class TestWordBijection:
    def test_worked_instance(self):
        t = MultiplicativeType(
            (2, 0, 4, 1), tuple((i,) for i in (2, 6, 0, 3, 4, 1, 5))
        )
        assert strict_to_word(t) == "2302202"
        assert word_to_strict("2302202", 4) == t

    def test_roundtrip_all_words(self, verify_sweep):
        # verify runs this round trip over every word of length n < 7 over
        # m <= 4 letters
        checked = sum(m**n for n in range(7) for m in (1, 2, 3, 4))
        assert f"[ok] word-roundtrip checked={checked}: 0" in verify_sweep.stdout.splitlines()

    def test_roundtrip_all_strict_types(self):
        for t in enum_strict(3, 3):
            assert word_to_strict(strict_to_word(t), 3) == t

    def test_rejects_non_strict(self):
        shared = MultiplicativeType((1, 1), ((0, 1),))
        with pytest.raises(ValueError):
            strict_to_word(shared)

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            word_to_strict("02", 2)


class TestPower:
    def test_reference_instance(self):
        f = Embedding(REF_POWER_CODOMAIN, REF_POWER_IMAGES)
        assert power_type(f) == REF_POWER_TREE
        assert power_val(f) == REF_POWER_VAL

    def test_reference_shape(self):
        f = reconstruct_power(REF_POWER_TREE, REF_POWER_VAL, REF_POWER_CODOMAIN)
        assert len(f.images) == 12
        assert {len(p) for p in leaf_paths(REF_POWER_TREE)} == {4}
        assert out_degrees(REF_POWER_TREE)[:4] == (3, 2, 3, 2)

    def test_roundtrip_exhaustive(self, verify_sweep):
        # verify runs this round trip over every embedding of n <= 3 points
        # into Power(range(s), m) for m, s <= 3
        checked = sum(comb(s**m, n) for m in (1, 2, 3) for s in (1, 2, 3) for n in (1, 2, 3))
        assert f"[ok] power-roundtrip checked={checked}: 0" in verify_sweep.stdout.splitlines()

    def test_reconstruction_extracts_back(self):
        f = reconstruct_power(REF_POWER_TREE, REF_POWER_VAL, REF_POWER_CODOMAIN)
        assert power_type(f) == REF_POWER_TREE
        assert power_val(f) == REF_POWER_VAL
        assert f.images == REF_POWER_IMAGES

    def test_single_point(self):
        codomain = Power((0, 1), 2)
        f = Embedding(codomain, ((1, 0),))
        assert power_type(f) == (((),),)
        assert power_val(f) == ((0,), (1,))

    def test_empty_embedding_roundtrips(self):
        for m in (1, 2, 3):
            codomain = Power((0, 1), m)
            f = Embedding(codomain, ())
            assert power_type(f) == ()
            assert power_val(f) == ()
            assert internal_nodes(()) == ()
            assert reconstruct_power((), (), codomain) == f

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reconstruct_power(REF_POWER_TREE, REF_POWER_VAL[:-1], REF_POWER_CODOMAIN)
        with pytest.raises(ValueError):
            reconstruct_power((((),),), ((0, 1), (0,)), Power((0, 1), 2))

    def test_enum_counts(self):
        assert len(enum_power(2, 2)) == 2
        assert len(enum_power(1, 3)) == 1
        assert len(enum_power(3, 1)) == 1
        assert len(enum_power(3, 4)) == 16

    def test_one_level_lists_one_tree_at_once(self):
        start = time.perf_counter()
        trees = enum_power(60, 1)
        assert time.perf_counter() - start < 1.0
        assert trees == (((),) * 60,)

    def test_enum_shapes_are_valid(self):
        for n, m in [(2, 2), (3, 2), (2, 3), (3, 3)]:
            trees = enum_power(n, m)
            assert len(set(trees)) == len(trees)
            for t in trees:
                v = tuple(tuple(range(k)) for k in out_degrees(t))
                assert len(reconstruct_power(t, v, Power(tuple(range(n)), m)).images) == n
                assert {len(p) for p in leaf_paths(t)} == {m}

    def test_matches_embedding_scan(self, verify_sweep):
        # verify scans Power(range(n), m) for every n, m <= 3
        for n, m in [(1, 1), (2, 2), (3, 2), (2, 3)]:
            assert f"[ok] power-enum-set n={n} m={m}: True" in verify_sweep.stdout.splitlines()


class TestInvariance:
    """Types depend only on the order type, never on the labels."""

    def relabeler(self, seed):
        rng = random.Random(seed)
        jumps = [rng.randint(1, 5) for _ in range(50)]
        table = list(itertools.accumulate(jumps))
        return lambda x: table[x]

    def test_mult_invariant_under_relabeling(self):
        codomain = Leveled(((0, 1, 2), (0, 1, 2)))
        for seed in (1, 2, 3):
            phi = self.relabeler(seed)
            relabeled = Leveled(
                tuple(tuple(phi(v) for v in level) for level in codomain.levels)
            )
            for f in enumerate_embeddings(3, codomain):
                g = Embedding(
                    relabeled, tuple((phi(v), lvl) for v, lvl in f.images)
                )
                assert mult_type(g) == mult_type(f)

    def test_power_invariant_under_relabeling(self):
        codomain = Power((0, 1, 2), 2)
        for seed in (4, 5):
            phi = self.relabeler(seed)
            relabeled = Power(tuple(phi(v) for v in codomain.base), 2)
            for f in enumerate_embeddings(2, codomain):
                g = Embedding(
                    relabeled, tuple(tuple(phi(x) for x in img) for img in f.images)
                )
                assert power_type(g) == power_type(f)
