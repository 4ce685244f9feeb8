"""Band validation, Green structure, duals, closures, catalog, embeddings."""

import random

import numpy as np
import pytest

from bandsmp import (
    Band,
    catalog,
    find_embedding,
    parse_band_text,
)
from bandsmp.band import CATALOG_EXAMPLES
from bandsmp.errors import (
    NotAssociative,
    NotIdempotent,
    OutOfRange,
    SizeBoundExceeded,
    UnknownName,
)

import oracles
from helpers import band_to_json

# 1-based labels, matching text I/O conventions
def b1(*labels):
    return [v - 1 for v in labels]


class TestValidation:
    def test_one_element_band(self):
        band = Band([[0]])
        assert band.order == 1

    def test_s9_is_a_valid_band(self, s9):
        assert s9.order == 9

    def test_two_element_group_rejected(self):
        with pytest.raises(NotIdempotent) as exc:
            Band([[0, 1], [1, 0]])
        assert exc.value.a == 1
        assert "element 2" in str(exc.value)

    def test_non_associative_rejected(self):
        table = [[0, 0, 0], [0, 1, 0], [0, 1, 2]]
        with pytest.raises(NotAssociative) as exc:
            Band(table)
        assert (exc.value.a, exc.value.b, exc.value.c) == (1, 2, 1)

    def test_out_of_range_entry(self):
        with pytest.raises(OutOfRange):
            Band([[0, 2], [0, 1]])

    def test_non_integer_entry(self):
        # int(0.7) would make this the trivial band
        with pytest.raises(OutOfRange, match=r"entry at \(1,1\) is 0.7, not an integer"):
            Band([[0.7]])
        with pytest.raises(OutOfRange, match=r"entry at \(2,1\)"):
            Band([[0, 1], [np.float64(1.0), 1]])
        assert Band([[np.int64(0)]]).table == ((0,),)

    def test_ragged_table_rejected(self):
        with pytest.raises(OutOfRange):
            Band([[0, 1], [1]])


class TestGreenStructure:
    def test_s9_j_classes(self, s9):
        assert s9.green.j_classes == ((0,), (1,), (2, 3, 4), (5, 6, 7, 8))

    def test_preorder_examples(self, s9):
        assert s9.leq("J", *b1(6, 3))       # 6*3*6 = 6
        assert s9.leq("L", *b1(8, 3))       # 8*3 = 8
        for a in range(s9.order):
            assert s9.leq("J", a, a)

    @pytest.mark.parametrize("name", ["S9", "S10", "Rect(2,3)", "SL-chain(3)", "LZ(3)"])
    def test_preorders_match_raw_definitions(self, name):
        band = catalog(name)
        for a in range(band.order):
            for b in range(band.order):
                assert band.leq("L", a, b) == oracles.naive_leq_l(band.table, a, b)
                assert band.leq("R", a, b) == oracles.naive_leq_r(band.table, a, b)
                assert band.leq("J", a, b) == oracles.naive_leq_j(band.table, a, b)

    @pytest.mark.parametrize("name", ["S9", "S10", "Rect(3,4)", "T13a"])
    def test_green_invariants(self, name):
        band = catalog(name)
        m = band.order
        for a in range(m):
            for b in range(m):
                if band.leq("L", a, b) or band.leq("R", a, b):
                    assert band.leq("J", a, b)
                # S/J is a semilattice: ab J ba
                ab, ba = band.mul(a, b), band.mul(b, a)
                assert band.green.j_class_of[ab] == band.green.j_class_of[ba]

    @pytest.mark.parametrize("name", ["S9", "T17", "Rect(3,4)"])
    def test_j_congruence_and_rectangular_classes(self, name):
        band = catalog(name)
        rng = random.Random(4)
        cls = band.green.j_class_of
        for _ in range(300):
            a, b = rng.randrange(band.order), rng.randrange(band.order)
            a2 = rng.choice(band.green.j_classes[cls[a]])
            b2 = rng.choice(band.green.j_classes[cls[b]])
            assert cls[band.mul(a, b)] == cls[band.mul(a2, b2)]
        for jc in band.green.j_classes:
            for a in jc:
                for b in jc:
                    for c in jc:
                        assert band.prod([a, b, c]) == band.mul(a, c)

    @pytest.mark.parametrize("name", ["S9", "S10", "T13b"])
    def test_xyz_rule_for_j_equivalent_endpoints(self, name):
        # x <=_J y iff xyz = xz, whenever x J z
        band = catalog(name)
        cls = band.green.j_class_of
        for x in range(band.order):
            for z in band.green.j_classes[cls[x]]:
                for y in range(band.order):
                    assert band.leq("J", x, y) == (
                        band.prod([x, y, z]) == band.mul(x, z)
                    )

    def test_heights(self, s9):
        assert Band([[0]]).height() == 1
        assert catalog("SL-chain(2)").height() == 2
        assert s9.height() == 4
        assert catalog("Rect(3,4)").height() == 1


class TestDual:
    def test_involution(self, s9):
        assert s9.dual().dual() == s9
        assert s9.dual().dual() is s9  # cached

    def test_one_element(self):
        band = Band([[0]])
        assert band.dual() == band

    def test_left_zero_dualizes_to_right_zero(self):
        assert catalog("LZ(2)").dual() == catalog("RZ(2)")

    def test_s9_dual_entry(self, s9):
        assert s9.dual().mul(*b1(2, 3)) == 3 - 1  # 3*2 in S9 is 3

    def test_preorder_swap(self, s9):
        d = s9.dual()
        for a in range(9):
            for b in range(9):
                assert d.leq("L", a, b) == s9.leq("R", a, b)
                assert d.leq("J", a, b) == s9.leq("J", a, b)


class TestAdjoinIdentity:
    def test_trivial_band_becomes_chain(self):
        two = Band([[0]]).adjoin_identity()
        assert two.table == ((0, 0), (0, 1))

    def test_left_zero(self):
        three = catalog("LZ(2)").adjoin_identity()
        assert three.order == 3
        top = 2
        for a in range(3):
            assert three.mul(top, a) == a and three.mul(a, top) == a

    def test_s9_adjoined_is_not_s10(self, s9, s10):
        ten = s9.adjoin_identity()
        assert ten.order == 10
        assert find_embedding(ten, s10) is None
        assert find_embedding(s10, ten) is None


class TestSubsemigroup:
    def test_s10_pair(self, s10):
        assert s10.subsemigroup(b1(2, 3)) == frozenset(b1(2, 3, 4))

    def test_s9_generators(self, s9):
        assert s9.subsemigroup(b1(1, 2, 3, 5, 6)) == frozenset(range(9))

    def test_singleton_and_empty(self, s9):
        assert s9.subsemigroup([3]) == frozenset([3])
        assert s9.subsemigroup([]) == frozenset()

    def test_out_of_range_generator(self, s9):
        with pytest.raises(OutOfRange):
            s9.subsemigroup([0, 9])

    @pytest.mark.parametrize("name", ["S9", "T13a", "Rect(2,3)"])
    def test_closure_operator_laws(self, name):
        band = catalog(name)
        rng = random.Random(7)
        for _ in range(25):
            gens = frozenset(rng.sample(range(band.order), rng.randint(0, 3)))
            closed = band.subsemigroup(gens)
            assert gens <= closed
            assert band.subsemigroup(closed) == closed  # idempotent
            bigger = gens | {rng.randrange(band.order)}
            assert closed <= band.subsemigroup(bigger)  # monotone
            assert closed == frozenset(oracles.naive_subsemigroup(band.table, gens))


class TestEmbedding:
    def test_identity_embedding(self, s9):
        emb = find_embedding(s9, s9)
        assert emb is not None
        for a in range(9):
            for b in range(9):
                assert emb[s9.mul(a, b)] == s9.mul(emb[a], emb[b])

    def test_t9_into_s9(self, s9):
        t9 = catalog("T9")
        assert find_embedding(t9, s9) is not None

    def test_semilattice_not_into_left_zero(self):
        assert find_embedding(catalog("SL-chain(2)"), catalog("LZ(2)")) is None

    def test_size_bound(self, s9):
        with pytest.raises(SizeBoundExceeded):
            find_embedding(catalog("SL-chain(18)"), s9)

    # at most 12!/8! = 11,880 injective maps per pair for the exhaustive referee
    @pytest.mark.parametrize("small_name", [
        "LZ(2)", "RZ(2)", "SL-chain(2)", "SL-chain(3)", "Rect(2,2)",
    ])
    @pytest.mark.parametrize("big_name", [
        "LZ(3)", "RZ(3)", "SL-chain(3)", "Rect(2,3)", "S9", "S10", "T9", "Rect(3,4)",
    ])
    def test_matches_exhaustive_search_on_tiny_bands(self, small_name, big_name):
        small, big = catalog(small_name), catalog(big_name)
        expected = oracles.naive_embedding_exists(small.table, big.table)
        emb = find_embedding(small, big)
        assert (emb is not None) == expected
        if emb is not None:
            assert len(set(emb)) == small.order
            for a in range(small.order):
                for b in range(small.order):
                    assert emb[small.mul(a, b)] == big.mul(emb[a], emb[b])


class TestCatalog:
    def test_s9_spot_entries(self, s9):
        assert s9.mul(*b1(2, 3)) == 4 - 1
        assert s9.mul(*b1(6, 2)) == 7 - 1
        assert s9.mul(*b1(6, 3)) == 8 - 1

    def test_s10_spot_entries(self, s10):
        assert s10.mul(*b1(6, 5)) == 10 - 1
        assert s10.mul(*b1(7, 5)) == 10 - 1

    def test_rectangular_law(self):
        band = catalog("Rect(2,2)")
        assert band.order == 4
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    assert band.prod([a, b, c]) == band.mul(a, c)

    def test_families(self):
        assert catalog("LZ(3)").mul(0, 2) == 0
        assert catalog("RZ(3)").mul(0, 2) == 2
        assert catalog("SL-chain(4)").mul(3, 1) == 1

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            catalog("S11")
        with pytest.raises(UnknownName):
            catalog("Rect(0,2)")

    def test_family_order_bound(self):
        # the tables are m x m Python lists; SL-chain(30000) would exhaust memory
        for name in ["SL-chain(2049)", "LZ(2049)", "RZ(2049)", "Rect(64,33)", "Rect(1,2049)"]:
            with pytest.raises(UnknownName, match="2048"):
                catalog(name)

    def test_all_examples_construct(self):
        for name in CATALOG_EXAMPLES:
            band = catalog(name)
            assert isinstance(band, Band)
            assert band.name == name


class TestTextFormat:
    def test_round_trip(self, s9):
        assert parse_band_text(s9.to_text()) == s9

    def test_json_round_trip(self, s10):
        assert parse_band_text(band_to_json(s10)) == s10

    def test_comments_ignored(self):
        text = "# a comment\n2\n1 1\n# another\n1 2\n"
        band = parse_band_text(text)
        assert band.table == ((0, 0), (0, 1))

    def test_wrong_row_count(self):
        with pytest.raises(OutOfRange):
            parse_band_text("3\n1 1 1\n1 2 3\n")
