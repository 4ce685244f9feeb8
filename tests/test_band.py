"""Band validation, Green structure, duals, closures, catalog, embeddings."""

import ast
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from bandsmp import (
    Band,
    GenSet,
    SmpInstance,
    catalog,
    classify,
    closure,
    embeds_forbidden,
    eval_word,
    find_embedding,
    mul_tuple,
    parse_band_text,
    smp_decide_auto,
)
from bandsmp.band import CATALOG_EXAMPLES
from bandsmp.errors import (
    NotAssociative,
    NotIdempotent,
    OutOfRange,
    ParseError,
    SizeBoundExceeded,
    UnknownName,
)
from bandsmp.quasi import (Witness, forbidden_subband, is_witness, normalize_witness,
                           normalized_witnesses, require_normalized)
from bandsmp.reduction import SatInstance, sat_to_smp

import oracles
from helpers import band_to_json, product_band

# 1-based labels, matching text I/O conventions
def b1(*labels):
    return tuple(v - 1 for v in labels)


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
        with pytest.raises(OutOfRange, match=r"entry at \(1,1\): 0.7 is not an integer"):
            Band([[0.7]])
        with pytest.raises(OutOfRange, match=r"entry at \(2,1\)"):
            Band([[0, 1], [np.float64(1.0), 1]])
        assert Band([[np.int64(0)]]).table == ((0,),)

    def test_ragged_table_rejected(self):
        with pytest.raises(OutOfRange):
            Band([[0, 1], [1]])

    def test_product_of_no_elements_refused(self, s9):
        with pytest.raises(ValueError, match="empty element sequence"):
            s9.prod([])

    def test_repr(self, s9):
        assert repr(s9) == "<Band S9 of order 9>"
        assert repr(Band([[0]])) == "<Band band of order 1>"


class TestElementRule:
    """Band tables, generators, tuples, assignments and witnesses read their
    element values by one rule, operator.index into 0..m-1, and refuse a
    value with the same one-line reason."""

    S9_WITNESS = (5, 2, 1, 4, 0)  # normalized; x = 1 is where a value goes

    @staticmethod
    def entry_points(s9, v):
        table = [list(row) for row in s9.table]
        table[1][0] = v  # 1 in S9, so an accepted 1 leaves S9 as it is
        d, e, _, y, h = TestElementRule.S9_WITNESS
        return {
            "Band": lambda: Band(table),
            "GenSet": lambda: GenSet(band=s9, n=2, members=((0, v), (1, 2))),
            "GenSet.row": lambda: GenSet.of(s9, [(0, 1)]).row((v, 0)),
            "eval_word": lambda: eval_word(s9, (1, 2), [0, v]),
            "is_witness": lambda: is_witness(s9, Witness(d, e, v, y, h)),
            "mul_tuple": lambda: mul_tuple(s9, (0, 1), (v, 2)),
        }

    @pytest.mark.parametrize("value, reason", [
        (-1, "0 outside 1..9"),
        (9, "10 outside 1..9"),
        (2**64, f"{2**64 + 1} outside 1..9"),
        (1.5, "1.5 is not an integer"),
        (np.float64(2.0), f"{np.float64(2.0)!r} is not an integer"),
        ("3", "'3' is not an integer"),
        (None, "None is not an integer"),
        (True, "True is not an integer"),  # as errors.as_int refuses it, not read as 1
    ], ids=["-1", "9", "2**64", "1.5", "float64", "str", "None", "True"])
    def test_every_entry_point_refuses_alike(self, s9, value, reason):
        prefixes = {"Band": "entry at (2,1): ", "GenSet": "coordinate ",
                    "GenSet.row": "coordinate ", "eval_word": "assignment value ",
                    "is_witness": "witness x: ", "mul_tuple": "coordinate "}
        for name, call in self.entry_points(s9, value).items():
            with pytest.raises(OutOfRange) as exc:
                call()
            assert str(exc.value) == prefixes[name] + reason, name

    @pytest.mark.parametrize("value", [np.int64(1), np.uint8(1)], ids=["int64", "uint8"])
    def test_every_entry_point_accepts_integers(self, s9, value):
        got = {name: call() for name, call in self.entry_points(s9, value).items()}
        assert got["Band"] == s9
        assert got["GenSet"].rows.tolist() == [[0, 1], [1, 2]]
        assert got["GenSet.row"].tolist() == [1, 0]
        assert got["eval_word"] == s9.table[0][1]
        assert got["is_witness"] is True
        assert got["mul_tuple"] == (s9.table[0][1], s9.table[1][2])

    @pytest.mark.parametrize("fields, message", [
        ((99, 0, 0, 0, 0), "witness d: 100 outside 1..9"),
        ((5, 2, 1, 4, 9), "witness h: 10 outside 1..9"),
        ((-4, 2, 1, 4, 0), "witness d: -3 outside 1..9"),
        ((1.5, 2, 1, 4, 0), "witness d: 1.5 is not an integer"),
        ((5, 2, 1, 4, "0"), "witness h: '0' is not an integer"),
    ], ids=["d=99", "h=9", "d=-4", "d=1.5", "h='0'"])
    def test_every_witness_reader_refuses_a_bad_field(self, s9, fields, message):
        # each was a bare IndexError or TypeError, or -4 read row 6 by a negative index
        w, sat = Witness(*fields), SatInstance(1, (frozenset({1}),))
        for read in (is_witness, normalize_witness, require_normalized, forbidden_subband,
                     lambda band, w: sat_to_smp(sat, band, w)):
            with pytest.raises(OutOfRange) as exc:
                read(s9, w)
            assert str(exc.value) == message


class TestGreenStructure:
    def test_s9_j_classes(self, s9):
        assert s9.green.j_classes == ((0,), (1,), (2, 3, 4), (5, 6, 7, 8))

    def test_preorder_examples(self, s9):
        assert s9.green.leq_j[b1(6, 3)]       # 6*3*6 = 6
        assert s9.green.leq_l[b1(8, 3)]       # 8*3 = 8
        for a in range(s9.order):
            assert s9.green.leq_j[a, a]

    @pytest.mark.parametrize("name", ["S9", "S10", "Rect(2,3)", "SL-chain(3)", "LZ(3)"])
    def test_preorders_match_raw_definitions(self, name):
        band = catalog(name)
        for a in range(band.order):
            for b in range(band.order):
                assert band.green.leq_l[a, b] == oracles.naive_leq_l(band.table, a, b)
                assert band.green.leq_r[a, b] == oracles.naive_leq_r(band.table, a, b)
                assert band.green.leq_j[a, b] == oracles.naive_leq_j(band.table, a, b)

    @pytest.mark.parametrize("name", ["S9", "S10", "Rect(3,4)", "T13a"])
    def test_green_invariants(self, name):
        band = catalog(name)
        m = band.order
        for a in range(m):
            for b in range(m):
                if band.green.leq_l[a, b] or band.green.leq_r[a, b]:
                    assert band.green.leq_j[a, b]
                # S/J is a semilattice: ab J ba
                ab, ba = band.table[a][b], band.table[b][a]
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
            assert cls[band.table[a][b]] == cls[band.table[a2][b2]]
        for jc in band.green.j_classes:
            for a in jc:
                for b in jc:
                    for c in jc:
                        assert band.prod([a, b, c]) == band.table[a][c]

    @pytest.mark.parametrize("name", ["S9", "S10", "T13b"])
    def test_xyz_rule_for_j_equivalent_endpoints(self, name):
        # x <=_J y iff xyz = xz, whenever x J z
        band = catalog(name)
        cls = band.green.j_class_of
        for x in range(band.order):
            for z in band.green.j_classes[cls[x]]:
                for y in range(band.order):
                    assert band.green.leq_j[x, y] == (
                        band.prod([x, y, z]) == band.table[x][z]
                    )

    def test_heights(self, s9):
        assert Band([[0]]).green.height == 1
        assert catalog("SL-chain(2)").green.height == 2
        assert s9.green.height == 4
        assert catalog("Rect(3,4)").green.height == 1


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
        assert s9.dual().itable[b1(2, 3)] == 3 - 1  # 3*2 in S9 is 3

    def test_preorder_swap(self, s9):
        d = s9.dual()
        for a in range(9):
            for b in range(9):
                assert d.green.leq_l[a, b] == s9.green.leq_r[a, b]
                assert d.green.leq_j[a, b] == s9.green.leq_j[a, b]

    @pytest.mark.parametrize("band", [*CATALOG_EXAMPLES, "S9 x LZ(2)", "T13a x RZ(3)",
                                      "S10 x SL-chain(3)", "T17 x S9"])
    def test_matches_the_validated_dual(self, band):
        # the dual is built without validation; Band() on the transposed table validates
        if " x " in band:
            band = product_band(*map(catalog, band.split(" x ")))
        else:
            band = catalog(band)
        d = band.dual()
        ref = Band([list(col) for col in zip(*band.table)], name=d.name)
        assert (d.order, d.name, d.table) == (ref.order, ref.name, ref.table)
        assert all(type(v) is int for row in d.table for v in row)
        arrays = [(d.itable, ref.itable)]
        for f in ("leq_l", "leq_r", "leq_j"):
            arrays.append((getattr(d.green, f), getattr(ref.green, f)))
        for got, want in arrays:
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable
        for f in ("j_class_of", "j_classes", "height"):
            assert getattr(d.green, f) == getattr(ref.green, f)
        assert d.dual() is band and d == ref

    def test_a_commutative_band_is_its_own_dual(self):
        # no transposed copy, and no second Green cache, scan slot or codes
        chains = [catalog(name) for name in CATALOG_EXAMPLES if name.startswith("SL-chain")]
        product = product_band(catalog("SL-chain(2)"), catalog("SL-chain(3)"))
        for band in (Band([[0]]), *chains, product):
            assert band.dual() is band and band.dual().name == band.name

    @pytest.mark.parametrize("name", ["S9", "LZ(2)", "Rect(3,4)"])
    def test_a_noncommutative_band_is_not(self, name):
        band = catalog(name)
        d = band.dual()
        assert d is not band and d.dual() is band and d.name == f"dual({name})"


class TestAdjoinIdentity:
    def test_trivial_band_becomes_chain(self):
        two = Band([[0]]).adjoin_identity()
        assert two.table == ((0, 0), (0, 1))

    def test_left_zero(self):
        three = catalog("LZ(2)").adjoin_identity()
        assert three.order == 3
        top = 2
        for a in range(3):
            assert three.table[top][a] == a and three.table[a][top] == a

    def test_s9_adjoined_is_not_s10(self, s9, s10):
        ten = s9.adjoin_identity()
        assert ten.order == 10
        assert find_embedding(ten, s10) is None
        assert find_embedding(s10, ten) is None


def generated(band, gens):
    """The subsemigroup of band generated by gens, as closure() finds it in band^1."""
    return frozenset(t[0] for t in closure(GenSet.of(band, [(g,) for g in gens], n=1)))


class TestSubsemigroup:
    def test_s10_pair(self, s10):
        assert generated(s10, b1(2, 3)) == frozenset(b1(2, 3, 4))

    def test_s9_generators(self, s9):
        assert generated(s9, b1(1, 2, 3, 5, 6)) == frozenset(range(9))

    def test_singleton_and_empty(self, s9):
        assert generated(s9, [3]) == frozenset([3])
        assert generated(s9, []) == frozenset()

    def test_out_of_range_generator(self, s9):
        with pytest.raises(OutOfRange):
            generated(s9, [0, 9])

    @pytest.mark.parametrize("name", ["S9", "T13a", "Rect(2,3)"])
    def test_closure_operator_laws(self, name):
        band = catalog(name)
        rng = random.Random(7)
        for _ in range(25):
            gens = frozenset(rng.sample(range(band.order), rng.randint(0, 3)))
            closed = generated(band, gens)
            assert gens <= closed
            assert generated(band, closed) == closed  # idempotent
            bigger = gens | {rng.randrange(band.order)}
            assert closed <= generated(band, bigger)  # monotone
            assert closed == frozenset(oracles.naive_subsemigroup(band.table, gens))


class TestEmbedding:
    def test_identity_embedding(self, s9):
        emb = find_embedding(s9, s9)
        assert emb is not None
        for a in range(9):
            for b in range(9):
                assert emb[s9.table[a][b]] == s9.table[emb[a]][emb[b]]

    def test_t9_into_s9(self, s9):
        t9 = catalog("T9")
        assert find_embedding(t9, s9) is not None

    def test_semilattice_not_into_left_zero(self):
        assert find_embedding(catalog("SL-chain(2)"), catalog("LZ(2)")) is None

    def test_reads_only_the_multiplication_tables(self):
        # fresh copies, as the catalog's forbidden bands are cached and shared
        for small_name, big_name in (("T9", "S9"), ("S9", "T9"), ("T13a", "T17"),
                                     ("T13a", "T13b"), ("Rect(2,2)", "Rect(3,4)")):
            small, big = catalog(small_name), catalog(big_name)
            want = find_embedding(small, big)
            bare = [Band(band.itable.tolist()) for band in (small, big)]
            for band in bare:
                band.green = None
            assert find_embedding(*bare) == want, (small_name, big_name)

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
                    assert emb[small.table[a][b]] == big.table[emb[a]][emb[b]]


class TestCatalog:
    def test_s9_spot_entries(self, s9):
        assert s9.itable[b1(2, 3)] == 4 - 1
        assert s9.itable[b1(6, 2)] == 7 - 1
        assert s9.itable[b1(6, 3)] == 8 - 1

    def test_s10_spot_entries(self, s10):
        assert s10.itable[b1(6, 5)] == 10 - 1
        assert s10.itable[b1(7, 5)] == 10 - 1

    def test_rectangular_law(self):
        band = catalog("Rect(2,2)")
        assert band.order == 4
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    assert band.prod([a, b, c]) == band.table[a][c]

    def test_families(self):
        assert catalog("LZ(3)").table[0][2] == 0
        assert catalog("RZ(3)").table[0][2] == 2
        assert catalog("SL-chain(4)").table[3][1] == 1

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
        with pytest.raises(ParseError, match="^band declares order 3 but has 2 rows$"):
            parse_band_text("3\n1 1 1\n1 2 3\n")


class TestOneTable:
    """The library reads itable alone; table is built from it on a caller's first read."""

    def test_the_library_reads_no_table_attribute(self):
        src = Path(__file__).resolve().parent.parent / "src" / "bandsmp"
        reads = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Attribute) and node.attr == "table"]
        assert reads == []

    def test_no_library_call_builds_the_table(self):
        s9, s10 = catalog("S9"), catalog("S10")
        d = s9.dual()
        classify(s9)
        embeds_forbidden(s9)
        sat = SatInstance(2, (frozenset({1, 2}), frozenset({-1})))
        entries = normalized_witnesses(s9) + normalized_witnesses(d)
        assert {orientation for orientation, _, _ in entries} == {"S", "dual"}
        for _, target, w in entries:
            assert is_witness(target, w)
            out = sat_to_smp(sat, target, w)
            assert smp_decide_auto(out.instance, method="closure").verdict == "member"
        inst = SmpInstance(GenSet(band=s10, n=2, members=(b1(2, 3), b1(6, 1))), b1(7, 3))
        assert smp_decide_auto(inst).method == "poly"
        assert eval_word(s9, [1, 2, 1], [1, 5]) == s9.prod([1, 5, 1])
        s9.to_text()
        s9.adjoin_identity()
        for band in (s9, d, s10):
            assert "table" not in band.__dict__
            table = band.table
            assert table == tuple(map(tuple, band.itable.tolist()))
            assert all(type(v) is int for row in table for v in row)
            assert band.table is table


class TestEqualityAndHash:
    def test_s9_read_three_ways(self, s9):
        bands = [catalog("S9"), Band(np.array(s9.itable.tolist())), parse_band_text(s9.to_text())]
        for a, b in itertools.combinations(bands, 2):
            assert a == b and hash(a) == hash(b)
        assert len(set(bands)) == 1

    def test_s9_is_not_its_dual(self, s9):
        assert s9 != s9.dual() and not s9 == s9.dual()

    def test_a_semilattice_is_its_dual(self):
        band = catalog("SL-chain(3)")
        assert band == band.dual() and hash(band) == hash(band.dual())

    def test_different_orders(self):
        bands = [Band([[0]]), catalog("SL-chain(2)"), catalog("SL-chain(3)"), catalog("S9")]
        for a, b in itertools.combinations(bands, 2):
            assert a != b and b != a

    def test_a_band_is_not_its_table(self, s9):
        assert s9 != s9.table and s9.table != s9
