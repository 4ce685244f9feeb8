"""Quasiidentity scans, witnesses, classification, forbidden bands."""

import random
from dataclasses import replace

import pytest

from bandsmp import (
    CATALOG_EXAMPLES,
    Band,
    CpInfixInstance,
    GenSet,
    Witness,
    canonical_forbidden_witness,
    catalog,
    classify,
    construct_forbidden_band,
    cp_infix,
    cp_suffix,
    embeds_forbidden,
    find_embedding,
    find_lambda_witness,
    forbidden_subband,
    is_witness,
    normalize_witness,
    quasi,
)
from bandsmp.errors import NotAWitness, NotTractable, UnknownName
from bandsmp.quasi import normalized_witnesses

import oracles
from helpers import product_band, searched_forbidden, subpower_band

S9_WITNESS = Witness(d=5, e=2, x=1, y=4, h=0)  # 1-based (6, 3, 2, 5, 1)

FAILING = ["S9", "T9", "T13a", "T13b", "T17"]
PASSING = ["S10", "LZ(3)", "RZ(3)", "SL-chain(4)", "Rect(3,4)"]


def catalog_derived():
    """Each catalog band, its dual, its identity-adjoined form and the dual of that."""
    for name in CATALOG_EXAMPLES:
        band = catalog(name)
        yield from (band, band.dual(), band.adjoin_identity(), band.adjoin_identity().dual())


def zoo(rng, count):
    """(base, planted, band) for count subsemigroups <A> of base^n, n = 2 or 3,
    over random catalog bands. A holds three or four random tuples; or, for
    half the draws over a base that fails a scan, one random tuple and the
    diagonal copy of the base's witness, which then fails the same scan in
    the band."""
    for _ in range(count):
        base = catalog(rng.choice(CATALOG_EXAMPLES))
        n = rng.choice((2, 3))
        gens = [tuple(rng.randrange(base.order) for _ in range(n)) for _ in range(4)]
        c = classify(base)
        w = c.lambda_witness or c.lambda_dual_witness
        planted = w is not None and rng.random() < 0.5
        if planted:
            gens = gens[:1] + [(v,) * n for v in w.as_tuple()]
        else:
            gens = gens[:rng.choice((3, 4))]
        yield base, planted, subpower_band(base, list(dict.fromkeys(gens)))


def referee(band):
    w = oracles.naive_lambda_witness(band.table)
    return None if w is None else Witness(*w)


def check_report(band):
    """embeds_forbidden(band) against the eight embedding searches: an entry
    for just the orientations where some forbidden band embeds, each naming a
    case found there, with an image that the oracle accepts."""
    found = searched_forbidden(band)
    entries = embeds_forbidden(band).entries
    assert {o for _, o, _ in entries} == {o for _, o in found}, (band.table, found)
    for case, orientation, image in entries:
        assert (case, orientation) in found, (band.table, case, orientation)
        target = band if orientation == "S" else band.dual()
        assert oracles.is_injective_hom(catalog(case).table, target.table, image), \
            (band.table, case, orientation, image)


class TestLambdaScan:
    def test_s9_odometer_least_witness(self, s9):
        assert find_lambda_witness(s9) == S9_WITNESS
        assert S9_WITNESS.labels() == (6, 3, 2, 5, 1)

    def test_s10_satisfies_both(self, s10):
        assert find_lambda_witness(s10) is None
        assert find_lambda_witness(s10.dual()) is None

    def test_trivial_band(self):
        assert find_lambda_witness(Band([[0]])) is None

    def test_s9_satisfies_the_dual_quasiidentity(self, s9):
        # only the plain scan fails on this table; the reversed one holds
        assert find_lambda_witness(s9.dual()) is None

    def test_dual_of_s9_fails_the_dual_scan(self, s9):
        assert find_lambda_witness(s9.dual().dual()) == S9_WITNESS

    def test_two_element_semilattice(self):
        band = catalog("SL-chain(2)")
        assert find_lambda_witness(band) is None
        assert find_lambda_witness(band.dual()) is None

    # 1 byte makes each e its own block; 2,600 bytes give orders 9 to 11 blocks
    # of 2 to 4 e and a shorter last block
    @pytest.mark.parametrize("block_bytes", [quasi._BLOCK_BYTES, 1, 2600])
    def test_matches_referee_on_catalog_derived_bands(self, monkeypatch, block_bytes):
        monkeypatch.setattr(quasi, "_BLOCK_BYTES", block_bytes)
        for band in catalog_derived():
            assert find_lambda_witness(band) == referee(band), band

    @pytest.mark.parametrize("block_bytes", [quasi._BLOCK_BYTES, 1])
    def test_matches_referee_on_relabelled_products(self, monkeypatch, block_bytes):
        # relabelled, the least witness can have a smaller d than one that an
        # earlier block of e holds
        monkeypatch.setattr(quasi, "_BLOCK_BYTES", block_bytes)
        rng = random.Random(2)
        for name in FAILING:
            t = product_band(catalog(name), catalog("SL-chain(2)")).table
            for _ in range(5):
                p = rng.sample(range(len(t)), len(t))  # element a becomes p[a]
                inv = sorted(range(len(t)), key=p.__getitem__)
                band = Band([[p[t[a][b]] for b in inv] for a in inv])
                assert find_lambda_witness(band) == referee(band), (name, p)

    @pytest.mark.parametrize("name", FAILING)
    def test_h_is_needed(self, name):
        # without its top element h the quintuple has no h, and no other witness exists
        t = catalog(name).table
        band = Band([[v - 1 for v in row[1:]] for row in t[1:]])
        assert find_lambda_witness(band) is None
        assert referee(band) is None

    @pytest.mark.parametrize("name", ["Rect(16,16)", "SL-chain(256)"])
    def test_order_256(self, name):
        band = catalog(name)
        assert find_lambda_witness(band) is None
        assert find_lambda_witness(band.dual()) is None

    def test_witness_in_a_product(self):
        band = product_band(catalog("T9"), catalog("SL-chain(8)"))
        w = find_lambda_witness(band)
        assert band.order == 72 and w is not None
        assert oracles.naive_is_witness(band.table, *w.as_tuple())

    @pytest.mark.parametrize("name", FAILING)
    def test_witness_is_genuine(self, name):
        band = catalog(name)
        w = find_lambda_witness(band)
        assert w is not None
        assert is_witness(band, w)
        assert oracles.naive_is_witness(band.table, *w.as_tuple())

    def test_is_witness_matches_naive_on_random_quintuples(self, s9):
        rng = random.Random(0)
        for _ in range(500):
            q = tuple(rng.randrange(9) for _ in range(5))
            assert is_witness(s9, Witness(*q)) == oracles.naive_is_witness(s9.table, *q)

    @pytest.mark.parametrize("name", FAILING)
    def test_witness_strictness_and_distinctness(self, name):
        band = catalog(name)
        w = find_lambda_witness(band)
        d, e, x, y, h = w.as_tuple()

        def strictly_below(a, b):
            return band.green.leq_j[a, b] and not band.green.leq_j[b, a]

        assert strictly_below(d, e) and strictly_below(e, x) and strictly_below(x, h)
        xe = band.table[x][e]
        assert len({e, xe, y}) == 3
        dx, de = band.table[d][x], band.table[d][e]
        dxe = band.table[dx][e]
        assert len({d, dx, de, dxe}) == 4

    def test_premise_formulations_agree(self, s9, s10):
        rng = random.Random(1)
        for band in (s9, s10):
            for _ in range(300):
                d, e, x, y = (rng.randrange(band.order) for _ in range(4))
                via_rule = (
                    band.prod([d, e, d]) == d
                    and band.prod([e, x, e]) == e
                    and band.prod([e, y, e]) == e
                )
                via_cache = (
                    band.green.leq_j[d, e]
                    and band.green.leq_j[e, x]
                    and band.green.leq_j[e, y]
                )
                assert via_rule == via_cache


class TestClassify:
    def test_s9(self, s9):
        result = classify(s9)
        assert result.verdict == "NP-COMPLETE"
        assert not result.tractable
        assert result.lambda_witness == S9_WITNESS
        assert result.lambda_dual_witness is None

    def test_s10_and_dual(self, s10):
        assert classify(s10).verdict == "TRACTABLE"
        assert classify(s10.dual()).tractable
        assert classify(s10).lambda_witness is None

    def test_rect(self):
        assert classify(catalog("Rect(3,4)")).tractable

    def test_dual_swaps_witness_roles(self, s9):
        rev = classify(s9.dual())
        assert rev.lambda_witness is None
        assert rev.lambda_dual_witness == S9_WITNESS

    def test_each_band_is_scanned_once(self, monkeypatch):
        # a band and its dual share two scans, one per orientation, whoever reads them
        calls = []
        scan = quasi._scan
        monkeypatch.setattr(quasi, "_scan", lambda band: calls.append(band) or scan(band))
        b = catalog("S9")
        classify(b)
        classify(b.dual())
        normalized_witnesses(b)
        embeds_forbidden(b)
        dual_gens = GenSet.of(b.dual(), [(0,)])
        assert cp_suffix(dual_gens, (0,)) == (0,)
        assert cp_infix(CpInfixInstance((0,), (0,), (0,), dual_gens)) == (0,)
        for gate in (lambda g: cp_suffix(g, (0,)),
                     lambda g: cp_infix(CpInfixInstance((0,), (0,), (0,), g))):
            with pytest.raises(NotTractable):
                gate(GenSet.of(b, [(0,)]))
        assert calls == [b, b.dual()]
        calls.clear()
        chain = catalog("SL-chain(8)")
        assert cp_suffix(GenSet.of(chain, [(0,)]), (0,)) == (0,)
        assert calls == [chain]

    def test_a_commutative_band_is_scanned_once(self, monkeypatch):
        # it is its own dual, so both orientations read one scan slot
        calls = []
        scan = quasi._scan
        monkeypatch.setattr(quasi, "_scan", lambda band: calls.append(band) or scan(band))
        chain = catalog("SL-chain(16)")
        result = classify(chain)
        assert result.tractable and result.lambda_witness is result.lambda_dual_witness is None
        assert embeds_forbidden(chain).entries == ()
        assert calls == [chain]

    @pytest.mark.parametrize("name", FAILING)
    def test_failing_catalog_bands(self, name):
        assert classify(catalog(name)).verdict == "NP-COMPLETE"

    @pytest.mark.parametrize("name", PASSING)
    def test_passing_catalog_bands(self, name):
        assert classify(catalog(name)).verdict == "TRACTABLE"


class TestNormalizeWitness:
    def test_s9_witness_is_a_fixed_point(self, s9):
        assert normalize_witness(s9, S9_WITNESS) == S9_WITNESS

    def test_not_a_witness(self, s10):
        with pytest.raises(NotAWitness):
            normalize_witness(s10, Witness(0, 1, 2, 3, 4))

    @pytest.mark.parametrize("name", FAILING)
    def test_h_becomes_identity_on_the_quintuple(self, name):
        band = catalog(name)
        w = normalize_witness(band, find_lambda_witness(band))
        for s in (w.d, w.e, w.x, w.y):
            assert band.table[w.h][s] == s
            assert band.table[s][w.h] == s

    @pytest.mark.parametrize("name", FAILING)
    def test_partial_multiplication_table(self, name):
        # the products a normalized quintuple is forced to satisfy, entrywise
        band = catalog(name)
        w = normalize_witness(band, find_lambda_witness(band))
        d, e, x, y = w.d, w.e, w.x, w.y
        t = band.table
        xe = t[x][e]
        assert t[x][x] == x and t[x][xe] == xe and t[x][y] == y
        assert t[e][x] == e and t[e][xe] == e and t[e][y] == e and t[e][d] == d
        assert t[xe][x] == xe and t[xe][e] == xe and t[xe][xe] == xe
        assert t[xe][y] == xe and t[xe][d] == t[x][d]
        assert t[y][x] == y and t[y][e] == y and t[y][xe] == y
        assert t[d][y] == t[d][e]
        assert t[d][xe] == band.prod([d, x, e])
        assert len({x, e, xe, y, d}) == 5

    @pytest.mark.parametrize("name", FAILING)
    def test_normalized_output_is_still_a_witness(self, name):
        band = catalog(name)
        w = normalize_witness(band, find_lambda_witness(band))
        assert is_witness(band, w)


class TestGeneratedT:
    @pytest.mark.parametrize(
        "name,size", [("S9", 9), ("T9", 9), ("T13a", 13), ("T13b", 13), ("T17", 17)]
    )
    def test_sizes(self, name, size):
        # each witness generates its own table: S9 is T9, and the image is the identity
        band = catalog(name)
        w = normalize_witness(band, find_lambda_witness(band))
        case, image = forbidden_subband(band, w)
        assert case == ("T9" if name == "S9" else name)
        assert image == tuple(range(size))

    def test_witness_in_a_product(self):
        # T13b x SL-chain(2) holds T13b twice; the odometer-least witness lies in the lower copy
        band = product_band(catalog("T13b"), catalog("SL-chain(2)"))
        w = normalize_witness(band, find_lambda_witness(band))
        case, image = forbidden_subband(band, w)
        assert case == "T13b" and len(image) == 13
        assert oracles.is_injective_hom(catalog("T13b").table, band.table, image)

    def test_witness_not_normalized(self):
        # <A> in T9^2, A the diagonal witness and (4, 6): its least witness is not
        # normalized, and its words embed no forbidden band; normalized, it generates T17
        band = subpower_band(catalog("T9"), [(3, 5), (5, 5), (2, 2), (1, 1), (4, 4), (0, 0)])
        w = find_lambda_witness(band)
        assert normalize_witness(band, w) != w
        with pytest.raises(NotAWitness, match="is not normalized"):
            forbidden_subband(band, w)
        with pytest.raises(NotAWitness, match="does not witness"):
            forbidden_subband(band, Witness(0, 0, 0, 0, 0))
        case, image = forbidden_subband(band, normalize_witness(band, w))
        assert case == "T17" and ("T17", "S") in searched_forbidden(band)
        assert oracles.is_injective_hom(catalog("T17").table, band.table, image)

    def test_bottom_class_structure(self):
        # d/R = {d, dx, de, dxe} and d/L = {d, xd, yd} inside the generated band
        for name in ("T9", "T13a", "T13b", "T17"):
            band = catalog(name)
            w = canonical_forbidden_witness()
            d, e, x, y = w.d, w.e, w.x, w.y
            t = band.table
            r_class = {b for b in range(band.order)
                       if band.green.leq_r[d, b] and band.green.leq_r[b, d]}
            l_class = {b for b in range(band.order)
                       if band.green.leq_l[d, b] and band.green.leq_l[b, d]}
            xe = t[x][e]
            assert r_class == {d, t[d][x], t[d][e], t[d][xe]}
            assert l_class == {d, t[x][d], t[y][d]}


class TestForbiddenBands:
    def test_orders(self):
        sizes = {"T9": 9, "T13a": 13, "T13b": 13, "T17": 17}
        for case, size in sizes.items():
            assert construct_forbidden_band(case).order == size

    def test_unknown_case(self):
        with pytest.raises(UnknownName):
            construct_forbidden_band("T11")

    def test_t9_equals_the_nine_element_table(self, s9):
        assert construct_forbidden_band("T9").table == s9.table

    def test_t9_isomorphic_to_s9_by_search(self, s9):
        t9 = construct_forbidden_band("T9")
        assert find_embedding(t9, s9) is not None
        assert find_embedding(s9, t9) is not None

    def test_thirteens_not_isomorphic(self):
        a = construct_forbidden_band("T13a")
        b = construct_forbidden_band("T13b")
        assert find_embedding(a, b) is None
        assert find_embedding(b, a) is None

    @pytest.mark.parametrize("case", ["T9", "T13a", "T13b", "T17"])
    def test_canonical_witness(self, case):
        band = construct_forbidden_band(case)
        w = canonical_forbidden_witness()
        assert is_witness(band, w)
        assert normalize_witness(band, w) == w
        # also the odometer-least witness of the synthesized table
        assert find_lambda_witness(band) == w

    @pytest.mark.parametrize("case", ["T9", "T13a", "T13b", "T17"])
    def test_row_case_distinctions(self, case):
        band = construct_forbidden_band(case)
        w = canonical_forbidden_witness()
        d = w.d
        xd = band.table[w.x][d]
        yd = band.table[w.y][d]
        expected = {
            "T9": (True, True),    # d = xd, d = yd
            "T13a": (True, False),
            "T13b": (False, False),  # d != xd and xd = yd
            "T17": (False, False),
        }[case]
        assert (xd == d, yd == d) == expected
        if case == "T13b":
            assert xd == yd
        if case == "T17":
            assert len({d, xd, yd}) == 3


class TestEmbedsForbidden:
    def test_s9_contains_t9(self, s9):
        report = embeds_forbidden(s9)
        assert report.entries == (("T9", "S", tuple(range(9))),)
        assert report.any_embedding

    def test_s10_contains_none(self, s10):
        report = embeds_forbidden(s10)
        assert not report.any_embedding

    def test_two_element_semilattice(self):
        assert not embeds_forbidden(catalog("SL-chain(2)")).any_embedding

    def test_dual_orientation(self, s9):
        report = embeds_forbidden(s9.dual())
        assert report.entries == (("T9", "dual", tuple(range(9))),)

    @pytest.mark.parametrize("name", ["S9", "S10", "T13a", "Rect(2,3)"])
    def test_flag_matches_classification(self, name):
        # the classification here is the search's, which does not read the scan
        band = catalog(name)
        assert embeds_forbidden(band).any_embedding == bool(searched_forbidden(band))

    def test_entries_match_the_search_on_catalog_derived_bands(self):
        for band in catalog_derived():
            check_report(band)


class TestZoo:
    """The tractable bands form a quasivariety, so a subsemigroup of a power
    of a tractable band is tractable, and one holding a copy of a band that
    fails a scan fails it too."""

    def test_quasivariety_closure(self):
        for base, planted, band in zoo(random.Random(0), 100):
            for b in (band, band.dual()):
                assert find_lambda_witness(b) == referee(b), (base, b.table)
                if classify(base).tractable:
                    assert classify(b).tractable, (base, b.table)
                if planted:
                    assert not classify(b).tractable, (base, b.table)
            # the report and the search cover the band and its dual both
            check_report(band)


class TestGuards:
    """Each internal check fires, with its own class and message, once its
    invariant is broken by hand."""

    def test_j_preorder_cache_checked(self, monkeypatch):
        band = catalog("S10")  # a new band, not scanned yet
        monkeypatch.setattr(band, "green", replace(band.green, leq_j=~band.green.leq_j))
        with pytest.raises(AssertionError, match="^J-preorder cache disagrees with d e d = d$"):
            find_lambda_witness(band)

    def test_normalized_witness_checked(self, monkeypatch, s9):
        # the input passes as a witness and the output does not
        answers = iter([True, False])
        monkeypatch.setattr(quasi, "is_witness", lambda band, w: next(answers))
        with pytest.raises(AssertionError,
                           match="^normalization produced a non-witness; internal bug$"):
            normalize_witness(s9, S9_WITNESS)

    def test_generated_subband_checked(self, monkeypatch, s9):
        # T9's table replaced by the left-zero band of the same order
        monkeypatch.setattr(quasi, "construct_forbidden_band", lambda case: catalog("LZ(9)"))
        with pytest.raises(AssertionError, match=(
                f"^{S9_WITNESS} does not generate T9 by its words; internal bug$")):
            forbidden_subband(s9, S9_WITNESS)
