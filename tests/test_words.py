"""Word operators, the h_n normal form, G/H/I words, identity checking."""

import itertools
import random
import re
import sys
import time

import numpy as np
import pytest

from bandsmp import (
    Identity,
    catalog,
    content,
    dual_word,
    eval_word,
    ghi_word,
    h_n,
    left_cut_s,
    length_bound_p,
    satisfies_identity,
    sigma,
    word_from_text,
    word_to_text,
)
from bandsmp import words
from bandsmp.errors import (ArityTooLarge, EmptyWord, OutOfRange, UnboundVariable,
                            UnsupportedIndex)

import oracles
from helpers import random_word


class TestOperators:
    def test_content(self):
        assert content((3, 1, 2)) == frozenset({1, 2, 3})
        assert content(()) == frozenset()
        assert content((2, 2, 1)) == frozenset({1, 2})

    def test_left_cut(self):
        assert left_cut_s((3, 1, 2)) == (3, 1)
        assert left_cut_s((1,)) == ()
        assert left_cut_s((2, 1, 2, 3, 1)) == (2, 1, 2)
        assert left_cut_s(()) == ()

    def test_left_cut_definition(self):
        # s(w) = u for w = u x v with c(u) != c(ux) = c(w)
        rng = random.Random(0)
        for _ in range(200):
            w = random_word(rng, 5, 12)
            u = left_cut_s(w)
            x = w[len(u)]
            assert content(u) != content(u + (x,)) == content(w)

    def test_sigma(self):
        assert sigma((3, 1, 2)) == (2,)
        assert sigma((1, 2, 1)) == (2,)
        assert sigma(()) == ()

    def test_sigma_matches_first_occurrence_order(self):
        def referee(w):  # the last variable to occur for the first time
            seen = []
            for v in w:
                if v not in seen:
                    seen.append(v)
            return tuple(seen[-1:])

        rng = random.Random(7)
        for _ in range(2000):
            w = random_word(rng, rng.randint(1, 8), 20)
            assert sigma(w) == referee(w), w

    def test_dual(self):
        assert dual_word((3, 1, 2)) == (2, 1, 3)
        assert dual_word(()) == ()
        rng = random.Random(1)
        for _ in range(50):
            w = random_word(rng, 6, 10)
            assert dual_word(dual_word(w)) == w

    def test_text_round_trip(self):
        assert word_from_text("3 1 2") == (3, 1, 2)
        assert word_to_text((3, 1, 2)) == "3 1 2"


class TestHn:
    def test_h2_takes_first_variable(self):
        assert h_n(2, (3, 1, 2)) == (3,)

    def test_h3_examples(self):
        assert h_n(3, (2, 1)) == (2, 2, 1, 1)
        assert h_n(3, (3, 1, 2)) == (3, 3, 1, 1, 2, 2)

    def test_empty_word(self):
        for n in (2, 3, 4):
            assert h_n(n, ()) == ()

    def test_invalid_n(self):
        with pytest.raises(UnsupportedIndex):
            h_n(1, (1,))

    def test_output_is_bounded(self, monkeypatch):
        # unbounded, h_1000(1 2 3) would build 167,165,999 letters
        monkeypatch.setattr(words, "MAX_WORD_LENGTH", 5)
        assert h_n(6, (1,)) == (1,) * 5
        for n, w in [(7, (1,)), (1000, (1, 2, 3))]:
            with pytest.raises(ArityTooLarge, match="more than 5 letters"):
                h_n(n, w)

    def test_refusal_is_exact(self, monkeypatch):
        # the length is counted before building: a bound one below it refuses, at it builds
        rng = random.Random(4)
        cases = [(rng.randint(2, 6), random_word(rng, 4, 7)) for _ in range(300)]
        for n, w, length in [(n, w, len(h_n(n, w))) for n, w in cases]:
            monkeypatch.setattr(words, "MAX_WORD_LENGTH", length - 1)
            with pytest.raises(ArityTooLarge):
                h_n(n, w)
            monkeypatch.setattr(words, "MAX_WORD_LENGTH", length)
            assert len(h_n(n, w)) == length

    def test_refused_before_building(self):
        # h_1000(1 2 3) has 167,165,999 letters, h_(10^8)(1) has 10^8 - 1
        for n, w in [(1000, (1, 2, 3)), (10**8, (1,))]:
            start = time.perf_counter()
            with pytest.raises(ArityTooLarge):
                h_n(n, w)
            assert time.perf_counter() - start < 0.5
        start = time.perf_counter()  # the empty word is built at once, whatever n
        assert h_n(10**12, ()) == ()
        assert time.perf_counter() - start < 0.5

    def test_content_shrinks(self):
        rng = random.Random(2)
        for _ in range(200):
            w = random_word(rng, 6, 15)
            for n in (2, 3, 4):
                assert content(h_n(n, w)) <= content(w)

    def test_length_bound(self):
        rng = random.Random(3)
        for _ in range(300):
            k = rng.randint(1, 6)
            w = random_word(rng, k, 20)
            for n in (2, 3, 4):
                assert len(h_n(n, w)) <= length_bound_p(n, k)

    def test_loops_match_the_recursive_definition(self):
        def recursive(n, w):
            if not w:
                return ()
            if n == 2:
                return (w[0],)
            return (recursive(n, left_cut_s(w)) + sigma(w)
                    + dual_word(recursive(n - 1, dual_word(w))))

        for length in range(6):
            for w in itertools.product((1, 2, 3), repeat=length):
                for n in range(2, 7):
                    assert h_n(n, w) == recursive(n, w), (n, w)


class TestLengthBound:
    def test_base_case(self):
        for k in range(1, 10):
            assert length_bound_p(2, k) == 1

    def test_recursive_values(self):
        assert length_bound_p(3, 5) == 10
        assert length_bound_p(4, 3) == 21

    def test_closed_form_matches_the_recurrence(self):
        for k in range(1, 9):
            p = 1
            for n in range(2, 60):
                assert length_bound_p(n, k) == p, (n, k)
                p = k * (1 + p)

    def test_k_one_at_huge_n(self):
        start = time.perf_counter()
        assert length_bound_p(10**9, 1) == 999_999_999
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("k, last", [(2, 14284), (3, 9013), (7, 5089), (10, 4301)])
    def test_last_printable_n(self, k, last):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the interpreter's default
        try:
            assert len(str(length_bound_p(last, k))) <= 4300
            with pytest.raises(UnsupportedIndex, match="cannot be printed"):
                length_bound_p(last + 1, k)
        finally:
            sys.set_int_max_str_digits(limit)


# the published words for n = 2..4
GHI_LITERALS = {
    ("G", 2): (2, 1),
    ("H", 2): (2,),
    ("I", 2): (2, 1, 2),
    ("G", 3): (3, 1, 2),
    ("H", 3): (3, 1, 2, 3, 2),
    ("I", 3): (3, 1, 2, 3, 2, 1, 2),
    ("G", 4): (4, 2, 1, 3),
    ("H", 4): (4, 2, 1, 3, 4, 2, 3, 2, 1, 3),
    ("I", 4): (4, 2, 1, 3, 4, 2, 1, 2, 3, 2, 1, 3),
}


class TestGhiWords:
    def test_literals(self):
        for (family, n), w in GHI_LITERALS.items():
            assert ghi_word(family, n) == w, (family, n)

    def test_unsupported(self):
        for family, n in [("G", 1), ("H", 0), ("I", -3), ("J", 3)]:
            with pytest.raises(UnsupportedIndex):
                ghi_word(family, n)

    def test_recursion_and_lengths(self):
        def recursive(family, n):
            if n == 2:
                return GHI_LITERALS[family, 2]
            g = (n,) + dual_word(recursive("G", n - 1))
            return g if family == "G" else g + (n,) + dual_word(recursive(family, n - 1))

        for n in range(2, 60):
            h = (n * n + 3 * n - 8) // 2
            for family, length in [("G", n), ("H", h), ("I", h + 2)]:
                w = ghi_word(family, n)
                assert w == recursive(family, n) and len(w) == length, (family, n)

    def test_length_is_bounded_before_building(self, monkeypatch):
        start = time.perf_counter()
        with pytest.raises(ArityTooLarge):
            ghi_word("H", 10**6)  # about 5 * 10^11 letters
        assert time.perf_counter() - start < 0.5
        monkeypatch.setattr(words, "MAX_WORD_LENGTH", 10)
        assert len(ghi_word("G", 10)) == len(ghi_word("H", 4)) == 10
        for family, n in [("G", 11), ("H", 5), ("I", 4)]:
            with pytest.raises(ArityTooLarge, match="more than 10"):
                ghi_word(family, n)


class TestEval:
    def test_variety_spot_values(self, s9, s10):
        point = [1, 0, 2, 5]  # (2, 1, 3, 6)
        for band in (s9, s10):
            assert eval_word(band, ghi_word("G", 4), point) == 9 - 1
            assert eval_word(band, ghi_word("H", 4), point) == 8 - 1

    def test_single_letter(self, s9):
        for a in range(9):
            assert eval_word(s9, (1,), [a]) == a

    def test_empty_word_rejected(self, s9):
        with pytest.raises(EmptyWord):
            eval_word(s9, (), [0])

    def test_unbound_variable(self, s9):
        with pytest.raises(UnboundVariable):
            eval_word(s9, (1, 3), [0, 0])

    def test_values_outside_the_band(self, s10):
        # -1 would pick the last row; a lone -3 would come back unread
        for w, assign, v in [((1, 2), [-1, 0], 0), ((1,), [-3], -2), ((1, 2), [10, 0], 11)]:
            with pytest.raises(OutOfRange, match=f"value {v} outside 1..10"):
                eval_word(s10, w, assign)
        with pytest.raises(UnboundVariable, match="does not cover x3"):
            eval_word(s10, (1, 3), [10, 0])


    def test_non_integer_values(self, s10):
        # 2.5 came back unread from a one-letter word and was a bare TypeError from two
        for w in [(1,), (1, 1), (2, 1)]:
            for value in (2.5, "3", np.float64(2.0)):
                with pytest.raises(OutOfRange, match=re.escape(f"value {value!r} is not an integer")):
                    eval_word(s10, w, [value, 0])
        assert eval_word(s10, (1, 2), [np.int64(1), 2]) == 3


class TestSatisfiesIdentity:
    @pytest.mark.parametrize("lhs, rhs", [((), (1,)), ((1,), ()), ((), ())])
    def test_empty_side_refused(self, lhs, rhs):
        # one rule, at construction; satisfies_identity never sees an empty side
        with pytest.raises(EmptyWord, match="^an identity needs two nonempty sides$"):
            Identity(lhs, rhs)

    def test_regular_identity_holds_in_both_tables(self, s9, s10):
        ident = Identity(dual_word(ghi_word("G", 3)), dual_word(ghi_word("I", 3)))
        assert satisfies_identity(s9, ident) is True
        assert satisfies_identity(s10, ident) is True

    def test_g4_h4_fails_with_least_counterexample(self, s9, s10):
        ident = Identity(ghi_word("G", 4), ghi_word("H", 4))
        # lexicographically least counterexample coincides with the
        # published evaluation point (2,1,3,6)
        assert satisfies_identity(s9, ident) == (1, 0, 2, 5)
        assert satisfies_identity(s10, ident) == (1, 0, 2, 5)

    def test_rectangular_law(self):
        band = catalog("Rect(2,2)")
        assert satisfies_identity(band, Identity((1, 2, 3), (1, 3))) is True

    def test_budget(self, s10):
        # 10^8 assignments of eight variables, over the budget of 10^7
        with pytest.raises(ArityTooLarge):
            satisfies_identity(s10, Identity((1, 2, 3, 4, 5, 6, 7, 8), (8, 7, 6, 5, 4, 3, 2, 1)))

    @pytest.mark.parametrize("name", ["S9", "LZ(3)", "Rect(2,3)", "SL-chain(3)"])
    def test_matches_naive_oracle(self, name):
        band = catalog(name)
        rng = random.Random(4)
        for _ in range(40):
            lhs = random_word(rng, 3, 5)
            rhs = random_word(rng, 3, 5)
            got = satisfies_identity(band, Identity(lhs, rhs))
            expected = oracles.naive_satisfies_identity(band.table, lhs, rhs)
            assert got == expected

    @pytest.mark.parametrize("block_bytes", [8, 200, words._BLOCK_BYTES])
    @pytest.mark.parametrize("name", ["S10", "T13a", "RZ(3)", "Rect(2,2)"])
    def test_matches_naive_oracle_with_gaps_and_blocks(self, monkeypatch, name, block_bytes):
        # variables x1, x3, x7 and x2, x5: the counterexample pins the gaps to 0;
        # 8 bytes make one assignment a block, 200 bytes blocks of 25
        monkeypatch.setattr(words, "_BLOCK_BYTES", block_bytes)
        band = catalog(name)
        rng = random.Random(8)
        for letters in [(1, 3, 7), (2, 5)]:
            for _ in range(15):
                lhs = tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
                rhs = tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
                got = satisfies_identity(band, Identity(lhs, rhs))
                assert got == oracles.naive_satisfies_identity(band.table, lhs, rhs), (lhs, rhs)

    def test_dualizing_band_and_identity_agree(self, s9):
        rng = random.Random(5)
        for _ in range(30):
            ident = Identity(random_word(rng, 3, 6), random_word(rng, 3, 6))
            assert (satisfies_identity(s9, ident) is True) == (
                satisfies_identity(s9.dual(), ident.dual()) is True
            )

    @pytest.mark.parametrize(
        "name", ["LZ(3)", "RZ(3)", "SL-chain(3)", "Rect(2,3)"]
    )
    def test_regular_bands_satisfy_the_regularity_identity(self, name):
        # dual(G3) G3 = dual(I3) I3 defines regular bands
        band = catalog(name)
        g3, i3 = ghi_word("G", 3), ghi_word("I", 3)
        ident = Identity(dual_word(g3) + g3, dual_word(i3) + i3)
        assert satisfies_identity(band, ident) is True

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("name", ["SL-chain(3)", "Rect(2,3)", "LZ(3)"])
    def test_hn_preserves_term_functions_in_gnhn_varieties(self, name, n):
        band = catalog(name)
        ident = Identity(ghi_word("G", n), ghi_word("H", n))
        assert satisfies_identity(band, ident) is True
        rng = random.Random(6)
        for _ in range(50):
            w = random_word(rng, 4, 10)
            hw = h_n(n, w)
            assign = [rng.randrange(band.order) for _ in range(4)]
            assert eval_word(band, w, assign) == eval_word(band, hw, assign)
