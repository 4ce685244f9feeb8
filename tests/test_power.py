"""Direct-power tuples, componentwise preorders, and the closure oracle."""

import itertools
import random
from functools import partial, reduce

import numpy as np
import pytest

from bandsmp import (
    GenSet,
    SatInstance,
    SmpInstance,
    catalog,
    closure,
    format_instance,
    member_closure_word,
    mul_tuple,
    parse_instance,
    sat_to_smp,
    verify_word,
)
from bandsmp import power
from bandsmp.band import CATALOG_EXAMPLES
from bandsmp.errors import ArityMismatch, CapExceeded, OutOfRange, ParseError
from bandsmp.power import leq_cw

import oracles
from helpers import instance_to_json


class TestMul:
    def test_s9_pair(self, s9):
        assert mul_tuple(s9, (5, 5), (2, 4)) == (7, 7)  # (6,6)*(3,5) = (8,8)

    def test_idempotence_lifts(self, s10):
        rng = random.Random(0)
        for _ in range(50):
            t = tuple(rng.randrange(10) for _ in range(rng.randint(0, 4)))
            assert mul_tuple(s10, t, t) == t

    def test_empty_tuples(self, s9):
        assert mul_tuple(s9, (), ()) == ()

    def test_arity_mismatch(self, s9):
        with pytest.raises(ArityMismatch):
            mul_tuple(s9, (0,), (0, 1))


class TestPreorderCw:
    def test_j_example(self, s9):
        assert leq_cw(s9.green.leq_j, (7, 7), (2, 4))  # (8,8) vs (3,5)

    def test_reflexive(self, s9):
        rng = random.Random(1)
        for _ in range(30):
            t = tuple(rng.randrange(9) for _ in range(3))
            for mat in (s9.green.leq_l, s9.green.leq_r, s9.green.leq_j):
                assert leq_cw(mat, t, t)

    def test_l_example(self, s9):
        assert not leq_cw(s9.green.leq_l, (2,), (7,))  # 3*8 = 8 != 3

    @pytest.mark.parametrize("name", ["S9", "S10", "Rect(2,3)"])
    def test_j_matches_xyx_rule(self, name):
        band = catalog(name)
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(1, 3)
            a = tuple(rng.randrange(band.order) for _ in range(n))
            b = tuple(rng.randrange(band.order) for _ in range(n))
            rule = mul_tuple(band, mul_tuple(band, a, b), a) == a
            assert leq_cw(band.green.leq_j, a, b) == rule

    def test_dual_swaps_l_and_r(self, s9):
        d = s9.dual()
        rng = random.Random(3)
        for _ in range(100):
            a = tuple(rng.randrange(9) for _ in range(2))
            b = tuple(rng.randrange(9) for _ in range(2))
            assert leq_cw(s9.green.leq_l, a, b) == leq_cw(d.green.leq_r, a, b)


class TestGenSet:
    def test_duplicate_rejected(self, s9):
        with pytest.raises(ArityMismatch):
            GenSet.of(s9, [(0,), (0,)])

    def test_out_of_range(self, s9):
        with pytest.raises(OutOfRange):
            GenSet.of(s9, [(9,)])

    def test_bad_arity_refused(self, s9):
        with pytest.raises(ArityMismatch, match="arity -1 outside"):
            GenSet(s9, -1, ())
        with pytest.raises(ArityMismatch, match="cannot infer arity from an empty generator set"):
            GenSet.of(s9, [])

    @pytest.mark.parametrize("n", [True, 1.0, "1"], ids=["True", "1.0", "str"])
    def test_arity_that_is_not_an_integer_refused(self, s10, n):
        # each ended in a bare TypeError; True is not read as 1
        with pytest.raises(OutOfRange) as exc:
            GenSet(band=s10, n=n, members=((0,),))
        assert str(exc.value) == f"arity {n!r} is not an integer"

    def test_numpy_arity_stored_as_int(self, s10):
        gens = GenSet(band=s10, n=np.int64(2), members=((0, 1),))
        assert type(gens.n) is int and gens.n == 2

    def test_target_arity_checked(self, s9):
        with pytest.raises(ArityMismatch):
            SmpInstance(GenSet.of(s9, [(0, 0)]), (0,))

    def test_row_checks_one_tuple_as_members_are_checked(self, s10):
        gens = GenSet.of(s10, [(9, 1), (2, 3)])
        row = gens.row((1, 9))
        assert row.dtype == np.intp and not row.flags.writeable and row.tolist() == [1, 9]
        assert SmpInstance(gens, (1, 9)).row.tolist() == [1, 9]
        assert GenSet.of(s10, [()], n=0).row(()).shape == (0,)
        for b in [(1,), (1, 2, 3), (10,)]:  # arity before range
            with pytest.raises(ArityMismatch, match="target arity"):
                gens.row(b)
        for b, v in [((-1, 1), 0), ((10, 1), 11), ((1, 2**64), 2**64 + 1)]:
            with pytest.raises(OutOfRange, match=f"coordinate {v} outside 1..10"):
                gens.row(b)

    def test_non_integers_refused(self, s10):
        # np.fromiter into intp would read 1.9 as 1 and 3.5 as 3
        with pytest.raises(OutOfRange, match="coordinate 1.9 is not an integer"):
            GenSet.of(s10, [(1.9,), (2,)])
        gens = GenSet.of(s10, [(1,), (2,)])
        for b in [(3.5,), (2.0,), ("3",)]:
            with pytest.raises(OutOfRange, match="is not an integer"):
                gens.row(b)
        assert GenSet.of(s10, [(np.int64(3), np.uint8(9))]).rows.tolist() == [[3, 9]]
        assert gens.row((np.int32(4),)).tolist() == [4]

    def test_rows_are_the_members(self, s10):
        gens = GenSet.of(s10, [(1, 0, 9), (2, 9, 4)])
        assert gens.rows.dtype == np.intp and not gens.rows.flags.writeable
        assert gens.rows.tolist() == [list(t) for t in gens.members]
        assert GenSet(band=s10, n=3, members=()).rows.shape == (0, 3)
        assert GenSet.of(s10, [()], n=0).rows.shape == (1, 0)

    def test_first_failing_member_raises_as_a_loop_would(self, s9):
        """The checks go by kind, the range check vectorized; the referee is
        three loops over the members in order: every member's arity, then
        every coordinate's range, then repetition. The first fault of the
        earliest kind raises."""
        def referee(members, n):
            for i, t in enumerate(members, 1):
                if len(t) != n:
                    return ArityMismatch, f"generator {i} has arity {len(t)}, expected {n}"
            for t in members:
                for v in t:
                    if not isinstance(v, (int, np.integer)):
                        return OutOfRange, f"coordinate {v!r} is not an integer"
                    if not 0 <= v < 9:
                        return OutOfRange, f"coordinate {v + 1} outside 1..9"
            seen = {}
            for i, t in enumerate(members, 1):
                if t in seen:
                    return ArityMismatch, f"generator {i} repeats generator {seen[t]}"
                seen[t] = i
            return None

        values = [0, 3, 8, 9, -1, 2**63, 2**64 + 1, -(2**63) - 1, 1.5, np.float64(2.0)]
        rng = random.Random(5)
        for _ in range(400):
            n = rng.randint(0, 3)
            members = [tuple(rng.choice(values[:3] * 6 + values[3:])
                             for _ in range(n if rng.random() < 0.9 else n + 1))
                       for _ in range(rng.randint(0, 5))]
            members += rng.sample(members, min(len(members), rng.randint(0, 1)))
            rng.shuffle(members)
            want = referee(members, n)
            try:
                GenSet(band=s9, n=n, members=tuple(members))
                got = None
            except (ArityMismatch, OutOfRange) as exc:
                got = type(exc), str(exc)
            assert got == want, members


class TestClosure:
    def test_s10_example(self, s10):
        got = closure(GenSet.of(s10, [(1,), (2,)]))
        assert set(got) == {(1,), (2,), (3,)}

    def test_singleton(self, s9):
        assert closure(GenSet.of(s9, [(4, 2)])) == [(4, 2)]

    def test_cap_exceeded(self, s10):
        gens = GenSet.of(s10, [(i,) for i in range(6)])
        with pytest.raises(CapExceeded):
            closure(gens, cap=3)

    @pytest.mark.parametrize("cap", [-1, -10**30, True, False, 1.5, "3", None])
    def test_bad_cap_refused(self, s10, cap):
        for call in (lambda: closure(GenSet.of(s10, [(1,)]), cap=cap),
                     lambda: member_closure_word(GenSet.of(s10, [(1,), (2,)]), (3,), cap)):
            with pytest.raises(OutOfRange, match="^cap ") as exc:
                call()
            assert "\n" not in str(exc.value)
        assert closure(GenSet.of(s10, [(1,)]), cap=np.int8(0)) == [(1,)]  # generators are free

    @pytest.mark.parametrize("name", ["S10", "Rect(2,3)", "T13a"])
    def test_matches_naive_fixed_point(self, name):
        band = catalog(name)
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 3)
            k = rng.randint(1, 3)
            members = set()
            while len(members) < k:
                members.add(tuple(rng.randrange(band.order) for _ in range(n)))
            gens = GenSet.of(band, sorted(members))
            got = closure(gens)
            assert len(got) == len(set(got))
            assert set(got) == oracles.naive_tuple_closure(band.table, gens.members)

    def test_closed_under_products(self, s10):
        gens = GenSet.of(s10, [(0, 5), (2, 7), (4, 1)])
        got = set(closure(gens))
        for a in got:
            for b in got:
                assert mul_tuple(s10, a, b) in got

    def test_zero_arity(self, s10):
        assert closure(GenSet.of(s10, [()], n=0)) == [()]
        assert member_closure_word(GenSet(band=s10, n=0, members=()), ()) is None
        assert member_closure_word(GenSet.of(s10, [()], n=0), ()) == [1]


class TestMembership:
    def test_generator_is_member(self, s10):
        gens = GenSet.of(s10, [(4, 2)])
        assert member_closure_word(gens, (4, 2)) is not None

    def test_s10_product(self, s10):
        gens = GenSet.of(s10, [(2,), (1,)])
        assert member_closure_word(gens, (3,)) is not None  # 2*3 = 4

    def test_singleton_excludes(self, s10):
        assert member_closure_word(GenSet.of(s10, [(2,)]), (3,)) is None

    def test_target_outside_the_band(self, s10):
        gens = GenSet.of(s10, [(1, 0), (2, 9)])
        for b in [(10, 0), (-1, 0), (300, 0)]:
            with pytest.raises(OutOfRange) as want:
                SmpInstance(gens, b)
            with pytest.raises(OutOfRange) as got:
                member_closure_word(gens, b)
            assert str(got.value) == str(want.value)
            assert "\n" not in str(got.value) and str(got.value).startswith("coordinate ")

    def test_word_witness_verifies(self, s10):
        gens = GenSet.of(s10, [(1,), (2,)])
        word = member_closure_word(gens, (3,))
        assert word is not None
        assert verify_word(gens, word, (3,))
        assert member_closure_word(gens, (0,)) is None

    @pytest.mark.parametrize("name", ["S9", "SL-chain(4)"])
    def test_agrees_with_naive_closure(self, name):
        band = catalog(name)
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(1, 3)
            members = {tuple(rng.randrange(band.order) for _ in range(n))
                       for _ in range(rng.randint(1, 3))}
            gens = GenSet.of(band, sorted(members))
            target = tuple(rng.randrange(band.order) for _ in range(n))
            expected = target in oracles.naive_tuple_closure(band.table, gens.members)
            assert (member_closure_word(gens, target) is not None) == expected


class TestInstanceFormat:
    def test_text_round_trip(self, s10):
        inst = SmpInstance(GenSet.of(s10, [(1, 0), (2, 9)]), (3, 9))
        again = parse_instance(format_instance(inst), s10)
        assert again.gens.members == inst.gens.members
        assert again.target == inst.target

    def test_text_format_is_one_based(self, s10):
        text = format_instance(SmpInstance(GenSet.of(s10, [(0,)]), (9,)))
        assert text == "1 1\n1\n10\n"

    def test_json_round_trip(self, s10):
        inst = SmpInstance(GenSet.of(s10, [(1, 0)]), (3, 9))
        again = parse_instance(instance_to_json(inst), s10)
        assert again.gens.members == inst.gens.members
        assert again.target == inst.target

    def test_header_mismatch(self, s10):
        with pytest.raises(ParseError):
            parse_instance("1 2\n1\n2\n", s10)

    @pytest.mark.parametrize("k", [0, 1])
    def test_arity_zero_text_round_trip(self, s10, k):
        # every tuple of arity 0 is a blank line, so the text is the header alone
        inst = SmpInstance(GenSet(band=s10, n=0, members=((),) * k), ())
        text = format_instance(inst)
        assert text == f"0 {k}\n" + "\n" * (k + 1)
        again = parse_instance(text, s10)
        assert (again.gens.n, again.gens.members, again.target) == (0, ((),) * k, ())

    def test_arity_zero_repeated_generator(self, s10):
        with pytest.raises(ParseError, match="^instance declares 2 generators but file has 0$"):
            parse_instance("0 2\n", s10)


# -- the array BFS against a one-tuple-at-a-time BFS ---------------------------

def tuple_bfs(table, members, cap, stop_at):
    """A one-tuple-at-a-time, dict-backed closure BFS: the referee.

    Returns (insertion order, parent map); parent[t] = (parent tuple,
    generator index) for a non-generator t, None for a generator.
    """
    order = []
    parent = {}
    for g in members:
        if g not in parent:
            parent[g] = None
            order.append(g)
    if stop_at is not None and stop_at in parent:
        return order, parent
    i = 0
    while i < len(order):
        a = order[i]
        i += 1
        for gi, g in enumerate(members):
            p = tuple(table[x][y] for x, y in zip(a, g))
            if p not in parent:
                parent[p] = (a, gi)
                order.append(p)
                if len(order) > cap:
                    raise CapExceeded(len(order))
                if p == stop_at:
                    return order, parent
    return order, parent


def tuple_word(members, b, cap, table):
    _, parent = tuple_bfs(table, members, cap, b)
    if b not in parent:
        return None
    word = []
    cur = b
    while parent[cur] is not None:
        cur, gi = parent[cur]
        word.append(gi + 1)
    word.append(members.index(cur) + 1)
    return word[::-1]


def outcome(fn, *args):
    try:
        return fn(*args)
    except CapExceeded as exc:
        return ("cap exceeded", exc.size_so_far)


def assert_same_as_tuple_bfs(gens, targets):
    """Same closure order, words and cap points as the referee."""
    table, members = gens.band.table, gens.members
    order, _ = tuple_bfs(table, members, power.DEFAULT_CAP, None)
    assert closure(gens) == order
    k, size = len(members), len(order)
    caps = sorted({0, 1, k - 1, k, k + 1, size // 2, size - 1, size, size + 1} - {-1})
    for cap in caps:
        assert outcome(closure, gens, cap) == outcome(
            lambda: tuple_bfs(table, members, cap, None)[0])
    position = {t: j for j, t in enumerate(order)}
    for b in targets:
        # b is tuple number j + 1 of the closure; caps j and j + 1 fall either side
        j = position.get(b, size)
        for cap in sorted({0, j - 1, j, j + 1, power.DEFAULT_CAP} - {-1}):
            want = outcome(tuple_word, members, b, cap, table)
            assert outcome(member_closure_word, gens, b, cap) == want


def targets_for(gens, rng, extra=()):
    """Every generator, products of random generator words, random tuples and extra."""
    band, members, n = gens.band, gens.members, gens.n
    out = list(members) + list(extra)
    for _ in range(3):
        word = [rng.choice(members) for _ in range(rng.randint(2, 6))]
        out.append(reduce(partial(oracles.tuple_mul, band.table), word))
        out.append(tuple(rng.randrange(band.order) for _ in range(n)))
    return out


def random_gens(band, rng, n, k, draw):
    members = set()
    while len(members) < min(k, band.order ** n):
        members.add(tuple(draw() for _ in range(n)))
    return GenSet.of(band, sorted(members), n=n)


@pytest.fixture(params=["one block", "one tuple per block", "one coordinate per slab"])
def block_bytes(request, monkeypatch):
    # one tuple per block exercises every block boundary and run merge; the
    # third parameter sets the product-table budget to one byte, so no table is
    # built and blocks of the default size take their products from the flat
    # multiplication table, many tuples at once
    if request.param == "one tuple per block":
        monkeypatch.setattr(power, "_BLOCK_BYTES", 1)
    if request.param == "one coordinate per slab":
        monkeypatch.setattr(power, "_TABLE_BYTES", 1)


class TestAgainstTupleBfs:
    @pytest.mark.parametrize("name", CATALOG_EXAMPLES)
    def test_catalog_bands(self, name, block_bytes):
        band = catalog(name)
        rng = random.Random(f"array-bfs/{name}")
        for _ in range(6):
            n, k = rng.randint(1, 4), rng.randint(1, 4)
            gens = random_gens(band, rng, n, k, lambda: rng.randrange(band.order))
            assert_same_as_tuple_bfs(gens, targets_for(gens, rng))

    @pytest.mark.parametrize("name", ["S10", "T13a", "Rect(3,4)", "LZ(3)", "SL-chain(4)"])
    def test_zero_coordinates(self, name, block_bytes):
        # element 0 is a null byte in the row keys: trailing, inner and all-zero rows
        band = catalog(name)
        rng = random.Random(f"array-bfs-zeros/{name}")
        for _ in range(6):
            n, k = rng.randint(2, 6), rng.randint(2, 5)

            def draw():
                return 0 if rng.random() < 0.6 else rng.randrange(band.order)
            gens = random_gens(band, rng, n, k, draw)
            if (0,) * n not in gens.members and rng.random() < 0.5:
                gens = GenSet.of(band, gens.members + ((0,) * n,), n=n)
            trailing = tuple(list(gens.members[0][:1]) + [0] * (n - 1))
            assert_same_as_tuple_bfs(gens, targets_for(gens, rng, [(0,) * n, trailing]))

    @pytest.mark.parametrize("name", ["SL-chain(300)", "Rect(15,20)"])
    def test_order_over_256(self, name, block_bytes):
        # two bytes a coordinate; 256 and 512 have a zero low byte
        band = catalog(name)
        rng = random.Random(f"array-bfs-wide/{name}")
        values = [0, 1, 255, 256, 257, band.order - 1]
        for _ in range(4):
            n, k = rng.randint(2, 4), rng.randint(2, 5)

            def draw():
                return rng.choice(values) if rng.random() < 0.5 else rng.randrange(band.order)
            gens = random_gens(band, rng, n, k, draw)
            assert_same_as_tuple_bfs(gens, targets_for(gens, rng, [(256,) * n]))

    @pytest.mark.parametrize("count", [7, 8])
    def test_sat_gadget(self, count, block_bytes):
        # all eight 3-clauses over 3 variables are unsatisfiable: the whole
        # 411-tuple closure at arity 14; seven leave one satisfying assignment
        signs = itertools.product((1, -1), repeat=3)
        clauses = [frozenset(s * v for s, v in zip(sign, (1, 2, 3))) for sign in signs]
        out = sat_to_smp(SatInstance(3, tuple(clauses[:count])))
        gens = out.instance.gens
        rng = random.Random(f"array-bfs-gadget/{count}")
        assert_same_as_tuple_bfs(gens, targets_for(gens, rng, [out.instance.target]))


class TestProductTable:
    def counted(self, monkeypatch):
        built = []

        def product_table(table, cols):
            built.append(cols.shape)
            return real(table, cols)
        real = power._product_table
        monkeypatch.setattr(power, "_product_table", product_table)
        return built

    def test_none_at_arity_zero(self, s10, monkeypatch):
        built = self.counted(monkeypatch)
        monkeypatch.setattr(power, "_TABLE_BYTES", 1)
        assert closure(GenSet.of(s10, [()], n=0)) == [()]
        assert closure(GenSet(band=s10, n=0, members=())) == []
        assert member_closure_word(GenSet.of(s10, [()], n=0), ()) == [1]
        assert built == []

    def test_one_per_search_within_budget(self, s10, monkeypatch):
        # three coordinates of S10 are two codes of S10^2, the second code half padding
        built = self.counted(monkeypatch)
        gens = GenSet.of(s10, [(0, 5, 1), (2, 7, 3), (4, 1, 9)])
        monkeypatch.setattr(power, "_BLOCK_BYTES", 1)
        assert len(closure(gens)) > 3 * len(gens)
        assert built == [(3, 2)]
        built.clear()
        assert member_closure_word(gens, gens.members[1]) == [2]  # found without a search
        assert built == []

    def test_none_past_budget(self, s10, monkeypatch):
        # the table of 100·2·3 one-byte products (100 codes, 2 of them a row, 3
        # generators) is one byte past a budget of 599
        built = self.counted(monkeypatch)
        gens = GenSet.of(s10, [(0, 5, 1), (2, 7, 3), (4, 1, 9)])
        monkeypatch.setattr(power, "_TABLE_BYTES", 599)
        assert_same_as_tuple_bfs(gens, targets_for(gens, random.Random("flat-lookup")))
        assert built == []
        monkeypatch.setattr(power, "_TABLE_BYTES", 600)
        closure(gens)
        assert built == [(3, 2)]

    def test_none_for_a_small_closure_past_budget(self, monkeypatch):
        # 512·600·8 two-byte products are past the 4 MiB budget; the closure is 64 tuples
        built = self.counted(monkeypatch)
        band = catalog("Rect(16,32)")
        rng = random.Random("flat-lookup/Rect(16,32)")
        gens = random_gens(band, rng, 600, 8, lambda: rng.randrange(band.order))
        got = closure(gens)
        assert len(got) == 64 and built == []
        assert got == tuple_bfs(band.table, gens.members, power.DEFAULT_CAP, None)[0]


def reseed_with(monkeypatch, weak):
    """Draw the coefficients of salt s as weak(s, chunks) where that is not None;
    returns the numbers of stored tuples at which the closure store reseeds."""
    real, reseed, reseeds = power._coefficients, power._Closure._reseed, []

    def coefficients(salt, chunks):
        coef = weak(salt, chunks)
        return real(salt, chunks) if coef is None else np.asarray(coef, np.uint64)

    def spy(found):
        if found._salt >= 0:  # the constructor's draw of salt 0 is no reseed
            reseeds.append(found.size)
        reseed(found)
    monkeypatch.setattr(power, "_coefficients", coefficients)
    monkeypatch.setattr(power._Closure, "_reseed", spy)
    return reseeds


class TestFingerprintCollisions(TestAgainstTupleBfs):
    """The array BFS against the referee when salt 0's coefficients are all
    zero: every row fingerprints to 0, and the first block with two distinct
    rows must reseed without changing any order, word or cap point."""

    @pytest.fixture(autouse=True)
    def zero_salt(self, monkeypatch):
        reseeds = reseed_with(monkeypatch, lambda salt, chunks: [0] * chunks if salt == 0 else None)
        yield
        assert reseeds


def s10_chunks(t):
    """The 16-bit chunks that a fingerprint dots for an 8-tuple over S10: the
    codes t[2i] + 10·t[2i+1] of S10^2, two to a chunk, the first in the low byte."""
    codes = [t[i] + 10 * t[i + 1] for i in range(0, 8, 2)]
    return np.array([codes[0] + 256 * codes[1], codes[2] + 256 * codes[3]])


#: four generators of arity 8 over S10 (192 tuples), two 16-bit chunks a row
S10_EIGHT = [(0, 5, 1, 7, 2, 7, 3, 3), (2, 7, 3, 3, 4, 1, 9, 0),
             (4, 1, 9, 0, 1, 1, 6, 2), (1, 1, 6, 2, 0, 5, 1, 7)]


class TestReseedWithStoredRows:
    def test_collision_with_a_stored_row(self, s10, monkeypatch, block_bytes):
        # salt 0 reads a row's first 16 bits, its first four coordinates; the
        # generators differ there, and later tuples repeat them
        reseeds = reseed_with(monkeypatch, lambda salt, chunks: [1, 0] if salt == 0 else None)
        gens = GenSet.of(s10, S10_EIGHT)
        assert_same_as_tuple_bfs(gens, targets_for(gens, random.Random("stored collision")))
        assert min(reseeds) > 0

    def test_late_collision(self, s10, monkeypatch, block_bytes):
        # salt 0 is orthogonal to the difference of the last tuple found and a
        # late one whose 16-bit chunks both differ from it, so those two collide
        # with many tuples stored; salt 1 reads only the first 16 bits, so the
        # stored rows then collide among themselves and the store reseeds again
        gens = GenSet.of(s10, S10_EIGHT)
        order = tuple_bfs(s10.table, gens.members, power.DEFAULT_CAP, None)[0]
        x = s10_chunks(order[-1])
        d0, d1 = next(d for t in order[-2::-1] if (d := x - s10_chunks(t)).all()).tolist()
        salts = {0: [d1 % 2**64, -d0 % 2**64], 1: [1, 0]}
        reseeds = reseed_with(monkeypatch, lambda salt, chunks: salts.get(salt))
        assert_same_as_tuple_bfs(gens, targets_for(gens, random.Random("late collision")))
        assert max(reseeds) > len(gens) and reseeds.count(max(reseeds)) >= 2


def assert_numbered(found):
    """The runs hold every stored tuple once: their insertion numbers are a permutation
    of range(size), and each run's keys are its rows' fingerprints, in increasing order."""
    ins = np.concatenate([ins for _, ins in found.runs])
    assert ins.dtype == np.int32 and np.sort(ins).tolist() == list(range(found.size))
    for key, ins in found.runs:
        rows = found.stored[:found.size][ins]
        assert key.tolist() == (rows.view("<u2")[:, :found._chunks] @ found._coef).tolist()
        assert (key[1:] > key[:-1]).all()


class TestStoreNumbers:
    """The store's insertion numbers after every add, which the output-only tests
    see only as extra reseeds: a wrong number hides a row from the word check."""

    @pytest.fixture(autouse=True)
    def checked(self, monkeypatch):
        add = power._Closure.add

        def spy(found, *args):
            add(found, *args)
            assert_numbered(found)
        monkeypatch.setattr(power._Closure, "add", spy)

    @pytest.fixture
    def gens(self, s9):
        rng = random.Random("store")  # five generators of arity 10, 287 tuples
        return GenSet.of(s9, [tuple(rng.randrange(9) for _ in range(10)) for _ in range(5)])

    def test_after_a_closure(self, gens, block_bytes):
        found = power._bfs(gens, power.DEFAULT_CAP, None)
        assert found.size == 287 and len(found.runs) > 1
        assert_numbered(found)

    def test_after_a_late_reseed(self, gens, monkeypatch, block_bytes):
        # a row is five codes of S9^2 in three 16-bit chunks. Salt 0 is orthogonal
        # to the difference of the last tuple's chunks and those of a tuple that
        # agrees with it in the third, so the store reseeds with many tuples
        # stored and builds its one run from them
        chunks = power._bfs(gens, power.DEFAULT_CAP, None).stored.view("<u2")[:287, :3]
        d0, d1, _ = next(d for d in chunks[-1].astype(np.int64) - chunks[-2::-1]
                         if d[0] and d[1] and not d[2]).tolist()
        weak = [d1 % 2**64, -d0 % 2**64, 0x9E3779B97F4A7C15]
        reseeds = reseed_with(monkeypatch, lambda salt, chunks: weak if salt == 0 else None)
        found = power._bfs(gens, power.DEFAULT_CAP, None)
        assert found.size == 287 and min(reseeds) > 50
        assert_numbered(found)


#: (band, coordinates a code holds, bytes a code takes) at each order where either changes
PACKINGS = [("SL-chain(2)", 8, 1), ("SL-chain(3)", 5, 1), ("Rect(2,2)", 4, 1),
            ("Rect(4,4)", 2, 1), ("SL-chain(17)", 1, 1), ("Rect(16,16)", 1, 1),
            ("SL-chain(257)", 1, 2)]


class TestPackedRows:
    """The closure BFS over S^p against the referee at the edges of the packing."""

    @pytest.mark.parametrize("name, p, size", PACKINGS)
    def test_codes_per_byte(self, name, p, size):
        band = catalog(name)
        got, table, digits = power._codes(band)
        assert (got, table.itemsize, table.shape) == (p, size, (band.order ** p,) * 2)
        assert power._codes(band)[1] is table  # once per band
        assert not table.flags.writeable and not digits.flags.writeable
        # code c holds the coordinates of its base-m digits, and multiplies coordinatewise
        rng = random.Random(f"codes/{name}")
        for _ in range(20):
            c, d = rng.randrange(len(table)), rng.randrange(len(table))
            assert digits[c].tolist() == [c // band.order ** r % band.order for r in range(p)]
            assert digits[table[c, d]].tolist() == band.itable[digits[c], digits[d]].tolist()

    @pytest.mark.parametrize("name, p, size", PACKINGS)
    def test_arities_at_the_edges(self, name, p, size, block_bytes):
        # arity 0 is one word of padding; p - 1, p and p + 1 fill a code short,
        # exactly and past; the last fills one whole word of codes and one more
        band = catalog(name)
        rng = random.Random(f"packed/{name}")
        for n in sorted({0, 1, max(p - 1, 1), p, p + 1, 8 // size * p + 1}):
            for k in (0, 1, 3):
                if k == 0:
                    gens = GenSet(band=band, n=n, members=())
                    targets = [(0,) * n, tuple(rng.randrange(band.order) for _ in range(n))]
                else:
                    gens = random_gens(band, rng, n, k, lambda: rng.randrange(band.order))
                    targets = targets_for(gens, rng, [(band.order - 1,) * n])
                assert_same_as_tuple_bfs(gens, targets)

    @pytest.mark.parametrize("zero_salt", [False, True])
    @pytest.mark.parametrize("name, n", [("S9", 20), ("Rect(16,32)", 40)])
    def test_rows_that_differ_in_their_last_word(self, name, n, zero_salt, monkeypatch,
                                                 block_bytes):
        # the generators share their first n - 4 coordinates, and x·x = x keeps
        # them in every product: the rows of S9 (two words) or of Rect(16,32)
        # (ten words) differ only in their last word. With salt 0 all zero, every
        # fingerprint is 0 and only the word compare tells the rows apart
        if zero_salt:
            reseed_with(monkeypatch, lambda salt, chunks: [0] * chunks if salt == 0 else None)
        band = catalog(name)
        rng = random.Random(f"last word/{name}")
        head = tuple(rng.randrange(band.order) for _ in range(n - 4))
        members = {head + tuple(rng.randrange(band.order) for _ in range(4)) for _ in range(4)}
        gens = GenSet.of(band, sorted(members))
        assert len(closure(gens)) > len(gens)
        assert_same_as_tuple_bfs(gens, targets_for(gens, rng, [head + (0,) * 4]))

    def test_row_width(self, s9):
        # 22 coordinates of S9 are 11 codes of S9^2, stored in two 8-byte words
        gens = GenSet.of(s9, [tuple(range(9)) * 2 + (0, 1, 2, 3), (8,) * 22])
        found = power._bfs(gens, power.DEFAULT_CAP, None)
        assert found.stored.dtype == np.uint64 and found.stored.shape[1] * 8 == 16
        assert closure(gens) == tuple_bfs(s9.table, gens.members, power.DEFAULT_CAP, None)[0]
