"""The infix/suffix solvers and the membership decision procedures."""

import random
from collections import Counter
from dataclasses import replace
from functools import partial, reduce

import numpy as np
import pytest

from bandsmp import (
    CATALOG_EXAMPLES,
    Band,
    CpInfixInstance,
    GenSet,
    LoopStats,
    SmpInstance,
    catalog,
    chain_semilattice,
    classify,
    closure,
    cp_infix,
    cp_suffix,
    member_closure_word,
    mul_tuple,
    smp_decide_auto,
    smp_decide_poly,
    verify_word,
)
from bandsmp import smp
from bandsmp.errors import (
    ArityMismatch,
    EmptyWord,
    NotTractable,
    OutOfRange,
    PreconditionViolated,
    UnknownName,
)
from bandsmp.power import leq_cw

import oracles


def random_instance(band, rng, max_n=4, max_k=4):
    n = rng.randint(1, max_n)
    k = min(rng.randint(1, max_k), band.order ** n)  # no more than there are tuples
    members = set()
    while len(members) < k:
        members.add(tuple(rng.randrange(band.order) for _ in range(n)))
    gens = GenSet.of(band, sorted(members))
    if rng.random() < 0.5:
        picks = [rng.randrange(k) for _ in range(rng.randint(1, 6))]
        target = gens.members[picks[0]]
        for i in picks[1:]:
            target = mul_tuple(band, target, gens.members[i])
    else:
        target = tuple(rng.randrange(band.order) for _ in range(n))
    return SmpInstance(gens, target)


def test_random_instance_stops_at_the_number_of_tuples():
    # LZ(2) has two 1-tuples, fewer than max_k generators
    band = catalog("LZ(2)")
    rng = random.Random(0)
    for _ in range(50):
        inst = random_instance(band, rng, max_n=1, max_k=4)
        assert 1 <= len(inst.gens) <= 2


class TestCpInfixInstance:
    def test_valid_instance(self, s9):
        CpInfixInstance(c=(7,), d=(5,), e=(2,), gens=GenSet.of(s9, [(0,)]))

    def test_c_not_j_related_to_d(self, s9):
        with pytest.raises(PreconditionViolated):
            CpInfixInstance(c=(0,), d=(5,), e=(2,), gens=GenSet.of(s9, [(0,)]))

    def test_d_not_below_e(self, s9):
        with pytest.raises(PreconditionViolated):
            CpInfixInstance(c=(2,), d=(2,), e=(5,), gens=GenSet.of(s9, [(0,)]))

    def test_generator_below_e(self, s9):
        with pytest.raises(PreconditionViolated):
            CpInfixInstance(c=(7,), d=(5,), e=(2,), gens=GenSet.of(s9, [(5,)]))

    def test_tuples_outside_the_band(self, s10):
        # -1 would index the last element, so (-1, -1) would pass the J tests
        with pytest.raises(OutOfRange):
            CpInfixInstance(c=(-1, -1), d=(-1, -1), e=(-1, -1), gens=GenSet.of(s10, [(9, 9)]))

    def test_wrong_arity(self, s9):
        gens = GenSet.of(s9, [(0,)])
        for c, d, e in [((7, 7), (5,), (2,)), ((7,), (5, 5), (2,)), ((7,), (5,), ())]:
            with pytest.raises(ArityMismatch):
                CpInfixInstance(c=c, d=d, e=e, gens=gens)


class TestCpInfix:
    # the 9-element table fails the scan, so these runs are forced; returned
    # solutions are verified, which is all the examples need
    def test_solvable_single_generator(self, s9):
        inst = CpInfixInstance(c=(7,), d=(5,), e=(2,), gens=GenSet.of(s9, [(0,)]))
        assert cp_infix(inst, force=True) == (0,)  # 6*1*3 = 8

    def test_unsolvable_single_generator(self, s9):
        inst = CpInfixInstance(c=(7,), d=(5,), e=(2,), gens=GenSet.of(s9, [(1,)]))
        assert cp_infix(inst, force=True) is None  # 6*2*3 = 9 != 8

    def test_first_probe_success_on_tractable_band(self, s10):
        # c = d*e and a single generator a with d*a*e = c
        inst = CpInfixInstance(c=(7,), d=(5,), e=(2,), gens=GenSet.of(s10, [(0,)]))
        got = cp_infix(inst)
        assert got == (0,)

    def test_lambda_gate(self, s9):
        inst = CpInfixInstance(c=(7,), d=(5,), e=(2,), gens=GenSet.of(s9, [(0,)]))
        with pytest.raises(NotTractable, match="fails the quasiidentity scan"):
            cp_infix(inst)
        with pytest.raises(NotTractable, match="fails the quasiidentity scan"):
            cp_suffix(inst.gens, (0,))

    def test_solution_satisfies_contract(self, s10):
        rng = random.Random(0)
        checked = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            e = tuple(rng.randrange(10) for _ in range(n))
            members = {
                t for t in (
                    tuple(rng.randrange(10) for _ in range(n))
                    for _ in range(rng.randint(1, 3))
                )
                if leq_cw(s10.green.leq_j, e, t)
            }
            if not members:
                continue
            gens = GenSet.of(s10, sorted(members), n=n)
            d = mul_tuple(s10, e, tuple(rng.randrange(10) for _ in range(n)))
            d = mul_tuple(s10, tuple(rng.randrange(10) for _ in range(n)), d)
            if not leq_cw(s10.green.leq_j, d, e):
                continue
            y0 = closure(gens)[rng.randrange(len(closure(gens)))]
            c = mul_tuple(s10, mul_tuple(s10, d, y0), e)
            if not (leq_cw(s10.green.leq_j, c, d) and leq_cw(s10.green.leq_j, d, c)):
                continue
            inst = CpInfixInstance(c=c, d=d, e=e, gens=gens)
            y = cp_infix(inst)
            checked += 1
            assert y is not None  # y0 witnesses solvability
            assert mul_tuple(s10, mul_tuple(s10, d, y), e) == c
            assert y in set(closure(gens))
        assert checked > 50


class TestCpSuffix:
    def test_target_among_generators(self, s10):
        gens = GenSet.of(s10, [(3,)])
        assert cp_suffix(gens, (3,)) == (3,)

    def test_s10_three_suffix_of_four(self, s10):
        assert cp_suffix(GenSet.of(s10, [(2,)]), (3,)) == (2,)  # 3 L 4

    def test_s10_five_is_l_related_to_four(self, s10):
        assert cp_suffix(GenSet.of(s10, [(4,)]), (3,)) == (4,)  # 5 L 4

    def test_no_suffix(self, s10):
        assert cp_suffix(GenSet.of(s10, [(0,)]), (5,)) is None

    def test_target_outside_the_band(self, s10):
        # not labels of S10; numpy indexing would read -1 as element 10
        gens = GenSet.of(s10, [(9, 1), (2, 3)])
        for b in [(-1, 1), (10, 1)]:
            with pytest.raises(OutOfRange):
                cp_suffix(gens, b)

    def test_contract(self, s10):
        rng = random.Random(1)
        hits = 0
        for _ in range(400):
            inst = random_instance(s10, rng, max_n=3, max_k=3)
            x = cp_suffix(inst.gens, inst.target)
            members = set(closure(inst.gens))
            suffixes = [
                t for t in members
                if leq_cw(s10.green.leq_l, t, inst.target)
                and leq_cw(s10.green.leq_l, inst.target, t)
            ]
            if x is None:
                assert not suffixes
            else:
                hits += 1
                assert x in members
                assert mul_tuple(s10, inst.target, x) == inst.target
                assert leq_cw(s10.green.leq_l, x, inst.target)
                assert leq_cw(s10.green.leq_l, inst.target, x)
        assert hits > 30


class TestSuffixInvariant:
    def test_every_infix_step_meets_its_preconditions(self, monkeypatch):
        # the suffix loop hands its infix instances over unchecked, relying on
        # b x = b holding at every step; rebuild each one as a checked
        # CpInfixInstance so that a broken invariant fails here
        core = smp._cp_infix_core
        calls = 0

        def checked(band, A, sub, c, d, e, stats, hits):
            # the core takes a (k, n) generator array, the boolean k-vector of
            # the rows it searches, and index vectors
            nonlocal calls
            calls += 1
            members = tuple(tuple(row) for row in A[sub].tolist())
            CpInfixInstance(c=tuple(c.tolist()), d=tuple(d.tolist()), e=tuple(e.tolist()),
                            gens=GenSet(band=band, n=len(c), members=members))
            return core(band, A, sub, c, d, e, stats, hits)

        monkeypatch.setattr(smp, "_cp_infix_core", checked)
        rng = random.Random(11)
        stats = LoopStats()
        for name in CATALOG_EXAMPLES:
            band = catalog(name)
            if not classify(band).tractable:
                continue
            for b in (band, band.dual()):
                for _ in range(100):
                    n = rng.randint(1, 8)
                    A = sorted({tuple(rng.randrange(b.order) for _ in range(n))
                                for _ in range(rng.randint(1, 6))})
                    target = A[rng.randrange(len(A))]
                    for _ in range(rng.randint(0, 6)):
                        target = mul_tuple(b, target, A[rng.randrange(len(A))])
                    x = cp_suffix(GenSet.of(b, A), target, stats=stats)
                    assert x is not None  # targets are products of generators
        assert calls > 100
        assert stats.suffix_call_max >= 3  # steps after x has moved are covered


# -- the per-coordinate solvers, kept as the referee of the array-backed ones ---

#: how often the referee's infix search took the branches that the array-backed
#: core orders differently: a miss at y = a0 (the core searches for s only then),
#: an a0 abandoned because no s fits, and a hit from an a0 other than the first
REF_EVENTS = Counter()


def _ref_leq(mat, a, b):
    return all(mat[x][y] for x, y in zip(a, b))


def _ref_infix_core(band, A, c, d, e, stats):
    t = band.table
    leq_j = band.green.leq_j.tolist()
    n = len(c)
    m = band.order
    bound = n * (band.green.height - 1)

    for index, a0 in enumerate(A):
        da0 = mul_tuple(band, d, a0)
        s_coords = []
        for i in range(n):
            row = t[da0[i]]
            ei, ci = e[i], c[i]
            for cand in range(m):
                if leq_j[ei][cand] and t[row[cand]][ei] == ci:
                    s_coords.append(cand)
                    break
            else:
                break
        if len(s_coords) < n:
            # no a1 >=_J e can then hit at y = a0 either
            REF_EVENTS["miss at a0"] += 1
            REF_EVENTS["no s fits"] += 1
            continue
        s = mul_tuple(band, a0, tuple(s_coords))
        y = a0
        body_count = 0
        while True:
            dy = mul_tuple(band, d, y)
            for a1 in A:
                if _ref_leq(leq_j, y, a1) and \
                        mul_tuple(band, mul_tuple(band, dy, a1), e) == c:
                    if stats is not None:
                        stats.infix_pass_max = max(stats.infix_pass_max, body_count)
                    REF_EVENTS["later a0 hits"] += index > 0
                    result = mul_tuple(band, y, a1)
                    if mul_tuple(band, mul_tuple(band, d, result), e) != c:
                        raise AssertionError("infix solver returned an unverified solution")
                    return result
            REF_EVENTS["miss at a0"] += body_count == 0
            above = [a for a in A if _ref_leq(leq_j, y, a)]
            below = [a for a in A if not _ref_leq(leq_j, y, a)]
            pair = _ref_first_pair(band, dy, above, below, s, c, e)
            if pair is None:
                break
            y = mul_tuple(band, mul_tuple(band, y, pair[0]), pair[1])
            body_count += 1
            if body_count > bound:
                raise AssertionError(
                    f"infix inner loop exceeded the n(h-1) bound of {bound}"
                )
        if stats is not None:
            stats.infix_pass_max = max(stats.infix_pass_max, body_count)
    return None


def _ref_first_pair(band, dy, A2, A3, s, c, e):
    for a2 in A2:
        dya2 = mul_tuple(band, dy, a2)
        for a3 in A3:
            prod = mul_tuple(band, mul_tuple(band, mul_tuple(band, dya2, a3), s), e)
            if prod == c:
                return a2, a3
    return None


def _ref_suffix_core(band, A, b, stats):
    leq_l = band.green.leq_l.tolist()
    leq_j = band.green.leq_j.tolist()
    bound = len(b) * (band.green.height - 1)

    for x in A:
        if mul_tuple(band, b, x) == b:
            break
    else:
        return None

    above_b = tuple(a for a in A if _ref_leq(leq_j, b, a))
    iterations = 0
    while not (_ref_leq(leq_l, x, b) and _ref_leq(leq_l, b, x)):
        a_x = tuple(ap for ap in A if _ref_leq(leq_j, x, ap))
        for a in above_b:
            if _ref_leq(leq_j, x, a):
                continue
            y = _ref_infix_core(band, a_x, b, mul_tuple(band, b, a), x, stats)
            if y is not None:
                break
        else:
            if stats is not None:
                stats.suffix_call_max = max(stats.suffix_call_max, iterations)
            return None
        x = mul_tuple(band, mul_tuple(band, a, y), x)
        iterations += 1
        if iterations > bound:
            raise AssertionError(
                f"suffix while loop exceeded the n(h-1) bound of {bound}"
            )
    if stats is not None:
        stats.suffix_call_max = max(stats.suffix_call_max, iterations)
    if mul_tuple(band, b, x) != b:
        raise AssertionError("suffix solver returned an unverified solution")
    return x


def staircase(m, n, member):
    """Generators over SL-chain(m): the top tuple, then one generator per
    one-level step of each coordinate down to the all-zero target. The
    suffix solver takes one step per generator, n(m-1) in all, which is its
    bound; a non-member lacks the last step of coordinate 0."""
    top = m - 1
    steps = [(i, j) for j in range(top - 1, -1, -1) for i in range(n)]
    if not member:
        steps.remove((0, 0))
    gens = [(top,) * n] + [tuple(j if c == i else top for c in range(n)) for i, j in steps]
    return gens, (0,) * n


class TestArraySolversAgainstReferee:
    """The array-backed suffix and infix cores take the same steps as the
    per-coordinate ones: the same x or None, the same loop counters, and
    the same AssertionError on the n(h-1) bound or on re-verification.
    The cores skip the scan gate, so on S9, T9, T13a, T13b and T17 these
    are forced runs."""

    @staticmethod
    def run_both(band, gens, target):
        outcomes = []
        arrays = (GenSet.of(band, gens, n=len(target)).rows,
                  np.array(target, dtype=np.intp))
        for core, args in ((smp._cp_suffix_core, arrays), (_ref_suffix_core, (gens, target))):
            stats = LoopStats()
            try:
                x = core(band, *args, stats)
                x = None if x is None else tuple(int(v) for v in x)
            except AssertionError as exc:
                x = f"AssertionError: {exc}"
            outcomes.append((x, stats.suffix_call_max, stats.infix_pass_max))
        assert outcomes[0] == outcomes[1], (band.name, gens, target)
        return outcomes[0]

    @staticmethod
    def count_changed_rows(monkeypatch) -> Counter:
        """Spy on the miss counters: how often a mask after the first changed
        one row of several, and how often every row of several."""
        changed = Counter()
        matches = smp._Misses.matches

        def spy(self, mask):
            if self.mask is not None:
                rows, n = int((mask != self.mask).any(1).sum()), len(mask)
                changed["one row"] += rows == 1 < n
                changed["every row"] += rows == n > 1
            return matches(self, mask)

        monkeypatch.setattr(smp._Misses, "matches", spy)
        return changed

    def test_seeded_instances_on_the_catalog(self, monkeypatch):
        REF_EVENTS.clear()
        changed = self.count_changed_rows(monkeypatch)
        rng = random.Random(12)
        infix_max = suffix_max = 0
        for name in CATALOG_EXAMPLES:
            for band in (catalog(name), catalog(name).dual()):
                for _ in range(60):
                    n = rng.randint(0, 8)
                    k = min(rng.randint(1, 9), band.order ** n)
                    gens = set()
                    while len(gens) < k:
                        gens.add(tuple(rng.randrange(band.order) for _ in range(n)))
                    gens = sorted(gens)
                    if rng.random() < 0.6:
                        target = gens[rng.randrange(k)]
                        for _ in range(rng.randint(0, 6)):
                            target = mul_tuple(band, target, gens[rng.randrange(k)])
                    else:
                        target = tuple(rng.randrange(band.order) for _ in range(n))
                    _, suffix, infix = self.run_both(band, gens, target)
                    suffix_max, infix_max = max(suffix_max, suffix), max(infix_max, infix)
        assert suffix_max >= 3
        assert infix_max >= 1  # the pair search has run
        for event in ("miss at a0", "no s fits", "later a0 hits"):
            assert REF_EVENTS[event] >= 1, event
        assert changed["one row"] >= 1 and changed["every row"] >= 1

    def test_pair_search_takes_the_first_pair_in_row_major_order(self):
        # random instances seldom have two matching pairs, so the pair search
        # is checked on its own, with one planted match and usually more
        rng = random.Random(13)
        found = 0
        for name in ("S9", "S10", "T13a", "Rect(2,3)", "SL-chain(3)"):
            band = catalog(name)
            for _ in range(60):
                n = rng.randint(1, 4)
                rand = lambda: tuple(rng.randrange(band.order) for _ in range(n))
                rows = lambda ts: np.array(ts, dtype=np.intp).reshape(len(ts), n)
                dy, s, e, c = rand(), rand(), rand(), rand()
                A2 = [rand() for _ in range(rng.randint(0, 6))]
                A3 = [rand() for _ in range(rng.randint(0, 6))]
                if A2 and A3 and rng.random() < 0.8:
                    a2, a3 = rng.choice(A2), rng.choice(A3)
                    c = mul_tuple(band, mul_tuple(band, mul_tuple(
                        band, mul_tuple(band, dy, a2), a3), s), e)
                want = _ref_first_pair(band, dy, A2, A3, s, c, e)
                dy, s, e, c = rows([dy, s, e, c])
                got = smp._first_pair(band.itable, dy, rows(A2), rows(A3), s, c, e)
                if got is not None:
                    got = tuple(tuple(r.tolist()) for r in got)
                    found += 1
                assert got == want
        assert found > 100

    @pytest.mark.parametrize("m,n", [(2, 9), (3, 7), (4, 5), (6, 3)])
    def test_staircases_reach_the_bound(self, m, n):
        band = chain_semilattice(m)
        for member in (True, False):
            gens, target = staircase(m, n, member)
            x, suffix, _ = self.run_both(band, gens, target)
            assert (x == target) == member
            assert suffix == n * (m - 1) - (0 if member else 1)

    def test_staircase_at_arity_200(self):
        # one step per generator, each changing x in one coordinate
        m, n = 3, 200
        band = chain_semilattice(m)
        gens, target = staircase(m, n, True)
        decision = smp_decide_auto(SmpInstance(GenSet.of(band, gens), target), method="poly")
        assert decision.member
        assert decision.pair == (target, target)  # 0 is alone in its L- and R-class
        assert decision.stats.suffix_call_max == n * (m - 1)


class TestSmpDecide:
    def test_member_product(self, s10):
        inst = SmpInstance(GenSet.of(s10, [(1,), (2,)]), (3,))
        assert smp_decide_poly(inst) is True

    def test_non_integer_target(self, s10):
        # read as 3, the 3.5 would be decided a member, as (3,) is above
        with pytest.raises(OutOfRange, match="coordinate 3.5 is not an integer"):
            smp_decide_poly(SmpInstance(GenSet.of(s10, [(1,), (2,)]), (3.5,)))

    def test_l_side_passes_r_side_fails(self, s10):
        inst = SmpInstance(GenSet.of(s10, [(2,)]), (3,))
        assert smp_decide_poly(inst) is False

    def test_generator_membership(self, s10):
        inst = SmpInstance(GenSet.of(s10, [(7, 2)]), (7, 2))
        assert smp_decide_poly(inst) is True

    def test_not_tractable_gate(self, s9):
        inst = SmpInstance(GenSet.of(s9, [(0,)]), (0,))
        with pytest.raises(NotTractable, match="fails a quasiidentity scan"):
            smp_decide_poly(inst)

    def test_gates_read_their_own_scans(self, s9):
        # dual(S9) passes the lambda scan and fails only the dual one
        gens = GenSet.of(s9.dual(), [(0,)])
        assert cp_suffix(gens, (0,)) == (0,)
        with pytest.raises(NotTractable):
            smp_decide_poly(SmpInstance(gens, (0,)))

    def test_forced_member_answers_are_sound(self, s9):
        rng = random.Random(2)
        for _ in range(150):
            inst = random_instance(s9, rng, max_n=3, max_k=3)
            if smp_decide_poly(inst, force=True):
                assert member_closure_word(inst.gens, inst.target) is not None

    def test_zero_arity(self, s10):
        inst = SmpInstance(GenSet.of(s10, [()], n=0), ())
        assert smp_decide_poly(inst) is True

    def test_no_generators(self, s10):
        gens = GenSet(band=s10, n=2, members=())
        assert smp_decide_poly(SmpInstance(gens, (3, 4))) is False
        assert cp_suffix(gens, (3, 4)) is None

    @pytest.mark.parametrize("name", ["S10", "Rect(3,4)", "SL-chain(4)"])
    def test_agrees_with_oracle(self, name):
        band = catalog(name)
        rng = random.Random(3)
        for _ in range(250):
            inst = random_instance(band, rng)
            expected = member_closure_word(inst.gens, inst.target) is not None
            assert smp_decide_poly(inst) == expected

    @pytest.mark.parametrize("name", ["S10", "SL-chain(4)"])
    def test_duality(self, name):
        band = catalog(name)
        d = band.dual()
        rng = random.Random(4)
        for _ in range(100):
            inst = random_instance(band, rng, max_n=3, max_k=3)
            mirrored = SmpInstance(
                GenSet(band=d, n=inst.gens.n, members=inst.gens.members), inst.target
            )
            assert smp_decide_poly(inst) == smp_decide_poly(mirrored)

    def test_loop_stats_within_bound(self, s10):
        rng = random.Random(5)
        for _ in range(200):
            inst = random_instance(s10, rng)
            stats = LoopStats()
            smp_decide_poly(inst, stats=stats)
            bound = inst.gens.n * (s10.green.height - 1)
            assert stats.infix_pass_max <= bound
            assert stats.suffix_call_max <= bound

    def test_member_verdicts_carry_verified_pairs(self, s10):
        rng = random.Random(6)
        seen = 0
        for _ in range(100):
            inst = random_instance(s10, rng, max_n=2, max_k=3)
            decision = smp_decide_auto(inst, method="poly")
            if decision.member:
                seen += 1
                x, y = decision.pair
                assert mul_tuple(s10, y, x) == inst.target
        assert seen > 10

    def test_restricted_generator_completeness(self, s10):
        # y in <A> with y >=_J x componentwise iff y in <A_x>
        rng = random.Random(7)
        for _ in range(50):
            inst = random_instance(s10, rng, max_n=2, max_k=3)
            members = closure(inst.gens)
            x = members[rng.randrange(len(members))]
            a_x = [a for a in inst.gens.members if leq_cw(s10.green.leq_j, x, a)]
            above = {y for y in members if leq_cw(s10.green.leq_j, x, y)}
            if a_x:
                sub = set(closure(GenSet.of(s10, a_x, n=inst.gens.n)))
            else:
                sub = set()
            assert sub == above


class TestAuto:
    def test_tractable_uses_poly(self, s10):
        inst = SmpInstance(GenSet.of(s10, [(1,), (2,)]), (3,))
        result = smp_decide_auto(inst)
        assert result.member and result.method == "poly"

    def test_hard_band_uses_closure(self, s9):
        inst = SmpInstance(GenSet.of(s9, [(1,), (2,)]), (3,))
        result = smp_decide_auto(inst)
        assert result.method == "closure"
        assert result.member == (member_closure_word(inst.gens, inst.target) is not None)
        assert result.word is not None
        assert verify_word(inst.gens, result.word, inst.target)

    def test_trivial_band(self):
        band = Band([[0]])
        inst = SmpInstance(GenSet.of(band, [(0, 0)]), (0, 0))
        result = smp_decide_auto(inst)
        assert result.member and result.method == "poly"


#: the four paths to a verdict: (band, smp_decide_auto's keywords, the method taken)
DECISION_PATHS = {
    "auto to poly": ("S10", {}, "poly"),
    "auto to closure": ("S9", {}, "closure"),
    "closure on a tractable band": ("S10", {"method": "closure"}, "closure"),
    "forced poly on a failing band": ("S9", {"method": "poly", "force": True}, "poly"),
}


class TestDecision:
    @pytest.mark.parametrize("path", DECISION_PATHS)
    def test_every_member_carries_a_checked_certificate(self, path):
        name, kwargs, method = DECISION_PATHS[path]
        band = catalog(name)
        rng = random.Random(8)
        verdicts = Counter()
        for _ in range(150):
            inst = random_instance(band, rng, max_n=3, max_k=3)
            decision = smp_decide_auto(inst, **kwargs)
            verdicts[decision.verdict] += 1
            assert decision.method == method
            members = inst.gens.members
            if decision.member and method == "poly":
                assert decision.word is None
                assert oracles.naive_pair_certifies(band.table, members, inst.target,
                                                    *decision.pair)
            elif decision.member:
                assert decision.pair is None
                assert oracles.word_product(band.table, members, decision.word) == inst.target
            else:
                assert decision.pair is None and decision.word is None
            if decision.verdict != "unknown":
                closed = oracles.naive_tuple_closure(band.table, members)
                assert decision.member == (inst.target in closed)
        assert verdicts["member"] > 20
        # a forced run's "no" on a failing band is never a non-member
        assert (verdicts["non-member"] > 0) != ("force" in kwargs)

    def test_forced_run_without_a_pair_is_unknown(self, s9):
        inst = SmpInstance(GenSet.of(s9, [(1,)]), (3,))  # the closure says non-member
        decision = smp_decide_auto(inst, method="poly", force=True)
        assert (decision.verdict, decision.method, decision.pair, decision.word) == (
            "unknown", "poly", None, None)
        assert not decision.member
        assert smp_decide_poly(inst, force=True) is False
        with pytest.raises(NotTractable):
            smp_decide_auto(inst, method="poly")

    def test_forced_no_on_a_tractable_band_is_non_member(self, s10):
        inst = SmpInstance(GenSet.of(s10, [(2,)]), (3,))
        assert smp_decide_auto(inst, method="poly", force=True).verdict == "non-member"

    def test_stats_given_are_the_stats_returned(self, s10):
        stats = LoopStats()
        inst = SmpInstance(GenSet.of(s10, [(1,), (2,)]), (3,))
        assert smp_decide_auto(inst, stats=stats).stats is stats
        made = smp_decide_auto(inst).stats  # one made for the call, with the same counts
        assert made is not stats and made == stats

    @pytest.mark.parametrize("name, method, force, reads", [
        ("S9", "closure", False, 0), ("S10", "closure", False, 0), ("S9", None, False, 1),
        ("S10", None, False, 1), ("S10", "poly", False, 1), ("S9", "poly", True, 1)])
    def test_scan_gate_read_once(self, monkeypatch, name, method, force, reads):
        # the gate reads the band's scan slot, then its dual's if the band's passes
        calls = []
        scan = smp.find_lambda_witness
        monkeypatch.setattr(smp, "find_lambda_witness", lambda band: calls.append(band) or scan(band))
        band = catalog(name)
        smp_decide_auto(SmpInstance(GenSet.of(band, [(1,), (2,)]), (3,)), method=method, force=force)
        slots = [band] if scan(band) is not None else [band, band.dual()]
        assert [id(b) for b in calls] == [id(b) for b in slots[:len(slots) * reads]]

    def test_a_commutative_band_runs_one_suffix_search(self, monkeypatch):
        # SL-chain(4) is its own dual, so the search for y would repeat the one for x
        band = catalog("SL-chain(4)")
        inst = SmpInstance(GenSet.of(band, [(3, 1, 2), (1, 3, 3), (2, 2, 1)]), (1, 1, 1))
        x = smp._cp_suffix_core(band, inst.gens.rows, inst.row, LoopStats())
        calls = []
        core = smp._cp_suffix_core
        monkeypatch.setattr(smp, "_cp_suffix_core", lambda *args: calls.append(args) or core(*args))
        decision = smp_decide_auto(inst)
        assert (decision.verdict, decision.method, len(calls)) == ("member", "poly", 1)
        assert decision.pair == (tuple(x.tolist()), tuple(x.tolist()))

    def test_unknown_method(self, s10):
        inst = SmpInstance(GenSet.of(s10, [(1,), (2,)]), (3,))
        with pytest.raises(UnknownName, match="no method 'auto'"):
            smp_decide_auto(inst, method="auto")

    @pytest.mark.parametrize("name", ["S9", "S10"])
    @pytest.mark.parametrize("method", [None, "closure"])
    def test_force_needs_the_poly_method(self, name, method):
        # the CLI refuses --force without --algo poly with exit 64
        inst = SmpInstance(GenSet.of(catalog(name), [(1,)]), (3,))
        with pytest.raises(PreconditionViolated, match="force=True needs method 'poly'") as exc:
            smp_decide_auto(inst, method=method, force=True)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("cap", [-1, -5, True, False, 1.5, "3"])
    def test_bad_cap_refused_on_the_closure_path(self, s9, s10, cap):
        # and on the poly path, which never reads it: S10 passes both scans
        for band, method in [(s9, None), (s9, "closure"), (s10, None), (s10, "poly")]:
            inst = SmpInstance(GenSet.of(band, [(1,), (2,)]), (3,))
            with pytest.raises(OutOfRange, match="^cap ") as exc:
                smp_decide_auto(inst, cap=cap, method=method)
            assert "\n" not in str(exc.value)


class TestVerifyWord:
    def test_singleton(self, s10):
        gens = GenSet.of(s10, [(3, 1)])
        assert verify_word(gens, [1], (3, 1))

    def test_ordered_product(self, s10):
        gens = GenSet.of(s10, [(1,), (2,)])
        assert verify_word(gens, [1, 2], (3,))       # 2*3 = 4
        assert not verify_word(gens, [2, 1], (3,))   # 3*2 = 3

    def test_empty_word(self, s10):
        with pytest.raises(EmptyWord):
            verify_word(GenSet.of(s10, [(1,)]), [], (1,))

    def test_index_out_of_range(self, s10):
        with pytest.raises(OutOfRange, match=r"generator index 2 outside 1\.\.1"):
            verify_word(GenSet.of(s10, [(1,)]), [2], (1,))

    def test_numpy_and_generator_words(self, s10):
        # a numpy word was a bare "truth value of an array is ambiguous" from `if not word`,
        # and an empty generator an IndexError
        gens = GenSet.of(s10, [(1,), (2,)])
        assert verify_word(gens, np.array([1, 2]), (3,))
        assert verify_word(gens, (i for i in (1, 2)), (3,))
        assert not verify_word(gens, iter((2, 1)), (3,))
        for empty in (np.array([], np.intp), iter(())):
            with pytest.raises(EmptyWord, match="^a witnessing word must be nonempty$"):
                verify_word(gens, empty, (3,))
        with pytest.raises(OutOfRange, match=r"^generator index 3 outside 1\.\.2$"):
            verify_word(gens, np.array([1, 3]), (3,))

    @pytest.mark.parametrize("name", ["S9", "T13a", "Rect(2,3)"])
    def test_matches_the_tuple_product(self, name):
        band = catalog(name)
        rng = random.Random(7)
        for _ in range(60):
            n, k = rng.randint(0, 4), rng.randint(1, 4)
            members = {tuple(rng.randrange(band.order) for _ in range(n)) for _ in range(k)}
            gens = GenSet.of(band, sorted(members), n=n)
            word = [rng.randint(1, len(gens)) for _ in range(rng.randint(1, 8))]
            b = reduce(partial(oracles.tuple_mul, band.table), [gens.members[i - 1] for i in word])
            assert verify_word(gens, word, b) and verify_word(gens, word, list(b))
            if n:
                assert not verify_word(gens, word, b[:-1])
                assert not verify_word(gens, word, b[:-1] + ((b[-1] + 1) % band.order,))


class TestGuards:
    """Each internal check fires, with its own class and message, once its
    invariant is broken by hand."""

    def test_infix_unverified_solution(self, monkeypatch, s10):
        # every generator "matches", so the first is taken whether or not d y a e = c
        monkeypatch.setattr(smp._Misses, "matches", lambda self, mask: np.ones(len(self.A), bool))
        inst = CpInfixInstance((8,), (5,), (4,), GenSet.of(s10, [(1,), (2,), (3,)]))
        with pytest.raises(AssertionError, match="^infix solver returned an unverified solution$"):
            cp_infix(inst)

    def test_infix_bound(self, monkeypatch):
        # this instance takes one inner step; a height of 1 makes the bound n(h-1) = 0
        band = catalog("S10")
        inst = CpInfixInstance((8,), (5,), (4,), GenSet.of(band, [(1,), (2,), (3,)]))
        stats = LoopStats()
        cp_infix(inst, stats=stats)
        assert stats.infix_pass_max == 1
        monkeypatch.setattr(band, "green", replace(band.green, height=1))
        with pytest.raises(AssertionError, match="^infix inner loop exceeded the n\\(h-1\\) bound of 0$"):
            cp_infix(inst)

    def test_suffix_bound(self, monkeypatch):
        # one suffix step and no inner infix step; a height of 1 makes the bound 0
        band = catalog("S10")
        gens, b = GenSet.of(band, [(2, 5), (6, 6)]), (8, 5)
        stats = LoopStats()
        cp_suffix(gens, b, stats=stats)
        assert (stats.infix_pass_max, stats.suffix_call_max) == (0, 1)
        monkeypatch.setattr(band, "green", replace(band.green, height=1))
        with pytest.raises(AssertionError, match="^suffix while loop exceeded the n\\(h-1\\) bound of 0$"):
            cp_suffix(gens, b)

    def test_suffix_unverified_solution(self, monkeypatch, s10):
        # an infix "solution" that breaks b x = b: x becomes a y x with y = 2
        monkeypatch.setattr(smp, "_cp_infix_core", lambda *args: np.array([2]))
        with pytest.raises(AssertionError, match="^suffix solver returned an unverified solution$"):
            cp_suffix(GenSet.of(s10, [(0,), (1,)]), (1,))

    def test_pair_must_give_the_target(self, monkeypatch, s10):
        # a suffix "solution" of the first generator on both sides: 1 1 = 1, not 3
        monkeypatch.setattr(smp, "_cp_suffix_core", lambda band, A, b, stats: A[0])
        inst = SmpInstance(GenSet.of(s10, [(1,), (2,)]), (3,))
        with pytest.raises(AssertionError, match="^x L b and y R b should force b = y x$"):
            smp_decide_auto(inst, method="poly")
