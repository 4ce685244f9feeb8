"""The infix/suffix solvers and the membership decision procedures."""

import random

import pytest

from bandsmp import (
    CATALOG_EXAMPLES,
    Band,
    CpInfixInstance,
    GenSet,
    LoopStats,
    SmpInstance,
    catalog,
    classify,
    closure,
    cp_infix,
    cp_suffix,
    member_closure,
    mul_tuple,
    preorder_cw,
    smp_decide_auto,
    smp_decide_poly,
    verify_word,
)
from bandsmp import smp
from bandsmp.errors import (
    EmptyWord,
    IndexOutOfRange,
    LambdaNotSatisfied,
    NotTractable,
    PreconditionViolated,
)


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
        with pytest.raises(LambdaNotSatisfied):
            cp_infix(inst)

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
                if preorder_cw(s10, "J", e, t)
            }
            if not members:
                continue
            gens = GenSet.of(s10, sorted(members), n=n)
            d = mul_tuple(s10, e, tuple(rng.randrange(10) for _ in range(n)))
            d = mul_tuple(s10, tuple(rng.randrange(10) for _ in range(n)), d)
            if not preorder_cw(s10, "J", d, e):
                continue
            y0 = closure(gens)[rng.randrange(len(closure(gens)))]
            c = mul_tuple(s10, mul_tuple(s10, d, y0), e)
            if not (preorder_cw(s10, "J", c, d) and preorder_cw(s10, "J", d, c)):
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

    def test_contract(self, s10):
        rng = random.Random(1)
        hits = 0
        for _ in range(400):
            inst = random_instance(s10, rng, max_n=3, max_k=3)
            x = cp_suffix(inst.gens, inst.target)
            members = set(closure(inst.gens))
            suffixes = [
                t for t in members
                if preorder_cw(s10, "L", t, inst.target)
                and preorder_cw(s10, "L", inst.target, t)
            ]
            if x is None:
                assert not suffixes
            else:
                hits += 1
                assert x in members
                assert mul_tuple(s10, inst.target, x) == inst.target
                assert preorder_cw(s10, "L", x, inst.target)
                assert preorder_cw(s10, "L", inst.target, x)
        assert hits > 30


class TestSuffixInvariant:
    def test_every_infix_step_meets_its_preconditions(self, monkeypatch):
        # the suffix loop hands its infix instances over unchecked, relying on
        # b x = b holding at every step; rebuild each one as a checked
        # CpInfixInstance so that a broken invariant fails here
        core = smp._cp_infix_core
        calls = 0

        def checked(band, A, c, d, e, stats):
            nonlocal calls
            calls += 1
            CpInfixInstance(c=c, d=d, e=e, gens=GenSet(band=band, n=len(c), members=A))
            return core(band, A, c, d, e, stats)

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


class TestSmpDecide:
    def test_member_product(self, s10):
        inst = SmpInstance(GenSet.of(s10, [(1,), (2,)]), (3,))
        assert smp_decide_poly(inst) is True

    def test_l_side_passes_r_side_fails(self, s10):
        inst = SmpInstance(GenSet.of(s10, [(2,)]), (3,))
        assert smp_decide_poly(inst) is False

    def test_generator_membership(self, s10):
        inst = SmpInstance(GenSet.of(s10, [(7, 2)]), (7, 2))
        assert smp_decide_poly(inst) is True

    def test_not_tractable_gate(self, s9):
        inst = SmpInstance(GenSet.of(s9, [(0,)]), (0,))
        with pytest.raises(NotTractable):
            smp_decide_poly(inst)

    def test_forced_member_answers_are_sound(self, s9):
        rng = random.Random(2)
        for _ in range(150):
            inst = random_instance(s9, rng, max_n=3, max_k=3)
            if smp_decide_poly(inst, force=True):
                assert member_closure(inst.gens, inst.target)

    def test_zero_arity(self, s10):
        inst = SmpInstance(GenSet.of(s10, [()], n=0), ())
        assert smp_decide_poly(inst) is True

    @pytest.mark.parametrize("name", ["S10", "Rect(3,4)", "SL-chain(4)"])
    def test_agrees_with_oracle(self, name):
        band = catalog(name)
        rng = random.Random(3)
        for _ in range(250):
            inst = random_instance(band, rng)
            expected = member_closure(inst.gens, inst.target)
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
            bound = inst.gens.n * (s10.height() - 1)
            assert stats.infix_pass_max <= bound
            assert stats.suffix_call_max <= bound

    def test_member_verdicts_carry_verified_pairs(self, s10):
        rng = random.Random(6)
        seen = 0
        for _ in range(100):
            inst = random_instance(s10, rng, max_n=2, max_k=3)
            stats = LoopStats()
            if smp_decide_poly(inst, stats=stats):
                seen += 1
                x, y = stats.witness_pair
                assert mul_tuple(s10, y, x) == inst.target
        assert seen > 10

    def test_restricted_generator_completeness(self, s10):
        # y in <A> with y >=_J x componentwise iff y in <A_x>
        rng = random.Random(7)
        for _ in range(50):
            inst = random_instance(s10, rng, max_n=2, max_k=3)
            members = closure(inst.gens)
            x = members[rng.randrange(len(members))]
            a_x = [a for a in inst.gens.members if preorder_cw(s10, "J", x, a)]
            above = {y for y in members if preorder_cw(s10, "J", x, y)}
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
        assert result.member == member_closure(inst.gens, inst.target)
        assert result.word is not None
        assert verify_word(inst.gens, result.word, inst.target)

    def test_trivial_band(self):
        band = Band([[0]])
        inst = SmpInstance(GenSet.of(band, [(0, 0)]), (0, 0))
        result = smp_decide_auto(inst)
        assert result.member and result.method == "poly"


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
        with pytest.raises(IndexOutOfRange):
            verify_word(GenSet.of(s10, [(1,)]), [2], (1,))
