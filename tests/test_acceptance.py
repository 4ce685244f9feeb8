"""Acceptance suite: one test per criterion, with its stated runtime budget.

Each test prints a single PASS line (visible under pytest -s or -v with
-rP); loop counters recorded by the oracle-equivalence sweep feed the
bound check of criterion 6, which reads the same run of the sweep.
"""

import itertools
import random
import time

import pytest

from bandsmp import (
    FORBIDDEN_CASES,
    GenSet,
    Identity,
    SatInstance,
    SmpInstance,
    Witness,
    catalog,
    classify,
    closure,
    construct_forbidden_band,
    dual_word,
    eval_word,
    find_embedding,
    find_lambda_witness,
    ghi_word,
    h_n,
    length_bound_p,
    member_closure_word,
    mul_tuple,
    sat_to_smp,
    satisfies_identity,
    smp_decide_poly,
)
from bandsmp.band import CATALOG_EXAMPLES
from bandsmp.smp import LoopStats

from helpers import random_word
from oracles import naive_sat

def report(num: int, text: str, elapsed: float, budget: float) -> None:
    print(f"PASS criterion {num}: {text} [{elapsed:.2f}s < {budget:.0f}s]")
    assert elapsed < budget


def test_criterion_1_paper_tables_and_homomorphism():
    start = time.monotonic()
    s9 = catalog("S9")       # construction validates the axioms
    s10 = catalog("S10")
    assert (s9.order, s10.order) == (9, 10)

    def alpha(v: int) -> int:  # identity on 1..9, 10 -> 8 (0-based: 9 -> 7)
        return 7 if v == 9 else v

    for a in range(10):
        for b in range(10):
            assert alpha(s10.table[a][b]) == s9.table[alpha(a)][alpha(b)]
    report(1, "tables validate; the 10->9 collapse map is a homomorphism "
              "on all 100 pairs", time.monotonic() - start, 1.0)


def test_criterion_2_dichotomy_regression():
    start = time.monotonic()
    s9, s10 = catalog("S9"), catalog("S10")
    c9 = classify(s9)
    assert c9.verdict == "NP-COMPLETE"
    assert c9.lambda_witness == Witness(d=5, e=2, x=1, y=4, h=0)
    assert c9.lambda_witness.labels() == (6, 3, 2, 5, 1)
    assert classify(s10).verdict == "TRACTABLE"
    assert classify(s10.dual()).verdict == "TRACTABLE"
    for case in FORBIDDEN_CASES:
        assert classify(construct_forbidden_band(case)).verdict == "NP-COMPLETE"
    report(2, "9-element table NP-COMPLETE with odometer-least witness "
              "(6,3,2,5,1); 10-element table and dual TRACTABLE; all four "
              "forbidden bands NP-COMPLETE", time.monotonic() - start, 5.0)


def test_criterion_3_variety_spot_values():
    start = time.monotonic()
    point = [1, 0, 2, 5]  # elements (2, 1, 3, 6)
    g4, h4 = ghi_word("G", 4), ghi_word("H", 4)
    g3bar_i3bar = Identity(dual_word(ghi_word("G", 3)), dual_word(ghi_word("I", 3)))
    for name in ("S9", "S10"):
        band = catalog(name)
        assert eval_word(band, g4, point) == 9 - 1
        assert eval_word(band, h4, point) == 8 - 1
        assert satisfies_identity(band, g3bar_i3bar) is True
        assert satisfies_identity(band, Identity(g4, h4)) is not True
    report(3, "G4/H4 evaluate to 9/8 at (2,1,3,6); both tables satisfy "
              "dual(G3)=dual(I3) and neither satisfies G4=H4",
           time.monotonic() - start, 5.0)


def test_criterion_4_forbidden_band_synthesis():
    start = time.monotonic()
    bands = {case: construct_forbidden_band(case) for case in FORBIDDEN_CASES}
    assert [bands[c].order for c in FORBIDDEN_CASES] == [9, 13, 13, 17]
    s9 = catalog("S9")
    assert find_embedding(bands["T9"], s9) is not None
    assert find_embedding(s9, bands["T9"]) is not None
    assert find_embedding(bands["T13a"], bands["T13b"]) is None
    assert find_embedding(bands["T13b"], bands["T13a"]) is None
    for case in FORBIDDEN_CASES:
        assert find_lambda_witness(bands[case]) is not None
    report(4, "orders 9/13/13/17; T9 isomorphic to the printed 9-element "
              "table; the 13-element pair is non-isomorphic; all four fail "
              "the scan", time.monotonic() - start, 10.0)


def _random_instance(band, rng, max_n, max_k):
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
        inst = _random_instance(band, rng, max_n=1, max_k=4)
        assert 1 <= len(inst.gens) <= 2


@pytest.fixture(scope="module")
def oracle_sweep():
    """Criterion 5's decisions, run once for criteria 5 and 6: the instances
    that disagree with the closure oracle, and the loop counters of every
    run, with total runs, the worst counter seen and any runs breaking the
    n*(h-1) bound."""
    start = time.monotonic()
    sweep = {"runs": 0, "mismatches": [], "worst": 0, "violations": []}

    def record(name, inst, h, got, expected, stats):
        n = inst.gens.n
        bound = n * (h - 1)
        sweep["runs"] += 1
        if got != expected:
            sweep["mismatches"].append((name, inst.gens.members, inst.target, got))
        sweep["worst"] = max(sweep["worst"], stats.infix_pass_max, stats.suffix_call_max)
        if stats.infix_pass_max > bound or stats.suffix_call_max > bound:
            sweep["violations"].append(
                (name, n, h, stats.infix_pass_max, stats.suffix_call_max)
            )

    # (a) exhaustive: every generator set of size <= 2 drawn from the
    # 10-element table's powers with n <= 2, against every target
    s10 = catalog("S10")
    h10 = s10.green.height
    for n in (1, 2):
        universe = list(itertools.product(range(10), repeat=n))
        for k in (1, 2):
            for combo in itertools.combinations(universe, k):
                gens = GenSet(band=s10, n=n, members=combo)
                members = set(closure(gens))
                for target in universe:
                    inst, stats = SmpInstance(gens, target), LoopStats()
                    got = smp_decide_poly(inst, stats=stats)
                    record("S10", inst, h10, got, target in members, stats)

    # (b) seeded random instances over four tractable bands
    rng = random.Random(20260810)
    for name in ("S10", "Rect(3,4)", "SL-chain(4)", "dual(S10)"):
        band = catalog("S10").dual() if name == "dual(S10)" else catalog(name)
        h = band.green.height
        for _ in range(1000):
            inst = _random_instance(band, rng, max_n=4, max_k=4)
            stats = LoopStats()
            got = smp_decide_poly(inst, stats=stats)
            want = member_closure_word(inst.gens, inst.target) is not None
            record(name, inst, h, got, want, stats)
    sweep["elapsed"] = time.monotonic() - start
    return sweep


def test_criterion_5_oracle_equivalence(oracle_sweep):
    assert oracle_sweep["mismatches"] == []
    report(5, f"polynomial decision agrees with the closure oracle on all "
              f"{oracle_sweep['runs']} instances (exhaustive + 4x1000 random)",
           oracle_sweep["elapsed"], 120.0)


def test_criterion_6_loop_bounds(oracle_sweep):
    start = time.monotonic()
    assert oracle_sweep["runs"] > 0
    assert oracle_sweep["violations"] == []
    report(6, f"inner-body and while counts within n*(h-1) on all "
              f"{oracle_sweep['runs']} recorded runs (worst count seen: "
              f"{oracle_sweep['worst']})", time.monotonic() - start, 120.0)


def test_criterion_7_sat_reduction_equivalence():
    start = time.monotonic()
    hand = [
        SatInstance(1, (frozenset({1}),)),
        SatInstance(1, (frozenset({1}), frozenset({-1}))),
    ]
    rng = random.Random(97)
    formulas = list(hand)
    while len(formulas) < 22:
        k = rng.randint(1, 5)
        clauses = tuple(
            frozenset({rng.choice((-1, 1)) * v
                       for v in rng.sample(range(1, k + 1), rng.randint(1, min(3, k)))})
            for _ in range(rng.randint(1, 6))
        )
        formulas.append(SatInstance(k, clauses))
    agree = 0
    for sat in formulas:
        out = sat_to_smp(sat)
        assert (member_closure_word(out.instance.gens, out.instance.target) is not None) == \
            naive_sat(sat.num_vars, sat.clauses)
        agree += 1
    report(7, f"satisfiability matches membership on the reduced instance "
              f"for {agree} formulas (2 hand + {agree - 2} random)",
           time.monotonic() - start, 120.0)


def test_criterion_8_word_machinery():
    start = time.monotonic()
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(500):
            k = rng.randint(1, 6)
            t = random_word(rng, k, 24)
            assert len(h_n(n, t)) <= length_bound_p(n, k)

    g4h4 = Identity(ghi_word("G", 4), ghi_word("H", 4))
    in_variety = [
        name for name in CATALOG_EXAMPLES
        if satisfies_identity(catalog(name), g4h4) is True
    ]
    assert in_variety  # the families all lie in the variety
    for name in in_variety:
        band = catalog(name)
        for _ in range(100):
            t = random_word(rng, 6, 12)
            ht = h_n(4, t)
            for _ in range(100):
                assign = [rng.randrange(band.order) for _ in range(6)]
                assert eval_word(band, t, assign) == eval_word(band, ht, assign)
    report(8, f"h_n lengths within p_n(k) on 1500 words; t and h_4(t) "
              f"induce the same functions on {len(in_variety)} catalog bands "
              f"in the G4=H4 variety", time.monotonic() - start, 60.0)


def test_criterion_9_embedding_cross_check():
    start = time.monotonic()
    forbidden = [construct_forbidden_band(case) for case in FORBIDDEN_CASES]
    checked = 0
    for name in CATALOG_EXAMPLES:
        base = catalog(name)
        for band in (base, base.dual()):
            scan_fails = find_lambda_witness(band) is not None
            embeds = any(
                find_embedding(small, band) is not None for small in forbidden
            )
            assert scan_fails == embeds
            checked += 1
    report(9, f"scan failure coincides with a forbidden-band embedding on "
              f"{checked} bands (catalog + duals)", time.monotonic() - start, 120.0)


def test_criterion_10_variety_implies_tractable():
    start = time.monotonic()
    g4, h4 = ghi_word("G", 4), ghi_word("H", 4)
    plain = Identity(g4, h4)
    reversed_ = Identity(dual_word(g4), dual_word(h4))
    hits = 0
    for name in CATALOG_EXAMPLES:
        band = catalog(name)
        if satisfies_identity(band, plain) is True and \
                satisfies_identity(band, reversed_) is True:
            assert classify(band).tractable
            hits += 1
    assert hits  # the rectangular/semilattice families qualify
    report(10, f"all {hits} catalog bands satisfying G4=H4 and its reverse "
               f"classify TRACTABLE", time.monotonic() - start, 60.0)
