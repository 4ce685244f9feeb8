#!/usr/bin/env python3
"""The polynomial membership test at work, cross-checked by brute force.

Runs the suffix-based decision procedure on a tractable band, shows the
loop counters against their n*(h-1) bound, and lets the closure oracle
referee a batch of random instances.
"""

import random

from bandsmp import (
    GenSet,
    LoopStats,
    SmpInstance,
    catalog,
    closure,
    cp_suffix,
    member_closure_word,
    mul_tuple,
    smp_decide_auto,
    smp_decide_poly,
)


def main():
    s10 = catalog("S10")

    print("== A tiny instance, by hand ==")
    gens = GenSet.of(s10, [(1,), (2,)])  # elements 2 and 3
    target = (3,)                        # element 4 = 2*3
    print("generators {2, 3}, target 4 in the 10-element band")
    print("closure of the generators:",
          sorted(tuple(v + 1 for v in t) for t in closure(gens)))
    decision = smp_decide_auto(SmpInstance(gens, target), method="poly")
    print("polynomial decision:", decision.verdict)
    x, y = decision.pair
    print(f"suffix x = {tuple(v + 1 for v in x)}, prefix y = {tuple(v + 1 for v in y)},"
          f" and indeed y*x = {tuple(v + 1 for v in mul_tuple(s10, y, x))}")

    print()
    print("== The suffix solver alone ==")
    for members, b in [([(2,)], (3,)), ([(4,)], (3,)), ([(0,)], (5,))]:
        g = GenSet.of(s10, members)
        x = cp_suffix(g, b)
        shown = tuple(v + 1 for v in x) if x else None
        print(f"A = {[tuple(v + 1 for v in m) for m in members]}, "
              f"b = {tuple(v + 1 for v in b)} -> {shown}")

    print()
    print("== Dispatch on the dichotomy ==")
    for name in ("S10", "S9"):
        band = catalog(name)
        g = GenSet.of(band, [(1,), (2,)])
        result = smp_decide_auto(SmpInstance(g, (3,)))
        extra = f", witness word {result.word}" if result.word else ""
        print(f"{name}: method={result.method}, member={result.member}{extra}")

    print()
    print("== Oracle referee on random instances ==")
    rng = random.Random(7)
    bands = [catalog("S10"), catalog("Rect(3,4)"), catalog("SL-chain(4)")]
    checked = agreements = 0
    worst = 0
    for band in bands:
        bound = 0
        for _ in range(300):
            n, k = rng.randint(1, 4), rng.randint(1, 4)
            members = set()
            while len(members) < k:
                members.add(tuple(rng.randrange(band.order) for _ in range(n)))
            gens = GenSet.of(band, sorted(members))
            if rng.random() < 0.5:
                picks = [rng.randrange(k) for _ in range(rng.randint(1, 5))]
                target = gens.members[picks[0]]
                for i in picks[1:]:
                    target = mul_tuple(band, target, gens.members[i])
            else:
                target = tuple(rng.randrange(band.order) for _ in range(n))
            inst = SmpInstance(gens, target)
            stats = LoopStats()
            fast = smp_decide_poly(inst, stats=stats)
            slow = member_closure_word(gens, target) is not None
            checked += 1
            agreements += fast == slow
            bound = max(bound, n * (band.green.height - 1))
            worst = max(worst, stats.infix_pass_max, stats.suffix_call_max)
        print(f"{band.name}: 300 instances checked, loop bound n(h-1) <= {bound}")
    print(f"agreement: {agreements}/{checked}, worst loop count seen: {worst}")


if __name__ == "__main__":
    main()
