#!/usr/bin/env python3
"""Free-band word machinery: cuts, normal forms, and the variety ladder.

Shows the word operators, the recursive normal form h_n with its
polynomial length bound, and the identities that separate the catalog
bands along the variety lattice.
"""

import random

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
    word_to_text,
)


def main():
    w = (3, 1, 2, 3, 1)
    print("== Word operators ==")
    print(f"w          = {word_to_text(w)}")
    print(f"content(w) = {sorted(content(w))}")
    print(f"s(w)       = {word_to_text(left_cut_s(w))}   (cut before the last new variable)")
    print(f"sigma(w)   = {word_to_text(sigma(w))}")
    print(f"dual(w)    = {word_to_text(dual_word(w))}")

    print()
    print("== Normal forms h_n ==")
    for n in (2, 3, 4):
        print(f"h_{n}(3 1 2) = {word_to_text(h_n(n, (3, 1, 2)))}")
    rng = random.Random(0)
    print("length bound on random words over k variables:")
    for k in (2, 4, 6):
        words = (tuple(rng.randint(1, k) for _ in range(rng.randint(1, 30)))
                 for _ in range(200))
        longest = max(len(h_n(4, w)) for w in words)
        print(f"  k={k}: longest h_4 seen {longest}, bound p_4({k}) = {length_bound_p(4, k)}")

    print()
    print("== The G/H/I words ==")
    for n in (2, 3, 4):
        row = "  ".join(
            f"{fam}{n}={word_to_text(ghi_word(fam, n))}" for fam in "GHI"
        )
        print(f"n={n}: {row}")

    print()
    print("== Identities across the catalog ==")
    g4h4 = Identity(ghi_word("G", 4), ghi_word("H", 4))
    g3, i3 = ghi_word("G", 3), ghi_word("I", 3)
    regular = Identity(dual_word(g3) + g3, dual_word(i3) + i3)
    header = f"{'band':>12}  {'regular':>8}  {'G4=H4':>6}  verdict"
    print(header)
    for name in ("LZ(3)", "Rect(3,4)", "SL-chain(4)", "S9", "S10", "T17"):
        band = catalog(name)
        reg = satisfies_identity(band, regular) is True
        var = satisfies_identity(band, g4h4) is True
        from bandsmp import classify

        print(f"{name:>12}  {str(reg):>8}  {str(var):>6}  {classify(band).verdict}")

    print()
    print("== The published evaluation point ==")
    point = [1, 0, 2, 5]  # elements (2, 1, 3, 6)
    for name in ("S9", "S10"):
        band = catalog(name)
        g = eval_word(band, ghi_word("G", 4), point) + 1
        h = eval_word(band, ghi_word("H", 4), point) + 1
        print(f"{name}: G4(2,1,3,6) = {g}, H4(2,1,3,6) = {h}")


if __name__ == "__main__":
    main()
