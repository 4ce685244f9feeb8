#!/usr/bin/env python3
"""Tour of the tractability dichotomy on the 9- and 10-element bands.

The two tables differ by a single element, generate the same variety,
and sit on opposite sides of the P / NP-complete divide.
"""

from bandsmp import (
    FORBIDDEN_CASES,
    catalog,
    classify,
    construct_forbidden_band,
    embeds_forbidden,
    find_embedding,
    forbidden_subband,
    normalize_witness,
)


def show_band(band):
    print(f"{band.name}: order {band.order}, J-quotient height {band.green.height}")
    classes = " ".join(
        "{" + ",".join(str(v + 1) for v in cls) + "}" for cls in band.green.j_classes
    )
    print(f"  J-classes: {classes}")


def main():
    s9, s10 = catalog("S9"), catalog("S10")

    print("== The two protagonist bands ==")
    for band in (s9, s10):
        show_band(band)

    print()
    print("== Classification ==")
    for band in (s9, s10, s10.dual()):
        result = classify(band)
        line = f"{band.name}: {result.verdict}"
        if result.lambda_witness:
            line += f"  (witness {result.lambda_witness})"
        print(line)

    print()
    print("== Anatomy of the witness ==")
    w = classify(s9).lambda_witness
    norm = normalize_witness(s9, w)
    print(f"odometer-least witness of S9: {w}")
    print(f"normalized (h acts as identity): {norm}")
    case, image = forbidden_subband(s9, norm)
    print(f"the witness generates {case}, on the elements {[v + 1 for v in image]}")

    print()
    print("== The four forbidden bands ==")
    for case in FORBIDDEN_CASES:
        band = construct_forbidden_band(case)
        verdict = classify(band).verdict
        print(f"{case}: order {band.order}, {verdict}")
    t13a = construct_forbidden_band("T13a")
    t13b = construct_forbidden_band("T13b")
    print("T13a embeds into T13b:", find_embedding(t13a, t13b) is not None)
    print("T9 embeds into S9:", find_embedding(construct_forbidden_band("T9"), s9) is not None)

    print()
    print("== Embedding view of the dichotomy ==")
    for band in (s9, s10):
        report = embeds_forbidden(band)
        found = [f"{case}->{orientation}" for case, orientation, _ in report.entries]
        print(f"{band.name}: {'embeds ' + ', '.join(found) if found else 'no forbidden band embeds'}")

    print()
    print("== Same variety, different complexity ==")
    ten = s9.adjoin_identity()
    print("S9 with a fresh identity adjoined has order", ten.order)
    print("...but is not isomorphic to S10:",
          find_embedding(ten, s10) is None and find_embedding(s10, ten) is None)


if __name__ == "__main__":
    main()
