#!/usr/bin/env python3
"""From a CNF formula to a membership instance and back.

Builds the hardness gadget for a small formula over the synthesized
9-element band, walks through the tuple layout, and round-trips a
satisfying assignment through a witnessing generator word.
"""

from itertools import product

from bandsmp import (
    SatInstance,
    assignment_to_word,
    canonical_forbidden_witness,
    format_instance,
    member_closure_word,
    parse_dimacs,
    sat_to_smp,
    verify_word,
    word_to_assignment,
)


def satisfiable(sat):
    """By truth table, which is fine for a handful of variables."""
    return any(sat.evaluate(v) for v in product((False, True), repeat=sat.num_vars))


def show(out):
    print(f"arity {out.instance.gens.n} = {len(out.sat.clauses)} clause coordinate(s)"
          f" + 2*{out.sat.num_vars} control coordinates")
    for role, gen in zip(out.roles, out.instance.gens.members):
        print(f"  {role:>5} = {tuple(v + 1 for v in gen)}")
    print(f"  target = {tuple(v + 1 for v in out.instance.target)}")


def main():
    print("== A satisfiable formula: (x1 or ~x2) and (x2) ==")
    text = "p cnf 2 2\n1 -2 0\n2 0\n"
    sat = parse_dimacs(text)
    out = sat_to_smp(sat)  # the default gadget: T9 and its canonical witness
    print(f"gadget band: {out.instance.band.name}, witness {canonical_forbidden_witness()}")
    show(out)
    member = member_closure_word(out.instance.gens, out.instance.target) is not None
    print("target generated:", member, "| formula satisfiable:", satisfiable(sat))

    print()
    print("assignment x1=T, x2=T  ->  word:", end=" ")
    word = assignment_to_word(out, [True, True])
    print(word, "| verifies:", verify_word(out.instance.gens, word, out.instance.target))
    print("word back to assignment:", word_to_assignment(out, word))
    bad = assignment_to_word(out, [True, False])  # falsifies clause 2
    print("assignment x1=T, x2=F  ->  verifies:",
          verify_word(out.instance.gens, bad, out.instance.target))

    print()
    print("== An unsatisfiable formula: (x1) and (~x1) ==")
    sat = SatInstance(1, (frozenset({1}), frozenset({-1})))
    out = sat_to_smp(sat)
    show(out)
    member = member_closure_word(out.instance.gens, out.instance.target) is not None
    print("target generated:", member, "| formula satisfiable:", satisfiable(sat))

    print()
    print("== The emitted instance file ==")
    print(format_instance(out.instance), end="")


if __name__ == "__main__":
    main()
