"""Input makers and small readers shared by the test suites: random words,
the JSON and DIMACS texts of bands, instances and formulas built in memory,
whether a formula has an empty clause, bands built as products and as
subsemigroups of powers, and the forbidden bands that embedding search finds."""

import json

import numpy as np

from bandsmp import (FORBIDDEN_CASES, Band, GenSet, closure, construct_forbidden_band,
                     find_embedding)


def random_word(rng, max_var: int, max_len: int) -> tuple[int, ...]:
    """A nonempty random word over x1..x_max_var."""
    length = rng.randint(1, max_len)
    return tuple(rng.randint(1, max_var) for _ in range(length))


def band_to_json(band) -> str:
    """A Band in the JSON band format (1-based labels)."""
    table = [[v + 1 for v in row] for row in band.table]
    return json.dumps({"order": band.order, "table": table})


def instance_to_json(inst) -> str:
    """An SmpInstance in the JSON instance format (1-based labels)."""
    return json.dumps({
        "n": inst.gens.n,
        "generators": [[v + 1 for v in g] for g in inst.gens.members],
        "target": [v + 1 for v in inst.target],
    })


def format_dimacs(sat) -> str:
    """A SatInstance as DIMACS CNF."""
    lines = [f"p cnf {sat.num_vars} {len(sat.clauses)}"]
    for clause in sat.clauses:
        lines.append(" ".join(str(l) for l in sorted(clause, key=abs)) + " 0")
    return "\n".join(lines) + "\n"


def has_empty_clause(sat) -> bool:
    """Does the SatInstance hold an empty clause, which makes it unsatisfiable?"""
    return any(not c for c in sat.clauses)


def subpower_band(band, gens) -> Band:
    """The subsemigroup <gens> of band^n as a Band, its elements numbered in
    closure() order."""
    rows = np.array(closure(GenSet.of(band, gens)))
    place = band.order ** np.arange(rows.shape[1])  # a tuple's code in base m
    codes = rows @ place
    order = np.argsort(codes)
    products = band.itable[rows[:, None, :], rows[None, :, :]] @ place
    return Band(order[np.searchsorted(codes, products, sorter=order)].tolist())


def product_band(a, b) -> Band:
    """a x b, the pair (i, j) numbered i * b.order + j."""
    m = b.order
    table = a.itable[:, None, :, None] * m + b.itable[None, :, None, :]
    return Band(table.reshape(a.order * m, -1).tolist())


def searched_forbidden(band) -> set[tuple[str, str]]:
    """The (case, orientation) pairs for which find_embedding finds the
    forbidden band in band ("S") or in its dual ("dual"): eight backtracking
    searches that see neither the quasiidentity scan nor its witnesses."""
    return {(case, orientation)
            for case in FORBIDDEN_CASES
            for orientation, target in (("S", band), ("dual", band.dual()))
            if find_embedding(construct_forbidden_band(case), target) is not None}
