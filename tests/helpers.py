"""Input makers shared by the test suites: random words, and the JSON and
DIMACS texts of instances and formulas built in memory."""

import json


def random_word(rng, max_var: int, max_len: int) -> tuple[int, ...]:
    """A nonempty random word over x1..x_max_var."""
    length = rng.randint(1, max_len)
    return tuple(rng.randint(1, max_var) for _ in range(length))


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
