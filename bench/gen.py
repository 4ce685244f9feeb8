"""The seeded input generator shared by all the workloads.

Each workload draws from ``random.Random(f"<workload>/<seed>")``, so one
seed always gives the same inputs. The program under test only ever sees
the texts made here: band files, instance files and DIMACS formulas. The
shapes (band families, arities, clause counts) are fixed; the seed picks
the contents: coordinate and element relabellings, orientations, planted
assignments, random clauses and random small generator sets. Fixed shapes
keep the cost of a round nearly the same from seed to seed.

Certificates for the referees are made here too, from the generator's own
arithmetic: the word that builds each member, the coordinate window that
excludes each non-member, the truth table of each formula.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

import referees as ref

Table = list[list[int]]


# -- tables and texts ---------------------------------------------------------

def chain_table(m: int) -> Table:
    """SL-chain(m): the chain 0 < 1 < ... < m-1 under min."""
    return [[min(a, b) for b in range(m)] for a in range(m)]


def dual_table(t: Table) -> Table:
    return [list(col) for col in zip(*t)]


def product_table(a: Table, b: Table) -> Table:
    """Direct product; element (i, j) is i * |b| + j."""
    mb = len(b)
    m = len(a) * mb
    return [[a[i // mb][j // mb] * mb + b[i % mb][j % mb] for j in range(m)] for i in range(m)]


def relabel_table(t: Table, rng: random.Random) -> Table:
    """An isomorphic copy under a random permutation of the elements."""
    m = len(t)
    p = list(range(m))
    rng.shuffle(p)
    out = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            out[p[a]][p[b]] = p[t[a][b]]
    return out


def band_text(t: Table) -> str:
    return "\n".join([str(len(t))] + [" ".join(str(v + 1) for v in row) for row in t]) + "\n"


def instance_text(gens, target) -> str:
    lines = [f"{len(target)} {len(gens)}"]
    lines += [" ".join(str(v + 1) for v in g) for g in gens]
    lines.append(" ".join(str(v + 1) for v in target))
    return "\n".join(lines) + "\n"


def dimacs_text(num_vars: int, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def catalog_table(name: str) -> Table:
    from bandsmp import catalog

    return [list(row) for row in catalog(name).table]


# -- subpower instances -------------------------------------------------------

@dataclass
class SmpCase:
    """One membership instance with the referee's verdict and certificate."""

    label: str
    band: str                      # key into the workload's band texts
    gens: list[tuple[int, ...]]    # 0-based, for the referees
    target: tuple[int, ...]
    member: bool
    word: Optional[list[int]] = None     # member: a word whose product is the target
    window: Optional[list[int]] = None   # non-member: coordinates that exclude it
    staircase: bool = False
    text: str = field(init=False)

    def __post_init__(self):
        self.text = instance_text(self.gens, self.target)


def staircase(rng: random.Random, m: int, n: int, member: bool) -> SmpCase:
    """A staircase generator set over SL-chain(m) at arity n.

    The top tuple comes first. Every other generator lowers one coordinate
    by one level, and each coordinate's generators appear shallow before
    deep, in a random interleaving of the coordinates. The suffix solver
    must then take one step per generator, about n(m-1) steps in all.
    A quarter of the coordinates stop at level 1; each of these also gets
    a distractor that drops it to 0, which lies outside the set above the
    target. A non-member loses the last step of one coordinate that should
    reach 0, so it fails only after every other step has been taken.
    """
    top = m - 1
    coords = list(range(n))
    rng.shuffle(coords)
    stop_at_one = set(coords[: n // 4])
    target = tuple(1 if i in stop_at_one else 0 for i in range(n))
    missing = coords[n // 4] if not member else None

    chains = []
    for i in range(n):
        floor = target[i] + (1 if i == missing else 0)
        chains.append([(i, j) for j in range(top - 1, floor - 1, -1)])
    steps = []
    remaining = [list(c) for c in chains if c]
    while remaining:
        k = rng.randrange(sum(len(c) for c in remaining))
        for c in remaining:
            if k < len(c):
                steps.append(c.pop(0))
                break
            k -= len(c)
        remaining = [c for c in remaining if c]
    distractors = [(i, 0) for i in sorted(stop_at_one)]
    for d in distractors:
        steps.insert(rng.randrange(len(steps) + 1), d)

    def lowered(i: int, j: int) -> tuple[int, ...]:
        g = [top] * n
        g[i] = j
        return tuple(g)

    gens = [tuple([top] * n)] + [lowered(i, j) for i, j in steps]
    table = chain_table(m)
    above = [k + 1 for k, g in enumerate(gens) if ref.mul(table, target, g) == target]
    label = f"stair SL-chain({m}) n={n} {'member' if member else 'non-member'}"
    if member:
        return SmpCase(label, f"SL-chain({m})", gens, target, True, word=above, staircase=True)
    return SmpCase(label, f"SL-chain({m})", gens, target, False, window=[missing], staircase=True)


def _small_instance(rng: random.Random, table: Table, n0: int, k0: int, member: bool):
    """A small instance over a band whose verdict brute force settles.

    A non-member b must get past the first fixed-point test on both sides
    (some generator a has b a = b, some a' has a' b = b), and <A> must hold
    an x that is L-related to b, so the suffix solver over S succeeds and
    only the one over dual(S) fails.
    """
    m = len(table)
    while True:
        gens = list(dict.fromkeys(tuple(rng.randrange(m) for _ in range(n0)) for _ in range(k0)))
        words = ref.closure_words(table, gens)
        if member:
            deep = [t for t, w in words.items() if len(w) >= 3]
            if not deep:
                continue
            target = rng.choice(sorted(deep))
            return gens, target, words[target]
        l_class = [[u for u in range(m) if table[u][v] == u and table[v][u] == v] for v in range(m)]
        elements = sorted(words)
        for _ in range(50):
            target = tuple(rng.choice(l_class[v]) for v in rng.choice(elements))
            if target in words:
                continue
            right = any(ref.mul(table, target, a) == target for a in gens)
            left = any(ref.mul(table, a, target) == target for a in gens)
            if right and left:
                return gens, target, None


def copied_out(rng: random.Random, table: Table, band: str, n0: int, k0: int, n: int,
               member: bool) -> SmpCase:
    """A small instance copied out to arity n.

    Each big coordinate repeats one small coordinate, and each small one is
    used at least once, so membership is the small instance's. A member's
    word carries over unchanged; a non-member's window is one copy of
    each small coordinate.
    """
    gens0, target0, word = _small_instance(rng, table, n0, k0, member)
    src = list(range(n0)) + [rng.randrange(n0) for _ in range(n - n0)]
    rng.shuffle(src)
    gens = [tuple(g[s] for s in src) for g in gens0]
    target = tuple(target0[s] for s in src)
    window = [src.index(i) for i in range(n0)]
    label = f"{band} copied out n0={n0} n={n} {'member' if member else 'non-member'}"
    if member:
        return SmpCase(label, band, gens, target, True, word=word)
    return SmpCase(label, band, gens, target, False, window=window)


# -- workload inputs ----------------------------------------------------------

#: (m, n) of the staircases; each gives one member and one non-member
STAIRCASES = ((3, 40), (4, 28), (5, 20), (6, 16))
#: small S10 instances copied out to this arity, each decided over S10 and dual(S10)
COPY_ARITY = 1000
COPY_SMALL = ((5, 4, True), (6, 5, False))


@dataclass
class PolyInputs:
    bands: dict[str, Table]
    cases: list[SmpCase]


def poly_inputs(seed: int) -> PolyInputs:
    rng = random.Random(f"poly-staircase/{seed}")
    bands: dict[str, Table] = {}
    cases: list[SmpCase] = []
    for m, n in STAIRCASES:
        bands[f"SL-chain({m})"] = chain_table(m)
        for member in (True, False):
            cases.append(staircase(rng, m, n, member))
    s10 = catalog_table("S10")
    bands["S10"] = s10
    bands["dual(S10)"] = dual_table(s10)
    for n0, k0, member in COPY_SMALL:
        case = copied_out(rng, s10, "S10", n0, k0, COPY_ARITY, member)
        cases.append(case)
        # <A> is the same set over S and over dual(S); a word reverses
        twin = SmpCase(case.label.replace("S10", "dual(S10)", 1), "dual(S10)", case.gens,
                       case.target, member, word=case.word and case.word[::-1],
                       window=case.window)
        cases.append(twin)
    return PolyInputs(bands, cases)


@dataclass
class SatCase:
    label: str
    band: str                 # "T9" or "S9"
    num_vars: int
    clauses: list[list[int]]
    sat: bool                 # settled by the truth table
    text: str = field(init=False)

    def __post_init__(self):
        self.text = dimacs_text(self.num_vars, self.clauses)


def _random_clause(rng: random.Random, k: int) -> list[int]:
    return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, k + 1), 3)]


def _uses_all(clauses, k: int) -> bool:
    return {abs(l) for c in clauses for l in c} == set(range(1, k + 1))


def planted_unsat(rng: random.Random, k: int, extra: int) -> list[list[int]]:
    """All eight sign patterns over three variables, plus random 3-clauses."""
    core_vars = rng.sample(range(1, k + 1), 3)
    core = [[s * v for s, v in zip(signs, core_vars)]
            for signs in ((a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1))]
    while True:
        clauses = core + [_random_clause(rng, k) for _ in range(extra)]
        if _uses_all(clauses, k):
            rng.shuffle(clauses)
            return clauses


def planted_sat(rng: random.Random, k: int, count: int) -> list[list[int]]:
    """Random 3-clauses, each true under a hidden random assignment."""
    hidden = [rng.random() < 0.5 for _ in range(k)]
    while True:
        clauses = []
        while len(clauses) < count:
            c = _random_clause(rng, k)
            if ref.satisfies([c], hidden):
                clauses.append(c)
        if _uses_all(clauses, k):
            return clauses


#: (kind, variables, clause count); unsatisfiable ones are the 8-clause core plus 4.
#: A 6-variable unsatisfiable formula (48,600 tuples, 1.6-2.5 s) would leave a run
#: too few rounds for steady figures. How far a satisfiable formula's search
#: goes varies from formula to formula; over 16 seeds the tuples searched spread
#: (IQR/median) 0.17 at 5 variables and 15 clauses, 0.26 at 6 and 8, 1.05 at 6 and 15.
FORMULAS = (("unsat", 5, 12),) * 5 + (("sat", 5, 15),) * 2 + (("sat", 6, 8),) * 2


def closure_inputs(seed: int) -> tuple[dict[str, Table], list[SatCase]]:
    rng = random.Random(f"closure-gadget/{seed}")
    bands = {name: relabel_table(catalog_table(name), rng) for name in ("T9", "S9")}
    cases = []
    for i, (kind, k, count) in enumerate(FORMULAS):
        clauses = planted_unsat(rng, k, count - 8) if kind == "unsat" else planted_sat(rng, k, count)
        sat = ref.truth_table_sat(k, clauses) is not None
        band = ("T9", "S9")[i % 2]
        cases.append(SatCase(f"{kind} k={k} m={count} over {band}", band, k, clauses, sat))
    return bands, cases


@dataclass
class CliInputs:
    """Texts for the cold-CLI workload, written to files in set-up."""

    bands: dict[str, Table]           # file stem -> table
    classify: list[str]               # band stems to classify
    factors: dict[str, tuple[str, ...]]  # classified stem -> its catalog factors
    singles: list[tuple[str, SmpCase]]  # (band stem, case) for single smp calls
    batch: list[SmpCase]              # decided in one call over bands["poly"]
    sat: SatCase                      # source of the closure-path single call


#: arity of the copied-out instances the CLI decides
CLI_ARITY = 300
CLI_BATCH = 6


def cli_inputs(seed: int) -> CliInputs:
    rng = random.Random(f"cli-cold/{seed}")
    s10 = relabel_table(catalog_table("S10"), rng)
    factors = {"tractable": ("S10", "SL-chain(3)"), "hard": ("T13b", "RZ(3)")}
    bands = {"poly": s10, "gadget": relabel_table(catalog_table("T9"), rng)}
    for stem, (a, b) in factors.items():
        bands[stem] = relabel_table(product_table(catalog_table(a), catalog_table(b)), rng)
    singles = [("poly", copied_out(rng, s10, "poly", 5, 4, CLI_ARITY, member))
               for member in (True, False)]
    batch = [copied_out(rng, s10, "poly", 5, 4, CLI_ARITY, i % 2 == 0) for i in range(CLI_BATCH)]
    clauses = planted_sat(rng, 4, 8)
    sat = SatCase("sat k=4 m=8 over T9", "gadget", 4, clauses,
                  ref.truth_table_sat(4, clauses) is not None)
    return CliInputs(bands, list(factors), factors, singles, batch, sat)


#: tuples in the closure of the reference instance; a different count means the task changed
REFERENCE_TUPLES = 448


def reference_instance() -> tuple[Table, list[tuple[int, ...]]]:
    """The fixed input of the reference task: 7 generators in S10^12, the same in every run."""
    rng = random.Random("reference")
    table = catalog_table("S10")
    return table, [tuple(rng.randrange(len(table)) for _ in range(12)) for _ in range(7)]


@dataclass
class Sample:
    """Small inputs for the layers a workload never calls.

    A traced run probes every layer's public functions. Where a workload
    has no input of a kind (no formulas in poly-staircase, no tractable
    instances in closure-gadget), these stand in, so every per-layer metric is measured
    on every workload; the README says which ones come from here.
    """

    bands: dict[str, Table]
    smp: list[SmpCase]     # over bands["S10"]
    sat: list[SatCase]     # over bands["T9"]


def sample_inputs(seed: int) -> Sample:
    rng = random.Random(f"sample/{seed}")
    s10 = relabel_table(catalog_table("S10"), rng)
    bands = {"S10": s10, "T9": relabel_table(catalog_table("T9"), rng)}
    smp = [copied_out(rng, s10, "S10", 5, 4, 100, member) for member in (True, False)]
    sat = []
    for kind, clauses in (("sat", planted_sat(rng, 4, 8)), ("unsat", planted_unsat(rng, 4, 2))):
        sat.append(SatCase(f"{kind} k=4 over T9", "T9", 4, clauses,
                           ref.truth_table_sat(4, clauses) is not None))
    return Sample(bands, smp, sat)
