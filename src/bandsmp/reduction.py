"""SAT to subpower-membership reduction over a band breaking the quasiidentity.

A CNF with n clauses over k variables becomes an instance of arity
n + 2k: clause coordinates check that each clause is hit, the 2k control
coordinates force consistent truth values across repeated occurrences of
the same variable. The formula is satisfiable iff the target is generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .band import Band
from .errors import DimacsSyntaxError, NotAWitness, NotAWitnessingWord, OutOfRange, as_int
from .power import GenSet, SmpInstance
from .quasi import (Witness, canonical_forbidden_witness, construct_forbidden_band,
                    require_normalized)
from .smp import verify_word


@dataclass(frozen=True)
class SatInstance:
    """A CNF formula: clauses are sets of signed 1-based literals.

    An empty clause is kept verbatim; it marks the instance unsatisfiable
    and the reduction maps it to an unreachable coordinate.
    """

    num_vars: int
    clauses: tuple[frozenset[int], ...]

    def __post_init__(self):
        if as_int(self.num_vars, "variable count") < 0:
            raise OutOfRange(f"variable count {self.num_vars} is negative")
        for ci, clause in enumerate(self.clauses):
            for lit in clause:
                lit = as_int(lit, f"clause {ci + 1}: literal")
                if lit == 0 or abs(lit) > self.num_vars:
                    raise OutOfRange(f"clause {ci + 1}: literal {lit} out of range")

    def used_variables(self) -> list[int]:
        used = set()
        for clause in self.clauses:
            used.update(abs(lit) for lit in clause)
        return sorted(used)

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        """Does the total assignment (index j-1 for x_j) satisfy every clause?"""
        for clause in self.clauses:
            if not any(
                assignment[abs(lit) - 1] == (lit > 0) for lit in clause
            ):
                return False
        return True


def parse_dimacs(text: str) -> SatInstance:
    """Parse DIMACS CNF; tautological clauses are kept, empty clauses marked."""
    problem = None  # the problem line's number
    clauses: list[frozenset[int]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):  # SATLIB files end with '%' and a stray '0'
            break
        if line.startswith("p"):
            if problem is not None:
                raise DimacsSyntaxError(lineno, "second problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsSyntaxError(lineno, f"bad problem line {line!r}")
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsSyntaxError(lineno, "non-integer counts") from None
            if num_vars < 0 or declared_clauses < 0:
                raise DimacsSyntaxError(lineno, f"negative count in {line!r}")
            problem = lineno
            continue
        if problem is None:
            raise DimacsSyntaxError(lineno, "clause before the problem line")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsSyntaxError(lineno, f"bad literal {tok!r}") from None
            if lit == 0:
                clauses.append(frozenset(current))
                current = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsSyntaxError(lineno, f"literal {lit} out of range")
                current.append(lit)
    if problem is None:
        raise DimacsSyntaxError(None, "missing problem line")
    if current:
        # final clause without the terminating 0 is accepted
        clauses.append(frozenset(current))
    if declared_clauses != len(clauses):
        raise DimacsSyntaxError(
            problem, f"problem line declares {declared_clauses} clauses, found {len(clauses)}"
        )
    return SatInstance(num_vars=num_vars, clauses=tuple(clauses))


@dataclass
class ReductionOutput:
    """The emitted membership instance plus bookkeeping for round trips."""

    instance: SmpInstance
    roles: tuple[str, ...]
    variable_map: dict[int, int]  # original variable -> renumbered variable
    sat: SatInstance              # the reduced (renumbered) formula


def sat_to_smp(
    sat: SatInstance,
    band: Optional[Band] = None,
    witness: Optional[Witness] = None,
) -> ReductionOutput:
    """Emit the hardness instance for a CNF over a normalized witness.

    band defaults to the synthesized 9-element forbidden band T9, and then
    witness to its canonical quintuple; a witness given is checked against
    the band all the same. Variables occurring in no clause are dropped
    first and recorded in variable_map. The generators run u, v, a_1^0 ...
    a_k^0, a_1^1 ... a_k^1 (no v at arity 0): a_j^z is 3 + (j - 1) + z·k.
    """
    if band is None:
        band = construct_forbidden_band("T9")
        if witness is None:
            witness = canonical_forbidden_witness()
    elif witness is None:
        raise NotAWitness("a witness must be supplied along with the band")
    require_normalized(band, witness)

    used = sat.used_variables()
    variable_map = {orig: j + 1 for j, orig in enumerate(used)}
    clauses = tuple(
        frozenset(
            (1 if lit > 0 else -1) * variable_map[abs(lit)] for lit in clause
        )
        for clause in sat.clauses
    )
    reduced = SatInstance(num_vars=len(used), clauses=clauses)

    d, e, x, y, h = witness.as_tuple()
    xe, de = band.prod([x, e]), band.prod([d, e])
    n = len(reduced.clauses)
    k = reduced.num_vars
    arity = n + 2 * k

    b = tuple([de] * arity)
    u = tuple([d] * arity)
    v = tuple([xe] * n + [y] * (2 * k))
    # the empty formula has u = v = (), and u alone generates the target ()
    gens: list[tuple[int, ...]] = [u, v] if arity else [u]
    roles: list[str] = ["u", "v"][:len(gens)]
    for z in (0, 1):
        for j in range(1, k + 1):
            coords = [
                e if ((-j if z == 0 else j) in reduced.clauses[i]) else h
                for i in range(n)
            ]
            coords += [h] * (2 * k)
            pair = (x, e) if z == 0 else (e, x)
            coords[n + 2 * j - 2], coords[n + 2 * j - 1] = pair
            gens.append(tuple(coords))
            roles.append(f"a{j}^{z}")
    instance = SmpInstance(
        gens=GenSet(band=band, n=arity, members=tuple(gens)), target=b
    )
    return ReductionOutput(
        instance=instance,
        roles=tuple(roles),
        variable_map=variable_map,
        sat=reduced,
    )


def assignment_to_word(out: ReductionOutput, z: Sequence[bool]) -> list[int]:
    """The word u a_1^{z_1} ... a_k^{z_k} v as 1-based generator indices."""
    k = out.sat.num_vars
    if len(z) != k:
        raise NotAWitnessingWord(f"assignment length {len(z)} != {k} variables")
    word = [1] + [3 + j + (k if zj else 0) for j, zj in enumerate(z)]
    return word + [2] if out.instance.gens.n else word


def word_to_assignment(out: ReductionOutput, word: Sequence[int]) -> list[bool]:
    """Extract a satisfying assignment from a witnessing generator word.

    First occurrence of a_j^z fixes variable j; unused variables map to
    false. The result is checked against the formula.
    """
    if not verify_word(out.instance.gens, word, out.instance.target):
        raise NotAWitnessingWord("word does not evaluate to the target tuple")
    k = out.sat.num_vars
    # generator 3 + (j - 1) + z·k is a_j^z; read in reverse, the first occurrence wins
    first = {(i - 3) % k: i - 3 >= k for i in reversed(word) if i > 2}
    result = [first.get(j, False) for j in range(k)]
    if not out.sat.evaluate(result):
        raise NotAWitnessingWord(
            "extracted assignment does not satisfy the formula"
        )
    return result


def format_roles(out: ReductionOutput) -> str:
    """Role file: one '<generator line number> <role>' per line."""
    lines = [f"{i + 1} {role}" for i, role in enumerate(out.roles)]
    return "\n".join(lines) + "\n"
