"""Referees that check the library's verdicts without using its code.

Every function here works on plain 0-based multiplication tables (lists of
rows) and plain tuples, straight from the definitions. None of them imports
``bandsmp``; ``test_referees.py`` compares each one with the brute-force
oracles in ``tests/oracles.py`` on desk-scale instances.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence

Table = Sequence[Sequence[int]]


def mul(table: Table, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Componentwise product of two tuples."""
    return tuple(table[x][y] for x, y in zip(a, b))


def word_product(table: Table, gens: Sequence[Sequence[int]], word: Sequence[int]) -> tuple[int, ...]:
    """Product of the generators named by a 1-based index word, left to right."""
    if not word:
        raise ValueError("empty word")
    acc = tuple(gens[word[0] - 1])
    for i in word[1:]:
        acc = mul(table, acc, gens[i - 1])
    return acc


def closure_words(table: Table, gens: Sequence[Sequence[int]]) -> dict[tuple[int, ...], list[int]]:
    """Every element of <gens> with one generator word (1-based) that makes it."""
    words: dict[tuple[int, ...], list[int]] = {}
    frontier = []
    for i, g in enumerate(gens):
        g = tuple(g)
        if g not in words:
            words[g] = [i + 1]
            frontier.append(g)
    while frontier:
        nxt = []
        for a in frontier:
            for i, g in enumerate(gens):
                p = mul(table, a, g)
                if p not in words:
                    words[p] = words[a] + [i + 1]
                    nxt.append(p)
        frontier = nxt
    return words


def window_excludes(table: Table, gens: Sequence[Sequence[int]], target: Sequence[int],
                    window: Sequence[int]) -> bool:
    """True when the projection of <gens> onto the window misses the projected target.

    Projection is a homomorphism, so a True answer certifies that the
    target is not in <gens>.
    """
    proj = [tuple(g[i] for i in window) for g in gens]
    return tuple(target[i] for i in window) not in closure_words(table, proj)


def is_semilattice(table: Table) -> bool:
    m = len(table)
    return all(table[a][a] == a for a in range(m)) and all(
        table[a][b] == table[b][a] for a in range(m) for b in range(m)
    )


def semilattice_member(table: Table, gens: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """b is in <A> iff the generators above b exist and their meet is b.

    In a semilattice a product is the meet of its factors, and a product
    can equal b only if each factor lies above b.
    """
    if not is_semilattice(table):
        raise ValueError("table is not a semilattice")
    above = [g for g in gens if mul(table, target, g) == tuple(target)]
    if not above:
        return False
    acc = tuple(above[0])
    for g in above[1:]:
        acc = mul(table, acc, g)
    return acc == tuple(target)


def leq_j(table: Table, a: int, b: int) -> bool:
    """a <=_J b in a band: a = a b a."""
    return table[table[a][b]][a] == a


def j_height(table: Table) -> int:
    """Number of classes in the longest strict <=_J chain of a band."""
    m = len(table)
    below = [[b for b in range(m) if leq_j(table, b, a) and not leq_j(table, a, b)]
             for a in range(m)]
    memo: dict[int, int] = {}

    def chain(a: int) -> int:
        if a not in memo:
            memo[a] = 1 + max((chain(b) for b in below[a]), default=0)
        return memo[a]

    return max(chain(a) for a in range(m))


def is_lambda_witness(table: Table, d: int, e: int, x: int, y: int, h: int) -> bool:
    """(d, e, x, y, h) meets the scan's premise and breaks its conclusion.

    Premise: d x y e = d e, h x = x, h e = e and d <=_J e <=_J x, y.
    Conclusion: d x e = d e.
    """
    t = table
    de = t[d][e]
    premise = (
        t[t[t[d][x]][y]][e] == de
        and t[h][x] == x
        and t[h][e] == e
        and leq_j(t, d, e)
        and leq_j(t, e, x)
        and leq_j(t, e, y)
    )
    return premise and t[t[d][x]][e] != de


def is_normalized_witness(table: Table, d: int, e: int, x: int, y: int, h: int) -> bool:
    """A witness whose h is a two-sided identity on d, e, x and y."""
    return is_lambda_witness(table, d, e, x, y, h) and all(
        table[h][s] == s and table[s][h] == s for s in (d, e, x, y)
    )


def is_injective_hom(small: Table, big: Table, emb: Sequence[int]) -> bool:
    """emb maps small into big injectively and preserves every product."""
    ms = len(small)
    if len(emb) != ms or len(set(emb)) != ms:
        return False
    if not all(0 <= v < len(big) for v in emb):
        return False
    return all(
        emb[small[a][b]] == big[emb[a]][emb[b]] for a in range(ms) for b in range(ms)
    )


def satisfies(clauses: Sequence[Sequence[int]], assignment: Sequence[bool]) -> bool:
    """Does the assignment (index j-1 for variable j) make every clause true?"""
    return all(any(assignment[abs(l) - 1] == (l > 0) for l in c) for c in clauses)


def truth_table_sat(num_vars: int, clauses: Sequence[Sequence[int]]) -> Optional[tuple[bool, ...]]:
    """A satisfying assignment found by trying all 2^k, or None."""
    for values in product((False, True), repeat=num_vars):
        if satisfies(clauses, values):
            return values
    return None
