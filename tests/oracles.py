"""Independent brute-force implementations used as test oracles.

Everything here goes back to raw definitions (existential quantifiers
over S^1, all-pairs fixed points, truth tables) rather than the cached
characterizations the library uses, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import json
from functools import reduce


def naive_leq_l(table, a, b):
    """a <=_L b iff a = u b for some u in S^1."""
    m = len(table)
    return a == b or any(table[u][b] == a for u in range(m))


def naive_leq_r(table, a, b):
    m = len(table)
    return a == b or any(table[b][u] == a for u in range(m))


def naive_j_ideal(table, b):
    """S^1 b S^1: every u b v with u, v in S^1."""
    m = len(table)
    left = {b} | {table[u][b] for u in range(m)}
    return left | {table[c][v] for c in left for v in range(m)}


def naive_leq_j(table, a, b):
    """a <=_J b iff a = u b v with u, v in S^1."""
    return a in naive_j_ideal(table, b)


def naive_subsemigroup(table, gens):
    cur = set(gens)
    while True:
        nxt = {table[a][b] for a in cur for b in cur} | cur
        if nxt == cur:
            return cur
        cur = nxt


def tuple_mul(table, s, t):
    return tuple(table[a][b] for a, b in zip(s, t))


def naive_tuple_closure(table, gens):
    cur = set(gens)
    while True:
        nxt = {tuple_mul(table, a, b) for a in cur for b in cur} | cur
        if nxt == cur:
            return cur
        cur = nxt


def word_product(table, gens, word):
    """The product of a 1-based generator word, one tuple at a time."""
    return reduce(lambda acc, i: tuple_mul(table, acc, gens[i - 1]), word[1:], gens[word[0] - 1])


def naive_pair_certifies(table, gens, b, x, y):
    """x and y lie in <gens>, x L b and y R b componentwise, and y x = b."""
    members = naive_tuple_closure(table, gens)

    def related(leq, s, t):
        return all(leq(table, u, v) and leq(table, v, u) for u, v in zip(s, t))

    return (x in members and y in members and related(naive_leq_l, x, b)
            and related(naive_leq_r, y, b) and tuple_mul(table, y, x) == tuple(b))


def eval_word(table, w, assignment):
    return reduce(lambda acc, v: table[acc][assignment[v - 1]], w[1:], assignment[w[0] - 1])


def naive_satisfies_identity(table, lhs, rhs):
    m = len(table)
    variables = sorted(set(lhs) | set(rhs))
    width = max(variables)
    for values in itertools.product(range(m), repeat=len(variables)):
        assignment = [0] * width
        for var, val in zip(variables, values):
            assignment[var - 1] = val
        if eval_word(table, lhs, assignment) != eval_word(table, rhs, assignment):
            return tuple(assignment)
    return True


def naive_is_witness(table, d, e, x, y, h):
    def mul(*xs):
        return reduce(lambda a, b: table[a][b], xs)

    premise = (
        mul(d, x, y, e) == mul(d, e)
        and mul(h, x) == x
        and mul(h, e) == e
        and naive_leq_j(table, d, e)
        and naive_leq_j(table, e, x)
        and naive_leq_j(table, e, y)
    )
    return premise and mul(d, x, e) != mul(d, e)


def naive_lambda_witness(table):
    """The odometer-least (d, e, x, y, h) that naive_is_witness accepts, or
    None: the five-deep loop, h varying fastest, with a <=_J b read as
    a in naive_j_ideal(table, b)."""
    m = len(table)
    t = table
    ideal = [naive_j_ideal(table, b) for b in range(m)]
    for d in range(m):
        for e in range(m):
            if d not in ideal[e]:
                continue
            de = t[d][e]
            for x in range(m):
                if e not in ideal[x] or t[t[d][x]][e] == de:
                    continue
                dx = t[d][x]
                for y in range(m):
                    if e not in ideal[y] or t[t[dx][y]][e] != de:
                        continue
                    for h in range(m):
                        if t[h][x] == x and t[h][e] == e:
                            return (d, e, x, y, h)
    return None


def naive_embedding_exists(small, big):
    """Exhaustive injective-map search; only sane for tiny orders."""
    ms, mb = len(small), len(big)
    if ms > mb:
        return False
    for images in itertools.permutations(range(mb), ms):
        if all(
            images[small[a][b]] == big[images[a]][images[b]]
            for a in range(ms)
            for b in range(ms)
        ):
            return True
    return False


def is_injective_hom(small, big, image):
    """Is image, with image[a] the element of big that a goes to, a map from
    small into big that sends distinct elements apart and a*b to
    image[a]*image[b] for every pair?"""
    ms = len(small)
    if len(image) != ms or len(set(image)) != ms or not set(image) <= set(range(len(big))):
        return False
    return all(image[small[a][b]] == big[image[a]][image[b]] for a in range(ms) for b in range(ms))


def naive_sat(num_vars, clauses):
    if any(not c for c in clauses):
        return False
    for values in itertools.product((False, True), repeat=num_vars):
        if all(any(values[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return True
    return False


def read_rows(text):
    """A band or instance file by the per-line rule: the JSON object of a text
    that starts with '{', else, for each line of splitlines() whose first
    split() token does not start with '#', the int() of every token. A bad
    token is a ValueError naming its 1-based line."""
    if text.lstrip().startswith("{"):
        return json.loads(text)
    rows = []
    for i, line in enumerate(text.splitlines(), 1):
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            try:
                rows.append([int(t) for t in tokens])
            except ValueError as exc:
                raise ValueError(f"line {i}: {exc}") from None
    return rows


def json_int_rows(rows):
    """The rows of a JSON file as lists of ints, row by row; the first row that
    is not iterable, or value that is not an int (a bool is not), is a TypeError."""
    out = []
    for row in rows:
        values = list(row)
        for v in values:
            if type(v) is not int:
                raise TypeError(f"{v!r} is not an integer")
        out.append(values)
    return out
