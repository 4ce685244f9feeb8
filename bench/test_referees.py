"""The referees and the generator's certificates against brute force.

    python3 -m pytest bench -q

Each referee is compared with the oracles of ``tests/oracles.py`` (all-pairs
fixed-point closure, exhaustive truth tables and map searches) on
desk-scale instances.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "tests"), str(HERE.parent / "src")]

import gen  # noqa: E402
import oracles  # noqa: E402
import referees as ref  # noqa: E402


def semilattices():
    yield gen.chain_table(2)
    yield gen.chain_table(4)
    yield gen.product_table(gen.chain_table(2), gen.chain_table(3))
    yield gen.relabel_table(gen.product_table(gen.chain_table(3), gen.chain_table(2)), random.Random(7))


def random_instance(rng, table, n, k):
    m = len(table)
    gens = list(dict.fromkeys(tuple(rng.randrange(m) for _ in range(n)) for _ in range(k)))
    return gens, tuple(rng.randrange(m) for _ in range(n))


@pytest.mark.parametrize("table", list(semilattices()))
def test_semilattice_member_matches_closure(table):
    rng = random.Random(1)
    for _ in range(200):
        gens, target = random_instance(rng, table, rng.randint(1, 3), rng.randint(1, 4))
        closed = oracles.naive_tuple_closure(table, gens)
        if rng.random() < 0.5:
            target = rng.choice(sorted(closed))
        assert ref.semilattice_member(table, gens, target) == (target in closed)


def test_semilattice_member_rejects_other_bands():
    with pytest.raises(ValueError):
        ref.semilattice_member(gen.catalog_table("S10"), [(0,)], (0,))


@pytest.mark.parametrize("name", ["S9", "S10", "T13b", "Rect(2,3)"])
def test_closure_words_match_naive_closure_and_multiply_out(name):
    table = gen.catalog_table(name)
    rng = random.Random(2)
    for _ in range(20):
        gens, _ = random_instance(rng, table, rng.randint(1, 3), rng.randint(1, 3))
        words = ref.closure_words(table, gens)
        assert set(words) == oracles.naive_tuple_closure(table, gens)
        for t, w in words.items():
            assert ref.word_product(table, gens, w) == t
            acc = gens[w[0] - 1]
            for i in w[1:]:
                acc = oracles.tuple_mul(table, acc, gens[i - 1])
            assert acc == t


def test_reference_task_has_its_recorded_size():
    """The reference task that every time is scaled by does a fixed amount of work."""
    table, gens = gen.reference_instance()
    assert set(ref.closure_words(table, gens)) == oracles.naive_tuple_closure(table, gens)
    assert len(oracles.naive_tuple_closure(table, gens)) == gen.REFERENCE_TUPLES


def test_window_excludes_is_sound_and_exact_on_all_coordinates():
    table = gen.catalog_table("S10")
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(2, 3)
        gens, target = random_instance(rng, table, n, rng.randint(2, 3))
        closed = oracles.naive_tuple_closure(table, gens)
        assert ref.window_excludes(table, gens, target, range(n)) == (target not in closed)
        for size in range(1, n):
            for window in itertools.combinations(range(n), size):
                if ref.window_excludes(table, gens, target, window):
                    assert target not in closed


def test_truth_table_sat_matches_naive_sat():
    rng = random.Random(4)
    for _ in range(300):
        k = rng.randint(1, 5)
        clauses = [[v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, k + 1), rng.randint(1, min(3, k)))]
                   for _ in range(rng.randint(1, 12))]
        found = ref.truth_table_sat(k, clauses)
        assert (found is not None) == oracles.naive_sat(k, clauses)
        if found is not None:
            assert ref.satisfies(clauses, found)


@pytest.mark.parametrize("name", ["S9", "S10", "T9", "T13a"])
def test_lambda_witness_matches_naive(name):
    table = gen.catalog_table(name)
    m = len(table)
    rng = random.Random(5)
    quintuples = [tuple(rng.randrange(m) for _ in range(5)) for _ in range(4000)]
    quintuples.append((5, 2, 1, 4, 0))  # S9's printed witness (6,3,2,5,1); the T bands' own
    hits = 0
    for q in quintuples:
        expected = oracles.naive_is_witness(table, *q)
        assert ref.is_lambda_witness(table, *q) == expected
        d, e, x, y, h = q
        identity = all(table[h][s] == s and table[s][h] == s for s in (d, e, x, y))
        assert ref.is_normalized_witness(table, *q) == (expected and identity)
        hits += expected
    assert (hits > 0) == (name != "S10")


@pytest.mark.parametrize("small,big", [
    ("LZ(2)", "Rect(2,2)"), ("SL-chain(2)", "SL-chain(3)"), ("RZ(2)", "S9"), ("LZ(2)", "RZ(3)"),
])
def test_injective_hom_matches_naive_embedding_search(small, big):
    s, b = gen.catalog_table(small), gen.catalog_table(big)
    maps = list(itertools.permutations(range(len(b)), len(s)))
    passing = [emb for emb in maps if ref.is_injective_hom(s, b, emb)]
    assert bool(passing) == oracles.naive_embedding_exists(s, b)
    for emb in passing:
        assert all(emb[s[x][y]] == b[emb[x]][emb[y]] for x in range(len(s)) for y in range(len(s)))
    assert not ref.is_injective_hom(s, b, [0] * len(s))


@pytest.mark.parametrize("name", ["S9", "S10", "T17", "SL-chain(4)", "Rect(2,3)"])
def test_j_height_matches_naive_preorder(name):
    table = gen.catalog_table(name)
    m = len(table)
    leq = [[oracles.naive_leq_j(table, a, b) for b in range(m)] for a in range(m)]
    left, levels = set(range(m)), 0
    while left:  # peel off the J-minimal elements, one level at a time
        left -= {a for a in left if not any(leq[b][a] and not leq[a][b] for b in left)}
        levels += 1
    assert ref.j_height(table) == levels


# -- the generator's certificates -----------------------------------------------------

@pytest.mark.parametrize("m,n", [(3, 3), (4, 2), (3, 4)])
def test_staircase_verdicts_match_closure(m, n):
    rng = random.Random(6)
    table = gen.chain_table(m)
    for member in (True, False):
        case = gen.staircase(rng, m, n, member)
        closed = oracles.naive_tuple_closure(table, case.gens)
        assert (case.target in closed) == member
        if member:
            assert ref.word_product(table, case.gens, case.word) == case.target
        else:
            assert ref.window_excludes(table, case.gens, case.target, case.window)


def test_copied_out_verdicts_match_closure():
    rng = random.Random(7)
    s10 = gen.catalog_table("S10")
    for member in (True, False, True, False):
        case = gen.copied_out(rng, s10, "S10", 3, 3, 7, member)
        closed = oracles.naive_tuple_closure(s10, case.gens)
        assert (case.target in closed) == member
        dual_closed = oracles.naive_tuple_closure(gen.dual_table(s10), case.gens)
        assert closed == dual_closed


def test_planted_formulas_have_the_planted_answer():
    rng = random.Random(8)
    for _ in range(20):
        assert not oracles.naive_sat(5, gen.planted_unsat(rng, 5, 4))
        assert oracles.naive_sat(5, gen.planted_sat(rng, 5, 15))


def test_products_duals_and_relabellings_are_bands():
    rng = random.Random(9)
    tables = [
        gen.product_table(gen.catalog_table("S9"), gen.catalog_table("LZ(2)")),
        gen.dual_table(gen.catalog_table("T9")),
        gen.relabel_table(gen.catalog_table("S10"), rng),
    ]
    for t in tables:
        m = len(t)
        assert all(t[a][a] == a for a in range(m))
        assert all(t[t[a][b]][c] == t[a][t[b][c]] for a in range(m) for b in range(m) for c in range(m))
