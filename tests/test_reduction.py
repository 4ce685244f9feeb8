"""DIMACS parsing, the hardness gadget, and assignment/word round trips."""

import itertools
import random

import pytest

from bandsmp import (
    CATALOG_EXAMPLES,
    SatInstance,
    catalog,
    Witness,
    assignment_to_word,
    canonical_forbidden_witness,
    construct_forbidden_band,
    forbidden_subband,
    format_roles,
    is_witness,
    member_closure_word,
    mul_tuple,
    normalize_witness,
    parse_dimacs,
    sat_to_smp,
    verify_word,
    word_to_assignment,
)
from bandsmp.errors import DimacsSyntaxError, NotAWitness, NotAWitnessingWord, OutOfRange

from helpers import format_dimacs, has_empty_clause, product_band
from oracles import naive_sat

S9_WITNESS = Witness(d=5, e=2, x=1, y=4, h=0)

# Every witness (d, e, x, y, h) of a catalog band or its dual whose h is a
# two-sided identity on d, e, x and y, in 1-based labels, and whether
# normalize_witness leaves it as it is. All nine are in the bands, none in a
# dual; the other four all normalize to (6, 3, 2, 5, 1).
CATALOG_WITNESSES = [
    ("S9", (6, 3, 2, 5, 1), True),
    ("T9", (6, 3, 2, 5, 1), True),
    ("T13a", (6, 3, 2, 5, 1), True),
    ("T13b", (6, 3, 2, 5, 1), True),
    ("T17", (6, 3, 2, 5, 1), True),
    ("T13a", (10, 3, 2, 5, 1), False),
    ("T13b", (10, 3, 2, 5, 1), False),
    ("T17", (10, 3, 2, 5, 1), False),
    ("T17", (14, 3, 2, 5, 1), False),
]
UNNORMALIZED = [(name, labels) for name, labels, normalized in CATALOG_WITNESSES if not normalized]


def from_labels(labels):
    return Witness(*(v - 1 for v in labels))


def clause_set(sat):
    return [set(c) for c in sat.clauses]


class TestParseDimacs:
    def test_single_positive_clause(self):
        sat = parse_dimacs("p cnf 1 1\n1 0\n")
        assert sat.num_vars == 1
        assert clause_set(sat) == [{1}]

    def test_contradiction(self):
        sat = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
        assert clause_set(sat) == [{1}, {-1}]

    def test_three_literals(self):
        sat = parse_dimacs("p cnf 3 1\n1 -2 3 0\n")
        assert clause_set(sat) == [{1, -2, 3}]

    def test_comments_and_multiline_clauses(self):
        sat = parse_dimacs("c header\np cnf 2 1\n1\n-2 0\n")
        assert clause_set(sat) == [{1, -2}]

    def test_tautological_clause_kept(self):
        sat = parse_dimacs("p cnf 1 1\n1 -1 0\n")
        assert clause_set(sat) == [{1, -1}]

    def test_empty_clause_marker(self):
        sat = parse_dimacs("p cnf 1 2\n1 0\n0\n")
        assert has_empty_clause(sat)

    def test_bad_literal(self):
        with pytest.raises(DimacsSyntaxError) as exc:
            parse_dimacs("p cnf 1 1\n2 0\n")
        assert exc.value.line == 2

    def test_missing_problem_line(self):
        with pytest.raises(DimacsSyntaxError):
            parse_dimacs("1 0\n")
        with pytest.raises(DimacsSyntaxError) as exc:
            parse_dimacs("c only a comment\n")
        assert exc.value.line is None
        assert str(exc.value) == "DIMACS syntax error: missing problem line"

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsSyntaxError):
            parse_dimacs("p cnf 1 2\n1 0\n")
        with pytest.raises(DimacsSyntaxError) as exc:  # the problem line is line 2
            parse_dimacs("c x\np cnf 1 3\n1 0\n")
        assert str(exc.value) == (
            "DIMACS syntax error on line 2: problem line declares 3 clauses, found 1")

    @pytest.mark.parametrize("text, line", [
        ("p cnf -3 0\n", 1), ("c x\np cnf 2 -1\n", 2), ("\np cnf -1 -1\n1 0\n", 2),
    ], ids=["variables", "clauses", "both"])
    def test_negative_count(self, text, line):
        with pytest.raises(DimacsSyntaxError, match="negative count") as exc:
            parse_dimacs(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("text", ["p cnf 2\n", "p dnf 2 1\n1 0\n"],
                             ids=["no clause count", "dnf"])
    def test_bad_problem_line(self, text):
        with pytest.raises(DimacsSyntaxError, match="bad problem line") as exc:
            parse_dimacs(text)
        assert exc.value.line == 1

    def test_non_integer_counts(self):
        with pytest.raises(DimacsSyntaxError, match="non-integer counts") as exc:
            parse_dimacs("c x\np cnf x 1\n")
        assert exc.value.line == 2

    def test_last_clause_needs_no_terminating_zero(self):
        sat = parse_dimacs("p cnf 3 2\n1 -2 0\n3 -1\n")
        assert clause_set(sat) == [{1, -2}, {3, -1}]

    def test_second_problem_line(self):
        # the clause read after it was checked against the second line's count
        with pytest.raises(DimacsSyntaxError, match="second problem line") as exc:
            parse_dimacs("p cnf 3 0\np cnf 1 1\n1 0\n")
        assert exc.value.line == 2

    def test_percent_ends_the_formula(self):
        # SATLIB files end with '%' and a '0' that is no empty clause
        sat = parse_dimacs("c SATLIB\np cnf 3 2\n1 -2 3 0\n-1 2 0\n%\n0\n\n")
        assert clause_set(sat) == [{1, -2, 3}, {-1, 2}]
        assert not has_empty_clause(sat)

    def test_built_formula_names_the_clause(self):
        # a SatInstance built in code has no DIMACS lines to name
        with pytest.raises(OutOfRange, match="^clause 1: literal 2 out of range$"):
            SatInstance(1, (frozenset({2}),))
        with pytest.raises(OutOfRange, match="^clause 2: literal 0 out of range$"):
            SatInstance(1, (frozenset({1}), frozenset({0})))

    def test_format_round_trip(self):
        sat = SatInstance(3, (frozenset({1, -2}), frozenset({3})))
        assert clause_set(parse_dimacs(format_dimacs(sat))) == clause_set(sat)


class TestSatOracle:
    def test_hand_cases(self):
        assert naive_sat(1, (frozenset({1}),)) is True
        assert naive_sat(1, (frozenset({1}), frozenset({-1}))) is False
        assert naive_sat(2, (frozenset({1, 2}), frozenset({-1}), frozenset({-2}))) is False

    def test_empty_clause_is_unsat(self):
        assert naive_sat(2, (frozenset({1}), frozenset())) is False


class TestSatToSmp:
    def test_single_clause_over_s9_witness(self, s9):
        sat = SatInstance(1, (frozenset({1}),))
        out = sat_to_smp(sat, s9, S9_WITNESS)
        gens = out.instance.gens
        assert gens.n == 3  # n + 2k = 1 + 2
        assert out.roles == ("u", "v", "a1^0", "a1^1")
        one_based = [tuple(v + 1 for v in g) for g in gens.members]
        assert one_based == [(6, 6, 6), (4, 5, 5), (1, 2, 3), (3, 3, 2)]
        assert tuple(v + 1 for v in out.instance.target) == (8, 8, 8)

    def test_satisfying_product(self, s9):
        sat = SatInstance(1, (frozenset({1}),))
        out = sat_to_smp(sat, s9, S9_WITNESS)
        assert out.roles == ("u", "v", "a1^0", "a1^1")
        assert verify_word(out.instance.gens, [1, 4, 2], out.instance.target)  # u a1^1 v
        assert not verify_word(out.instance.gens, [1, 3, 2], out.instance.target)

    def test_membership_tracks_satisfiability_on_hand_cases(self):
        for clauses, expected in [
            ((frozenset({1}),), True),
            ((frozenset({1}), frozenset({-1})), False),
        ]:
            out = sat_to_smp(SatInstance(1, clauses))
            word = member_closure_word(out.instance.gens, out.instance.target)
            assert (word is not None) == expected

    def test_empty_clause_makes_target_unreachable(self):
        out = sat_to_smp(SatInstance(1, (frozenset({1}), frozenset())))
        assert member_closure_word(out.instance.gens, out.instance.target) is None

    def test_vacuous_formula(self):
        out = sat_to_smp(parse_dimacs("p cnf 0 0\n"))
        assert member_closure_word(out.instance.gens, out.instance.target) is not None
        word = assignment_to_word(out, [])
        assert verify_word(out.instance.gens, word, out.instance.target)
        assert word_to_assignment(out, word) == []

    def test_all_empty_clauses(self):
        out = sat_to_smp(parse_dimacs("p cnf 0 1\n0\n"))
        assert member_closure_word(out.instance.gens, out.instance.target) is None

    def test_default_band_is_the_synthesized_nine(self):
        out = sat_to_smp(SatInstance(1, (frozenset({1}),)))
        assert out.instance.band is construct_forbidden_band("T9")
        # u = (d, d, d), v = (xe, y, y), a1^0 = (h, x, e): the clause {1} lacks -1
        u, v, a10, _ = out.instance.gens.members
        assert u == (u[0],) * 3
        assert Witness(u[0], a10[2], a10[1], v[1], a10[0]) == canonical_forbidden_witness()

    def test_size_linearity(self):
        rng = random.Random(1)
        for _ in range(10):
            k = rng.randint(1, 5)
            n = rng.randint(1, 6)
            clauses = tuple(
                frozenset({rng.choice((-1, 1)) * v for v in
                           rng.sample(range(1, k + 1), rng.randint(1, k))})
                for _ in range(n)
            )
            sat = SatInstance(k, clauses)
            out = sat_to_smp(sat)
            k_used = len(sat.used_variables())
            assert out.instance.gens.n == n + 2 * k_used
            assert len(out.instance.gens.members) == 2 * k_used + 2

    def test_unused_variables_dropped_and_mapped(self):
        sat = SatInstance(3, (frozenset({3}),))
        out = sat_to_smp(sat)
        assert out.variable_map == {3: 1}
        assert out.sat.num_vars == 1
        assert out.instance.gens.n == 1 + 2

    def test_non_normalized_witness_rejected(self, s9):
        # a witness whose h is not an identity on the quintuple
        bad = Witness(d=5, e=2, x=1, y=4, h=1)
        with pytest.raises(NotAWitness):
            sat_to_smp(SatInstance(1, (frozenset({1}),)), s9, bad)

    def test_witness_that_is_not_normalized_rejected(self):
        # a witness of T9 x SL-chain(2) whose h is not an identity on d, e, x, y
        band = product_band(catalog("T9"), catalog("SL-chain(2)"))
        w = Witness(10, 4, 2, 9, 0)
        sat = SatInstance(1, (frozenset({1}),))
        with pytest.raises(NotAWitness, match="is not normalized"):
            sat_to_smp(sat, band, w)
        out = sat_to_smp(sat, band, normalize_witness(band, w))
        assert out.instance.gens.n == 3

    @pytest.mark.parametrize("name, labels", UNNORMALIZED)
    def test_catalog_witness_that_normalizing_moves_rejected(self, name, labels):
        # h is a two-sided identity on d, e, x, y here, but the words of the
        # forbidden band do not give a homomorphism at this witness
        band, w = catalog(name), from_labels(labels)
        sat = SatInstance(1, (frozenset({1}),))
        with pytest.raises(NotAWitness, match="is not normalized"):
            sat_to_smp(sat, band, w)
        assert normalize_witness(band, w) == S9_WITNESS
        assert sat_to_smp(sat, band, S9_WITNESS).instance.gens.n == 3

    def test_witness_without_band_is_checked_against_t9(self):
        sat = SatInstance(1, (frozenset({1}),))
        with pytest.raises(NotAWitness):
            sat_to_smp(sat, witness=Witness(0, 0, 0, 0, 0))
        assert sat_to_smp(sat, witness=canonical_forbidden_witness()) == sat_to_smp(sat)

    def test_band_without_witness_rejected(self):
        with pytest.raises(NotAWitness, match="witness must be supplied"):
            sat_to_smp(SatInstance(1, (frozenset({1}),)), catalog("T9"))

    def test_equivalence_with_sat_oracle_random(self):
        rng = random.Random(2)
        for _ in range(8):
            k = rng.randint(1, 4)
            clauses = tuple(
                frozenset({rng.choice((-1, 1)) * v for v in
                           rng.sample(range(1, k + 1), rng.randint(1, min(3, k)))})
                for _ in range(rng.randint(1, 4))
            )
            sat = SatInstance(k, clauses)
            out = sat_to_smp(sat)
            assert (member_closure_word(out.instance.gens, out.instance.target) is not None) == \
                naive_sat(k, clauses)


class TestOneNormalizedRule:
    """sat_to_smp and forbidden_subband accept and refuse the same witnesses."""

    def test_the_table_lists_every_such_witness(self):
        found = []
        for name in CATALOG_EXAMPLES:
            for band in (catalog(name), catalog(name).dual()):
                t = band.table
                for h in range(band.order):
                    fixed = [s for s in range(band.order) if t[h][s] == s == t[s][h]]
                    found += [(name, (d + 1, e + 1, x + 1, y + 1, h + 1))
                              for d, e, x, y in itertools.product(fixed, repeat=4)
                              if is_witness(band, Witness(d, e, x, y, h))]
        assert sorted(found) == sorted((name, labels) for name, labels, _ in CATALOG_WITNESSES)

    @pytest.mark.parametrize("name, labels, normalized", CATALOG_WITNESSES)
    def test_both_readers_agree(self, name, labels, normalized):
        band, w = catalog(name), from_labels(labels)
        sat = SatInstance(1, (frozenset({1}),))
        if normalized:
            assert sat_to_smp(sat, band, w).instance.gens.n == 3
            assert forbidden_subband(band, w)[0] == ("T9" if name == "S9" else name)
        else:
            for reader in (lambda: sat_to_smp(sat, band, w), lambda: forbidden_subband(band, w)):
                with pytest.raises(NotAWitness, match="is not normalized"):
                    reader()


class TestRoundTrips:
    def test_assignment_to_word_true(self):
        out = sat_to_smp(SatInstance(1, (frozenset({1}),)))
        word = assignment_to_word(out, [True])
        assert word == [1, 4, 2]  # u, a1^1, v
        assert verify_word(out.instance.gens, word, out.instance.target)

    def test_assignment_to_word_false_fails(self):
        out = sat_to_smp(SatInstance(1, (frozenset({1}),)))
        word = assignment_to_word(out, [False])
        assert not verify_word(out.instance.gens, word, out.instance.target)

    def test_assignment_of_the_wrong_length_rejected(self):
        out = sat_to_smp(SatInstance(2, (frozenset({1, 2}),)))
        with pytest.raises(NotAWitnessingWord, match="assignment length 1 != 2 variables"):
            assignment_to_word(out, [True])

    def test_word_to_assignment(self):
        out = sat_to_smp(SatInstance(1, (frozenset({1}),)))
        assert word_to_assignment(out, [1, 4, 2]) == [True]

    def test_idempotent_repetition(self):
        out = sat_to_smp(SatInstance(1, (frozenset({1}),)))
        assert word_to_assignment(out, [1, 4, 4, 2]) == [True]

    def test_extracted_assignment_checked(self, monkeypatch):
        # the word witnesses, but the formula is made to refuse every assignment
        out = sat_to_smp(SatInstance(1, (frozenset({1}),)))
        monkeypatch.setattr(SatInstance, "evaluate", lambda self, assignment: False)
        with pytest.raises(NotAWitnessingWord,
                           match="^extracted assignment does not satisfy the formula$"):
            word_to_assignment(out, [1, 4, 2])

    def test_non_witnessing_word_rejected(self):
        out = sat_to_smp(SatInstance(1, (frozenset({1}),)))
        with pytest.raises(NotAWitnessingWord):
            word_to_assignment(out, [1, 3, 2])

    def test_unmentioned_variables_default_false(self):
        # formula (x1 or x2) satisfied by x1 alone
        out = sat_to_smp(SatInstance(2, (frozenset({1, 2}),)))
        word = [1, out.roles.index("a1^1") + 1, out.roles.index("a2^0") + 1, 2]
        assert verify_word(out.instance.gens, word, out.instance.target)
        assert word_to_assignment(out, word) == [True, False]

    def test_round_trip_on_satisfiable_formulas(self):
        rng = random.Random(3)
        done = 0
        while done < 10:
            k = rng.randint(1, 4)
            clauses = tuple(
                frozenset({rng.choice((-1, 1)) * v for v in
                           rng.sample(range(1, k + 1), rng.randint(1, min(2, k)))})
                for _ in range(rng.randint(1, 3))
            )
            sat = SatInstance(k, clauses)
            if not naive_sat(k, clauses):
                continue
            done += 1
            out = sat_to_smp(sat)
            for values in itertools.product((False, True), repeat=out.sat.num_vars):
                if out.sat.evaluate(values):
                    word = assignment_to_word(out, list(values))
                    assert verify_word(out.instance.gens, word, out.instance.target)
                    back = word_to_assignment(out, word)
                    assert out.sat.evaluate(back)
                    break

    def test_control_block_forbids_conflicting_pairs(self):
        # every product of the canonical shape u (a-factors) v equal to the
        # target avoids using both a_j^0 and a_j^1; minimal decompositions
        # always have this shape since u and v absorb repeats
        out = sat_to_smp(SatInstance(2, (frozenset({1, 2}),)))
        gens = out.instance.gens
        band = out.instance.band
        a_indices = [i for i, r in enumerate(out.roles) if r.startswith("a")]
        u_idx, v_idx = out.roles.index("u"), out.roles.index("v")
        for length in range(0, 5):
            for picks in itertools.product(a_indices, repeat=length):
                seq = [u_idx, *picks, v_idx]
                prod = gens.members[seq[0]]
                for i in seq[1:]:
                    prod = mul_tuple(band, prod, gens.members[i])
                if prod == out.instance.target:
                    roles = {out.roles[i] for i in picks}
                    assert not ({"a1^0", "a1^1"} <= roles)
                    assert not ({"a2^0", "a2^1"} <= roles)

    def test_roles_follow_the_generator_layout(self):
        # a_j^z is generator 3 + (j - 1) + z*k, the rule the decoding reads
        out = sat_to_smp(SatInstance(3, (frozenset({1, -2}), frozenset({3}))))
        for j, z in itertools.product((1, 2, 3), (0, 1)):
            assert out.roles[3 + (j - 1) + z * 3 - 1] == f"a{j}^{z}"
        assert assignment_to_word(out, [True, False, True]) == [1, 6, 4, 8, 2]
        assert word_to_assignment(out, [1, 6, 4, 8, 2]) == [True, False, True]

    def test_roles_file_format(self):
        out = sat_to_smp(SatInstance(1, (frozenset({1}),)))
        assert format_roles(out) == "1 u\n2 v\n3 a1^0\n4 a1^1\n"


class TestDualOrientation:
    def test_reduction_into_the_dual_of_a_lambda_only_band(self, s9):
        # the dual of the 9-element table satisfies the plain scan but
        # fails the reversed one; the gadget then lives in its dual
        band = s9.dual()
        from bandsmp import classify

        cls = classify(band)
        assert cls.lambda_witness is None
        assert cls.lambda_dual_witness is not None
        gadget_band = band.dual()
        w = normalize_witness(gadget_band, cls.lambda_dual_witness)
        sat = SatInstance(1, (frozenset({1}), frozenset({-1})))
        out = sat_to_smp(sat, gadget_band, w)
        assert member_closure_word(out.instance.gens, out.instance.target) is None
