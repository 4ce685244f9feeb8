"""The polynomial-time decision procedures for subpower membership.

Three layers: an infix solver (find y in <A> with d y e = c), a suffix
solver built on it (find x in <A> with x L b componentwise), and the
top-level decision: b is a member iff both a suffix and, on the dual
band, a "prefix" exist. Completeness of the first two needs the band to
pass the quasiidentity scan; returned solutions are always re-verified,
so even forced runs on failing bands never return a wrong "member".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .band import Band
from .errors import (
    EmptyWord,
    IndexOutOfRange,
    LambdaNotSatisfied,
    NotTractable,
    PreconditionViolated,
)
from .power import (
    DEFAULT_CAP,
    ElementTuple,
    GenSet,
    SmpInstance,
    leq_cw,
    member_closure_word,
    mul_tuple,
    prod_tuples,
)
from .quasi import classify


@dataclass
class LoopStats:
    """Loop counters exposed for the n*(h-1) bound checks.

    infix_pass_max: most inner-body executions in any single outer pass
    of the infix solver; suffix_call_max: most x-updates in any single
    suffix-solver call.
    """

    bound: int = 0
    infix_pass_max: int = 0
    suffix_call_max: int = 0
    witness_pair: Optional[tuple[ElementTuple, ElementTuple]] = None

    def record_infix_pass(self, count: int) -> None:
        self.infix_pass_max = max(self.infix_pass_max, count)

    def record_suffix_call(self, count: int) -> None:
        self.suffix_call_max = max(self.suffix_call_max, count)


@dataclass(frozen=True)
class CpInfixInstance:
    """Input of the infix problem: c J d, d <=_J e, and e <=_J a for a in A."""

    c: ElementTuple
    d: ElementTuple
    e: ElementTuple
    gens: GenSet

    def __post_init__(self):
        leq_j = self.gens.band.green.leq_j
        n = self.gens.n
        for label, t in (("c", self.c), ("d", self.d), ("e", self.e)):
            if len(t) != n:
                raise PreconditionViolated(f"{label} has arity {len(t)}, expected {n}")
        if not (leq_cw(leq_j, self.c, self.d) and leq_cw(leq_j, self.d, self.c)):
            raise PreconditionViolated("c J d componentwise")
        if not leq_cw(leq_j, self.d, self.e):
            raise PreconditionViolated("d <=_J e componentwise")
        for a in self.gens:
            if not leq_cw(leq_j, self.e, a):
                raise PreconditionViolated("e <=_J a componentwise for every a in A")

    @property
    def band(self) -> Band:
        return self.gens.band


def _require_lambda(band: Band, force: bool) -> None:
    if force:
        return
    if classify(band).lambda_witness is not None:
        raise LambdaNotSatisfied(
            "band fails the quasiidentity scan; pass force=True for a sound-only run"
        )


def cp_infix(
    inst: CpInfixInstance,
    force: bool = False,
    stats: Optional[LoopStats] = None,
) -> Optional[ElementTuple]:
    """Find y in <A> with d y e = c, or None.

    Complete when the band passes the quasiidentity scan; any returned
    solution is re-verified before returning, so non-None answers are
    sound unconditionally.
    """
    _require_lambda(inst.band, force)
    return _cp_infix_core(inst.band, inst.gens.members, inst.c, inst.d, inst.e, stats)


def _cp_infix_core(
    band: Band,
    A: tuple[ElementTuple, ...],
    c: ElementTuple,
    d: ElementTuple,
    e: ElementTuple,
    stats: Optional[LoopStats],
) -> Optional[ElementTuple]:
    """The infix search on raw tuples; callers guarantee the preconditions
    that CpInfixInstance checks."""
    t = band.table
    leq_j = band.green.leq_j
    n = len(c)
    m = band.order
    bound = n * (band.height() - 1)

    for a0 in A:
        # componentwise search for s with s >=_J e and d a0 s e = c
        da0 = mul_tuple(band, d, a0)
        s_coords: list[int] = []
        for i in range(n):
            row = t[da0[i]]
            ei, ci = e[i], c[i]
            for cand in range(m):
                if leq_j[ei][cand] and t[row[cand]][ei] == ci:
                    s_coords.append(cand)
                    break
            else:
                break
        if len(s_coords) < n:
            continue
        s = mul_tuple(band, a0, tuple(s_coords))
        y = a0
        body_count = 0
        while True:
            dy = mul_tuple(band, d, y)
            for a1 in A:
                if leq_cw(leq_j, y, a1) and \
                        mul_tuple(band, mul_tuple(band, dy, a1), e) == c:
                    if stats is not None:
                        stats.record_infix_pass(body_count)
                    result = mul_tuple(band, y, a1)
                    if mul_tuple(band, mul_tuple(band, d, result), e) != c:
                        raise AssertionError("infix solver returned an unverified solution")
                    return result
            pair = None
            for a2 in A:
                if not leq_cw(leq_j, y, a2):
                    continue
                dya2 = mul_tuple(band, dy, a2)
                for a3 in A:
                    if leq_cw(leq_j, y, a3):
                        continue
                    prod = mul_tuple(band, mul_tuple(band, mul_tuple(band, dya2, a3), s), e)
                    if prod == c:
                        pair = (a2, a3)
                        break
                if pair is not None:
                    break
            if pair is None:
                break  # abandon this a0, resume the outer loop
            y = mul_tuple(band, mul_tuple(band, y, pair[0]), pair[1])
            body_count += 1
            if body_count > bound:
                raise AssertionError(
                    f"infix inner loop exceeded the n(h-1) bound of {bound}"
                )
        if stats is not None:
            stats.record_infix_pass(body_count)
    return None


def cp_suffix(
    gens: GenSet,
    b: ElementTuple,
    force: bool = False,
    stats: Optional[LoopStats] = None,
) -> Optional[ElementTuple]:
    """Find x in <A> with x L b componentwise, or None.

    Each refinement step solves at most |A| infix instances over the
    generators lying J-above the current x.
    """
    _require_lambda(gens.band, force)
    return _cp_suffix_core(gens.band, gens.members, b, stats)


def _cp_suffix_core(
    band: Band,
    A: tuple[ElementTuple, ...],
    b: ElementTuple,
    stats: Optional[LoopStats],
) -> Optional[ElementTuple]:
    """The suffix loop on raw tuples.

    Every step keeps b x = b: the infix solution gives (b a) y x = b.
    Hence b a J b and b a <=_J x, and x <=_J a' for every a' in A_x, so
    each infix instance meets its preconditions without a check.
    """
    leq_l = band.green.leq_l
    leq_j = band.green.leq_j
    bound = len(b) * (band.height() - 1)

    for x in A:
        if mul_tuple(band, b, x) == b:
            break
    else:
        return None

    iterations = 0
    while not (leq_cw(leq_l, x, b) and leq_cw(leq_l, b, x)):
        a_x = tuple(ap for ap in A if leq_cw(leq_j, x, ap))
        for a in A:
            if not leq_cw(leq_j, b, a) or leq_cw(leq_j, x, a):
                continue
            y = _cp_infix_core(band, a_x, b, mul_tuple(band, b, a), x, stats)
            if y is not None:
                break
        else:
            if stats is not None:
                stats.record_suffix_call(iterations)
            return None
        x = mul_tuple(band, mul_tuple(band, a, y), x)
        iterations += 1
        if iterations > bound:
            raise AssertionError(
                f"suffix while loop exceeded the n(h-1) bound of {bound}"
            )
    if stats is not None:
        stats.record_suffix_call(iterations)
    if mul_tuple(band, b, x) != b:
        raise AssertionError("suffix solver returned an unverified solution")
    return x


def smp_decide_poly(
    inst: SmpInstance,
    force: bool = False,
    stats: Optional[LoopStats] = None,
) -> bool:
    """Membership via the suffix solver on the band and on its dual.

    b is in <A> iff some x in <A> is L-related to b and some y is
    R-related to b; then b = y x. Requires a tractable band unless forced.
    """
    band = inst.band
    if not force and not classify(band).tractable:
        raise NotTractable(
            "band fails a quasiidentity scan; pass force=True for a sound-only run"
        )
    if stats is not None:
        stats.bound = inst.gens.n * (band.height() - 1)
    x = _cp_suffix_core(band, inst.gens.members, inst.target, stats)
    if x is None:
        return False
    y = _cp_suffix_core(band.dual(), inst.gens.members, inst.target, stats)
    if y is None:
        return False
    if mul_tuple(band, y, x) != inst.target:
        raise AssertionError("x L b and y R b should force b = y x")
    if stats is not None:
        stats.witness_pair = (x, y)
    return True


@dataclass(frozen=True)
class AutoResult:
    member: bool
    method: str  # "poly" or "closure"
    word: Optional[list[int]] = None  # closure-path witness word, 1-based


def smp_decide_auto(
    inst: SmpInstance,
    cap: int = DEFAULT_CAP,
    stats: Optional[LoopStats] = None,
) -> AutoResult:
    """Dispatch on the dichotomy: polynomial algorithm when the band is
    tractable, closure oracle (with cap) otherwise."""
    if classify(inst.band).tractable:
        return AutoResult(member=smp_decide_poly(inst, stats=stats), method="poly")
    word = member_closure_word(inst.gens, inst.target, cap=cap)
    return AutoResult(member=word is not None, method="closure", word=word)


def verify_word(gens: GenSet, word: Sequence[int], b: ElementTuple) -> bool:
    """Evaluate a 1-based generator-index word and compare with b."""
    if not word:
        raise EmptyWord("a witnessing word must be nonempty")
    members = gens.members
    k = len(members)
    for i in word:
        if not 1 <= i <= k:
            raise IndexOutOfRange(f"generator index {i} outside 1..{k}")
    return prod_tuples(gens.band, [members[i - 1] for i in word]) == b
