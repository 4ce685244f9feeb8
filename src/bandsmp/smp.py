"""The polynomial-time decision procedures for subpower membership.

Three layers: an infix solver (find y in <A> with d y e = c), a suffix
solver built on it (find x in <A> with x L b componentwise), and the
top-level decision: b is a member iff both a suffix and, on the dual
band, a "prefix" exist. Completeness of the first two needs the band to
pass the quasiidentity scan; returned solutions are always re-verified,
so even forced runs on failing bands never return a wrong "member".

The solvers work on one (k, n) intp generator array. Each test of the
generators asks which ones match an (n, m) boolean mask M (M[i, a_i] for
every i): "x <=_J a" is leq_j[x], the infix hit test leq_j[y] & (d y v e = c).
Per generator, a counter keeps how many coordinates fail the last mask and
recounts only the mask rows that changed, as a step changes x and y in few
coordinates. The counts are exact and each choice is still the first in
generator order, so the steps are those of the coordinate-by-coordinate rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .band import Band
from .errors import (
    EmptyWord,
    IndexOutOfRange,
    LambdaNotSatisfied,
    NotTractable,
    PreconditionViolated,
)
from .power import (
    _BLOCK_BYTES,
    _fold,
    DEFAULT_CAP,
    ElementTuple,
    GenSet,
    SmpInstance,
    leq_cw,
    member_closure_word,
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
        c, d, e = map(self.gens.row, (self.c, self.d, self.e))
        if not (leq_cw(leq_j, c, d) and leq_cw(leq_j, d, c)):
            raise PreconditionViolated("c J d componentwise")
        if not leq_cw(leq_j, d, e):
            raise PreconditionViolated("d <=_J e componentwise")
        if not leq_cw(leq_j, e, self.gens.rows).all():
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


def _tuple(row: Optional[np.ndarray]) -> Optional[ElementTuple]:
    return None if row is None else tuple(row.tolist())


class _Misses:
    """Per generator g, how many coordinates i fail mask[i, A[g, i]]. Only rows
    that differ from the last mask are recounted: finding them costs O(n m),
    the update O(k |changed|)."""

    def __init__(self, A: np.ndarray):
        self.A = A
        self.mask = None

    def matches(self, mask: np.ndarray) -> np.ndarray:
        """The generators that match mask, as a boolean k-vector."""
        if self.mask is None:
            self.count = len(mask) - mask[np.arange(len(mask)), self.A].sum(1)
        else:
            # +1 where a cell went from true to false, -1 the other way
            delta = self.mask.view(np.int8) - mask.view(np.int8)
            rows = delta.any(1).nonzero()[0]
            if len(rows):
                self.count += delta[rows, self.A[:, rows]].sum(1)
        self.mask = mask
        return self.count == 0


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
    c, d, e = map(inst.gens.row, (inst.c, inst.d, inst.e))
    A = inst.gens.rows
    return _tuple(_cp_infix_core(inst.band, A, np.ones(len(A), bool), c, d, e, stats,
                                 _Misses(A)))


def _cp_infix_core(band: Band, A: np.ndarray, sub: np.ndarray, c: np.ndarray, d: np.ndarray,
                   e: np.ndarray, stats: Optional[LoopStats], hits: _Misses
                   ) -> Optional[np.ndarray]:
    """The infix search over the rows a of A with e <=_J a, which the boolean
    k-vector sub picks, and intp n-vectors c, d, e meeting CpInfixInstance's
    preconditions. y in <sub> has e <=_J y, so hits (the misses of the hit
    test, shareable between calls) can only match rows in sub."""
    t, m = band.itable, band.order
    leq_j = band.green.leq_j
    bound = len(c) * (band.green.height - 1)
    c_col, e_col = c[:, None], e[:, None]

    for g in sub.nonzero()[0]:
        y, s = A[g], None
        body_count = 0
        while True:
            dy = t[d, y]
            # solves[i, v] is (dy_i v) e_i = c_i; take beats indexing here
            solves = t.take(t.take(dy, 0) * m + e_col) == c_col
            hit = hits.matches(leq_j.take(y, 0) & solves)
            first = hit.argmax()
            if hit[first]:
                if stats is not None:
                    stats.record_infix_pass(body_count)
                result = t[y, A[first]]
                if (t[t[d, result], e] != c).any():
                    raise AssertionError("infix solver returned an unverified solution")
                return result
            if s is None:
                # s >=_J e with d a0 s e = c: fits[i, v] says v will do as s_i,
                # and s_i is the least such v. A hit a at y = a0 would do as s,
                # since e <=_J a, so s is needed only after a miss there.
                fits = leq_j.take(e, 0) & solves
                if not fits.any(1).all():
                    break  # abandon this a0, resume the outer loop
                s = t[A[g], fits.argmax(1)]
            above = leq_cw(leq_j, y, A)
            pair = _first_pair(t, dy, A[above], A[sub > above], s, c, e)
            if pair is None:
                break  # abandon this a0, resume the outer loop
            y = t[t[y, pair[0]], pair[1]]
            body_count += 1
            if body_count > bound:
                raise AssertionError(
                    f"infix inner loop exceeded the n(h-1) bound of {bound}"
                )
        if stats is not None:
            stats.record_infix_pass(body_count)
    return None


def _first_pair(t, dy, A2, A3, s, c, e) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The first (a2, a3) in A2 x A3, in row-major order, with d y a2 a3 s e = c.

    Blocks of A2's rows are multiplied by all of A3 at once, at most
    _BLOCK_BYTES of products per block.
    """
    q, n = A3.shape
    step = max(1, _BLOCK_BYTES // max(1, q * n * t.itemsize))
    for lo in range(0, len(A2), step):
        block = t[t[dy, A2[lo:lo + step]][:, None, :], A3]
        match = (t[t[block, s], e] == c).all(2)
        if match.any():
            i, j = divmod(int(match.argmax()), q)
            return A2[lo + i], A3[j]
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
    return _tuple(_cp_suffix_core(gens.band, gens.rows, gens.row(b), stats))


def _cp_suffix_core(band: Band, A: np.ndarray, b: np.ndarray,
                    stats: Optional[LoopStats]) -> Optional[np.ndarray]:
    """The suffix loop over a (k, n) generator array and an intp n-vector.

    Every step keeps b x = b: the infix solution gives (b a) y x = b.
    Hence b a J b and b a <=_J x, and x <=_J a' for every a' in A_x, so
    each infix instance meets its preconditions without a check.
    """
    t = band.itable
    green = band.green
    bound = len(b) * (green.height - 1)

    fixes = leq_cw(green.leq_l, b, A).nonzero()[0]  # the a with b a = b
    if not len(fixes):
        return None
    x = A[fixes[0]]

    above_b = None
    iterations = 0
    while not green.eq_l[x, b].all():
        if above_b is None:  # the first step makes the miss counters
            above_b, above, hits = leq_cw(green.leq_j, b, A), _Misses(A), _Misses(A)
        above_x = above.matches(green.leq_j.take(x, 0))
        for g in (above_b > above_x).nonzero()[0]:
            a = A[g]
            y = _cp_infix_core(band, A, above_x, b, t[b, a], x, stats, hits)
            if y is not None:
                break
        else:
            if stats is not None:
                stats.record_suffix_call(iterations)
            return None
        x = t[t[a, y], x]
        iterations += 1
        if iterations > bound:
            raise AssertionError(
                f"suffix while loop exceeded the n(h-1) bound of {bound}"
            )
    if stats is not None:
        stats.record_suffix_call(iterations)
    if not leq_cw(green.leq_l, b, x):
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
    A, b = inst.gens.rows, inst.row
    x = _cp_suffix_core(band, A, b, stats)
    if x is None:
        return False
    y = _cp_suffix_core(band.dual(), A, b, stats)
    if y is None:
        return False
    if (band.itable[y, x] != b).any():
        raise AssertionError("x L b and y R b should force b = y x")
    if stats is not None:
        stats.witness_pair = (_tuple(x), _tuple(y))
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
    """Evaluate a 1-based generator-index word over the generator rows and compare with b."""
    if not word:
        raise EmptyWord("a witnessing word must be nonempty")
    k = len(gens)
    for i in word:
        if not 1 <= i <= k:
            raise IndexOutOfRange(f"generator index {i} outside 1..{k}")
    return _fold(gens.band.itable, gens.rows, [i - 1 for i in word]).tolist() == list(b)
