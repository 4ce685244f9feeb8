"""Quasiidentity checking, the tractability dichotomy, and forbidden bands.

The scanned condition: whenever d x y e = d e, h x = x, h e = e and
d <=_J e <=_J x, y, the conclusion d x e = d e must follow. A band where
some quintuple breaks the conclusion has NP-complete subpower membership;
a band where this and the reversed-word variant both hold is tractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

from .band import Band, find_embedding
from .errors import BudgetExceeded, NotAWitness, UnexpectedSize, UnknownName

DEFAULT_SCAN_ORDER_BOUND = 64

FORBIDDEN_CASES = ("T9", "T13a", "T13b", "T17")


@dataclass(frozen=True)
class Witness:
    """A quintuple (d, e, x, y, h) breaking the conclusion of the quasiidentity."""

    d: int
    e: int
    x: int
    y: int
    h: int

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.d, self.e, self.x, self.y, self.h)

    def labels(self) -> tuple[int, int, int, int, int]:
        """1-based labels for text output."""
        return tuple(v + 1 for v in self.as_tuple())

    def __str__(self) -> str:
        d, e, x, y, h = self.labels()
        return f"d={d} e={e} x={x} y={y} h={h}"


@dataclass(frozen=True)
class Classification:
    tractable: bool
    lambda_witness: Optional[Witness]
    lambda_dual_witness: Optional[Witness]

    @property
    def verdict(self) -> str:
        return "TRACTABLE" if self.tractable else "NP-COMPLETE"


def find_lambda_witness(
    band: Band, max_order: int = DEFAULT_SCAN_ORDER_BOUND
) -> Optional[Witness]:
    """Odometer-least witness quintuple against the quasiidentity, or None.

    The S^5 scan enumerates (d, e, x, y, h) with h varying fastest; the
    premise comparisons use both the cached J-preorder and the raw product
    forms (ded = d etc.), which must agree.
    """
    m = band.order
    if m > max_order:
        raise BudgetExceeded(
            f"order {m} exceeds the O(m^5) scan bound of {max_order}"
        )
    t = band.table
    leq_j = band.green.leq_j.tolist()  # Python bools: scalar lookups in the loop
    for d in range(m):
        td = t[d]
        for e in range(m):
            ded = t[td[e]][d]
            if (ded == d) != leq_j[d][e]:
                raise AssertionError("J-preorder cache disagrees with d e d = d")
            if ded != d:
                continue
            de = td[e]
            te = t[e]
            for x in range(m):
                exe = t[te[x]][e]
                if (exe == e) != leq_j[e][x]:
                    raise AssertionError("J-preorder cache disagrees with e x e = e")
                if exe != e:
                    continue
                dxe = t[td[x]][e]
                if dxe == de:
                    continue  # conclusion holds for every y, h
                dx = td[x]
                tdx = t[dx]
                for y in range(m):
                    if t[te[y]][e] != e:
                        continue
                    if t[tdx[y]][e] != de:
                        continue
                    for h in range(m):
                        if t[h][x] == x and t[h][e] == e:
                            return Witness(d, e, x, y, h)
    return None


def classify(band: Band, max_order: int = DEFAULT_SCAN_ORDER_BOUND) -> Classification:
    """Tractable iff both quasiidentity scans pass; memoized per Band.

    The reversed-word scan is the plain scan of the dual band. A band
    over the order bound falls through to the scan, which raises, so a
    memoized band answers as a fresh one would.
    """
    memo = getattr(band, "_classification", None)
    if memo is not None and band.order <= max_order:
        return memo
    w = find_lambda_witness(band, max_order)
    wd = find_lambda_witness(band.dual(), max_order)
    result = Classification(
        tractable=(w is None and wd is None),
        lambda_witness=w,
        lambda_dual_witness=wd,
    )
    band._classification = result
    return result


def is_witness(band: Band, w: Witness) -> bool:
    """Does (d,e,x,y,h) satisfy the premise but break the conclusion?"""
    t = band.table
    d, e, x, y, h = w.as_tuple()
    mul = band.prod
    premise = (
        mul([d, x, y, e]) == t[d][e]
        and t[h][x] == x
        and t[h][e] == e
        and mul([d, e, d]) == d
        and mul([e, x, e]) == e
        and mul([e, y, e]) == e
    )
    return premise and mul([d, x, e]) != t[d][e]


def normalize_witness(band: Band, w: Witness) -> Witness:
    """Rebase a witness so that h is a two-sided identity on {d, e, x, y}.

    Applies the substitutions d -> e x h d h, e -> e x h, x -> x h,
    y -> x y e x h, h -> h; the output is again a witness.
    """
    if not is_witness(band, w):
        raise NotAWitness(f"{w} does not witness failure of the quasiidentity")
    d, e, x, y, h = w.as_tuple()
    mul = band.prod
    out = Witness(
        d=mul([e, x, h, d, h]),
        e=mul([e, x, h]),
        x=mul([x, h]),
        y=mul([x, y, e, x, h]),
        h=h,
    )
    if not is_witness(band, out):
        raise AssertionError("normalization produced a non-witness; internal bug")
    return out


def generated_T(band: Band, w: Witness) -> frozenset[int]:
    """The subsemigroup generated by a normalized witness; size 9, 13 or 17."""
    sub = band.subsemigroup(w.as_tuple())
    if len(sub) not in (9, 13, 17):
        raise UnexpectedSize(len(sub))
    return sub


# -- synthesis of the four forbidden bands -------------------------------------

_TOP = ("h", "x", "e", "xe", "y")

_TOPMUL = {
    "h": {"h": "h", "x": "x", "e": "e", "xe": "xe", "y": "y"},
    "x": {"h": "x", "x": "x", "e": "xe", "xe": "xe", "y": "y"},
    "e": {"h": "e", "x": "e", "e": "e", "xe": "e", "y": "e"},
    "xe": {"h": "xe", "x": "xe", "e": "xe", "xe": "xe", "y": "xe"},
    "y": {"h": "y", "x": "y", "e": "y", "xe": "y", "y": "y"},
}

# left action of top elements on the abstract L-class rows {d, xd, yd}
_ROWACT = {
    "h": {"d": "d", "xd": "xd", "yd": "yd"},
    "x": {"d": "xd", "xd": "xd", "yd": "yd"},
    "y": {"d": "yd", "xd": "yd", "yd": "yd"},
    "e": {"d": "d", "xd": "d", "yd": "d"},
    "xe": {"d": "xd", "xd": "xd", "yd": "xd"},
}

_COLS = ("d", "dx", "de", "dxe")
# column c corresponds to d*g for this generator g
_COLGEN = {"d": "h", "dx": "x", "de": "e", "dxe": "xe"}
# column of d*u for each top element u (d*y = d*e)
_COLMAP = {"h": "d", "x": "dx", "e": "de", "xe": "dxe", "y": "de"}

# rows present and the quotient collapsing {d, xd, yd} onto them
_CASES = {
    "T9": (("d",), {"d": "d", "xd": "d", "yd": "d"}),
    "T13a": (("d", "yd"), {"d": "d", "xd": "d", "yd": "yd"}),
    "T13b": (("d", "xd"), {"d": "d", "xd": "xd", "yd": "xd"}),
    "T17": (("d", "xd", "yd"), {"d": "d", "xd": "xd", "yd": "yd"}),
}


@cache
def construct_forbidden_band(case: str) -> Band:
    """Synthesize one of the four minimal bands breaking the quasiidentity.

    Elements: the five-element top {h, x, e, xe, y} over a bottom J-class
    that is the rectangular band rows x columns, with columns
    {d, dx, de, dxe} and rows {d} / {d, yd} / {d, xd} / {d, xd, yd}
    depending on the case. The result passes band validation and fails
    the quasiidentity with canonical witness (d, e, x, y, h). Each band
    is built once per process and shared: a Band is immutable apart from
    its deterministic memo slots.
    """
    if case not in _CASES:
        raise UnknownName(f"unknown forbidden-band case {case!r}")
    rows, quot = _CASES[case]
    elems: list = list(_TOP)
    for r in rows:
        for c in _COLS:
            elems.append((r, c))
    index = {el: i for i, el in enumerate(elems)}
    m = len(elems)
    table = [[0] * m for _ in range(m)]
    for a in elems:
        for b in elems:
            if isinstance(a, str) and isinstance(b, str):
                res = _TOPMUL[a][b]
            elif isinstance(a, str):
                res = (quot[_ROWACT[a][b[0]]], b[1])
            elif isinstance(b, str):
                res = (a[0], _COLMAP[_TOPMUL[_COLGEN[a[1]]][b]])
            else:
                res = (a[0], b[1])
            table[index[a]][index[b]] = index[res]
    return Band(table, name=case)


def canonical_forbidden_witness() -> Witness:
    """The defining quintuple of every synthesized forbidden band."""
    return Witness(d=5, e=2, x=1, y=4, h=0)


# -- embedding cross-check ------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingReport:
    """Embeddings of each forbidden band into S and into dual(S)."""

    entries: tuple[tuple[str, str, Optional[tuple[int, ...]]], ...]

    @property
    def any_embedding(self) -> bool:
        return any(emb is not None for _, _, emb in self.entries)


def embeds_forbidden(band: Band, size_bound: int = 17) -> EmbeddingReport:
    """For each forbidden band and orientation, an embedding or None.

    The overall flag matches the quasiidentity scans: some forbidden band
    embeds into S iff the plain scan fails, and into S or dual(S) iff the
    band is not tractable.
    """
    entries = []
    duals = band.dual()
    for case in FORBIDDEN_CASES:
        small = construct_forbidden_band(case)
        for orientation, target in (("S", band), ("dual", duals)):
            emb = find_embedding(small, target, size_bound=size_bound)
            entries.append((case, orientation, emb))
    return EmbeddingReport(entries=tuple(entries))
