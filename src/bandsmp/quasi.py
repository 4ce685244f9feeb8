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

import numpy as np

from .band import Band, read_elements
from .errors import NotAWitness, UnknownName
from .power import _BLOCK_BYTES

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


def find_lambda_witness(band: Band) -> Optional[Witness]:
    """Odometer-least witness against the quasiidentity, or None; each Band is scanned once."""
    if band._lambda_scan is None:
        band._lambda_scan = (_scan(band),)
    return band._lambda_scan[0]


def _scan(band: Band) -> Optional[Witness]:
    """The least (d, e, x, y, h), h varying fastest, in O(m^3) time. Over
    blocks of e, the triples (d, e, x) with d <=_J e <=_J x, some h with
    h x = x and h e = e, and d x e != d e are candidates; a block with
    one builds reach[u, j, v], "some y with e_j <=_J y has u y e_j = v",
    and keeps the candidates with reach[d x, j, d e]. A block holds as
    many e as fit their m * m products in _BLOCK_BYTES, and at least one.
    The J-preorder cache must agree with d e d = d.
    """
    m = band.order
    t = band.itable
    idx = np.arange(m)
    leq_j = band.green.leq_j
    if not np.array_equal(leq_j, t[t, idx[:, None]] == idx[:, None]):
        raise AssertionError("J-preorder cache disagrees with d e d = d")
    fixes = (t == idx).astype(np.float32)  # fixes[h, x]: h x = x; float for BLAS, exact
    hok = fixes.T @ fixes > 0  # hok[x, e]: some h fixes x and e
    step = max(1, _BLOCK_BYTES // (m * m * t.itemsize))
    best = None
    for lo in range(0, m, step):
        es = slice(lo, lo + step)  # e_j = lo + j
        de = t[:, es]  # de[d, j] = d e_j
        uye = de.take(t, 0).transpose(0, 2, 1)  # uye[u, j, y] = u y e_j, and d x e_j at y = x
        up = leq_j[es]  # up[j, x]: e_j <=_J x
        cand = (uye != de[:, :, None]) & leq_j[:, es, None] & (up & hok[:, es].T)
        if not cand.any():
            continue
        reach = np.zeros((m, len(up), m + 1), bool)  # column m takes the y not above e_j
        reach[idx[:, None, None], idx[:len(up), None], np.where(up, uye, m)] = True
        d, j, x = np.nonzero(cand)
        ok = np.flatnonzero(reach[t[d, x], j, de[d, j]])
        if ok.size:
            k = ok[0]
            found = (int(d[k]), lo + int(j[k]), int(x[k]))
            if best is None or found < best:  # a later block can only win on d
                best = found
    if best is None:
        return None
    d, e, x = best
    y = np.flatnonzero(leq_j[e] & (t[t[t[d, x]], e] == t[d, e]))[0]
    h = np.flatnonzero((t[:, x] == x) & (t[:, e] == e))[0]
    return Witness(d, e, x, int(y), int(h))


def classify(band: Band) -> Classification:
    """Tractable iff both quasiidentity scans pass; each Band is scanned once.

    The reversed-word scan is the plain scan of the dual band, so a
    commutative band, its own dual, is scanned once for both.
    """
    w, wd = find_lambda_witness(band), find_lambda_witness(band.dual())
    return Classification(tractable=(w is None and wd is None), lambda_witness=w,
                          lambda_dual_witness=wd)


def is_witness(band: Band, w: Witness) -> bool:
    """Does (d,e,x,y,h) satisfy the premise but break the conclusion? A field
    that is not an element of band is a one-line OutOfRange."""
    d, e, x, y, h = read_elements(w.as_tuple(), band.order,
                                  lambda i: f"witness {'dexyh'[i]}:").tolist()
    mul = band.prod
    de = mul([d, e])
    premise = (
        mul([d, x, y, e]) == de
        and mul([h, x]) == x
        and mul([h, e]) == e
        and mul([d, e, d]) == d
        and mul([e, x, e]) == e
        and mul([e, y, e]) == e
    )
    return premise and mul([d, x, e]) != de


def normalize_witness(band: Band, w: Witness) -> Witness:
    """Rebase a witness so that h is a two-sided identity on {d, e, x, y}.

    Applies the substitutions d -> e x h d h, e -> e x h, x -> x h,
    y -> x y e x h, h -> h; the output is again a witness. A normalized
    witness is one this leaves as it is (require_normalized); the SAT
    gadget and forbidden_subband take only those.
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


def require_normalized(band: Band, w: Witness) -> None:
    """NotAWitness unless w is a witness that normalize_witness leaves as it is."""
    if normalize_witness(band, w) != w:  # a non-witness raises NotAWitness there
        raise NotAWitness(f"{w} is not normalized")


# -- synthesis of the four forbidden bands -------------------------------------

_TOP = ("h", "x", "e", "xe", "y")

_TOPMUL = {
    "h": {"h": "h", "x": "x", "e": "e", "xe": "xe", "y": "y"},
    "x": {"h": "x", "x": "x", "e": "xe", "xe": "xe", "y": "y"},
    "e": {"h": "e", "x": "e", "e": "e", "xe": "e", "y": "e"},
    "xe": {"h": "xe", "x": "xe", "e": "xe", "xe": "xe", "y": "xe"},
    "y": {"h": "y", "x": "y", "e": "y", "xe": "y", "y": "y"},
}

# the bottom J-class: rows t d and columns d g, named by t and by g
_ROWS = ("h", "x", "y")
_COLS = ("h", "x", "e", "xe")
# the row that each of d, x d, y d is in; the rows present are those
_CASES = {
    "T9": ("h", "h", "h"),
    "T13a": ("h", "h", "y"),
    "T13b": ("h", "x", "x"),
    "T17": ("h", "x", "y"),
}


def _elements(case: str) -> list:
    """The elements of a forbidden band in table order: the top h, x, e, xe,
    y, then each bottom (t, g) row by row, the element t d g."""
    if case not in _CASES:
        raise UnknownName(f"unknown forbidden-band case {case!r}")
    return [*_TOP, *((t, g) for t in _ROWS if t in _CASES[case] for g in _COLS)]


@cache
def construct_forbidden_band(case: str) -> Band:
    """Synthesize one of the four minimal bands breaking the quasiidentity.

    Elements: the top {h, x, e, xe, y} over a bottom J-class, the rectangular
    band of rows t d, t in {h} / {h, y} / {h, x} / {h, x, y} by case, and
    columns d g, g in {h, x, e, xe}; d is (h, h). The top multiplies by
    _TOPMUL and acts on rows and columns through it, as e d = d, xe d = x d
    and d y = d e. The result passes band validation and fails the
    quasiidentity with canonical witness (d, e, x, y, h). Each band is built
    once per process and shared: a Band is immutable apart from its
    deterministic memo slots.
    """
    elems = _elements(case)
    index = {el: i for i, el in enumerate(elems)}
    row = dict(zip(_ROWS, _CASES[case]))  # the row of u d for each top u
    row.update(e=row["h"], xe=row["x"])

    def mul(a, b):
        if isinstance(a, str):
            return _TOPMUL[a][b] if isinstance(b, str) else (row[_TOPMUL[a][b[0]]], b[1])
        if isinstance(b, str):
            g = _TOPMUL[a[1]][b]
            return (a[0], "e" if g == "y" else g)
        return (a[0], b[1])

    return Band([[index[mul(a, b)] for b in elems] for a in elems], name=case)


def canonical_forbidden_witness() -> Witness:
    """The defining quintuple of every synthesized forbidden band."""
    return Witness(d=5, e=2, x=1, y=4, h=0)


# -- the forbidden band a witness generates --------------------------------------

def forbidden_subband(band: Band, w: Witness) -> tuple[str, tuple[int, ...]]:
    """(case, image) for a normalized witness, one that normalize_witness
    leaves as it is: the forbidden band that w generates, with image[i] the
    value at w of the word of element i of construct_forbidden_band(case).
    The case is the one whose quotient of the rows d, xd, yd is the one
    their values at w make."""
    require_normalized(band, w)
    at = dict(zip("dexyh", w.as_tuple()))

    def value(word: str) -> int:
        return band.prod(at[letter] for letter in word)

    rows = [value(t + "d") for t in _ROWS]
    quot = tuple(_ROWS[rows.index(v)] for v in rows)
    case = {q: c for c, q in _CASES.items()}[quot]
    image = tuple(value(el if isinstance(el, str) else "d".join(el)) for el in _elements(case))
    small, img = construct_forbidden_band(case), np.array(image)
    if len(set(image)) < small.order or (img[small.itable] != band.itable[img[:, None], img]).any():
        raise AssertionError(f"{w} does not generate {case} by its words; internal bug")
    return case, image


@dataclass(frozen=True)
class EmbeddingReport:
    """(case, orientation, image) from forbidden_subband, in S or its dual."""

    entries: tuple[tuple[str, str, tuple[int, ...]], ...]

    @property
    def any_embedding(self) -> bool:
        return bool(self.entries)


def normalized_witnesses(band: Band) -> list[tuple[str, Band, Witness]]:
    """(orientation, S or dual(S), the normalized witness of its own scan) for
    each of "S" and "dual" whose scan fails."""
    return [(orientation, target, normalize_witness(target, w))
            for orientation, target in (("S", band), ("dual", band.dual()))
            for w in [find_lambda_witness(target)] if w is not None]


def embeds_forbidden(band: Band) -> EmbeddingReport:
    """An entry for each orientation whose scan fails, so there is one iff
    the band is not tractable."""
    return EmbeddingReport(entries=tuple(
        (case, orientation, image) for orientation, target, w in normalized_witnesses(band)
        for case, image in [forbidden_subband(target, w)]))
