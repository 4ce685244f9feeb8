"""Finite bands given by multiplication tables, with cached Green structure.

Elements are 0-based ints internally; all text I/O (band files, error
messages, CLI output) uses 1-based labels so tables can be compared
against printed references line by line.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    NotAssociative,
    NotIdempotent,
    OutOfRange,
    SizeBoundExceeded,
    UnknownName,
    parsing,
)
from .power import _bfs

Table = Sequence[Sequence[int]]


@dataclass(frozen=True)
class GreenCache:
    """Precomputed L/R/J preorders, J-partition, and J-quotient height."""

    leq_l: tuple[tuple[bool, ...], ...]
    leq_r: tuple[tuple[bool, ...], ...]
    leq_j: tuple[tuple[bool, ...], ...]
    j_class_of: tuple[int, ...]
    j_classes: tuple[tuple[int, ...], ...]
    height: int


class Band:
    """An idempotent semigroup on {0, ..., m-1} with table[a][b] = a*b.

    Construction validates idempotence and associativity and eagerly
    computes the Green caches; instances are immutable afterwards and
    safe for unrestricted concurrent reads.
    """

    def __init__(self, table: Table, name: Optional[str] = None):
        rows = [tuple(int(v) for v in row) for row in table]
        m = len(rows)
        if m == 0:
            raise OutOfRange("a band must have at least one element")
        for a, row in enumerate(rows):
            if len(row) != m:
                raise OutOfRange(f"row {a + 1} has {len(row)} entries, expected {m}")
            for b, v in enumerate(row):
                if not 0 <= v < m:
                    raise OutOfRange(
                        f"entry at ({a + 1},{b + 1}) is {v + 1}, outside 1..{m}"
                    )
        self.order = m
        self.table = tuple(rows)
        # the same table as the smallest unsigned numpy dtype that holds m - 1
        self.array = np.array(rows, dtype=np.min_scalar_type(m - 1))
        self.name = name
        self._validate_axioms()
        self.green = self._compute_green()
        self._dual: Optional[Band] = None
        self._classification = None  # memo slot used by bandsmp.quasi.classify

    # -- construction helpers ------------------------------------------------

    def _validate_axioms(self) -> None:
        t = self.array.astype(np.intp)  # index arrays: intp saves a cast per lookup
        m = self.order
        idx = np.arange(m)
        diag = t[idx, idx]
        bad = np.nonzero(diag != idx)[0]
        if bad.size:
            raise NotIdempotent(int(bad[0]))
        # (a*b)*c vs a*(b*c); chunk over a to keep memory at O(m^2) per step
        for a in range(m):
            lhs = t[t[a], :]
            rhs = t[a][t]
            if not np.array_equal(lhs, rhs):
                b, c = map(int, np.argwhere(lhs != rhs)[0])
                raise NotAssociative(a, b, c)

    def _compute_green(self) -> GreenCache:
        t = self.array.astype(np.intp)
        m = self.order
        col = np.arange(m)[:, None]
        leq_l = t == col            # a*b == a
        leq_r = t.T == col          # b*a == a
        leq_j = t[t, col] == col    # a*b*a == a
        eq_j = leq_j & leq_j.T
        j_class_of = [-1] * m
        classes: list[tuple[int, ...]] = []
        for a in range(m):
            if j_class_of[a] >= 0:
                continue
            members = tuple(int(b) for b in np.nonzero(eq_j[a])[0])
            for b in members:
                j_class_of[b] = len(classes)
            classes.append(members)
        reps = [cls[0] for cls in classes]

        @lru_cache(maxsize=None)
        def chain_below(i: int) -> int:
            best = 1
            for j, r in enumerate(reps):
                if j != i and leq_j[r, reps[i]] and not leq_j[reps[i], r]:
                    best = max(best, 1 + chain_below(j))
            return best

        height = max(chain_below(i) for i in range(len(reps)))
        to_tuple = lambda mat: tuple(tuple(bool(v) for v in row) for row in mat)
        return GreenCache(
            leq_l=to_tuple(leq_l),
            leq_r=to_tuple(leq_r),
            leq_j=to_tuple(leq_j),
            j_class_of=tuple(j_class_of),
            j_classes=tuple(classes),
            height=height,
        )

    # -- basic operations ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def prod(self, elems: Iterable[int]) -> int:
        it = iter(elems)
        try:
            acc = next(it)
        except StopIteration:
            raise ValueError("product of an empty element sequence") from None
        t = self.table
        for x in it:
            acc = t[acc][x]
        return acc

    def leq(self, rel: str, a: int, b: int) -> bool:
        """Preorder query: rel is 'L', 'R', or 'J' (a <= b in that preorder)."""
        if rel == "L":
            return self.green.leq_l[a][b]
        if rel == "R":
            return self.green.leq_r[a][b]
        if rel == "J":
            return self.green.leq_j[a][b]
        raise ValueError(f"unknown preorder {rel!r}; expected 'L', 'R' or 'J'")

    def height(self) -> int:
        """Number of classes in the longest <=_J chain of the semilattice S/J."""
        return self.green.height

    def dual(self) -> "Band":
        """The band on the same carrier with reversed multiplication."""
        if self._dual is None:
            transposed = tuple(zip(*self.table))
            d = Band(transposed, name=f"dual({self.name})" if self.name else None)
            d._dual = self
            self._dual = d
        return self._dual

    def adjoin_identity(self) -> "Band":
        m = self.order
        rows = [list(row) + [a] for a, row in enumerate(self.table)]
        rows.append(list(range(m + 1)))
        return Band(rows, name=f"{self.name}^1" if self.name else None)

    def subsemigroup(self, gens: Iterable[int]) -> frozenset[int]:
        """Closure of gens under the product; <()> is empty."""
        gens = set(gens)
        for g in gens:
            if not 0 <= g < self.order:
                raise OutOfRange(f"element {g + 1} outside 1..{self.order}")
        found = _bfs(self, [(g,) for g in gens], 1, self.order, None)
        return frozenset(found.rows(1)[:, 0].tolist())

    # -- text formats ----------------------------------------------------------

    def to_text(self) -> str:
        lines = [str(self.order)]
        for row in self.table:
            lines.append(" ".join(str(v + 1) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        table = [[v + 1 for v in row] for row in self.table]
        return json.dumps({"order": self.order, "table": table})

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Band) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        label = self.name or "band"
        return f"<Band {label} of order {self.order}>"


# -- band file format --------------------------------------------------------

def parse_band_text(text: str, name: Optional[str] = None) -> Band:
    """Parse the band text format (or its JSON equivalent, 1-based labels)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        with parsing("JSON band"):
            obj = json.loads(stripped)
            m = int(obj["order"])
            rows = [[int(v) - 1 for v in row] for row in obj["table"]]
        if len(rows) != m:
            raise OutOfRange(f"JSON band declares order {m} but has {len(rows)} rows")
        return Band(rows, name=name)
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise OutOfRange("empty band file")
    with parsing("band"):
        m = int(lines[0])
        if len(lines) != m + 1:
            raise OutOfRange(f"band file declares order {m} but has {len(lines) - 1} rows")
        rows = [[int(v) - 1 for v in ln.split()] for ln in lines[1:]]
    return Band(rows, name=name)


def load_band(path: str) -> Band:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_band_text(fh.read(), name=path)


# -- embedding search ----------------------------------------------------------

DEFAULT_EMBED_BOUND = 17


def find_embedding(
    small: Band, big: Band, size_bound: int = DEFAULT_EMBED_BOUND
) -> Optional[tuple[int, ...]]:
    """Search for an injective homomorphism small -> big.

    Returns the image tuple (indexed by small's elements) or None.
    Candidate images are pruned by J/L/R-class size compatibility and by
    pairwise preorder agreement with already-chosen generator images,
    then verified by extending to the generated subsemigroup.
    """
    if small.order > size_bound:
        raise SizeBoundExceeded(
            f"small band has order {small.order}, bound is {size_bound}"
        )
    if small.order > big.order:
        return None

    # a generating sequence, each element outside the closure of those before
    # it, with the closure of every prefix; the BFS links define each
    # non-generator element as a product (parent, generator)
    gens: list[int] = []
    levels = []
    closed: set[int] = set()
    for a in range(small.order):
        if a not in closed:
            gens.append(a)
            found = _bfs(small, [(g,) for g in gens], 1, small.order, None)
            elems = found.rows(1)[:, 0].tolist()
            parent, gen = found.links()
            levels.append((elems, parent.tolist(), gen.tolist()))
            closed = set(elems)

    def class_sizes(band: Band, a: int) -> tuple[int, int, int]:
        gl = sum(1 for b in range(band.order)
                 if band.green.leq_l[a][b] and band.green.leq_l[b][a])
        gr = sum(1 for b in range(band.order)
                 if band.green.leq_r[a][b] and band.green.leq_r[b][a])
        gj = len(band.green.j_classes[band.green.j_class_of[a]])
        return gl, gr, gj

    small_sizes = {g: class_sizes(small, g) for g in gens}
    big_sizes = [class_sizes(big, c) for c in range(big.order)]

    images: dict[int, int] = {}

    def extend(level: int) -> Optional[dict[int, int]]:
        """Compute images for the level closure, or None on conflict."""
        elems, parent, gen = levels[level]
        img = dict(images)
        for j, a in enumerate(elems):
            if a in img:
                continue
            img[a] = big.table[img[elems[parent[j]]]][img[gens[gen[j]]]]
        # homomorphism and injectivity over the partial subsemigroup
        if len(set(img[a] for a in elems)) != len(elems):
            return None
        for u in elems:
            gu = img[u]
            for v in elems:
                w = small.table[u][v]
                if big.table[gu][img[v]] != img[w]:
                    return None
        return img

    def search(t: int) -> Optional[dict[int, int]]:
        nonlocal images
        if t == len(gens):
            return dict(images)
        g = gens[t]
        sl, sr, sj = small_sizes[g]
        used = set(images.values())
        for c in range(big.order):
            if c in used:
                continue
            bl, br, bj = big_sizes[c]
            if bl < sl or br < sr or bj < sj:
                continue
            ok = True
            for gp in gens[:t]:
                ip = images[gp]
                for rel in ("L", "R", "J"):
                    if small.leq(rel, g, gp) != big.leq(rel, c, ip) or \
                       small.leq(rel, gp, g) != big.leq(rel, ip, c):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            images[g] = c
            partial = extend(t)
            if partial is not None:
                saved = images
                images = {k: partial[k] for k in partial}
                result = search(t + 1)
                images = saved
                if result is not None:
                    return result
            del images[g]
        return None

    found = search(0)
    if found is None:
        return None
    return tuple(found[a] for a in range(small.order))


# -- catalog -------------------------------------------------------------------

_S9_ROWS = """
1 2 3 4 5 6 7 8 9
2 2 4 4 5 6 7 8 9
3 3 3 3 3 6 7 8 9
4 4 4 4 4 6 7 8 9
5 5 5 5 5 6 7 8 9
6 7 8 9 8 6 7 8 9
7 7 9 9 8 6 7 8 9
8 8 8 8 8 6 7 8 9
9 9 9 9 9 6 7 8 9
"""

_S10_ROWS = """
1 2 3 4 5 6 7 8 9 10
2 2 4 4 5 6 7 8 9 10
3 3 3 3 3 6 7 8 9 10
4 4 4 4 4 6 7 8 9 10
5 5 5 5 5 6 7 8 9 10
6 7 8 9 10 6 7 8 9 10
7 7 9 9 10 6 7 8 9 10
8 8 8 8 8 6 7 8 9 10
9 9 9 9 9 6 7 8 9 10
10 10 10 10 10 6 7 8 9 10
"""


def _literal(rows: str) -> list[list[int]]:
    return [[int(v) - 1 for v in line.split()] for line in rows.strip().splitlines()]


def left_zero(m: int) -> Band:
    return Band([[a] * m for a in range(m)], name=f"LZ({m})")


def right_zero(m: int) -> Band:
    return Band([list(range(m)) for _ in range(m)], name=f"RZ({m})")


def chain_semilattice(m: int) -> Band:
    return Band([[min(a, b) for b in range(m)] for a in range(m)], name=f"SL-chain({m})")


def rectangular(p: int, q: int) -> Band:
    m = p * q
    rows = [[(a // q) * q + (b % q) for b in range(m)] for a in range(m)]
    return Band(rows, name=f"Rect({p},{q})")


_FAMILY_RE = re.compile(r"^(LZ|RZ|SL-chain)\((\d+)\)$")
_RECT_RE = re.compile(r"^Rect\((\d+),(\d+)\)$")

#: deterministic desk-scale sweep used by the cross-check test suites
CATALOG_EXAMPLES = (
    "S9", "S10", "T9", "T13a", "T13b", "T17",
    "LZ(2)", "LZ(3)", "RZ(2)", "RZ(3)",
    "SL-chain(2)", "SL-chain(3)", "SL-chain(4)",
    "Rect(2,2)", "Rect(2,3)", "Rect(3,4)",
)


def catalog(name: str) -> Band:
    """Return a named band: the printed 9/10-element tables, the four
    synthesized forbidden bands, or a parameterized family member."""
    if name == "S9":
        return Band(_literal(_S9_ROWS), name="S9")
    if name == "S10":
        return Band(_literal(_S10_ROWS), name="S10")
    if name in ("T9", "T13a", "T13b", "T17"):
        from . import quasi

        return quasi.construct_forbidden_band(name)
    m = _FAMILY_RE.match(name)
    if m:
        family, size = m.group(1), int(m.group(2))
        if size < 1:
            raise UnknownName(f"family size must be positive in {name!r}")
        if family == "LZ":
            return left_zero(size)
        if family == "RZ":
            return right_zero(size)
        return chain_semilattice(size)
    m = _RECT_RE.match(name)
    if m:
        p, q = int(m.group(1)), int(m.group(2))
        if p < 1 or q < 1:
            raise UnknownName(f"Rect dimensions must be positive in {name!r}")
        return rectangular(p, q)
    raise UnknownName(f"unknown catalog band {name!r}")
