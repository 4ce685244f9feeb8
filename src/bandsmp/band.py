"""Finite bands given by multiplication tables, with cached Green structure.

Elements are 0-based ints internally; all text I/O (band files, error
messages, CLI output) uses 1-based labels so tables can be compared
against printed references line by line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import index
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    NotAssociative,
    NotIdempotent,
    OutOfRange,
    SizeBoundExceeded,
    UnknownName,
    integer,
    labels,
    parsing,
    read_file,
    read_text,
)
from .power import GenSet, _bfs

Table = Sequence[Sequence[int]]


@dataclass(frozen=True, eq=False)
class GreenCache:
    """Precomputed L/R/J preorders, J-partition, and J-quotient height.

    The preorders are read-only (m, m) boolean arrays: leq_j[a, b] is a <=_J b;
    eq_l is the L-equivalence, leq_l and its transpose.
    """

    leq_l: np.ndarray
    eq_l: np.ndarray
    leq_r: np.ndarray
    leq_j: np.ndarray
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
        try:
            rows = [tuple(map(index, row)) for row in table]
        except TypeError:  # 0.7 is refused, not read as 0
            a, b, v = next((a, b, v) for a, row in enumerate(table) for b, v in enumerate(row)
                           if not isinstance(v, (int, np.integer)))
            raise OutOfRange(f"entry at ({a + 1},{b + 1}) is {v!r}, not an integer") from None
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
        # the same table as the smallest unsigned numpy dtype that holds m - 1,
        # and as intp for index arithmetic, which then needs no cast per lookup
        self.array = np.array(rows, dtype=np.min_scalar_type(m - 1))
        self.itable = self.array.astype(np.intp)
        self.name = name
        self._validate_axioms()
        self.green = self._compute_green()
        self._dual: Optional[Band] = None
        self._classification = None  # memo slot used by bandsmp.quasi.classify

    # -- construction helpers ------------------------------------------------

    def _validate_axioms(self) -> None:
        t = self.itable
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
        t = self.itable
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
        # longest strict J-chains; what is strictly J-below a has a smaller down-set
        under = leq_j.T & ~leq_j  # under[a, b]: b strictly J-below a
        h = np.ones(m, np.intp)
        for a in np.argsort(leq_j.sum(0), kind="stable"):
            h[a] = 1 + h[under[a]].max(initial=0)
        height = int(h.max())
        eq_l = leq_l & leq_l.T
        for mat in (t, leq_l, eq_l, leq_r, leq_j):
            mat.setflags(write=False)
        return GreenCache(
            leq_l=leq_l,
            eq_l=eq_l,
            leq_r=leq_r,
            leq_j=leq_j,
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

    def preorder(self, rel: str) -> np.ndarray:
        """The boolean matrix of a preorder: rel is 'L', 'R', or 'J'."""
        if rel not in ("L", "R", "J"):
            raise ValueError(f"unknown preorder {rel!r}; expected 'L', 'R' or 'J'")
        return getattr(self.green, "leq_" + rel.lower())

    def leq(self, rel: str, a: int, b: int) -> bool:
        """Preorder query: a <= b in the preorder rel ('L', 'R', or 'J')."""
        return bool(self.preorder(rel)[a, b])

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
        found = _bfs(GenSet(self, 1, tuple((g,) for g in set(gens))), self.order, None)
        return frozenset(found.rows(1)[:, 0].tolist())

    # -- text formats ----------------------------------------------------------

    def to_text(self) -> str:
        lines = [str(self.order)]
        for row in self.table:
            lines.append(" ".join(str(v + 1) for v in row))
        return "\n".join(lines) + "\n"

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
    """Parse the band text format or its JSON equivalent (1-based labels)."""
    with parsing("band"):
        obj = read_text(text)
        if isinstance(obj, dict):
            m, rows = integer(obj["order"]), obj["table"]
        elif not obj:
            raise OutOfRange("empty band file")
        else:
            (m,), rows = obj[0], obj[1:]
        rows = [labels(row) for row in rows]
    if len(rows) != m:
        raise OutOfRange(f"band declares order {m} but has {len(rows)} rows")
    return Band(rows, name=name)


def load_band(path: str) -> Band:
    return parse_band_text(read_file(path), name=path)


# -- embedding search ----------------------------------------------------------

DEFAULT_EMBED_BOUND = 17


def find_embedding(small: Band, big: Band) -> Optional[tuple[int, ...]]:
    """Search for an injective homomorphism small -> big.

    Returns the image tuple (indexed by small's elements) or None. The least
    element not yet mapped gets an image, and the partial map is closed under
    products, so the mapped elements are always the subsemigroup generated by
    the elements given images so far. An image must have L-, R- and J-classes
    at least as large as its element's and agree in all three preorders with
    the images already set. Images are tried in ascending order.
    """
    if small.order > DEFAULT_EMBED_BOUND:
        raise SizeBoundExceeded(
            f"small band has order {small.order}, bound is {DEFAULT_EMBED_BOUND}"
        )
    if small.order > big.order:
        return None
    st, bt = small.table, big.table

    def profile(band: Band) -> tuple[np.ndarray, np.ndarray]:
        """u <= v and v <= u in L, R and J as six bits per pair (u, v), and
        the sizes of the L-, R- and J-class of each element."""
        rels = (band.green.leq_l, band.green.leq_r, band.green.leq_j)
        bits = rels + tuple(r.T for r in rels)
        code = sum(r.astype(np.uint8) << i for i, r in enumerate(bits))
        return code, np.stack([(r & r.T).sum(1) for r in rels])

    (code_s, sizes_s), (code_b, sizes_b) = profile(small), profile(big)
    # an injective homomorphism maps each L-, R- and J-class into one
    fits = (sizes_s[:, :, None] <= sizes_b[:, None, :]).all(0)

    def close(img: dict[int, int], a: int, c: int) -> Optional[dict[int, int]]:
        """img with a -> c, closed under products, or None on a conflict."""
        img = {**img, a: c}
        used = set(img.values())
        todo = [a]
        while todo:
            x = todo.pop()
            ix = img[x]
            for y, iy in list(img.items()):
                for p, ip in ((st[x][y], bt[ix][iy]), (st[y][x], bt[iy][ix])):
                    if p in img:
                        if img[p] != ip:
                            return None
                    elif ip in used:
                        return None
                    else:
                        img[p] = ip
                        used.add(ip)
                        todo.append(p)
        return img

    def search(img: dict[int, int]) -> Optional[tuple[int, ...]]:
        a = next((x for x in range(small.order) if x not in img), None)
        if a is None:
            return tuple(img[x] for x in range(small.order))
        xs, ys = list(img), list(img.values())
        ok = fits[a] & (code_b[:, ys] == code_s[a, xs]).all(1)
        ok[ys] = False
        for c in np.flatnonzero(ok).tolist():
            closed = close(img, a, c)
            found = None if closed is None else search(closed)
            if found is not None:
                return found
        return None

    return search({})


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


#: the largest order a catalog family builds; its tables are Python lists
MAX_CATALOG_ORDER = 2048

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
        if not 1 <= size <= MAX_CATALOG_ORDER:
            raise UnknownName(f"family size must be in 1..{MAX_CATALOG_ORDER} in {name!r}")
        if family == "LZ":
            return left_zero(size)
        if family == "RZ":
            return right_zero(size)
        return chain_semilattice(size)
    m = _RECT_RE.match(name)
    if m:
        p, q = int(m.group(1)), int(m.group(2))
        if p < 1 or q < 1 or p * q > MAX_CATALOG_ORDER:
            raise UnknownName(f"Rect(p,q) needs p, q >= 1 and pq <= {MAX_CATALOG_ORDER}: {name!r}")
        return rectangular(p, q)
    raise UnknownName(f"unknown catalog band {name!r}")
