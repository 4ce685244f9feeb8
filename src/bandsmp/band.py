"""Finite bands given by multiplication tables, with cached Green structure.

Elements are 0-based ints internally; all text I/O (band files, error
messages, CLI output) uses 1-based labels so tables can be compared
against printed references line by line.
"""

from __future__ import annotations

import re
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from itertools import chain
from operator import index
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    NotAssociative,
    NotIdempotent,
    OutOfRange,
    ParseError,
    SizeBoundExceeded,
    UnknownName,
    as_int,
    int_table,
    integer,
    parse_file,
    parsing,
    read_text,
)

Table = Sequence[Sequence[int]]


def refusal(v, m: int) -> Optional[str]:
    """Why v is not an element of a band of order m, after the noun its caller
    gives, or None. An element is read by operator.index, and a bool is refused
    as errors.as_int refuses it: 1.9 and True are not elements."""
    if not isinstance(v, bool):
        with suppress(TypeError):
            v = index(v)
            return None if 0 <= v < m else f"{v + 1} outside 1..{m}"
    return f"{v!r} is not an integer"


def read_elements(values, m: int, noun) -> np.ndarray:
    """values read by operator.index into a flat intp array; an intp array is
    copied, not read value by value. The first value that refusal refuses is a
    one-line OutOfRange: refusal's reason after noun, a string or a function of
    the value's index."""
    if isinstance(values, np.ndarray) and values.dtype == np.intp:
        out = values.flatten()
    elif 0 < len(values) <= 32 and set(map(type, values)) == {int} and (
            0 <= min(values) and max(values) < m):  # plain ints: past about 40, fromiter is faster
        return np.array(values, np.intp)
    elif bool in set(map(type, values)):  # operator.index reads a bool as 0 or 1; refusal does not
        out = None
    else:
        try:
            out = np.fromiter(map(index, values), np.intp, len(values))
        except (OverflowError, TypeError):  # beyond intp, or not an integer
            out = None
    if out is None:
        i = next(i for i, v in enumerate(values) if refusal(v, m))
    elif (bad := out.view(np.uintp) >= m).any():  # a negative value is a large unsigned one
        i = int(bad.argmax())
    else:
        return out
    raise OutOfRange(f"{noun if isinstance(noun, str) else noun(i)} {refusal(values[i], m)}")


@dataclass(frozen=True, eq=False)
class GreenCache:
    """Precomputed L/R/J preorders, J-partition, and J-quotient height.

    The preorders are read-only (m, m) boolean arrays: leq_j[a, b] is a <=_J b.
    """

    leq_l: np.ndarray
    leq_r: np.ndarray
    leq_j: np.ndarray
    j_class_of: tuple[int, ...]
    j_classes: tuple[tuple[int, ...], ...]
    height: int


class Band:
    """An idempotent semigroup on {0, ..., m-1}; a*b is itable[a, b], a read-only intp array.

    Construction validates idempotence and associativity and eagerly
    computes the Green caches; instances are immutable afterwards and
    safe for unrestricted concurrent reads.
    """

    def __init__(self, table: Table, name: Optional[str] = None):
        """table: m rows of m elements, or an (m, m) array; an intp one is copied."""
        array = isinstance(table, np.ndarray) and table.ndim == 2
        rows = table if array else list(table)
        m = len(rows)
        if m == 0:
            raise OutOfRange("a band must have at least one element")
        a = next((a for a, row in enumerate(rows) if len(row) != m), None)
        if a is not None:
            raise OutOfRange(f"row {a + 1} has {len(rows[a])} entries, expected {m}")
        flat = table.reshape(-1) if array else list(chain.from_iterable(rows))
        entries = read_elements(flat, m, lambda i: f"entry at ({i // m + 1},{i % m + 1}):")
        self.order = m
        # the table as intp for index arithmetic, which then needs no cast per lookup
        self.itable = entries.reshape(m, m)
        self.name = name
        self._validate_axioms()
        self.green = self._compute_green()
        self._dual: Optional[Band] = None
        self._lambda_scan = None  # (witness or None,) once bandsmp.quasi scanned the band
        self._codes = None  # (p, table of S^p, digits) once bandsmp.power packed the band

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
        # a J-class is named by its least element, and the classes are numbered in that order
        least = eq_j.argmax(1)
        names = np.flatnonzero(least == np.arange(m))
        # longest strict J-chains; what is strictly J-below a has a smaller down-set
        under = leq_j.T & ~leq_j  # under[a, b]: b strictly J-below a
        h = np.ones(m, np.intp)
        for a in np.argsort(leq_j.sum(0), kind="stable"):
            h[a] = 1 + h[under[a]].max(initial=0)
        height = int(h.max())
        for mat in (t, leq_l, leq_r, leq_j):
            mat.setflags(write=False)
        return GreenCache(
            leq_l=leq_l,
            leq_r=leq_r,
            leq_j=leq_j,
            j_class_of=tuple(names.searchsorted(least).tolist()),
            j_classes=tuple(tuple(np.flatnonzero(eq_j[a]).tolist()) for a in names),
            height=height,
        )

    # -- basic operations ----------------------------------------------------

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """itable as a tuple of tuples of ints, built on first read; the library reads itable."""
        return tuple(map(tuple, self.itable.tolist()))

    def prod(self, elems: Iterable[int]) -> int:
        it = iter(elems)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("product of an empty element sequence") from None
        return reduce(self.itable.item, it, first)

    def dual(self) -> "Band":
        """The band of itable's transpose, not validated again: L and R swap, J, its
        classes and the height are shared; its own lambda scan is this band's reversed one.
        A commutative band is its own dual, so it is returned itself, with its name,
        Green cache, lambda scan and codes."""
        if self._dual is None and np.array_equal(self.itable, self.itable.T):
            self._dual = self
        elif self._dual is None:
            d = object.__new__(Band)
            d.order, d.name = self.order, f"dual({self.name})" if self.name else None
            d.itable = self.itable.T.copy()
            g = self.green
            d.green = replace(g, leq_l=g.leq_r, leq_r=g.leq_l)
            d.itable.setflags(write=False)
            d._dual, d._lambda_scan, d._codes = self, None, None
            self._dual = d
        return self._dual

    def adjoin_identity(self) -> "Band":
        m = self.order
        rows = [row + [a] for a, row in enumerate(self.itable.tolist())]
        rows.append(list(range(m + 1)))
        return Band(rows, name=f"{self.name}^1" if self.name else None)

    # -- text formats ----------------------------------------------------------

    def to_text(self) -> str:
        lines = [str(self.order)]
        for row in self.itable.tolist():
            lines.append(" ".join(str(v + 1) for v in row))
        return "\n".join(lines) + "\n"

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Band) and np.array_equal(self.itable, other.itable)

    def __hash__(self) -> int:
        return hash(self.itable.tobytes())

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
            count = len(rows)
        elif not len(lengths := obj[1]):
            raise ParseError("empty band file")
        elif lengths[0] != 1:
            raise ParseError("band header must be 'm'")
        else:
            m, count = obj[0].item(0), len(lengths) - 1
        if count != m:
            raise ParseError(f"band declares order {m} but has {count} rows")
        table = int_table(rows if isinstance(obj, dict) else (obj[0][1:], lengths[1:]), m)
    return Band(table, name=name)


def load_band(path: str) -> Band:
    return parse_file(path, lambda text: parse_band_text(text, name=path))


# -- embedding search ----------------------------------------------------------

DEFAULT_EMBED_BOUND = 17


def find_embedding(small: Band, big: Band) -> Optional[tuple[int, ...]]:
    """Search for an injective homomorphism small -> big.

    Returns the image tuple (indexed by small's elements) or None. The least
    element not yet mapped gets an image, and the partial map is closed under
    products, so the mapped elements are always the subsemigroup generated by
    the elements given images so far. Every unused image is tried, in
    ascending order, and only the two multiplication tables are read.
    """
    if small.order > DEFAULT_EMBED_BOUND:
        raise SizeBoundExceeded(
            f"small band has order {small.order}, bound is {DEFAULT_EMBED_BOUND}"
        )
    if small.order > big.order:
        return None
    st, bt = small.itable.tolist(), big.itable.tolist()

    def close(img: dict[int, int], a: int, c: int) -> Optional[dict[int, int]]:
        """img with a -> c, closed under products, or None on a conflict."""
        # before any copy: a's products with the mapped elements that are mapped
        # already, or are a, must map to the products of the images
        for y, iy in img.items():
            for p, ip in ((st[a][y], bt[c][iy]), (st[y][a], bt[iy][c])):
                if img.get(p, c if p == a else ip) != ip:
                    return None
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
        for c in sorted(set(range(big.order)).difference(img.values())):
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


def left_zero(m: int) -> Band:
    m = as_int(m, "order")
    return Band([[a] * m for a in range(m)], name=f"LZ({m})")


def right_zero(m: int) -> Band:
    m = as_int(m, "order")
    return Band([list(range(m)) for _ in range(m)], name=f"RZ({m})")


def chain_semilattice(m: int) -> Band:
    m = as_int(m, "order")
    return Band([[min(a, b) for b in range(m)] for a in range(m)], name=f"SL-chain({m})")


def rectangular(p: int, q: int) -> Band:
    p, q = as_int(p, "p"), as_int(q, "q")
    m = p * q
    rows = [[(a // q) * q + (b % q) for b in range(m)] for a in range(m)]
    return Band(rows, name=f"Rect({p},{q})")


#: the largest order a catalog family builds; the builders' input tables are Python lists
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
        return parse_band_text("9" + _S9_ROWS, name="S9")
    if name == "S10":
        return parse_band_text("10" + _S10_ROWS, name="S10")
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
