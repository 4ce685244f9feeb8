"""Tuples in direct powers S^n and the brute-force closure oracle.

A tuple is a plain tuple of 0-based element ids. The closure oracle is the
fallback decision procedure and the verification arbiter for everything
the polynomial algorithms decide.

The closure BFS is array-backed and runs over S^p: p coordinates make one
code c = Σ v_r·m^r, p as large as the m^p codes fit one byte (two-byte
codes with p = 1 past order 256). A tuple is a row of codes padded with
zero coordinates to whole 8-byte words, compared as 64-bit words. The
products of a block of stored tuples are one row gather from the search's
table, row c·w + j holding c·a_1[j] … c·a_k[j], or past the table's budget
one take from the band's table of S^p. They are deduplicated by sorting
64-bit fingerprints of the rows, each match checked word for word. A
stored tuple costs 8·⌈⌈n/p⌉·s/8⌉ bytes for codes of s bytes, plus an
8-byte fingerprint, an int32 insertion number and an int64 origin. The
order in which tuples are found, and so every witness word, is that of
the one-tuple-at-a-time BFS.
"""

from __future__ import annotations

import random
from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .band import Band, read_elements
from .errors import (ArityMismatch, CapExceeded, OutOfRange, ParseError, as_int, int_table,
                     integer, parsing, read_text)

ElementTuple = tuple[int, ...]

DEFAULT_CAP = 5_000_000
MAX_ARITY = int(np.iinfo(np.intp).max)


@dataclass(frozen=True)
class GenSet:
    """Ordered generator set inside S^n; order fixes all search determinism.

    The members are validated once, into rows: a read-only (k, n) intp array
    with one row per member, which the closure search and the polynomial
    solvers read. members may be given as a 2-D array, kept as a tuple of int
    tuples; an intp array is copied into rows, not read value by value.
    """

    band: Band
    n: int
    members: tuple[ElementTuple, ...]
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        given, n, m = self.members, as_int(self.n, "arity"), self.band.order
        if not 0 <= n <= MAX_ARITY:
            raise ArityMismatch(f"arity {n} outside 0..{MAX_ARITY}")
        array = isinstance(given, np.ndarray) and given.ndim == 2
        members = tuple(map(tuple, given.tolist())) if array else given
        # by kind: every member's arity, then every coordinate, then repeats
        for i, t in enumerate(members):
            if len(t) != n:
                raise ArityMismatch(f"generator {i + 1} has arity {len(t)}, expected {n}")
        flat = given.reshape(-1) if array else list(chain.from_iterable(members))
        rows = read_elements(flat, m, "coordinate").reshape(len(members), n)
        first: dict[ElementTuple, int] = {}
        for i, t in enumerate(members):
            if first.setdefault(t, i) != i:
                raise ArityMismatch(f"generator {i + 1} repeats generator {first[t] + 1}")
        rows.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def of(cls, band: Band, members: Iterable[Sequence[int]], n: Optional[int] = None):
        members = tuple(tuple(t) for t in members)
        if n is None:
            if not members:
                raise ArityMismatch("cannot infer arity from an empty generator set")
            n = len(members[0])
        return cls(band=band, n=n, members=members)

    def row(self, t: Sequence[int]) -> np.ndarray:
        """t checked as members are, for arity and then range, into a read-only intp row."""
        if len(t) != self.n:
            raise ArityMismatch(f"target arity {len(t)} != generator arity {self.n}")
        row = read_elements(t, self.band.order, "coordinate")
        row.setflags(write=False)
        return row

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SmpInstance:
    """A subpower membership instance: generators A, target b in S^n (kept as a
    tuple of ints), b's row."""

    gens: GenSet
    target: ElementTuple
    row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "row", self.gens.row(self.target))
        object.__setattr__(self, "target", tuple(self.row.tolist()))

    @property
    def band(self) -> Band:
        return self.gens.band


def mul_tuple(band: Band, a: ElementTuple, b: ElementTuple) -> ElementTuple:
    if len(a) != len(b):
        raise ArityMismatch(f"arities {len(a)} and {len(b)} differ")
    with suppress(IndexError, OverflowError, TypeError, ValueError):  # item() wraps a negative int
        if not a or min(a) >= 0 <= min(b):
            return tuple(map(band.itable.item, a, b))
    xy = read_elements((*a, *b), band.order, "coordinate")  # both tuples by the element rule
    return tuple(band.itable[xy[:len(a)], xy[len(a):]].tolist())


def leq_cw(mat: np.ndarray, a, b) -> np.ndarray:
    """a <= b componentwise under the preorder with boolean (m, m) array mat.

    a and b are n-tuples or intp index arrays; either may be a stack of
    rows, and the answer has one boolean per row (0-d for two tuples).
    """
    return mat[a, b].all(-1)


#: bytes of product rows formed in one step; bounds the BFS's scratch memory
_BLOCK_BYTES = 1 << 17
#: bytes of the BFS's product table; past them the search builds none
_TABLE_BYTES = 1 << 22


def _fold(table: np.ndarray, cols, word: Sequence[int]) -> np.ndarray:
    """The product cols[w0]·cols[w1]·… of arrays of elements, left to right,
    one lookup in the intp table per letter."""
    acc = cols[word[0]]
    for v in word[1:]:
        acc = table[acc, cols[v]]
    return acc


def _codes(band: Band) -> tuple[int, np.ndarray, np.ndarray]:
    """p, the (C, C) table of S^p on the codes c = Σ v_r·m^r (C = m^p), and each
    code's p coordinates as a (C, p) intp array, both read-only; made once per band.
    p is the most coordinates whose codes fit a byte (8 at most), 1 past 16
    elements, and past 256 elements the codes are uint16."""
    if band._codes is None:
        m, p = band.order, 1
        while p < 8 and m ** (p + 1) <= 256:
            p += 1
        digits = np.arange(m ** p)[:, None] // m ** np.arange(p) % m
        table = band.itable if p == 1 else band.itable[digits[:, None], digits] @ m ** np.arange(p)
        band._codes = (p, table.astype(np.min_scalar_type(m ** p - 1)), digits)
        for a in band._codes[1:]:
            a.setflags(write=False)
    return band._codes


def _differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether rows of uint64 words differ, one bool per row; a and b broadcast."""
    out = a[..., 0] != b[..., 0]
    for w in range(1, a.shape[-1]):
        out |= a[..., w] != b[..., w]
    return out


def _product_table(table: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Row c·w + j holds c·a_1[j] … c·a_k[j], for the (k, w) generator codes gens."""
    return table.take(gens.T, axis=1).reshape(len(table) * gens.shape[1], len(gens))


@lru_cache(maxsize=64)
def _coefficients(salt: int, chunks: int) -> np.ndarray:
    """Salt's 64-bit fingerprint coefficients, by the stdlib's generator (numpy.random is 6 MB)."""
    return np.frombuffer(random.Random(salt).randbytes(8 * chunks), "<u8")


class _Closure:
    """The tuples a closure BFS over k generators has found, numbered in
    insertion order and stored as rows of uint64 words in one array in that order.

    Each row's 64-bit fingerprint, with its insertion number, sits in one of a
    few runs sorted by fingerprint; a run is merged into the one before it
    once it reaches half that one's size. A fingerprint dots the row's
    little-endian 16-bit chunks that hold codes, not the zero padding, with the
    salt's coefficients mod 2^64. Every fingerprint match is checked word for word: a
    mismatch is a true collision, and the store moves to the next salt. Tuple j
    was found as the product of tuple p and generator g, and its origin is
    p·k + g; a generator has p = -1. hit is the target's number once found.
    """

    def __init__(self, words: int, chunks: int, k: int, target: Optional[np.ndarray]):
        self.stored = np.empty((64, words), np.uint64)
        self.size, self.hit, self._k, self._salt, self._origin = 0, None, k, -1, []
        self._chunks, self._target = chunks, target
        self._reseed()

    def _reseed(self):
        """Move to the next salt that tells the stored rows apart, in one run."""
        self._salt += 1
        self._coef = _coefficients(self._salt, self._chunks)
        self.runs: list[tuple[np.ndarray, np.ndarray]] = []
        if self.size:
            if (got := self._sift(self.stored[:self.size])) is None:
                return self._reseed()
            self.runs.append((got[0], got[1].astype(np.int32)))

    def _sift(self, rows: np.ndarray):
        """The sorted fingerprints of the distinct rows not stored yet, each with its
        first row; None on a collision."""
        fp = rows.view("<u2")[:, :self._chunks] @ self._coef
        order = fp.argsort()
        fp = fp[order]
        head = np.empty(len(fp), bool)
        head[0] = True
        np.not_equal(fp[1:], fp[:-1], out=head[1:])
        if not head.all():
            # equal rows have equal fingerprints, so an unequal pair among those is a collision
            twin = (~head).nonzero()[0]
            if _differ(rows[order[twin]], rows[order[twin - 1]]).any():
                return None
            at = head.nonzero()[0]
            fp, order = fp[at], np.minimum.reduceat(order, at)
        first = order
        for run, ins in reversed(self.runs):  # newest first: most repeats are of recent tuples
            i = run.searchsorted(fp)
            seen = run.take(i, mode="clip") == fp
            if np.count_nonzero(seen):
                if _differ(self.stored[ins[i[seen]]], rows[first[seen]]).any():
                    return None
                fp, first = fp[~seen], first[~seen]
        return fp, first

    def add(self, rows: np.ndarray, where: np.ndarray, start: int, cap: int):
        """Store the rows not seen before, first occurrences in row order. Row r is
        the product of tuple start + where[r] // k and generator where[r] % k; raises
        CapExceeded once more than cap tuples would be stored before the target."""
        while len(rows) and (new := self._sift(rows)) is None:
            self._reseed()
        if not len(rows) or not len(fp := new[0]):
            return
        size, picked = self.size, np.sort(new[1])
        rows = rows[picked]
        if self._target is not None and len(hit := (~_differ(rows, self._target)).nonzero()[0]):
            self.hit = size + int(hit[0])
        if (size + len(fp) if self.hit is None else self.hit + 1) > cap:
            raise CapExceeded(max(size, cap) + 1)
        self.runs.append((fp, (picked.searchsorted(new[1]) + size).astype(np.int32)))
        while len(self.runs) > 1 and len(self.runs[-2][0]) <= 2 * len(self.runs[-1][0]):
            merged, ins = (np.concatenate(p) for p in zip(self.runs.pop(-2), self.runs.pop()))
            at = merged.argsort(kind="stable")  # a timsort: one linear merge of the two runs
            self.runs.append((merged[at], ins[at]))
        self.size += len(fp)
        if self.size > len(self.stored):
            grown = np.empty((2 * self.size, self.stored.shape[1]), self.stored.dtype)
            grown[:size], self.stored = self.stored[:size], grown
        self.stored[size:self.size] = rows
        self._origin.append(start * self._k + where[picked].astype(np.int64))

    def word(self) -> Optional[list[int]]:
        """The 1-based generator word that the BFS built the target from, or None if not found."""
        if self.hit is None:
            return None
        origin, word, j = np.concatenate(self._origin), [], self.hit
        while j >= 0:
            j, g = divmod(int(origin[j]), self._k)
            word.append(g + 1)
        return word[::-1]


def as_cap(cap) -> int:
    """A closure cap read by errors.as_int and refused below 0, a one-line OutOfRange."""
    if (cap := as_int(cap, "cap")) < 0:
        raise OutOfRange(f"cap {cap} is below 0")
    return cap


def _bfs(gens: GenSet, cap: int, stop_at: Optional[np.ndarray]) -> _Closure:
    """The closure BFS over n-tuples, run over S^p, stopping once stop_at is found;
    cap is an int of at least 0 and stop_at a row of gens (GenSet.row), or None.

    A tuple is a row of codes, p coordinates each (see _codes), padded with
    zero coordinates to whole 8-byte words; 0·0 = 0 keeps the padding zero, and
    () is one word of zeros. Block by block, in insertion order: the products
    of a block of stored tuples with every generator are formed at once, in
    (tuple, generator) order, and their first occurrences that are new are
    stored in that order. This is the order of the one-tuple-at-a-time BFS, so
    every tuple gets the same parent, and every word is BFS-shortest and the
    same from run to run.
    """
    n, k, m = gens.n, len(gens), gens.band.order
    p, table, _ = _codes(gens.band)
    n_codes, size = len(table), table.itemsize
    cols = -(-n // p)  # the codes of a row that hold coordinates
    width = max(1, -(-cols * size // 8)) * 8 // size  # and the padding, to whole words
    padded = np.zeros((k + 1, width * p), np.intp)  # the generators, then the target
    padded[:k, :n] = gens.rows
    if stop_at is not None:
        padded[k, :n] = stop_at
    packed = np.dot(padded.reshape(k + 1, width, p), m ** np.arange(p)).astype(table.dtype)
    gens, words = packed[:k, :cols], packed.view(np.uint64)
    found = _Closure(words.shape[1], -(-cols * size // 2), k, None if stop_at is None else words[k])
    # the generators: products of an empty tuple numbered -1; they never
    # count against the cap
    found.add(words[:k], np.arange(k), -1, max(cap, k))
    if found.hit is not None or not n * k:  # a generator target is found, or no product is new
        return found
    # the product table if it fits its budget; past it, blocks read the S^p table
    right = _product_table(table, gens) if n_codes * cols * k * size <= _TABLE_BYTES else None
    step = max(1, _BLOCK_BYTES // (k * width * size))
    c = 0  # the tuples numbered below c have been multiplied by every generator
    while c < found.size and found.hit is None:
        stored = found.stored[c:min(c + step, found.size)]
        block = stored.view(table.dtype)[:, :cols]
        products = np.zeros((len(block), k, width), table.dtype)  # the padding stays zero
        if right is None:  # at block·C + a_g, in (tuple, generator, code) order
            products[..., :cols] = table.take(block.astype(np.intp)[:, None] * n_codes + gens)
        else:  # row c·cols + j for code j of value c, transposed
            at = np.multiply(block, cols, dtype=np.intp)
            at += np.arange(cols)
            products[..., :cols] = right.take(at, axis=0).transpose(0, 2, 1)
        products = products.view(np.uint64)
        # a product equal to its tuple or to its generator is stored already
        where = np.flatnonzero(_differ(products, stored[:, None]) & _differ(products, words[:k]))
        rows = products.reshape(-1, products.shape[-1])[where]
        del products
        found.add(rows, where, c, cap)
        c += len(block)
    return found


def closure(gens: GenSet, cap: int = DEFAULT_CAP) -> list[ElementTuple]:
    """Full <A> in BFS insertion order; CapExceeded if it grows past cap."""
    found = _bfs(gens, as_cap(cap), stop_at=None)
    p, table, digits = _codes(gens.band)
    rows = found.stored[:found.size].view(table.dtype)
    out: list[ElementTuple] = []
    for c in range(0, len(rows), 256):  # no list of lists, or intp copy, of the whole closure
        chunk = digits[rows[c:c + 256]].reshape(-1, p * rows.shape[1])
        out.extend(map(tuple, chunk[:, :gens.n].tolist()))
    return out


def member_closure_word(
    gens: GenSet, b: ElementTuple, cap: int = DEFAULT_CAP
) -> Optional[list[int]]:
    """A shortest witnessing generator word (1-based indices), or None."""
    return _bfs(gens, as_cap(cap), gens.row(b)).word()


# -- instance file format -----------------------------------------------------

def parse_instance(text: str, band: Band) -> SmpInstance:
    """Parse the SMP instance text format or its JSON equivalent (1-based)."""
    with parsing("instance"):
        obj = read_text(text)
        if isinstance(obj, dict):
            n, rows = integer(obj["n"]), [*obj["generators"], obj["target"]]
        elif not len(lengths := obj[1]):
            raise ParseError("empty instance file")
        elif lengths[0] != 2:
            raise ParseError("instance header must be 'n k'")
        else:
            (n, k), lengths = obj[0][:2].tolist(), lengths[1:]
            if n == 0 and not len(lengths) and k <= 1:
                # each tuple is (), a blank line that read_text drops; k >= 2 would repeat it
                lengths = np.array([0] * (k + 1), np.intp)
            if k < 0 or len(lengths) != k + 1:
                raise ParseError(
                    f"instance declares {k} generators but file has {max(len(lengths) - 1, 0)}")
        if not 0 <= n <= MAX_ARITY:
            raise ParseError(f"instance arity {n} outside 0..{MAX_ARITY}")
        rows = int_table(rows if isinstance(obj, dict) else (obj[0][2:], lengths), n)
        return SmpInstance(GenSet(band=band, n=n, members=rows[:-1]), rows[-1])


def format_instance(inst: SmpInstance) -> str:
    lines = [f"{inst.gens.n} {len(inst.gens.members)}"]
    for g in inst.gens.members:
        lines.append(" ".join(str(v + 1) for v in g))
    lines.append(" ".join(str(v + 1) for v in inst.target))
    return "\n".join(lines) + "\n"
