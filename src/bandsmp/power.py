"""Tuples in direct powers S^n and the brute-force closure oracle.

A tuple is a plain tuple of 0-based element ids. The closure oracle is the
fallback decision procedure and the verification arbiter for everything
the polynomial algorithms decide.

The closure BFS is array-backed. Tuples are rows of a small-int numpy
array (one byte a coordinate for bands of order up to 256, two above). The
products of a block of stored tuples are one row gather from the search's table,
row v·n + i holding v·a_1[i] … v·a_k[i], or past the table's budget one
take from the multiplication table. They are deduplicated by sorting 64-bit
fingerprints of the rows, each match checked byte for byte. A stored tuple
costs about n bytes, plus an 8-byte fingerprint, an int32 insertion number
and an int64 origin. The order in which tuples are found, and so every
witness word, is that of the one-tuple-at-a-time BFS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .band import Band, read_elements, refusal
from .errors import (ArityMismatch, CapExceeded, OutOfRange, ParseError, as_int, integer,
                     labels, parsing, read_text)

ElementTuple = tuple[int, ...]

DEFAULT_CAP = 5_000_000
MAX_ARITY = int(np.iinfo(np.intp).max)


@dataclass(frozen=True)
class GenSet:
    """Ordered generator set inside S^n; order fixes all search determinism.

    The members are validated once, into rows: a read-only (k, n) intp array
    with one row per member, which the closure search and the polynomial
    solvers read.
    """

    band: Band
    n: int
    members: tuple[ElementTuple, ...]
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        members, n, m = self.members, as_int(self.n, "arity"), self.band.order
        if not 0 <= n <= MAX_ARITY:
            raise ArityMismatch(f"arity {n} outside 0..{MAX_ARITY}")
        # the first member that fails a check raises; a member is checked for
        # its arity, then its range, then for repeating an earlier member
        k = next((i for i, t in enumerate(members) if len(t) != n), len(members))
        flat = list(chain.from_iterable(members[:k]))
        rows, bad = read_elements(flat, m)
        r = k if bad is None else bad // n
        first: dict[ElementTuple, int] = {}
        d = next((i for i, t in enumerate(members[:r]) if first.setdefault(t, i) != i), r)
        if d < r:
            raise ArityMismatch(f"duplicate generator {members[d]}")
        if r < k:
            raise OutOfRange(f"coordinate {refusal(flat[bad], m)}")
        if k < len(members):
            t = members[k]
            raise ArityMismatch(f"generator {t} has arity {len(t)}, expected {n}")
        rows = rows.reshape(k, n)
        rows.setflags(write=False)
        object.__setattr__(self, "n", n)
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
        row, i = read_elements(t, self.band.order)
        if i is not None:
            raise OutOfRange(f"coordinate {refusal(t[i], self.band.order)}")
        row.setflags(write=False)
        return row

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SmpInstance:
    """A subpower membership instance: generators A, target b in S^n, b's row."""

    gens: GenSet
    target: ElementTuple
    row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "row", self.gens.row(self.target))

    @property
    def band(self) -> Band:
        return self.gens.band


def mul_tuple(band: Band, a: ElementTuple, b: ElementTuple) -> ElementTuple:
    if len(a) != len(b):
        raise ArityMismatch(f"arities {len(a)} and {len(b)} differ")
    xy, i = read_elements(ab := (*a, *b), band.order)  # both tuples by the element rule
    if i is not None:
        raise OutOfRange(f"coordinate {refusal(ab[i], band.order)}")
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


def _product_table(table: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Row v·w + i holds v·a_1[i] … v·a_k[i], for the (k, w) generator rows gens."""
    return table.take(gens.T, axis=1).reshape(len(table) * gens.shape[1], len(gens))


@lru_cache(maxsize=64)
def _coefficients(salt: int, chunks: int) -> np.ndarray:
    """Salt's 64-bit fingerprint coefficients, by the stdlib's generator (numpy.random is 6 MB)."""
    return np.frombuffer(random.Random(salt).randbytes(8 * chunks), "<u8")


class _Closure:
    """The tuples a closure BFS over k generators has found, numbered in
    insertion order and stored as rows of one array in that order.

    Each row's 64-bit fingerprint, with its insertion number, sits in one of a
    few runs sorted by fingerprint; a run is merged into the one before it
    once it reaches half that one's size. Every fingerprint match is checked
    byte for byte: a mismatch is a true collision, and the store moves to the
    next salt. Tuple j was found as the product of tuple p and generator g, and
    its origin is p·k + g; a generator has p = -1. hit is the target's number once found.
    """

    def __init__(self, width: int, dtype: np.dtype, k: int, target: Optional[np.ndarray]):
        self.key_dtype = np.dtype(f"S{width * dtype.itemsize}")
        self.stored = np.empty((64, width), dtype)
        self.size, self.hit, self._k, self._salt, self._origin = 0, None, k, -1, []
        self._target = None if target is None else target.view(self.key_dtype)
        self._reseed()

    def _reseed(self):
        """Move to the next salt that tells the stored rows apart, in one run."""
        self._salt += 1
        self._coef = _coefficients(self._salt, -(-self.key_dtype.itemsize // 2))
        self.runs: list[tuple[np.ndarray, np.ndarray]] = []
        if self.size:
            if (got := self._sift(self.stored[:self.size])) is None:
                return self._reseed()
            self.runs.append((got[0], got[1].astype(np.int32)))

    def _sift(self, rows: np.ndarray):
        """The sorted fingerprints of the distinct rows not stored yet, each with its
        first row, and the rows' keys; None on a collision. A fingerprint dots a row's
        little-endian 16-bit chunks, an odd width padded by a zero byte, with the
        coefficients mod 2^64."""
        keys = rows.view(self.key_dtype)[:, 0]
        if self.key_dtype.itemsize % 2:
            rows = np.concatenate((rows, np.zeros((len(rows), 1), rows.dtype)), axis=1)
        fp = rows.view("<u2") @ self._coef
        order = fp.argsort()
        fp, keys_in_order = fp[order], keys[order]
        head = np.empty(len(fp), bool)
        head[0] = True
        np.not_equal(fp[1:], fp[:-1], out=head[1:])
        at = head.nonzero()[0]
        # equal keys have equal fingerprints, so an unequal pair among those is a collision
        if np.count_nonzero(keys_in_order[1:] == keys_in_order[:-1]) < len(fp) - len(at):
            return None
        fp, first = fp[at], np.minimum.reduceat(order, at)
        stored = self.stored.view(self.key_dtype)[:, 0]
        for run, ins in self.runs:
            i = run.searchsorted(fp)
            seen = run.take(i, mode="clip") == fp
            if np.count_nonzero(seen):
                if np.count_nonzero(stored[ins[i[seen]]] != keys[first[seen]]):
                    return None
                fp, first = fp[~seen], first[~seen]
        return fp, first, keys

    def add(self, rows: np.ndarray, where: np.ndarray, start: int, cap: int):
        """Store the rows not seen before, first occurrences in row order. Row r is
        the product of tuple start + where[r] // k and generator where[r] % k; raises
        CapExceeded once more than cap tuples would be stored before the target."""
        while len(rows) and (new := self._sift(rows)) is None:
            self._reseed()
        if not len(rows) or not len(fp := new[0]):
            return
        first, keys = new[1:]
        size, picked = self.size, np.sort(first)
        new_keys = keys[picked]
        if self._target is not None and len(hit := (new_keys == self._target).nonzero()[0]):
            self.hit = size + int(hit[0])
        if (size + len(fp) if self.hit is None else self.hit + 1) > cap:
            raise CapExceeded(max(size, cap) + 1)
        self.runs.append((fp, (picked.searchsorted(first) + size).astype(np.int32)))
        while len(self.runs) > 1 and len(self.runs[-2][0]) <= 2 * len(self.runs[-1][0]):
            merged, ins = (np.concatenate(p) for p in zip(self.runs.pop(-2), self.runs.pop()))
            at = merged.argsort(kind="stable")  # a timsort: one linear merge of the two runs
            self.runs.append((merged[at], ins[at]))
        self.size += len(fp)
        if self.size > len(self.stored):
            grown = np.empty((2 * self.size, self.stored.shape[1]), self.stored.dtype)
            grown[:size], self.stored = self.stored[:size], grown
        self.stored.view(self.key_dtype)[size:self.size, 0] = new_keys
        self._origin.append(start * self._k + where[picked].astype(np.int64))

    def rows(self, n: int) -> np.ndarray:
        """The stored tuples as a (size, n) view in insertion order."""
        return self.stored[:self.size, :n]

    def word(self) -> list[int]:
        """The 1-based generator word that the BFS built the target from."""
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


def _bfs(gens: GenSet, cap: int, stop_at: Optional[ElementTuple]) -> _Closure:
    """The closure BFS over n-tuples, stopping once stop_at is found.

    Block by block, in insertion order: the products of a block of stored
    tuples with every generator are formed at once, in (tuple, generator)
    order, and their first occurrences that are new are stored in that order.
    This is the order of the one-tuple-at-a-time BFS, so every tuple gets the
    same parent, and every word is BFS-shortest and the same from run to run.
    """
    cap = as_cap(cap)
    m, n, k = gens.band.order, gens.n, len(gens)
    table = gens.band.itable.astype(np.min_scalar_type(m - 1))
    target = None if stop_at is None else gens.row(stop_at).astype(table.dtype)
    gens = gens.rows.astype(table.dtype)
    if n == 0:  # () is stored as the 1-tuple (0,)
        gens = np.zeros((k, 1), table.dtype)
        target = None if target is None else np.zeros(1, table.dtype)
    width = gens.shape[1]
    found = _Closure(width, table.dtype, k, target)
    # the generators: products of an empty tuple numbered -1; they never
    # count against the cap
    found.add(gens, np.arange(k), -1, max(cap, k))
    if n == 0 or found.hit is not None:  # 0·0 = 0 closes (0,); a generator target is found
        return found
    kd, size = found.key_dtype, table.itemsize
    gen_keys = gens.view(kd)[:, 0]
    # the product table if it fits its budget; past it, blocks read the multiplication table
    right = _product_table(table, gens) if m * width * k * size <= _TABLE_BYTES else None
    step = max(1, _BLOCK_BYTES // max(1, k * width * size))
    c = 0  # the tuples numbered below c have been multiplied by every generator
    while c < found.size and found.hit is None:
        block = found.stored[c:min(c + step, found.size)]
        if right is None:  # at block·m + a_g, in (tuple, generator, coordinate) order
            products = table.take(np.multiply(block, m, dtype=np.intp)[:, None] + gens)
        else:  # row v·w + i for coordinate i of value v, then one transposed copy
            at = np.multiply(block, width, dtype=np.intp)
            at += np.arange(width)
            products = np.ascontiguousarray(right.take(at, axis=0).transpose(0, 2, 1))
        # a product equal to its tuple or to its generator is stored already
        keys = products.view(kd)[..., 0]
        where = np.flatnonzero((keys != block.view(kd)) & (keys != gen_keys))
        rows = products.reshape(-1, width)[where]
        del products, keys
        found.add(rows, where, c, cap)
        c += len(block)
    return found


def closure(gens: GenSet, cap: int = DEFAULT_CAP) -> list[ElementTuple]:
    """Full <A> in BFS insertion order; CapExceeded if it grows past cap."""
    rows = _bfs(gens, cap, stop_at=None).rows(gens.n)
    out: list[ElementTuple] = []
    for c in range(0, len(rows), 256):  # no list of lists for the whole closure
        out.extend(map(tuple, rows[c:c + 256].tolist()))
    return out


def member_closure_word(
    gens: GenSet, b: ElementTuple, cap: int = DEFAULT_CAP
) -> Optional[list[int]]:
    """A shortest witnessing generator word (1-based indices), or None."""
    found = _bfs(gens, cap, stop_at=b)
    return None if found.hit is None else found.word()


# -- instance file format -----------------------------------------------------

def parse_instance(text: str, band: Band) -> SmpInstance:
    """Parse the SMP instance text format or its JSON equivalent (1-based)."""
    with parsing("instance"):
        obj = read_text(text)
        if isinstance(obj, dict):
            n, rows = integer(obj["n"]), [*obj["generators"], obj["target"]]
        elif not obj:
            raise ParseError("empty instance file")
        elif len(obj[0]) != 2:
            raise ParseError("instance header must be 'n k'")
        else:
            (n, k), rows = obj[0], obj[1:]
            if n == 0 and not rows and k <= 1:
                # each tuple is (), a blank line that read_text drops; k >= 2 would repeat it
                rows = [[]] * (k + 1)
            if k < 0 or len(rows) != k + 1:
                raise ParseError(
                    f"instance declares {k} generators but file has {max(len(rows) - 1, 0)}")
        if not 0 <= n <= MAX_ARITY:
            raise ParseError(f"instance arity {n} outside 0..{MAX_ARITY}")
        rows = [labels(row) for row in rows]
        return SmpInstance(GenSet(band=band, n=n, members=tuple(rows[:-1])), rows[-1])


def format_instance(inst: SmpInstance) -> str:
    lines = [f"{inst.gens.n} {len(inst.gens.members)}"]
    for g in inst.gens.members:
        lines.append(" ".join(str(v + 1) for v in g))
    lines.append(" ".join(str(v + 1) for v in inst.target))
    return "\n".join(lines) + "\n"
