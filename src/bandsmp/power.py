"""Tuples in direct powers S^n and the brute-force closure oracle.

A tuple is a plain tuple of 0-based element ids. The closure oracle is the
fallback decision procedure and the verification arbiter for everything
the polynomial algorithms decide.

The closure BFS is array-backed. Tuples are rows of a small-int numpy
array (one byte a coordinate for bands of order up to 256, two above), a
whole level's products with the generators are formed at once, and they
are deduplicated as fixed-width byte keys by sorting. A stored tuple costs
about n bytes, plus int32 parent, generator and rank indices. The order in
which tuples are found, and so every witness word, is that of the plain
one-tuple-at-a-time BFS.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .errors import ArityMismatch, CapExceeded, OutOfRange, parsing

if TYPE_CHECKING:
    from .band import Band

ElementTuple = tuple[int, ...]

DEFAULT_CAP = 5_000_000


@dataclass(frozen=True)
class GenSet:
    """Ordered generator set inside S^n; order fixes all search determinism."""

    band: Band
    n: int
    members: tuple[ElementTuple, ...]

    def __post_init__(self):
        seen = set()
        for t in self.members:
            if len(t) != self.n:
                raise ArityMismatch(
                    f"generator {t} has arity {len(t)}, expected {self.n}"
                )
            for v in t:
                if not 0 <= v < self.band.order:
                    raise OutOfRange(f"coordinate {v + 1} outside 1..{self.band.order}")
            if t in seen:
                raise ArityMismatch(f"duplicate generator {t}")
            seen.add(t)

    @classmethod
    def of(cls, band: Band, members: Iterable[Sequence[int]], n: Optional[int] = None):
        members = tuple(tuple(t) for t in members)
        if n is None:
            if not members:
                raise ArityMismatch("cannot infer arity from an empty generator set")
            n = len(members[0])
        return cls(band=band, n=n, members=members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


@dataclass(frozen=True)
class SmpInstance:
    """A subpower membership instance: generators A and target b in S^n."""

    gens: GenSet
    target: ElementTuple

    def __post_init__(self):
        if len(self.target) != self.gens.n:
            raise ArityMismatch(
                f"target arity {len(self.target)} != generator arity {self.gens.n}"
            )
        for v in self.target:
            if not 0 <= v < self.gens.band.order:
                raise OutOfRange(f"coordinate {v + 1} outside 1..{self.gens.band.order}")

    @property
    def band(self) -> Band:
        return self.gens.band


def mul_tuple(band: Band, a: ElementTuple, b: ElementTuple) -> ElementTuple:
    if len(a) != len(b):
        raise ArityMismatch(f"arities {len(a)} and {len(b)} differ")
    t = band.table
    return tuple(t[x][y] for x, y in zip(a, b))


def prod_tuples(band: Band, tuples: Sequence[ElementTuple]) -> ElementTuple:
    if not tuples:
        raise ValueError("product of an empty tuple sequence")
    acc = tuples[0]
    for t in tuples[1:]:
        acc = mul_tuple(band, acc, t)
    return acc


def leq_cw(mat: Sequence[Sequence[bool]], a: ElementTuple, b: ElementTuple) -> bool:
    """a <= b componentwise under the preorder with boolean table mat."""
    return all(mat[x][y] for x, y in zip(a, b))


def preorder_cw(band: Band, rel: str, a: ElementTuple, b: ElementTuple) -> bool:
    """Componentwise preorder; equals the preorder in the band S^n."""
    if len(a) != len(b):
        raise ArityMismatch(f"arities {len(a)} and {len(b)} differ")
    if rel == "L":
        mat = band.green.leq_l
    elif rel == "R":
        mat = band.green.leq_r
    elif rel == "J":
        mat = band.green.leq_j
    else:
        raise ValueError(f"unknown preorder {rel!r}")
    return leq_cw(mat, a, b)


#: bytes of product rows formed in one step; bounds the BFS's scratch memory
_BLOCK_BYTES = 1 << 17


class _Closure:
    """The tuples a closure BFS has found, numbered in insertion order.

    Their rows are kept as fixed-width byte keys in a few sorted runs, each
    key with its insertion number; a run is merged into the one before it
    once it reaches half that one's size, so every key is copied O(log N)
    times. Tuple j was found as the product of tuple parent[j] and generator
    gen[j]; a generator has parent -1 and its own index as gen. hit is the
    number of the target once it is found.
    """

    def __init__(self, width: int, dtype: np.dtype):
        self.key_dtype = np.dtype(f"S{width * dtype.itemsize}")
        self.runs: list[tuple[np.ndarray, np.ndarray]] = []
        self.size = 0
        self.hit: Optional[int] = None
        self._dtype, self._width = dtype, width
        self._parent: list[np.ndarray] = []
        self._gen: list[np.ndarray] = []

    def add(self, rows: np.ndarray, where: np.ndarray, start: int, k: int,
            target: Optional[np.bytes_], cap: int) -> np.ndarray:
        """Store the rows not seen before, first occurrences in row order.

        Row r is the product of tuple start + where[r] // k and generator
        where[r] % k. Returns the new rows; raises CapExceeded as soon as
        more than cap tuples would be stored before the target.
        """
        keys = rows.view(self.key_dtype).ravel()
        perm = keys.argsort(kind="stable")
        keys = keys[perm]
        head = np.ones(len(keys), bool)  # first of a run of equal keys
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        new, first = keys[head], perm[head]
        for run, _ in self.runs:
            fresh = np.flatnonzero(run.take(run.searchsorted(new), mode="clip") != new)
            new, first = new[fresh], first[fresh]
        if not len(new):
            return rows[:0]
        order = first.argsort()
        rank = np.empty(len(new), np.int32)
        rank[order] = np.arange(self.size, self.size + len(new), dtype=np.int32)
        stored = self.size + len(new)
        if target is not None:
            i = new.searchsorted(target)
            if i < len(new) and new[i] == target:
                self.hit = int(rank[i])
                stored = self.hit + 1
        if stored > cap:
            raise CapExceeded(max(self.size, cap) + 1)
        self.runs.append((new, rank))
        while len(self.runs) > 1 and len(self.runs[-2][0]) <= 2 * len(self.runs[-1][0]):
            b, rb = self.runs.pop()
            a, ra = self.runs.pop()
            at = a.searchsorted(b) + np.arange(len(b))
            old = np.ones(len(a) + len(b), bool)
            old[at] = False
            keys = np.empty(len(old), self.key_dtype)
            keys[at], keys[old] = b, a
            ranks = np.empty(len(old), np.int32)
            ranks[at], ranks[old] = rb, ra
            self.runs.append((keys, ranks))
        self.size += len(new)
        picked = first[order]
        self._parent.append((start + where[picked] // k).astype(np.int32))
        self._gen.append((where[picked] % k).astype(np.int32))
        return rows[picked]

    def rows(self, n: int) -> np.ndarray:
        """The stored tuples as an (size, n) array in insertion order."""
        out = np.empty((self.size, self._width), self._dtype)
        for keys, rank in self.runs:
            out[rank] = keys.view(self._dtype).reshape(len(keys), self._width)
        return out[:, :n]

    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """(parent, gen), indexed by insertion number."""
        return np.concatenate(self._parent), np.concatenate(self._gen)

    def word(self) -> list[int]:
        """The 1-based generator word that the BFS built the target from."""
        parent, gen = self.links()
        j = self.hit
        word = [int(gen[j]) + 1]
        while parent[j] >= 0:
            j = int(parent[j])
            word.append(int(gen[j]) + 1)
        word.reverse()
        return word


def _bfs(
    band: Band,
    members: Sequence[ElementTuple],
    n: int,
    cap: int,
    stop_at: Optional[ElementTuple],
) -> _Closure:
    """The closure BFS over n-tuples, stopping once stop_at is found.

    Level by level: the products of a block of the last level's tuples with
    every generator are formed at once, in (tuple, generator) order, and
    their first occurrences that are new are stored in that order. This is
    the order of the one-tuple-at-a-time BFS, so every tuple gets the same
    parent, and every word is BFS-shortest and the same from run to run.
    """
    table = band.array
    m, k = band.order, len(members)
    gens = np.array(members, dtype=table.dtype).reshape(k, n)
    if stop_at is not None and not all(0 <= v < m for v in stop_at):
        stop_at = None  # outside S^n, so never found
    target = None if stop_at is None else np.array(stop_at, dtype=table.dtype)
    if n == 0:  # () is stored as the 1-tuple (0,), which 0·0 = 0 keeps closed
        gens = np.zeros((k, 1), table.dtype)
        target = None if stop_at is None else np.zeros(1, table.dtype)
    width = gens.shape[1]
    found = _Closure(width, table.dtype)
    if target is not None:
        target = target.view(found.key_dtype)[0]
    # the generators: products of an empty tuple numbered -1; they never
    # count against the cap
    level = found.add(gens, np.arange(k), -1, k, target, max(cap, k))
    flat = table.ravel()
    kd = found.key_dtype
    gen_keys = gens.view(kd)[:, 0]
    step = max(1, _BLOCK_BYTES // max(1, k * width * table.itemsize))
    start = 0
    while len(level) and found.hit is None:
        following = []
        for c in range(0, len(level), step):
            block = level[c:c + step]
            # one take per generator: a flat index for the whole block would
            # take eight bytes per product byte; the indices are in range, and
            # mode "wrap" lets take write to the strided out without a buffer
            products = np.empty((len(block), k, width), table.dtype)
            base = block.astype(np.intp) * m
            for j in range(k):
                flat.take(base + gens[j], out=products[:, j, :], mode="wrap")
            # a product equal to its tuple or to its generator is stored already
            keys = products.view(kd)[..., 0]
            where = np.flatnonzero((keys != block.view(kd)) & (keys != gen_keys))
            rows = products.reshape(-1, width)[where]
            del products, keys
            following.append(found.add(rows, where, start + c, k, target, cap))
            if found.hit is not None:
                break
        start += len(level)
        level = np.concatenate(following)
    return found


def closure(gens: GenSet, cap: int = DEFAULT_CAP) -> list[ElementTuple]:
    """Full <A> in BFS insertion order; CapExceeded if it grows past cap."""
    rows = _bfs(gens.band, gens.members, gens.n, cap, stop_at=None).rows(gens.n)
    out: list[ElementTuple] = []
    for c in range(0, len(rows), 256):  # no list of lists for the whole closure
        out.extend(map(tuple, rows[c:c + 256].tolist()))
    return out


def member_closure(gens: GenSet, b: ElementTuple, cap: int = DEFAULT_CAP) -> bool:
    """Exact membership b in <A> by closure, with early exit."""
    if len(b) != gens.n:
        raise ArityMismatch(f"target arity {len(b)} != generator arity {gens.n}")
    return _bfs(gens.band, gens.members, gens.n, cap, stop_at=b).hit is not None


def member_closure_word(
    gens: GenSet, b: ElementTuple, cap: int = DEFAULT_CAP
) -> Optional[list[int]]:
    """A shortest witnessing generator word (1-based indices), or None."""
    if len(b) != gens.n:
        raise ArityMismatch(f"target arity {len(b)} != generator arity {gens.n}")
    found = _bfs(gens.band, gens.members, gens.n, cap, stop_at=b)
    return None if found.hit is None else found.word()


# -- instance file format -----------------------------------------------------

def parse_instance(text: str, band: Band) -> SmpInstance:
    """Parse the SMP instance text format or its JSON equivalent (1-based)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        with parsing("JSON instance"):
            obj = json.loads(stripped)
            n = int(obj["n"])
            gens = [tuple(int(v) - 1 for v in row) for row in obj["generators"]]
            target = tuple(int(v) - 1 for v in obj["target"])
        return SmpInstance(GenSet(band=band, n=n, members=tuple(gens)), target)
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ArityMismatch("empty instance file")
    head = lines[0].split()
    if len(head) != 2:
        raise ArityMismatch("instance header must be 'n k'")
    with parsing("instance"):
        n, k = int(head[0]), int(head[1])
        if len(lines) != k + 2:
            raise ArityMismatch(
                f"instance declares {k} generators but file has {len(lines) - 2}"
            )
        rows = [tuple(int(v) - 1 for v in ln.split()) for ln in lines[1:]]
    return SmpInstance(GenSet(band=band, n=n, members=tuple(rows[:-1])), rows[-1])


def format_instance(inst: SmpInstance) -> str:
    lines = [f"{inst.gens.n} {len(inst.gens.members)}"]
    for g in inst.gens.members:
        lines.append(" ".join(str(v + 1) for v in g))
    lines.append(" ".join(str(v + 1) for v in inst.target))
    return "\n".join(lines) + "\n"


def instance_to_json(inst: SmpInstance) -> str:
    return json.dumps(
        {
            "n": inst.gens.n,
            "generators": [[v + 1 for v in g] for g in inst.gens.members],
            "target": [v + 1 for v in inst.target],
        }
    )
