"""Tuples in direct powers S^n and the brute-force closure oracle.

A tuple is a plain tuple of 0-based element ids. The closure oracle is the
fallback decision procedure and the verification arbiter for everything
the polynomial algorithms decide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .errors import ArityMismatch, CapExceeded, OutOfRange, parsing

if TYPE_CHECKING:
    from .band import Band, Table

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


def _bfs(
    table: Table,
    members: Sequence[ElementTuple],
    cap: int,
    stop_at: Optional[ElementTuple],
):
    """The closure BFS: returns (order list, parent map), stopping early at stop_at.

    Tuples of any arity, 1-tuples included, are multiplied componentwise
    by table; members must all have the same arity. parent[t] = (parent
    tuple, generator index) for non-generator t.
    """
    order: list[ElementTuple] = []
    parent: dict[ElementTuple, Optional[tuple[ElementTuple, int]]] = {}
    for g in members:
        if g not in parent:
            parent[g] = None
            order.append(g)
    if stop_at is not None and stop_at in parent:
        return order, parent
    i = 0
    while i < len(order):
        a = order[i]
        i += 1
        for gi, g in enumerate(members):
            p = tuple(table[x][y] for x, y in zip(a, g))
            if p not in parent:
                parent[p] = (a, gi)
                order.append(p)
                if len(order) > cap:
                    raise CapExceeded(len(order))
                if p == stop_at:
                    return order, parent
    return order, parent


def closure(gens: GenSet, cap: int = DEFAULT_CAP) -> list[ElementTuple]:
    """Full <A> in BFS insertion order; CapExceeded if it grows past cap."""
    order, _ = _bfs(gens.band.table, gens.members, cap, stop_at=None)
    return order


def member_closure(gens: GenSet, b: ElementTuple, cap: int = DEFAULT_CAP) -> bool:
    """Exact membership b in <A> by closure, with early exit."""
    if len(b) != gens.n:
        raise ArityMismatch(f"target arity {len(b)} != generator arity {gens.n}")
    _, parent = _bfs(gens.band.table, gens.members, cap, stop_at=b)
    return b in parent


def member_closure_word(
    gens: GenSet, b: ElementTuple, cap: int = DEFAULT_CAP
) -> Optional[list[int]]:
    """A shortest witnessing generator word (1-based indices), or None."""
    if len(b) != gens.n:
        raise ArityMismatch(f"target arity {len(b)} != generator arity {gens.n}")
    _, parent = _bfs(gens.band.table, gens.members, cap, stop_at=b)
    if b not in parent:
        return None
    word: list[int] = []
    cur = b
    while parent[cur] is not None:
        prev, gi = parent[cur]
        word.append(gi + 1)
        cur = prev
    word.append(gens.members.index(cur) + 1)
    word.reverse()
    return word


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
