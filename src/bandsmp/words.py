"""Free-semigroup words over variables x1, x2, ... and band identities.

Words are tuples of 1-based variable indices; the empty tuple is the
empty word. Includes the left-cut s, sigma, duals, the recursive normal
form map h_n with its length bound p_n, the hard-coded G/H/I words for
n = 2..4, and exhaustive identity checking on bands.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import product
from typing import Sequence, Union

from .band import Band
from .errors import (ArityTooLarge, EmptyWord, ParseError, UnboundVariable,
                     UnsupportedIndex, parsing)

Word = tuple[int, ...]

DEFAULT_IDENTITY_BUDGET = 10_000_000


def word(*letters: int) -> Word:
    return tuple(letters)


def word_from_text(text: str) -> Word:
    """Parse the CLI word syntax: space-separated variable indices from 1."""
    with parsing(f"word {text!r}"):
        w = tuple(int(v) for v in text.split())
    if any(v < 1 for v in w):
        raise ParseError(f"word {text!r}: variable indices start at 1")
    return w


def word_to_text(w: Word) -> str:
    return " ".join(str(v) for v in w)


def content(w: Word) -> frozenset[int]:
    """The set of variables occurring in w."""
    return frozenset(w)


def left_cut_s(w: Word) -> Word:
    """The longest left cut missing exactly one variable of w.

    For w = uxv with c(u) != c(ux) = c(w) this is u; s of the empty
    word is empty.
    """
    seen: set[int] = set()
    last_new = -1
    for i, v in enumerate(w):
        if v not in seen:
            seen.add(v)
            last_new = i
    return w[:last_new] if last_new >= 0 else ()


def sigma(w: Word) -> Word:
    """One-letter word: the last variable under first-occurrence order."""
    seen: set[int] = set()
    last = None
    for v in w:
        if v not in seen:
            seen.add(v)
            last = v
    return (last,) if last is not None else ()


def dual_word(w: Word) -> Word:
    return tuple(reversed(w))


def h_n(n: int, w: Word) -> Word:
    """The normal-form word map h_n; h_n(w) = h_n(s(w)) sigma(w) dual(h_{n-1}(dual w)).

    Both recursions are loops over a stack of letters and (n, w, dualize)
    calls. With s-cuts w_0 = w, w_{j+1} = s(w_j), h_n(w) is sigma(w_j)
    dual(h_{n-1}(dual w_j)) over j = L..0, and its dual the reverse.
    """
    if n < 2:
        raise UnsupportedIndex(f"h_n is defined for n >= 2, got {n}")
    out, stack = [], [(n, tuple(w), False)]
    while stack:
        entry = stack.pop()
        if not isinstance(entry, tuple):
            out.append(entry)
            continue
        n, w, dualize = entry
        if n == 2:
            out += w[:1]  # h_2(w) is the first letter of w
            continue
        pieces = []  # pushed in reverse of the order they come out in
        while w:
            cut = left_cut_s(w)
            pieces += [(n - 1, dual_word(w), not dualize), w[len(cut)]]
            w = cut
        stack += reversed(pieces) if dualize else pieces
    return tuple(out)


def length_bound_p(n: int, k: int) -> int:
    """Length bound for h_n on words over k variables: p_2 = 1, p_{n+1}(k) = k(1 + p_n(k)),
    so p_n(1) = n - 1 and p_n(k) = (k^(n-1) - k)/(k - 1) + k^(n-2) for k >= 2."""
    if n < 2:
        raise UnsupportedIndex(f"p_n is defined for n >= 2, got {n}")
    if k < 1:
        raise UnsupportedIndex(f"k must be positive, got {k}")
    # refuse what str() would; p_n(k) >= k^(n-2) tells most before the power
    limit = sys.get_int_max_str_digits()
    too_long = UnsupportedIndex(f"p_{n}({k}) cannot be printed: more than {limit} digits")
    if limit and (n - 2) * math.log10(k) > limit + 1:
        raise too_long
    q = k ** (n - 2)
    p = n - 1 if k == 1 else (q * k - k) // (k - 1) + q
    if limit and p >= 10 ** limit:
        raise too_long
    return p


_GHI: dict[tuple[str, int], Word] = {
    ("G", 2): (2, 1),
    ("H", 2): (2,),
    ("I", 2): (2, 1, 2),
    ("G", 3): (3, 1, 2),
    ("H", 3): (3, 1, 2, 3, 2),
    ("I", 3): (3, 1, 2, 3, 2, 1, 2),
    ("G", 4): (4, 2, 1, 3),
    ("H", 4): (4, 2, 1, 3, 4, 2, 3, 2, 1, 3),
    ("I", 4): (4, 2, 1, 3, 4, 2, 1, 2, 3, 2, 1, 3),
}


def ghi_word(family: str, n: int) -> Word:
    """The literal G_n / H_n / I_n word for n in {2, 3, 4}."""
    key = (family, n)
    if key not in _GHI:
        raise UnsupportedIndex(
            f"no hard-coded word for {family}_{n}; only G/H/I with n in 2..4"
        )
    return _GHI[key]


@dataclass(frozen=True)
class Identity:
    """An equation lhs ~ rhs between nonempty words."""

    lhs: Word
    rhs: Word

    def __post_init__(self):
        if not self.lhs and not self.rhs:
            raise EmptyWord("an identity needs at least one nonempty side")

    def dual(self) -> "Identity":
        return Identity(dual_word(self.lhs), dual_word(self.rhs))


def eval_word(band: Band, w: Word, assignment: Sequence[int]) -> int:
    """The term function of w at the assignment (assignment[i] is x_{i+1})."""
    if not w:
        raise EmptyWord("cannot evaluate the empty word in a band")
    t = band.table
    try:
        acc = assignment[w[0] - 1]
        for v in w[1:]:
            acc = t[acc][assignment[v - 1]]
    except IndexError:
        missing = max(w)
        raise UnboundVariable(
            f"assignment of length {len(assignment)} does not cover x{missing}"
        ) from None
    return acc


def satisfies_identity(
    band: Band,
    identity: Identity,
) -> Union[bool, tuple[int, ...]]:
    """Exhaustively check an identity; True, or the first counterexample.

    Assignments run in odometer order over the variables of the identity
    (unconstrained variables pinned to element 0), so the returned
    counterexample is the lexicographically least one.
    """
    if not identity.lhs or not identity.rhs:
        raise EmptyWord("identity satisfaction needs both sides nonempty")
    variables = sorted(content(identity.lhs) | content(identity.rhs))
    m, budget = band.order, DEFAULT_IDENTITY_BUDGET
    if m ** len(variables) > budget:
        raise ArityTooLarge(
            f"{m}^{len(variables)} assignments exceed the budget of {budget}"
        )
    width = max(variables)
    if width > budget:  # the assignment list holds x1..x_width
        raise ArityTooLarge(f"variable x{width} exceeds the budget of {budget}")
    assignment = [0] * width
    for values in product(range(m), repeat=len(variables)):
        for var, val in zip(variables, values):
            assignment[var - 1] = val
        if eval_word(band, identity.lhs, assignment) != eval_word(
            band, identity.rhs, assignment
        ):
            return tuple(assignment)
    return True
