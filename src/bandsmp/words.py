"""Free-semigroup words over variables x1, x2, ... and band identities.

Words are tuples of 1-based variable indices; the empty tuple is the
empty word. Includes the left-cut s, sigma, duals, the recursive normal
form map h_n with its length bound p_n, the G/H/I words by their
recursion, and exhaustive identity checking on bands.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .band import Band, read_elements
from .errors import (ArityTooLarge, EmptyWord, OutOfRange, ParseError, UnboundVariable,
                     UnsupportedIndex, as_int, parsing)
from .power import _BLOCK_BYTES, _fold

Word = tuple[int, ...]

DEFAULT_IDENTITY_BUDGET = 10_000_000
#: the most letters h_n and ghi_word build
MAX_WORD_LENGTH = 10_000_000


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
    word is empty. x is the variable that occurs last for the first time.
    """
    return w[:w.index(next(reversed(dict.fromkeys(w))))] if w else ()


def sigma(w: Word) -> Word:
    """One-letter word: the last variable under first-occurrence order."""
    return w[len(left_cut_s(w)):][:1]


def dual_word(w: Word) -> Word:
    return tuple(reversed(w))


def _h_length(n: int, w: Word) -> int:
    """|h_n(w)| up to MAX_WORD_LENGTH, else some larger number: level by level
    over the distinct words the recursion reaches, with their numbers of calls."""
    if w and n - 1 > MAX_WORD_LENGTH:  # every level adds a letter or more
        return n - 1
    length, level = 0, Counter([tuple(w)])
    for _ in range(n - 2):
        if length > MAX_WORD_LENGTH or not level:  # the empty word empties the level
            break
        below = Counter()
        for u, calls in level.items():
            while u:  # a letter, and a call on dual(u_j), for each s-cut u_j
                length += calls
                below[dual_word(u)] += calls
                u = left_cut_s(u)
        level = below
    return length + sum(calls for u, calls in level.items() if u)  # h_2(u) = u[:1]


def h_n(n: int, w: Word) -> Word:
    """The normal-form word map h_n; h_n(w) = h_n(s(w)) sigma(w) dual(h_{n-1}(dual w)).

    Both recursions are loops over a stack of letters and (n, w, dualize)
    calls. With s-cuts w_0 = w, w_{j+1} = s(w_j), h_n(w) is sigma(w_j)
    dual(h_{n-1}(dual w_j)) over j = L..0, and its dual the reverse. An
    output longer than MAX_WORD_LENGTH is refused before it is built.
    """
    n = as_int(n, "n")
    if n < 2:
        raise UnsupportedIndex(f"h_n is defined for n >= 2, got {n}")
    w = _variables(w)
    if _h_length(n, w) > MAX_WORD_LENGTH:
        raise ArityTooLarge(f"h_n(w) has more than {MAX_WORD_LENGTH} letters")
    out, stack = [], [(n, w, False)]
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
    n, k = as_int(n, "n"), as_int(k, "k")
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


def ghi_word(family: str, n: int) -> Word:
    """G_n, H_n or I_n for n >= 2, from G_2 = x2 x1, H_2 = x2, I_2 = x2 x1 x2 and
    G_n = x_n dual(G_{n-1}), H_n = G_n x_n dual(H_{n-1}), I_n = G_n x_n dual(I_{n-1})."""
    bases = {"G": (2, 1), "H": (2,), "I": (2, 1, 2)}
    n = as_int(n, "n")
    if family not in bases or n < 2:
        raise UnsupportedIndex(f"no word {family}_{n}: G/H/I are defined for n >= 2")
    length = n if family == "G" else (n * n + 3 * n - 8) // 2 + 2 * (family == "I")
    if length > MAX_WORD_LENGTH:
        raise ArityTooLarge(f"{family}_{n} has {length} letters, more than {MAX_WORD_LENGTH}")
    # W_i = p_i dual(W_{i-1}) in time linear in |W_n|: w holds W_i, or its dual when flipped
    w, flipped = deque(bases[family]), False
    for i in range(3, n + 1):
        p = (i,) if family == "G" else ghi_word("G", i) + (i,)
        (w.extendleft if flipped else w.extend)(reversed(p))
        flipped = not flipped
    return tuple(reversed(w) if flipped else w)


def _variables(w: Iterable) -> Word:
    """w read once into a tuple of ints from 1, each by as_int (x0 would read the last value)."""
    w = tuple(w)
    if not set(map(type, w)) <= {int}:  # the fast test; as_int names the culprit
        w = tuple(as_int(v, "variable") for v in w)
    if min(w, default=1) < 1:
        raise OutOfRange("variable indices start at 1")
    return w


@dataclass(frozen=True)
class Identity:
    """An equation lhs ~ rhs between nonempty words."""

    lhs: Word
    rhs: Word

    def __post_init__(self):
        lhs, rhs = tuple(self.lhs), tuple(self.rhs)
        if not lhs or not rhs:
            raise EmptyWord("an identity needs two nonempty sides")
        w = _variables(lhs + rhs)
        object.__setattr__(self, "lhs", w[:len(lhs)])
        object.__setattr__(self, "rhs", w[len(lhs):])

    def dual(self) -> "Identity":
        return Identity(dual_word(self.lhs), dual_word(self.rhs))


def eval_word(band: Band, w: Word, assignment: Sequence[int]) -> int:
    """The term function of w at the assignment (assignment[i] is x_{i+1})."""
    w = _variables(w)
    if not w:
        raise EmptyWord("cannot evaluate the empty word in a band")
    try:
        values = [assignment[v - 1] for v in w]
    except IndexError:
        k = len(assignment)
        raise UnboundVariable(f"assignment of length {k} does not cover x{max(w)}") from None
    # -1 would read the last row; 2.5 no row
    return band.prod(read_elements(values, band.order, "assignment value").tolist())


def satisfies_identity(
    band: Band,
    identity: Identity,
) -> Union[bool, tuple[int, ...]]:
    """Exhaustively check an identity; True, or the first counterexample.

    Assignments run in odometer order over the variables of the identity
    (unconstrained variables pinned to element 0), so the returned
    counterexample is the lexicographically least one. Both sides are
    evaluated over a block of assignments at a time, one array a variable.
    """
    variables = sorted(content(identity.lhs) | content(identity.rhs))
    m, budget, v = band.order, DEFAULT_IDENTITY_BUDGET, len(variables)
    if m ** v > budget:
        raise ArityTooLarge(f"{m}^{v} assignments exceed the budget of {budget}")
    width = max(variables)
    if width > budget:  # the counterexample holds x1..x_width
        raise ArityTooLarge(f"variable x{width} exceeds the budget of {budget}")
    step = max(1, _BLOCK_BYTES // np.dtype(np.intp).itemsize)
    for start in range(0, m ** v, step):
        a = np.arange(start, min(start + step, m ** v))
        # an assignment's number in odometer order has the first variable's value as top digit
        cols = {x: a // m ** (v - 1 - j) % m for j, x in enumerate(variables)}
        differ = _fold(band.itable, cols, identity.lhs) != _fold(band.itable, cols, identity.rhs)
        if differ.any():
            i = int(differ.argmax())
            return tuple(int(cols[x][i]) if x in cols else 0 for x in range(1, width + 1))
    return True
