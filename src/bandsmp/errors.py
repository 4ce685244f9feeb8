"""Exception hierarchy. Messages use 1-based element labels throughout."""

from __future__ import annotations

from contextlib import contextmanager


class BandSmpError(Exception):
    """Base class for all library errors."""


# --- band construction / validation ---

class OutOfRange(BandSmpError):
    pass


class NotIdempotent(BandSmpError):
    def __init__(self, a: int):
        self.a = a
        super().__init__(f"not idempotent: element {a + 1} has {a + 1}*{a + 1} != {a + 1}")


class NotAssociative(BandSmpError):
    def __init__(self, a: int, b: int, c: int):
        self.a, self.b, self.c = a, b, c
        super().__init__(
            f"not associative at ({a + 1},{b + 1},{c + 1}): "
            f"({a + 1}*{b + 1})*{c + 1} != {a + 1}*({b + 1}*{c + 1})"
        )


class UnknownName(BandSmpError):
    pass


class SizeBoundExceeded(BandSmpError):
    pass


# --- input formats ---

class ParseError(BandSmpError):
    pass


@contextmanager
def parsing(what: str):
    """Re-raise malformed-text failures (bad integers, numbers too large for
    an int such as 1e400, missing JSON keys, truncated JSON) inside the
    block as a one-line ParseError."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{what}: missing key {exc}") from None
    except (OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"{what}: {exc}") from None


# --- direct powers ---

class ArityMismatch(BandSmpError):
    pass


class CapExceeded(BandSmpError):
    def __init__(self, size_so_far: int):
        self.size_so_far = size_so_far
        super().__init__(f"closure cap exceeded after {size_so_far} tuples")


# --- words ---

class EmptyWord(BandSmpError):
    pass


class UnboundVariable(BandSmpError):
    pass


class UnsupportedIndex(BandSmpError):
    pass


class ArityTooLarge(BandSmpError):
    pass


# --- quasiidentities ---

class BudgetExceeded(BandSmpError):
    pass


class NotAWitness(BandSmpError):
    pass


class UnexpectedSize(BandSmpError):
    def __init__(self, size: int):
        self.size = size
        super().__init__(f"generated subsemigroup has size {size}, expected one of 9, 13, 17")


# --- decision algorithms ---

class PreconditionViolated(BandSmpError):
    def __init__(self, which: str):
        self.which = which
        super().__init__(f"precondition violated: {which}")


class LambdaNotSatisfied(BandSmpError):
    pass


class NotTractable(BandSmpError):
    pass


class IndexOutOfRange(BandSmpError):
    pass


# --- reduction ---

class DimacsSyntaxError(BandSmpError):
    def __init__(self, line: int, detail: str):
        self.line = line
        super().__init__(f"DIMACS syntax error on line {line}: {detail}")


class TooManyVariables(BandSmpError):
    pass


class UnusedVariable(BandSmpError):
    pass


class NotAWitnessingWord(BandSmpError):
    pass
