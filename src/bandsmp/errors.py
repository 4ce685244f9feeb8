"""Exception hierarchy, and the reader that turns band and instance files
and label lists from outside into ints. Messages use 1-based element
labels throughout."""

from __future__ import annotations

import json
from contextlib import contextmanager, suppress
from operator import index


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
    """Re-raise malformed-text failures (bad integers, JSON values that are
    not integers, missing JSON keys, truncated JSON) inside the block as a
    one-line ParseError."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{what}: missing key {exc}") from None
    except (OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"{what}: {exc}") from None


def read_text(text: str):
    """A band or instance file as Python values: the object of a text that
    starts with '{' (JSON), otherwise one list of ints for each line that is
    neither blank nor a '#' comment. A bad token names its 1-based line,
    blank and comment lines counted. Call it inside parsing()."""
    if text.lstrip().startswith("{"):
        return json.loads(text)
    rows = []
    for i, line in enumerate(text.splitlines(), 1):
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            try:
                rows.append(list(map(int, tokens)))
            except ValueError as exc:
                raise ValueError(f"line {i}: {exc}") from None
    return rows


def parse_file(path: str, parse):
    """parse(the text of a band, instance or DIMACS file), with the file
    named in any error that parse raises, of the same class, and in a
    ParseError for a file that is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except BandSmpError as exc:
        exc.args = (f"{path}: {exc}",)  # some classes take other constructor arguments
        raise
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def integer(value) -> int:
    """value if it is an int; a JSON 2.9, 2.0, true or "3" is refused, not
    read as 2, 2, 1 or 3."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def as_int(value, what: str) -> int:
    """value as an int through operator.index, so an int or a numpy integer
    passes; a bool, 1.5 or "3" is refused with an OutOfRange naming what,
    not read as 1 (operator.index(True) is 1) or left to a bare TypeError."""
    if not isinstance(value, bool):
        with suppress(TypeError):
            return index(value)
    raise OutOfRange(f"{what} {value!r} is not an integer")


def labels(values: list) -> tuple[int, ...]:
    """1-based labels from outside as 0-based ints; only ints pass, as in
    integer(). Call it inside parsing()."""
    if not set(map(type, values)) <= {int}:  # the fast test; integer() names the culprit
        for v in values:
            integer(v)
    return tuple([v - 1 for v in values])


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

class NotAWitness(BandSmpError):
    pass


# --- decision algorithms ---

class PreconditionViolated(BandSmpError):
    def __init__(self, which: str):
        self.which = which
        super().__init__(f"precondition violated: {which}")


class NotTractable(BandSmpError):
    pass


# --- reduction ---

class DimacsSyntaxError(BandSmpError):
    def __init__(self, line: int | None, detail: str):
        self.line = line
        where = "" if line is None else f" on line {line}"
        super().__init__(f"DIMACS syntax error{where}: {detail}")


class NotAWitnessingWord(BandSmpError):
    pass
