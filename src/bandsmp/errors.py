"""Exception hierarchy, and the reader that turns band and instance files
into int arrays. Messages use 1-based element labels throughout."""

from __future__ import annotations

import json
from contextlib import contextmanager, suppress
from itertools import chain
from operator import index

import numpy as np


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


#: bytes that end a line for str.splitlines(), bytes that str.split() splits at, each
#: byte's digit value, the bytes of a token that int() reads, and the most digits of one it does not
_BREAK, _SPACE = np.zeros(256, bool), np.zeros(256, bool)
_BREAK[[*b"\n\x0b\x0c\r\x1c\x1d\x1e"]] = _SPACE[[*b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "]] = True
_INTP, _DIGIT = np.iinfo(np.intp), np.arange(256, dtype=np.intp) - 48
_ODD, _DIGITS = ~_SPACE & (_DIGIT.view(np.uintp) > 9), len(str(_INTP.max)) - 1
#: the rest of str.split()'s whitespace and of str.splitlines()'s line breaks, as ASCII
_WIDE = str.maketrans("\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009"
                      "\u200a\u202f\u205f\u3000\x85\u2028\u2029", " " * 16 + "\n" * 3)
#: bytes read at a time, whole lines, to bound the tokenizer's temporaries
_CHUNK = 1 << 16


def read_text(text: str):
    """A band or instance file as Python values: the object of a text that
    starts with '{' (JSON), otherwise the ints of the lines that are neither
    blank nor a '#' comment, as one intp array (object past intp), and each
    line's count of them. Lines and tokens are str.splitlines()'s and
    str.split()'s, and a token is read as int() reads it; a bad token names
    its 1-based line, blank and comment lines counted. Call it inside parsing()."""
    if text.lstrip().startswith("{"):
        return json.loads(text)
    raw = text.replace("\r\n", "\n")  # one line break, as splitlines() reads it
    raw = (raw if raw.isascii() else raw.translate(_WIDE)).encode("utf-8", "surrogatepass")
    raw = b"\n%s\n" % raw  # each chunk then starts and ends with a line break
    values, lengths, at, line = [], [], 1, 0
    while at < len(raw):  # a chunk, with the line break before it, which is counted once
        end = raw.find(b"\n", at + _CHUNK) + 1 or len(raw)
        b = np.frombuffer(raw, np.uint8, end - at + 1, at - 1)
        line, at = _read_lines(b, line, values, lengths) - 1, end
    return tuple(p[0] if len(p) == 1 else np.concatenate(p) for p in (values, lengths))


def _read_lines(b: np.ndarray, line: int, values: list, lengths: list) -> int:
    """Append the ints and the line lengths of b, which starts and ends with a line
    break, to values and lengths. A token after b's i-th break is on line line + i
    of the text; returned is line plus b's breaks."""
    space = _SPACE.take(b)
    edges = (space[1:] != space[:-1]).nonzero()[0]  # a token is b[s + 1:s + 1 + size]
    starts, size = edges[::2] + 1, edges[1::2] - edges[::2]
    breaks = _BREAK.take(b).nonzero()[0]
    row = breaks.searchsorted(starts)  # each token's line in b, 1 for the first
    slow = size > _DIGITS
    if len(odd := _ODD.take(b).nonzero()[0]):  # a '#', or a token that int() reads
        slow[starts.searchsorted(odd, "right") - 1] = True
        heads = row[(np.diff(row, prepend=0) > 0) & (b.take(starts) == ord("#"))]
        keep = ~np.isin(row, heads)  # the tokens of the lines that are not comments
        starts, size, row, slow = starts[keep], size[keep], row[keep], slow[keep]
    val = _DIGIT.take(b.take(starts))
    for j in range(1, _DIGITS):
        if not len(at := (size > j).nonzero()[0]):
            break
        val[at] = val.take(at) * 10 + _DIGIT.take(b.take(starts.take(at) + j))
    for i in slow.nonzero()[0].tolist():
        try:
            v = int(bytes(b[starts[i]:starts[i] + size[i]]).decode("utf-8", "surrogatepass"))
        except ValueError as exc:
            raise ValueError(f"line {line + int(row[i])}: {exc}") from None
        if val.dtype != object and not _INTP.min <= v <= _INTP.max:
            val = val.astype(object)
        val[i] = v
    counts = np.bincount(row)
    values.append(val)
    lengths.append(counts[counts.nonzero()[0]])
    return line + len(breaks)


def int_table(rows, n: int):
    """A file's rows, each value less 1: a (len(lengths), n) array if every row
    has n values, else int tuples, of which the caller names the first that
    fails. rows is read_text's (values, lengths), or a JSON file's rows, whose
    values must be ints as integer() reads them."""
    if not isinstance(rows, tuple):
        values, _ = read_text(" ".join(str(integer(v)) for v in chain.from_iterable(rows)))
        rows = values, np.array([len(row) for row in rows], np.intp)
    values, lengths = rows
    values -= 1
    if (lengths == n).all():
        return values.reshape(len(lengths), n)
    return [tuple(values[e - c:e].tolist()) for e, c in zip(np.cumsum(lengths), lengths)]


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
