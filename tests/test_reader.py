"""The band and instance reader against the per-line rule of tests/oracles.py.

errors.read_text turns a whole text into one int array in a single tokenizer
pass. The referee splits each line and reads each token by int(). On every
random text both give the same rows, or both raise the same error class and
message. The texts mix comments, blank lines, every line break of
str.splitlines(), Unicode whitespace, signs, leading zeros, underscores,
non-ASCII digits, values past int64 and bad tokens, and are read in several
chunk sizes, so that lines and tokens also meet at chunk ends. The JSON forms
keep integer()'s type rule. parse_instance and parse_band_text, which check
the header, the row counts and the elements as vector tests on that array,
are compared with the referee's rows built into the library's tuple API.
"""

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from bandsmp import Band, GenSet, SmpInstance, catalog, parse_band_text, parse_instance
from bandsmp import errors
from bandsmp.errors import BandSmpError, ParseError, int_table, read_text
from bandsmp.power import MAX_ARITY

import oracles

#: tokens that int() reads: plain digits, 18, 19 and 40 digits, signs, leading
#: zeros, underscores, full-width, Arabic-Indic, Devanagari and math digits
GOOD = ["0", "1", "2", "3", "7", "10", "255", "007", "+3", "-1", "-0", "+007", "1_0", "1_000",
        "１２", "٣", "१०", "𝟙", "9" * 18, "9" * 19, str(2**63 - 1), str(2**63),
        str(-2**63 - 1), "9" * 40]
#: tokens that int() refuses
BAD = ["x", "1.5", "#", "1#", "1__0", "_1", "1_", "−1", "\x00", "\ud800", "é", "0x1f", "1e3",
       "--1", "+", "٣x"]
#: whitespace inside a line, and the line breaks, as str.split() and str.splitlines() read them
SPACES = [" ", "  ", "\t", "\x1f", "\xa0", "\u1680", "\u2000", "\u200a", "\u202f", "\u205f",
          "\u3000"]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
#: chunk sizes of the reader: its own, and ones that cut the texts below into many chunks
CHUNKS = [errors._CHUNK, 1, 5, 40]


def random_line(rng, tokens, bad):
    kind = rng.random()
    if kind < 0.15:
        return rng.choice(["", *SPACES])
    if kind < 0.3:  # a comment: its first token starts with '#', whatever follows
        return rng.choice(["", " ", "\t"]) + "#" + rng.choice(["", "x", " 1 2", "#", "1.5 y", "3"])
    line = [rng.choice(BAD if bad and rng.random() < 0.1 else tokens)
            for _ in range(rng.randint(1, 6))]
    return rng.choice(["", *SPACES]) + "".join(t + rng.choice(SPACES) for t in line).rstrip(
        "".join(SPACES) if rng.random() < 0.5 else "")


def random_text(rng, tokens=GOOD):
    bad = rng.random() < 0.3
    lines = [random_line(rng, tokens, bad) for _ in range(rng.randint(0, 8))]
    text = "".join(line + rng.choice(BREAKS) for line in lines)
    if lines and rng.random() < 0.3:  # no break after the last line
        text = text[:len(text) - (2 if text.endswith("\r\n") else 1)]
    if rng.random() < 0.1:
        text = rng.choice(["", " ", "\n"]) + json.dumps({"n": 1, "rows": [[1, 2]]})
    return text


def outcome(read, text):
    try:
        return read(text)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def reader_rows(text):
    got = read_text(text)
    if isinstance(got, dict):
        return got
    values, lengths = got
    assert values.ndim == lengths.ndim == 1 and lengths.dtype == np.intp
    assert (lengths > 0).all()
    in_intp = all(-2**63 <= v < 2**63 for v in values.tolist())
    assert values.dtype == (np.intp if in_intp else object)
    it = iter(values.tolist())
    return [[next(it) for _ in range(k)] for k in lengths.tolist()]


@pytest.mark.parametrize("chunk", CHUNKS)
def test_reader_matches_the_per_line_rule(monkeypatch, chunk):
    monkeypatch.setattr(errors, "_CHUNK", chunk)
    rng = random.Random(chunk)
    kinds = set()
    for _ in range(1500):
        text = random_text(rng)
        want = outcome(oracles.read_rows, text)
        assert outcome(reader_rows, text) == want, repr(text)
        kinds.add("error" if isinstance(want, tuple) else "json" if isinstance(want, dict)
                  else "rows" if want else "empty")
    assert kinds == {"error", "json", "rows", "empty"}


@pytest.mark.parametrize("text, line", [
    ("1\n2\n# x y\n\n3 x\n", 5), ("1\r\n2\r\nx", 3), ("1\r2\rx", 3), ("1\r\n\r\nx", 3),
    ("1\n\rx", 3), ("1\x0c2\x1cx", 3), ("1 2\x85x", 3), ("  #\n\t# 1\n1 #", 3),
    ("1\x1f2\nx", 2), ("\n" * 9 + "1_", 10),
])
def test_bad_token_names_its_line(monkeypatch, text, line):
    for chunk in CHUNKS:
        monkeypatch.setattr(errors, "_CHUNK", chunk)
        with pytest.raises(ValueError, match=f"^line {line}: ") as exc:
            read_text(text)
        assert outcome(oracles.read_rows, text) == (ValueError, str(exc.value))


def random_json_row(rng):
    kind = rng.random()
    if kind < 0.08:
        return rng.choice([5, None, "12", 1.5, True, {"a": 1}, {}])
    values = [0, 1, 9, 10, -1, 2**63, 2**70, -(2**64)] * 3 + [1.5, 2.0, True, False, None, "3", [1]]
    return [rng.choice(values) for _ in range(rng.randint(0, 4))]


def json_rows(rows):
    """int_table's rows, with no width that every row has, as 1-based lists."""
    return [[v + 1 for v in row] for row in (int_table(rows, -1) if rows else [])]


def test_json_rows_keep_the_integer_rule():
    rng = random.Random(7)
    seen = set()
    for _ in range(3000):
        rows = [random_json_row(rng) for _ in range(rng.randint(0, 4))]
        want = outcome(oracles.json_int_rows, rows)
        assert outcome(json_rows, rows) == want, rows
        seen.add(type(want).__name__)
    assert seen == {"list", "tuple"}


# -- the parsers: header, row counts and elements as vector tests -------------------

def referee_instance(text, band):
    """parse_instance by the referee's rows and the tuple API."""
    try:
        rows = oracles.read_rows(text)
    except ValueError as exc:
        raise ParseError(f"instance: {exc}") from None
    if not rows:
        raise ParseError("empty instance file")
    if len(rows[0]) != 2:
        raise ParseError("instance header must be 'n k'")
    (n, k), rows = rows[0], rows[1:]
    if n == 0 and not rows and k <= 1:
        try:
            rows = [[]] * (k + 1)
        except OverflowError as exc:  # k + 1 below the least index
            raise ParseError(f"instance: {exc}") from None
    if k < 0 or len(rows) != k + 1:
        raise ParseError(f"instance declares {k} generators but file has "
                         f"{max(len(rows) - 1, 0)}")
    if not 0 <= n <= MAX_ARITY:
        raise ParseError(f"instance arity {n} outside 0..{MAX_ARITY}")
    rows = [tuple(v - 1 for v in row) for row in rows]
    return SmpInstance(GenSet(band=band, n=n, members=tuple(rows[:-1])), rows[-1])


def decided(parse, text, band):
    try:
        inst = parse(text, band)
    except BandSmpError as exc:
        return type(exc).__name__, str(exc)
    assert all(type(v) is int for t in (*inst.gens.members, inst.target) for v in t)
    return inst.gens.n, inst.gens.members, inst.target, inst.gens.rows.tolist(), inst.row.tolist()


def random_instance_text(rng):
    n, k = rng.randint(0, 3), rng.randint(0, 4)
    header = rng.choice([f"{n} {k}"] * 8 + [f"{n}", f"{n} {k} 1", f"{n} -1", f"{2**70} {k}",
                                           f"-{n + 1} {k}", f"+{n} 00{k}", "0 -2",
                                           f"0 -{2**63 + 1}", f"{n} -{2**70}", f"0 {2**70}"])
    labels = [str(v) for v in range(1, 11)] * 4 + ["0", "11", "-1", str(2**64), "١", "+2"]
    rows = []
    for _ in range(k + rng.choice([1] * 6 + [0, 2])):
        size = n if rng.random() < 0.9 else rng.choice([max(n - 1, 0), n + 1])
        rows.append(" ".join(rng.choice(labels) for _ in range(size)))
        if rows and rng.random() < 0.15:
            rows.append(rng.choice(rows))  # a repeated generator
    lines = [header, *rows]
    for _ in range(rng.randint(0, 2)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", "# c", "  # 1 2"]))
    return "".join(line + rng.choice(BREAKS) for line in lines)


@pytest.mark.parametrize("chunk", [errors._CHUNK, 3])
def test_parse_instance_matches_the_referee(monkeypatch, chunk):
    monkeypatch.setattr(errors, "_CHUNK", chunk)
    rng, s10 = random.Random(11), catalog("S10")
    kinds = set()
    for _ in range(2000):
        text = random_instance_text(rng)
        want = decided(referee_instance, text, s10)
        assert decided(parse_instance, text, s10) == want, repr(text)
        kinds.add(want[0] if isinstance(want[0], str) else "instance")
    assert kinds >= {"instance", "ParseError", "ArityMismatch", "OutOfRange"}


def referee_band(text):
    try:
        rows = oracles.read_rows(text)
    except ValueError as exc:
        raise ParseError(f"band: {exc}") from None
    if not rows:
        raise ParseError("empty band file")
    if len(rows[0]) != 1:
        raise ParseError("band header must be 'm'")
    (m,), rows = rows[0], rows[1:]
    if len(rows) != m:
        raise ParseError(f"band declares order {m} but has {len(rows)} rows")
    return Band([[v - 1 for v in row] for row in rows])


def outcome_band(parse, text):
    try:
        return parse(text).itable.tolist()
    except BandSmpError as exc:
        return type(exc).__name__, str(exc)


def test_parse_band_text_matches_the_referee():
    rng = random.Random(13)
    texts = [b.to_text() for b in map(catalog, ("S9", "LZ(2)", "SL-chain(3)", "Rect(2,2)"))]
    kinds = set()
    for _ in range(1500):
        lines = rng.choice(texts).splitlines()
        for _ in range(rng.randint(0, 2)):  # a changed entry, a short or long row, a lost row
            i = rng.randrange(len(lines))
            row = lines[i].split() or [""]
            j = rng.randrange(len(row))
            row[j] = rng.choice(["0", "1", "2", "3", "99", "-1", str(2**64), "x", "+1", "1 1", ""])
            lines[i] = " ".join(row)
        if rng.random() < 0.1:
            del lines[rng.randrange(len(lines))]
        text = "".join(line + rng.choice(BREAKS) for line in lines)
        got, want = (outcome_band(parse, text) for parse in (parse_band_text, referee_band))
        assert got == want, repr(text)
        kinds.add(want[0] if isinstance(want, tuple) else "band")
    assert kinds >= {"band", "ParseError", "OutOfRange", "NotAssociative"}


def test_staircase_at_arity_1000_is_the_per_element_build():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import gen

    case = gen.staircase(random.Random(5), 3, 1000, True)
    band = catalog("SL-chain(3)")
    parsed = parse_instance(case.text, band)
    built = SmpInstance(GenSet.of(band, case.gens), case.target)
    assert parsed.gens.members == built.gens.members and len(parsed.gens) == 2001
    assert parsed.gens.rows.dtype == np.intp and not parsed.gens.rows.flags.writeable
    assert np.array_equal(parsed.gens.rows, built.gens.rows)
    assert parsed.target == built.target and np.array_equal(parsed.row, built.row)
