"""Fuzzing the command line with near-valid input: every outcome is an exit
code and at most one line of stderr, never a traceback.

Exit 1 means "non-member" or "false", so an exception escaping main() as
exit 1 would be a wrong answer. The texts are valid band, instance and
DIMACS files with a few tokens replaced (by 0, negatives, ints of 2**63 and
more, non-integers, JSON fragments, 1e400) or cut short; the word arguments
are built from the same tokens. `words hn` and `words pbound` get a fixed
--n: hn's output has about n³/6 letters for three variables.

A JSON band or instance file with a float or a bool where an integer
belongs must be refused, even where int() would read it as a valid label.
Files are also drawn as raw bytes: one that is not UTF-8 must exit 2 with
a one-line ParseError naming it.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from bandsmp import catalog, format_instance, parse_instance
from bandsmp.cli import main

from helpers import band_to_json, instance_to_json

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=120)

TOKENS = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([2**63, 2**64 + 1, -(2**63), 10**30]),
    st.sampled_from([
        "x", "1.5", "2.0", "1e400", "-1e400", "nan", "", "{", "}", "[", "]", "[]", "{}",
        '"a"', "null", "true", "false", ":", ",", "#",
    ]),
).map(str)

_SEPARATORS = re.compile(r"(\s+|[{}\[\],:])")


@st.composite
def near_valid(draw, bases):
    """One of bases with up to three tokens replaced, sometimes cut short."""
    parts = _SEPARATORS.split(draw(st.sampled_from(bases)))
    values = [i for i, p in enumerate(parts) if p and not _SEPARATORS.fullmatch(p)]
    for _ in range(draw(st.integers(0, 3))):
        parts[draw(st.sampled_from(values))] = draw(TOKENS)
    text = "".join(parts)
    if draw(st.integers(0, 4)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


WORDS = st.lists(TOKENS, max_size=4).map(" ".join)

#: JSON values that are not integers, though int() reads each as one
NOT_INTEGERS = st.one_of(
    st.floats(-12, 12).map(repr),
    st.sampled_from(["true", "false"]),
)


@st.composite
def one_non_integer(draw, bases):
    """One of the JSON bases with one of its integers replaced by a float or a bool."""
    parts = _SEPARATORS.split(draw(st.sampled_from(bases)))
    ints = [i for i, p in enumerate(parts) if p.lstrip("-").isdigit()]
    parts[draw(st.sampled_from(ints))] = draw(NOT_INTEGERS)
    return "".join(parts)


_BANDS = [catalog(name) for name in ("LZ(2)", "SL-chain(3)", "Rect(2,2)")]
JSON_BANDS = [band_to_json(b) for b in _BANDS]
BAND_TEXTS = [b.to_text() for b in _BANDS] + JSON_BANDS

_INSTANCES = [parse_instance(text, catalog("S10"))
              for text in ("1 2\n2\n3\n4\n", "3 2\n1 2 3\n6 7 8\n6 9 8\n")]
JSON_INSTANCES = [instance_to_json(i) for i in _INSTANCES]
INSTANCE_TEXTS = [format_instance(i) for i in _INSTANCES] + JSON_INSTANCES

DIMACS_TEXTS = ["p cnf 3 2\n1 -2 0\n2 3 0\n", "c comment\np cnf 2 3\n1 0\n-1 2 0\n-2 0\n"]

#: byte runs that are not UTF-8: a UTF-16 byte-order mark, a lone continuation
#: byte, cut multibyte sequences, an overlong form, a surrogate, a byte above U+10FFFF
NOT_UTF8 = [b"\xff\xfe", b"\x80", b"\xc3", b"\xe2\x82", b"\xc0\x80", b"\xed\xa0\x80",
            b"\xf5\x80\x80\x80"]


@st.composite
def raw_bytes(draw, bases):
    """A near-valid text of bases as UTF-8 with up to three byte runs inserted."""
    data = bytearray(draw(near_valid(bases)).encode())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        data[at:at] = draw(st.one_of(st.sampled_from(NOT_UTF8), st.binary(max_size=3)))
    return bytes(data)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_main(argv):
    """(exit code, stderr) of main(argv); a usage error stops with exit 64."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_clean(argv):
    """main(argv) returns 0, 1 or 2 with at most one stderr line, or stops
    with the usage exit 64."""
    code, err = run_main(argv)
    if code == 64:
        return
    assert code in (0, 1, 2), argv
    assert len(err.splitlines()) <= 1, (argv, err)


@FUZZ
@given(text=near_valid(BAND_TEXTS), command=st.sampled_from(["validate", "green", "classify"]))
def test_band_files(workdir, text, command):
    path = workdir / "band.txt"
    path.write_text(text)
    assert_clean([command, "--band", str(path)])


@FUZZ
@given(texts=st.lists(near_valid(INSTANCE_TEXTS), min_size=1, max_size=2),
       algo=st.sampled_from(["auto", "poly", "closure"]))
def test_instance_files(workdir, texts, algo):
    paths = []
    for i, text in enumerate(texts):
        paths.append(workdir / f"inst{i}.txt")
        paths[-1].write_text(text)
    assert_clean(["smp", "--catalog", "S10", "--algo", algo, "--instance", *map(str, paths)])


@FUZZ
@given(band=st.booleans(), data=st.data())
def test_json_non_integers(workdir, band, data):
    text = data.draw(one_non_integer(JSON_BANDS if band else JSON_INSTANCES))
    path = workdir / "non_integer.json"
    path.write_text(text)
    argv = (["validate", "--band", str(path)] if band
            else ["smp", "--catalog", "S10", "--instance", str(path)])
    code, err = run_main(argv)
    assert code == 2 and err.startswith("error: ParseError") and len(err.splitlines()) == 1, \
        (text, err)


@FUZZ
@given(text=near_valid(DIMACS_TEXTS))
def test_dimacs_files(workdir, text):
    path = workdir / "f.cnf"
    path.write_text(text)
    assert_clean(["reduce", "--catalog", "S9", "--cnf", str(path),
                  "-o", str(workdir / "out.smp")])


@FUZZ
@given(kind=st.sampled_from(["band", "instance", "cnf"]), data=st.data())
def test_raw_byte_files(workdir, kind, data):
    path = workdir / f"raw.{kind}"
    raw = data.draw(raw_bytes({"band": BAND_TEXTS, "instance": INSTANCE_TEXTS,
                               "cnf": DIMACS_TEXTS}[kind]))
    path.write_bytes(raw)
    argv = {
        "band": ["validate", "--band", str(path)],
        "instance": ["smp", "--catalog", "S10", "--instance", str(path)],
        "cnf": ["reduce", "--catalog", "S9", "--cnf", str(path), "-o", str(workdir / "out.smp")],
    }[kind]
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        code, err = run_main(argv)
        assert code == 2 and len(err.splitlines()) == 1, (raw, err)
        assert err.startswith(f"error: ParseError: {path}: "), (raw, err)
    else:
        assert_clean(argv)


@FUZZ
@given(data=st.data(), action=st.sampled_from([
    "content", "cut", "sigma", "dual", "hn", "pbound", "ghi", "eval", "identity",
]))
def test_word_arguments(data, action):
    word = data.draw(WORDS)
    argv = {
        "hn": ["hn", "--n", "3", word],
        "pbound": ["pbound", "--n", "3", "--k", data.draw(TOKENS)],
        "ghi": ["ghi", data.draw(st.sampled_from("GHIX")) + data.draw(TOKENS)],
        "eval": ["eval", "--catalog", "S10", "--assign", data.draw(WORDS), word],
        "identity": ["identity", "--catalog", "LZ(2)", "--lhs", word,
                     "--rhs", data.draw(WORDS)],
    }.get(action, [action, word])
    assert_clean(["words", *argv])
