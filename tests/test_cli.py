"""End-to-end command-line behavior, formats, and exit codes."""

import concurrent.futures
import contextlib
import io
import json
import pathlib
import re
import shlex
import time

import pytest

from bandsmp import (catalog, member_closure_word, parse_band_text, parse_instance,
                     smp_decide_auto)
from bandsmp import cli, words
from bandsmp.cli import main

from oracles import naive_sat


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def stand_in_pool(monkeypatch):
    """Replace the worker pool by one that records max_workers and runs its
    initializer and map in this process, so a --jobs test starts no process;
    returns the records."""
    seen = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            seen.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return seen


class TestClassify:
    def test_s10_tractable(self, capsys):
        code, out, _ = run(capsys, "classify", "--catalog", "S10")
        assert code == 0
        assert out == "TRACTABLE\n"

    def test_s9_np_complete_with_witness(self, capsys):
        code, out, _ = run(capsys, "classify", "--catalog", "S9")
        assert code == 0
        assert out.splitlines() == [
            "NP-COMPLETE",
            "lambda witness: d=6 e=3 x=2 y=5 h=1",
        ]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--catalog", "S9", "--json")
        obj = json.loads(out)
        assert obj["verdict"] == "NP-COMPLETE"
        assert obj["lambda_witness"] == {"d": 6, "e": 3, "x": 2, "y": 5, "h": 1}
        assert obj["lambda_dual_witness"] is None

    def test_json_forbidden(self, capsys, tmp_path, s9):
        def forbidden(*argv):
            code, out, _ = run(capsys, "classify", *argv, "--json")
            assert code == 0
            return json.loads(out)["forbidden"]

        assert forbidden("--catalog", "S9") == [
            {"case": "T9", "orientation": "S", "image": list(range(1, 10))}]
        assert forbidden("--catalog", "S10") == []
        assert forbidden("--catalog", "T17")[0]["image"] == list(range(1, 18))
        path = tmp_path / "dual.band"
        path.write_text(s9.dual().to_text())
        assert forbidden("--band", str(path)) == [
            {"case": "T9", "orientation": "dual", "image": list(range(1, 10))}]

    def test_lambda_dual_witness_line(self, capsys, tmp_path, s9):
        # dual(S9) passes the plain scan and fails only the reversed one
        path = tmp_path / "dual.band"
        path.write_text(s9.dual().to_text())
        assert run(capsys, "classify", "--band", str(path)) == (
            0, "NP-COMPLETE\nlambda-dual witness: d=6 e=3 x=2 y=5 h=1\n", "")

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "classify", "--catalog", "S9")
        _, second, _ = run(capsys, "classify", "--catalog", "S9")
        assert first == second

    def test_order_256(self, capsys):
        assert run(capsys, "classify", "--catalog", "Rect(16,16)") == (0, "TRACTABLE\n", "")


class TestValidateAndGreen:
    def test_validate_catalog(self, capsys):
        code, out, _ = run(capsys, "validate", "--catalog", "S9")
        assert code == 0 and out == "VALID: band of order 9\n"

    def test_validate_file(self, capsys, tmp_path, s10):
        path = tmp_path / "band.txt"
        path.write_text(s10.to_text())
        code, out, _ = run(capsys, "validate", "--band", str(path))
        assert code == 0 and "order 10" in out

    def test_validate_rejects_group(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 2\n2 1\n")
        code, _, err = run(capsys, "validate", "--band", str(path))
        assert code == 2
        assert "NotIdempotent" in err

    def test_green(self, capsys):
        code, out, _ = run(capsys, "green", "--catalog", "S9")
        assert code == 0
        assert out.splitlines() == [
            "order: 9",
            "height: 4",
            "J-classes: {1} {2} {3,4,5} {6,7,8,9}",
        ]

    def test_validate_json(self, capsys, tmp_path, s10):
        assert run(capsys, "validate", "--catalog", "S9", "--json") == (
            0, '{"valid": true, "order": 9, "name": "S9"}\n', "")
        path = tmp_path / "s10.band"
        path.write_text(s10.to_text())
        assert run(capsys, "validate", "--band", str(path), "--json") == (
            0, json.dumps({"valid": True, "order": 10, "name": str(path)}) + "\n", "")

    def test_green_json(self, capsys):
        _, out, _ = run(capsys, "green", "--catalog", "SL-chain(2)", "--json")
        assert json.loads(out) == {
            "order": 2, "height": 2, "j_classes": [[1], [2]],
        }


class TestSmp:
    def test_inline_member(self, capsys):
        code, out, _ = run(
            capsys, "smp", "--catalog", "S10",
            "--inline", "1 2; 2; 3; 4", "--algo", "poly",
        )
        assert code == 0 and out == "member\n"

    def test_inline_non_member(self, capsys):
        code, out, _ = run(
            capsys, "smp", "--catalog", "S10",
            "--inline", "1 1; 3; 4", "--algo", "poly",
        )
        assert code == 1 and out == "non-member\n"

    def test_band_above_order_64(self, capsys):
        code, out, _ = run(capsys, "smp", "--catalog", "SL-chain(70)", "--inline", "1 1; 5; 5")
        assert code == 0 and out == "member\n"

    def test_stats_show_verified_pair(self, capsys):
        code, out, _ = run(
            capsys, "smp", "--catalog", "S10",
            "--inline", "1 2; 2; 3; 4", "--algo", "poly", "--stats",
        )
        assert code == 0
        assert "witness pair:" in out
        assert "verified: true" in out
        assert "loop bound n(h-1): 3" in out

    def test_closure_path_emits_word(self, capsys):
        code, out, _ = run(
            capsys, "smp", "--catalog", "S9",
            "--inline", "1 2; 2; 3; 4", "--algo", "auto", "--stats",
        )
        assert code == 0
        assert "method: closure" in out
        assert "witness word: 1 2" in out

    def test_poly_without_force_on_hard_band(self, capsys):
        code, _, err = run(
            capsys, "smp", "--catalog", "S9",
            "--inline", "1 1; 2; 4", "--algo", "poly",
        )
        assert code == 2
        assert "NotTractable" in err
        assert "force=True" in err and "--algo poly --force" in err  # the library's and the CLI's

    def test_forced_no_reports_unknown(self, capsys):
        code, out, _ = run(
            capsys, "smp", "--catalog", "S9",
            "--inline", "1 1; 2; 4", "--algo", "poly", "--force",
        )
        assert code == 2 and out == "unknown\n"

    def test_forced_member_stays_member(self, capsys):
        code, out, _ = run(
            capsys, "smp", "--catalog", "S9",
            "--inline", "1 2; 2; 3; 4", "--algo", "poly", "--force",
        )
        assert code == 0 and out == "member\n"

    @pytest.mark.parametrize("name, text, flags, kwargs", [
        ("S10", "1 2; 2; 3; 4", [], {}),
        ("S10", "1 1; 3; 4", [], {}),
        ("S9", "1 2; 2; 3; 4", [], {}),
        ("S9", "1 1; 2; 4", [], {}),
        ("S10", "1 2; 2; 3; 4", ["--algo", "closure"], {"method": "closure"}),
        ("S9", "1 2; 2; 3; 4", ["--algo", "poly", "--force"], {"method": "poly", "force": True}),
        ("S9", "1 1; 2; 4", ["--algo", "poly", "--force"], {"method": "poly", "force": True}),
    ], ids=["auto to poly member", "auto to poly non-member", "auto to closure member",
            "auto to closure non-member", "closure on a tractable band", "forced member",
            "forced unknown"])
    def test_json_renders_the_library_decision(self, capsys, name, text, flags, kwargs):
        band = catalog(name)
        inst = parse_instance(text.replace(";", "\n"), band)
        decision = smp_decide_auto(inst, **kwargs)
        want = {"verdict": decision.verdict, "method": decision.method}
        if decision.method == "poly":
            want["stats"] = {"bound": inst.gens.n * (band.green.height - 1),
                             "infix_inner_max": decision.stats.infix_pass_max,
                             "suffix_while_max": decision.stats.suffix_call_max}
        if decision.pair is not None:
            x, y = ([v + 1 for v in t] for t in decision.pair)
            want["witness_pair"] = {"x": x, "y": y, "verified": True}
        if decision.word is not None:
            want.update(witness_word=decision.word, verified=True)
        code, out, err = run(capsys, "smp", "--catalog", name, "--inline", text, *flags, "--json")
        assert json.loads(out) == want and err == ""
        assert code == {"member": 0, "non-member": 1, "unknown": 2}[decision.verdict]

    def test_instance_file_and_json(self, capsys, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("1 2\n2\n3\n4\n")
        code, out, _ = run(
            capsys, "smp", "--catalog", "S10",
            "--instance", str(path), "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "member" and obj["method"] == "poly"

    def test_cap_exceeded(self, capsys, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("1 3\n1\n2\n3\n9\n")
        code, _, err = run(
            capsys, "smp", "--catalog", "S9",
            "--instance", str(path), "--algo", "closure", "--cap", "2",
        )
        assert code == 2 and "CapExceeded" in err

    def test_cap_env_override(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "inst.txt"
        path.write_text("1 3\n1\n2\n3\n9\n")
        monkeypatch.setenv("BANDSMP_CAP", "2")
        code, _, err = run(
            capsys, "smp", "--catalog", "S9",
            "--instance", str(path), "--algo", "closure",
        )
        assert code == 2 and "CapExceeded" in err
        monkeypatch.setenv("BANDSMP_CAP", "1000")
        code, out, _ = run(
            capsys, "smp", "--catalog", "S9",
            "--instance", str(path), "--algo", "closure",
        )
        assert code in (0, 1)

    def test_cap_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        # BANDSMP_CAP is read only when --cap is absent
        path = tmp_path / "inst.txt"
        path.write_text("1 3\n1\n2\n3\n9\n")
        monkeypatch.setenv("BANDSMP_CAP", "2")
        code, out, err = run(capsys, "smp", "--catalog", "S9", "--instance", str(path),
                             "--algo", "closure", "--cap", "1000")
        assert (code, out, err) == (1, "non-member\n", "")

    def test_batch(self, capsys, tmp_path):
        member = tmp_path / "a.txt"
        member.write_text("1 2\n2\n3\n4\n")
        non_member = tmp_path / "b.txt"
        non_member.write_text("1 1\n3\n4\n")
        code, out, _ = run(
            capsys, "smp", "--catalog", "S10",
            "--instance", str(member), str(non_member),
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0].endswith("member") and lines[1].endswith("non-member")

    def test_batch_json(self, capsys, tmp_path):
        member, non_member = tmp_path / "a.smp", tmp_path / "b.smp"
        member.write_text("1 2\n2\n3\n4\n")
        non_member.write_text("1 1\n3\n4\n")
        argv = ["smp", "--catalog", "S10", "--instance", str(member), str(non_member), "--json"]
        assert run(capsys, *argv) == (1, json.dumps({"results": [
            {"instance": str(member), "verdict": "member", "error": None},
            {"instance": str(non_member), "verdict": "non-member", "error": None},
        ]}) + "\n", "")

    def test_no_generators_of_arity_zero(self, capsys):
        assert run(capsys, "smp", "--catalog", "T9", "--inline", "0 0") == (1, "non-member\n", "")

    def test_batch_parallel_matches_serial(self, capsys, tmp_path):
        files = []
        for i, text in enumerate(["1 2; 2; 3; 4", "1 1; 3; 4", "1 1; 2; 2"]):
            p = tmp_path / f"i{i}.txt"
            p.write_text(text.replace("; ", "\n").replace(";", "\n") + "\n")
            files.append(str(p))
        code1, serial, _ = run(capsys, "smp", "--catalog", "S10", "--instance", *files)
        code2, parallel, _ = run(
            capsys, "smp", "--catalog", "S10", "--instance", *files, "--jobs", "2",
        )
        assert serial == parallel and code1 == code2

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (64, 8, [3]),   # no more workers than files
        (64, 2, [2]),   # nor than CPUs
        (2, 8, [2]),
        (64, 1, []),    # one CPU: decided in this process
        (64, None, []),  # CPU count unknown: likewise
    ])
    def test_jobs_clamped(self, capsys, tmp_path, monkeypatch, stand_in_pool,
                          jobs, cpus, workers):
        seen = stand_in_pool
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        files = []
        for i, text in enumerate(["1 2; 2; 3; 4", "1 1; 3; 4", "1 1; 2; 2"]):
            p = tmp_path / f"i{i}.txt"
            p.write_text(text.replace("; ", "\n") + "\n")
            files.append(str(p))
        serial = run(capsys, "smp", "--catalog", "S10", "--instance", *files)
        batch = run(capsys, "smp", "--catalog", "S10", "--instance", *files, "--jobs", str(jobs))
        assert seen == workers
        assert batch == serial


class TestMalformedInput:
    # exit 1 means "non-member", so malformed input must exit 2 with one line
    def assert_one_line_error(self, code, err, kind):
        assert code == 2
        assert len(err.splitlines()) == 1 and kind in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ("1 2\nx2\n3\n4\n", ""),
        ('{"n": 1, "target": [4]}', ""),
        ('{"n": 1, "generators": [[2], [3]], "tar', ""),
        ('{"n": 1e400, "generators": [[2], [3]], "target": [4]}', ""),
        ("", ""),
        ("1\n2\n4\n", ""),
        ("1 3\n2\n3\n4\n", ""),
        ('{"n": 1, "generators": [[2.9], [3]], "target": [4]}', ""),
        ('{"n": 1, "generators": [[2.0], [3]], "target": [4]}', ""),
        ('{"n": 1, "generators": [[true], [3]], "target": [4]}', ""),
        ('{"n": 1.5, "generators": [[2], [3]], "target": [4]}', ""),
        ('{"n": -1, "generators": [], "target": [4]}', "instance arity -1 outside"),
        ('{"n": %d, "generators": [], "target": [4]}' % 10**20,
         f"instance arity {10**20} outside"),
    ], ids=["non-integer token", "no generators key", "truncated JSON", "1e400",
            "empty file", "short header", "generator count", "float label",
            "integral float label", "bool label", "float n", "negative n", "huge n"])
    def test_instance_file(self, capsys, tmp_path, text, message):
        path = tmp_path / "inst.txt"
        path.write_text(text)
        code, _, err = run(capsys, "smp", "--catalog", "S10", "--instance", str(path))
        self.assert_one_line_error(code, err, f"ParseError: {path}: ")
        assert message in err

    @pytest.mark.parametrize("text, message", [
        ("2\n1 1\n2 x\n", "band: line 3: "),
        ('{"order": 1}', "band: missing key"),
        ('{"order": 1, "table": [[1]', "band: "),
        ('{"order": 1, "table": [[1e400]]}', "band: "),
        ('{"order": 1, "table": [[1.9]]}', "band: "),
        ('{"order": 1, "table": [[true]]}', "band: "),
        ('{"order": 1.0, "table": [[1]]}', "band: "),
        ("", "empty band file"),
        ("# only a comment\n\n", "empty band file"),
        ("3\n1 2 3\n", "band declares order 3 but has 1 rows"),
        ('{"order": 2, "table": [[1, 2]]}', "band declares order 2 but has 1 rows"),
        ("2 2\n1 2\n2 2\n", "band header must be 'm'"),
    ], ids=["non-integer token", "no table key", "truncated JSON", "1e400",
            "float label", "bool label", "float order", "empty file", "only a comment",
            "row count", "JSON row count", "two-number header"])
    def test_band_file(self, capsys, tmp_path, text, message):
        path = tmp_path / "band.txt"
        path.write_text(text)
        code, _, err = run(capsys, "validate", "--band", str(path))
        self.assert_one_line_error(code, err, f"ParseError: {path}: {message}")

    @pytest.mark.parametrize("name, kind", [
        ("Q", "ParseError"), ("G", "ParseError"), ("", "ParseError"),
        ("Gx", "ParseError"), ("X3", "UnsupportedIndex"), ("G1", "UnsupportedIndex"),
        ("H5000", "ArityTooLarge"),
    ])
    def test_ghi_word_name(self, capsys, name, kind):
        code, out, err = run(capsys, "words", "ghi", name)
        assert out == ""
        self.assert_one_line_error(code, err, kind)

    @pytest.mark.parametrize("argv, kind", [
        (["content", "1 x"], "ParseError"),
        (["cut", "2.5"], "ParseError"),
        (["sigma", "1 two"], "ParseError"),
        (["dual", "1 0"], "ParseError"),
        (["hn", "--n", "3", "1 x"], "ParseError"),
        (["eval", "--catalog", "S10", "--assign", "1 2", "x"], "ParseError"),
        (["eval", "--catalog", "S10", "--assign", "1 x", "1 2"], "ParseError"),
        (["eval", "--catalog", "S10", "--assign", "1 2", "0"], "ParseError"),
        (["eval", "--catalog", "S10", "--assign", "1 11", "1 2"], "OutOfRange"),
        (["eval", "--catalog", "S10", "--assign", "0 2", "1 2"], "OutOfRange"),
        (["identity", "--catalog", "S10", "--lhs", "1 y", "--rhs", "1"], "ParseError"),
        (["identity", "--catalog", "LZ(2)", "--lhs", str(2**63), "--rhs", "1"],
         "ArityTooLarge"),
        (["identity", "--catalog", "S10", "--lhs", "", "--rhs", "1"],
         "EmptyWord: an identity needs two nonempty sides"),
        (["pbound", "--n", "20000", "--k", "2"], "UnsupportedIndex"),
        (["pbound", "--n", "1", "--k", "2"], "UnsupportedIndex: p_n is defined for n >= 2"),
    ], ids=["content", "cut", "sigma", "dual zero", "hn", "eval word", "eval assign",
            "eval x0", "eval value above m", "eval value 0", "identity",
            "identity huge variable", "identity empty side", "pbound too long to print",
            "pbound n below 2"])
    def test_word_arguments(self, capsys, argv, kind):
        code, out, err = run(capsys, "words", *argv)
        assert out == ""
        self.assert_one_line_error(code, err, kind)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unreadable_file_does_not_stop_a_batch(self, capsys, tmp_path, monkeypatch,
                                                   stand_in_pool, jobs):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        ok = tmp_path / "ok.smp"
        ok.write_text("1 2\n2\n3\n4\n")
        missing = str(tmp_path / "nonexistent.smp")
        not_utf8 = tmp_path / "utf16.smp"
        not_utf8.write_bytes(b"\xff\xfe1\x002\x00")
        argv = ["smp", "--catalog", "S10", "--instance", str(ok), missing, str(tmp_path),
                str(not_utf8)]
        code, out, err = run(capsys, *argv, "--jobs", jobs)
        assert stand_in_pool == ([2] if jobs == "2" else [])
        lines = out.splitlines()
        assert lines[0] == f"{ok}\tmember"
        assert lines[1].startswith(f"{missing}\terror (FileNotFoundError: ")
        assert lines[2].startswith(f"{tmp_path}\terror (IsADirectoryError: ")
        assert lines[3].startswith(f"{not_utf8}\terror (ParseError: {not_utf8}: ")
        assert len(lines) == 4 and code == 2 and err == ""
        assert run(capsys, *argv) == (code, out, err)  # serial output is the same

    def test_parse_error_names_file_and_line(self, capsys, tmp_path):
        # blank and comment lines count: the bad token is on line 4 of each file
        band = tmp_path / "bad.band"
        band.write_text("2\n# table\n1 1\n1 x\n")
        code, _, err = run(capsys, "validate", "--band", str(band))
        assert code == 2 and err == (
            f"error: ParseError: {band}: band: line 4: invalid literal for int() with base 10: 'x'\n")
        ok, bad = tmp_path / "ok.smp", tmp_path / "bad.smp"
        ok.write_text("1 2\n2\n3\n4\n")
        bad.write_text("1 2\n\n2\nx3\n4\n")
        message = f"ParseError: {bad}: instance: line 4: invalid literal for int() with base 10: 'x3'"
        code, _, err = run(capsys, "smp", "--catalog", "S10", "--instance", str(bad))
        assert code == 2 and err == f"error: {message}\n"
        code, out, err = run(capsys, "smp", "--catalog", "S10", "--instance", str(ok), str(bad))
        assert code == 2 and err == ""
        assert out.splitlines() == [f"{ok}\tmember", f"{bad}\terror ({message})"]

    @pytest.mark.parametrize("argv, text, message", [
        (["reduce", "--catalog", "S9", "--cnf", "{f}", "-o", "{f}.out"], "p cnf 1 1\nx 0\n",
         "DimacsSyntaxError: {f}: DIMACS syntax error on line 2: bad literal 'x'"),
        (["validate", "--band", "{f}"], "2\n1 2\n2 3\n",
         "OutOfRange: {f}: entry at (2,2): 3 outside 1..2"),
        (["validate", "--band", "{f}"], "3\n1 1 1\n1 2 1\n1 2 3\n",
         "NotAssociative: {f}: not associative at (2,3,2): (2*3)*2 != 2*(3*2)"),
        (["smp", "--catalog", "S10", "--instance", "{f}"], "1 1\n11\n1\n",
         "OutOfRange: {f}: coordinate 11 outside 1..10"),
        (["validate", "--band", "{f}"], "0\n",
         "OutOfRange: {f}: a band must have at least one element"),
        (["reduce", "--catalog", "S9", "--cnf", "{f}", "-o", "{f}.out"], "c x\np cnf -3 0\n",
         "DimacsSyntaxError: {f}: DIMACS syntax error on line 2: negative count in 'p cnf -3 0'"),
        (["reduce", "--catalog", "S9", "--cnf", "{f}", "-o", "{f}.out"], "p cnf 1 3\n1 0\n",
         "DimacsSyntaxError: {f}: DIMACS syntax error on line 1: "
         "problem line declares 3 clauses, found 1"),
        (["reduce", "--catalog", "S9", "--cnf", "{f}", "-o", "{f}.out"], "c no problem line\n",
         "DimacsSyntaxError: {f}: DIMACS syntax error: missing problem line"),
    ], ids=["cnf", "band entry", "band axiom", "instance coordinate", "band of order 0",
            "cnf negative count", "cnf clause count", "cnf without problem line"])
    def test_every_input_error_names_its_file(self, capsys, tmp_path, argv, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run(capsys, *(a.format(f=path) for a in argv))
        assert (code, out, err) == (2, "", f"error: {message.format(f=path)}\n")

    def test_unreadable_single_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "smp", "--catalog", "S10", "--instance", str(tmp_path))
        self.assert_one_line_error(code, err, "IsADirectoryError")

    @pytest.mark.parametrize("argv", [
        ["smp", "--catalog", "S10", "--instance", "{f}"],
        ["validate", "--band", "{f}"],
        ["reduce", "--catalog", "S9", "--cnf", "{f}", "-o", "{f}.out"],
    ], ids=["instance", "band", "cnf"])
    def test_file_not_utf8(self, capsys, tmp_path, argv):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe1\x00")  # "1" in UTF-16 with its byte-order mark
        code, out, err = run(capsys, *(a.format(f=path) for a in argv))
        assert out == ""
        self.assert_one_line_error(code, err, f"ParseError: {path}: 'utf-8' codec")

    def test_non_integer_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BANDSMP_CAP", "abc")
        code, _, err = run(capsys, "smp", "--catalog", "S10", "--inline", "1 2; 2; 3; 4")
        self.assert_one_line_error(code, err, "BANDSMP_CAP")

    def test_negative_cap_env(self, capsys, monkeypatch):
        # it acted as a cap of 0, as --cap -1 did
        monkeypatch.setenv("BANDSMP_CAP", "-1")
        code, _, err = run(capsys, "smp", "--catalog", "S10", "--inline", "1 2; 2; 3; 4")
        self.assert_one_line_error(code, err,
                                   "BandSmpError: BANDSMP_CAP must be at least 0, got '-1'")


class TestWords:
    def test_hn(self, capsys):
        code, out, _ = run(capsys, "words", "hn", "--n", "3", "2 1")
        assert code == 0 and out == "2 2 1 1\n"

    def test_hn_at_large_n(self, capsys):
        # h_n of one letter is n - 1 copies of it, one recursion on n - 1 each
        code, out, _ = run(capsys, "words", "hn", "--n", "1200", "1")
        assert code == 0 and out == " ".join(["1"] * 1199) + "\n"

    def test_dual(self, capsys):
        _, out, _ = run(capsys, "words", "dual", "3 1 2")
        assert out == "2 1 3\n"

    def test_cut_sigma_content(self, capsys):
        _, out, _ = run(capsys, "words", "cut", "2 1 2 3 1")
        assert out == "2 1 2\n"
        _, out, _ = run(capsys, "words", "sigma", "3 1 2")
        assert out == "2\n"
        _, out, _ = run(capsys, "words", "content", "2 2 1")
        assert out == "1 2\n"

    def test_ghi_and_pbound(self, capsys):
        _, out, _ = run(capsys, "words", "ghi", "G3")
        assert out == "3 1 2\n"
        _, out, _ = run(capsys, "words", "ghi", "G9")
        assert out == "9 7 5 3 1 2 4 6 8\n"
        _, out, _ = run(capsys, "words", "pbound", "--n", "4", "--k", "3")
        assert out == "21\n"

    def test_pbound_too_long_to_print_fails_fast(self, capsys):
        # the digit count is known before the power is formed
        start = time.perf_counter()
        code, out, err = run(capsys, "words", "pbound", "--n", "10000000", "--k", "2")
        assert code == 2 and out == "" and "UnsupportedIndex" in err
        assert time.perf_counter() - start < 2.0

    def test_pbound_at_large_n(self, capsys):
        # p_n(2) = 2 + 4 + ... + 2^(n-3) + 2 * 2^(n-2) = 3 * 2^(n-2) - 2
        code, out, _ = run(capsys, "words", "pbound", "--n", "2000", "--k", "2")
        assert code == 0 and out == f"{3 * 2**1998 - 2}\n"

    def test_eval(self, capsys):
        code, out, _ = run(
            capsys, "words", "eval", "--catalog", "S9",
            "--assign", "2 1 3 6", "4 2 1 3",
        )
        assert code == 0 and out == "9\n"

    def test_identity_holds(self, capsys):
        code, out, _ = run(
            capsys, "words", "identity", "--catalog", "Rect(2,2)",
            "--lhs", "1 2 3", "--rhs", "1 3",
        )
        assert code == 0 and out == "holds\n"

    def test_identity_over_eleven_variables(self, capsys):
        # 4^11 assignments, evaluated a block at a time
        code, out, _ = run(
            capsys, "words", "identity", "--catalog", "Rect(2,2)",
            "--lhs", "1 2 3 4 5 6 7 8 9 10 11", "--rhs", "1 11",
        )
        assert code == 0 and out == "holds\n"

    def test_hn_output_is_bounded(self, capsys, monkeypatch):
        monkeypatch.setattr(words, "MAX_WORD_LENGTH", 1000)
        code, out, err = run(capsys, "words", "hn", "--n", "1000", "1 2 3")
        assert code == 2 and out == "" and "ArityTooLarge" in err

    def test_hn_refused_before_building(self, capsys):
        # 167,165,999 letters; building up to the bound took about 20 s
        start = time.perf_counter()
        code, out, err = run(capsys, "words", "hn", "--n", "1000", "1 2 3")
        assert code == 2 and out == "" and "ArityTooLarge" in err
        assert time.perf_counter() - start < 0.5

    def test_identity_fails(self, capsys):
        code, out, _ = run(
            capsys, "words", "identity", "--catalog", "S9",
            "--lhs", "4 2 1 3", "--rhs", "4 2 1 3 4 2 3 2 1 3",
        )
        assert code == 1
        assert out == "fails at x1=2 x2=1 x3=3 x4=6\n"


class TestReduce:
    def test_reduce_and_decide(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        out_path = tmp_path / "inst.txt"
        roles_path = tmp_path / "roles.txt"
        code, out, _ = run(
            capsys, "reduce", "--cnf", str(cnf), "--catalog", "T9",
            "-o", str(out_path), "--roles", str(roles_path),
        )
        assert code == 0
        assert "arity 3" in out
        inst = parse_instance(out_path.read_text(), catalog("T9"))
        assert member_closure_word(inst.gens, inst.target) is not None
        assert roles_path.read_text() == "1 u\n2 v\n3 a1^0\n4 a1^1\n"
        # and the CLI agrees
        code, out, _ = run(
            capsys, "smp", "--catalog", "T9",
            "--instance", str(out_path), "--algo", "closure",
        )
        assert code == 0 and out == "member\n"

    def test_reduce_unsat(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        out_path = tmp_path / "inst.txt"
        code, _, _ = run(
            capsys, "reduce", "--cnf", str(cnf), "--catalog", "S9",
            "-o", str(out_path),
        )
        assert code == 0
        inst = parse_instance(out_path.read_text(), catalog("S9"))
        assert member_closure_word(inst.gens, inst.target) is None
        assert not naive_sat(1, (frozenset({1}), frozenset({-1})))

    def test_empty_formula_round_trip(self, capsys, tmp_path):
        # p cnf 0 0 is satisfiable; its instance has arity 0, and () is a blank line
        cnf, path = tmp_path / "e.cnf", tmp_path / "e.smp"
        cnf.write_text("p cnf 0 0\n")
        assert run(capsys, "reduce", "--cnf", str(cnf), "--catalog", "T9", "-o", str(path)) == (
            0, f"wrote {path}: arity 0, 1 generators (S orientation)\n", "")
        assert path.read_text() == "0 1\n\n\n"
        assert run(capsys, "smp", "--catalog", "T9", "--instance", str(path)) == (
            0, "member\n", "")

    def test_reduce_tractable_band_errors(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        code, _, err = run(
            capsys, "reduce", "--cnf", str(cnf), "--catalog", "S10",
            "-o", str(tmp_path / "x.txt"),
        )
        assert code == 2
        assert "quasiidentity" in err

    def test_reduce_dual_orientation(self, capsys, tmp_path):
        # dual(S9) satisfies the plain scan but fails the reversed one
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        band_file = tmp_path / "band.txt"
        band_file.write_text(catalog("S9").dual().to_text())
        out_path = tmp_path / "inst.txt"
        code, out, _ = run(
            capsys, "reduce", "--cnf", str(cnf), "--band", str(band_file),
            "-o", str(out_path), "--json",
        )
        assert code == 0
        assert json.loads(out)["orientation"] == "dual"


class TestCatalogCommand:
    def test_export_parses_back(self, capsys, s9):
        code, out, _ = run(capsys, "catalog", "S9")
        assert code == 0
        assert parse_band_text(out) == s9

    def test_list(self, capsys):
        _, out, _ = run(capsys, "catalog")
        names = out.splitlines()
        assert "S9" in names and "T17" in names and "Rect(3,4)" in names

    def test_export_json(self, capsys, s10):
        table = [[v + 1 for v in row] for row in s10.table]
        assert table[6] == [7, 7, 9, 9, 10, 6, 7, 8, 9, 10]
        assert run(capsys, "catalog", "S10", "--json") == (
            0, json.dumps({"name": "S10", "order": 10, "table": table}) + "\n", "")

    def test_export_to_file(self, capsys, tmp_path, s10):
        path = tmp_path / "s10.txt"
        code, _, _ = run(capsys, "catalog", "S10", "-o", str(path))
        assert code == 0
        assert parse_band_text(path.read_text()) == s10

    def test_unknown(self, capsys):
        code, _, err = run(capsys, "catalog", "S11")
        assert code == 2 and "UnknownName" in err

    @pytest.mark.parametrize("name", ["SL-chain(2049)", "Rect(64,33)"])
    def test_family_order_bound(self, capsys, name):
        code, out, err = run(capsys, "classify", "--catalog", name)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert "UnknownName" in err and "Traceback" not in err


class TestUsage:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 64

    def test_band_and_catalog_conflict(self, capsys):
        code, _, err = run(capsys, "classify", "--band", "x", "--catalog", "S9")
        assert code == 2
        assert "exactly one" in err

    @pytest.mark.parametrize("algo", [[], ["--algo", "auto"], ["--algo", "closure"]],
                             ids=["default", "auto", "closure"])
    def test_force_needs_algo_poly(self, capsys, algo):
        # only the polynomial path can be forced; elsewhere the flag did nothing
        with pytest.raises(SystemExit) as exc:
            main(["smp", "--catalog", "S9", "--inline", "1 2; 2; 3; 4", "--force", *algo])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("bandsmp: error: --force requires --algo poly\n")

    @pytest.mark.parametrize("argv, message", [
        (["--instance", "a.smp", "b.smp", "--stats"], "--stats requires a single instance"),
        (["--inline", "1 2; 2; 3; 4", "--instance", "a.smp", "--stats"],
         "--stats requires a single instance"),
        (["--inline", "1 2; 2; 3; 4", "--cap", "-1"], "--cap must be at least 0, got -1"),
        (["--inline", "1 2; 2; 3; 4", "--jobs", "0"], "--jobs must be at least 1, got 0"),
        (["--inline", "1 2; 2; 3; 4", "--jobs", "-2"], "--jobs must be at least 1, got -2"),
    ], ids=["stats on a batch", "stats on inline plus file", "negative cap", "no jobs",
            "negative jobs"])
    def test_flags_that_would_do_nothing(self, capsys, argv, message):
        # a batch prints no stats, a negative cap acted as 0, and no jobs as one
        with pytest.raises(SystemExit) as exc:
            main(["smp", "--catalog", "S9", *argv])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"bandsmp: error: {message}\n")

    def test_missing_instance(self, capsys):
        code, _, err = run(capsys, "smp", "--catalog", "S10")
        assert code == 2
        assert "no instance" in err


def readme_examples():
    """(argv, shown lines) for each `bandsmp ...` line of the README's
    "Command line" block that shows its output, in the `# ` lines below it
    or after a `#` on its own line (less a closing parenthesized remark)."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Command line\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("bandsmp "):
            command, _, shown = line.partition("#")
            shown = re.sub(r"\s*\([^()]*\)$", "", shown.strip())
            examples.append((shlex.split(command)[1:], [shown] if shown else []))
        elif line.startswith("# "):
            examples[-1][1].append(line[2:])
    return [(argv, shown) for argv, shown in examples if shown]


def readme_quick_start():
    """The README's "Library quick start" Python block, and for each of its
    print lines the output that line's comment gives: the comment's text,
    less a remark after the first ": "."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    shown = [line.split("  # ", 1)[1].split(": ", 1)[0]
             for line in block.splitlines() if line.startswith("print(")]
    return block, shown


class TestReadme:
    def test_quick_start_output(self):
        block, shown = readme_quick_start()
        assert len(shown) >= 6 and "TRACTABLE" in shown and "True" in shown
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, {})
        assert out.getvalue().splitlines() == shown


    def test_examples_found(self):
        found = [argv[:2] for argv, _ in readme_examples()]
        assert ["classify", "--catalog"] in found and ["smp", "--catalog"] in found
        assert ["words", "ghi"] in found and len(found) >= 5

    @pytest.mark.parametrize("argv, shown", [pytest.param(*example, id=" ".join(example[0]))
                                             for example in readme_examples()])
    def test_example_output(self, capsys, argv, shown):
        # "..." stands for any text; a line of "..." alone ends what is shown
        _, out, err = run(capsys, *argv)
        lines = out.splitlines()
        if shown[-1] == "...":
            shown, lines = shown[:-1], lines[:len(shown) - 1]
        assert len(lines) == len(shown)
        for line, expected in zip(lines, shown):
            assert re.fullmatch(".*".join(map(re.escape, expected.split("..."))), line), line
        assert err == ""
