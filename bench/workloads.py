"""The three workloads: their inputs, set-up, operations and checks.

Every workload is a closed loop from one process: the next operation starts
when the previous one has returned. A round runs each of the workload's
operations once, in a fixed order; a run repeats whole rounds. Each
operation's result is checked after its timer stops, against the verdict
the referees settled beforehand or against a property the method must have.

A workload has three stages. Constructing it generates the inputs and has
the referees certify them. ``setup`` is the program's part only: parsing,
classifying, taking duals, parsing instances, writing files; it is timed
and repeated through the run. ``finish_setup`` runs once, after the first
``setup``: it checks what that set-up built and makes the operations.
Every ``setup`` builds fresh ``Band`` objects, because ``classify``
memoizes on the object and ``Band.dual`` caches the dual on it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import gen
import referees as ref
from spans import Tracer

from bandsmp import FORBIDDEN_CASES, catalog, classify, embeds_forbidden, find_embedding
from bandsmp import cli as bandsmp_cli
from bandsmp.band import Band, parse_band_text
from bandsmp.power import GenSet, closure, format_instance, member_closure_word, mul_tuple, parse_instance
from bandsmp.quasi import find_lambda_witness, normalize_witness
from bandsmp.reduction import parse_dimacs, sat_to_smp, word_to_assignment
from bandsmp.smp import CpInfixInstance, LoopStats, cp_infix, cp_suffix, smp_decide_auto, smp_decide_poly, verify_word

OUT_DIR = Path(__file__).resolve().parent / "out"

#: mul_tuple calls timed together in one span, so the span's own cost is negligible
MUL_CALLS = 200


class Failed(Exception):
    """The operation failed: it counts in ``failed``, not as a wrong answer."""


@dataclass
class Op:
    label: str
    run: Callable[[Tracer], Any]
    check: Callable[[Any], Optional[str]]  # an error message, or None when correct


# -- probes for the traced run ---------------------------------------------------

@dataclass
class PolyItem:
    band: Band
    inst: Any
    case: gen.SmpCase


@dataclass
class GadgetItem:
    band: Band
    case: gen.SatCase
    full_closure: bool


@dataclass
class Probes:
    """What a traced round calls besides the workload's own operations."""

    band_texts: list[str] = field(default_factory=list)
    poly: list[PolyItem] = field(default_factory=list)
    gadget: list[GadgetItem] = field(default_factory=list)
    cli_argvs: list[list[str]] = field(default_factory=list)

    def fill_from_sample(self, seed: int) -> set[str]:
        """Take the seeded sample for every kind the workload lacks; name them."""
        sample = gen.sample_inputs(seed)
        bands = {k: parse_band_text(gen.band_text(t), name=k) for k, t in sample.bands.items()}
        taken = set()
        if not self.band_texts:
            self.band_texts = [gen.band_text(sample.bands["S10"])]
            taken.add("band")
        if not self.poly:
            self.poly = [PolyItem(bands["S10"], parse_instance(c.text, bands["S10"]), c)
                         for c in sample.smp]
            taken.add("poly")
        if not self.gadget:
            self.gadget = [GadgetItem(bands["T9"], c, not c.sat) for c in sample.sat]
            taken.add("gadget")
        if not self.cli_argvs:
            self.cli_argvs = [["classify", "--catalog", "S10", "--json"]]
            taken.add("cli")
        return taken


def reduce_path(tr: Tracer, band: Band, dimacs: str):
    """The ``reduce`` path: parse, classify, normalize the witness, emit the gadget."""
    sat = tr.call("reduction.parse_dimacs", parse_dimacs, dimacs)
    c = classify(band)  # a memo hit: set-up classified this Band
    if c.lambda_witness is not None:
        gadget_band, w = band, c.lambda_witness
    else:
        gadget_band, w = band.dual(), c.lambda_dual_witness
    w = tr.call("quasi.normalize_witness", normalize_witness, gadget_band, w)
    out = tr.call("reduction.sat_to_smp", sat_to_smp, sat, gadget_band, w)
    return gadget_band, w, out


def check_gadget(case: gen.SatCase, gadget_band: Band, w, out, member: bool,
                 word, assignment) -> Optional[str]:
    if member != case.sat:
        return f"verdict {member}, truth table says {case.sat}"
    if not ref.is_normalized_witness(gadget_band.table, *w.as_tuple()):
        return f"normalized witness {w} fails its premise or conclusion"
    if member:
        gens = out.instance.gens.members
        if ref.word_product(gadget_band.table, gens, word) != out.instance.target:
            return "witness word does not multiply out to the target"
        if assignment is not None:
            orig = [assignment[out.variable_map[v] - 1] for v in range(1, case.num_vars + 1)]
            if not ref.satisfies(case.clauses, orig):
                return "extracted assignment does not satisfy the formula"
    return None


def certified(table, case: gen.SmpCase) -> bool:
    """The referee's verdict on a generated instance agrees with the generator's."""
    if case.member:
        ok = ref.word_product(table, case.gens, case.word) == case.target
    else:
        ok = ref.window_excludes(table, case.gens, case.target, case.window)
    if ref.is_semilattice(table):
        ok &= ref.semilattice_member(table, case.gens, case.target) == case.member
    return ok


def first_infix(item: PolyItem) -> Optional[CpInfixInstance]:
    """The infix instance the suffix solver meets at its first step, if any.

    This follows the step rule of ``smp._cp_suffix_core`` as it stands (the
    first generator x with b x = b, the first a above b but not above x,
    the generators above x). If that rule changes, ``smp.infix_ms`` still
    times a valid ``cp_infix`` instance, but no longer the one the solver
    meets.
    """
    t = item.band.table
    gens, b = item.inst.gens.members, item.inst.target
    below_all = lambda u, v: all(ref.leq_j(t, p, q) for p, q in zip(u, v))
    x = next((a for a in gens if ref.mul(t, b, a) == b), None)
    if x is None:
        return None
    a = next((a for a in gens if below_all(b, a) and not below_all(x, a)), None)
    if a is None:
        return None
    above_x = tuple(g for g in gens if below_all(x, g))
    return CpInfixInstance(c=b, d=ref.mul(t, b, a), e=x,
                           gens=GenSet(band=item.band, n=len(b), members=above_x))


class Workload:
    """Subclasses generate and certify their inputs in ``__init__``."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: list[Op] = []
        self.errors: list[str] = []
        self.sample_kinds: set[str] = set()
        self.bytes_per_tuple: Optional[float] = None
        self._probes: Optional[Probes] = None

    def setup(self) -> None:
        """The program's set-up: timed, and repeated with fresh objects."""
        raise NotImplementedError

    def finish_setup(self) -> None:
        """Check what ``setup`` built, and make ``self.ops``."""
        raise NotImplementedError

    def probe_set(self) -> Probes:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- traced-run probes -----------------------------------------------------------

    def probe(self, tr: Tracer) -> None:
        """Call every layer's public functions once more, each in its own span."""
        if self._probes is None:
            self._probes = self.probe_set()
            self.sample_kinds = self._probes.fill_from_sample(self.seed)
        p = self._probes
        forbidden = [catalog(c) for c in FORBIDDEN_CASES]
        for text in p.band_texts:
            band = tr.call("band.parse_band_text", parse_band_text, text)
            tr.call("band.Band.dual", band.dual)
            tr.call("quasi.find_lambda_witness", find_lambda_witness, band)
            for small in forbidden:
                emb = tr.call("band.find_embedding", find_embedding, small, band)
                if emb is not None and not ref.is_injective_hom(small.table, band.table, emb):
                    self.errors.append(f"find_embedding({small.name}) is not an injective homomorphism")
            fresh = parse_band_text(text)
            c = tr.call("quasi.classify", classify, fresh)
            rep = tr.call("quasi.embeds_forbidden", embeds_forbidden, fresh)
            err = verdict_error(c, rep, fresh.table, gen.dual_table(fresh.table))
            if err:
                self.errors.append(f"classify probe: {err}")
        for item in p.poly:
            self._probe_poly(tr, item)
        for item in p.gadget:
            self._probe_gadget(tr, item)
        self._probe_cli(tr, p.cli_argvs)

    def _probe_poly(self, tr: Tracer, item: PolyItem) -> None:
        band, inst, case = item.band, item.inst, item.case
        st = LoopStats()
        with tr.span("smp.smp_decide_poly") as s:
            member = smp_decide_poly(inst, stats=st)
        s.counts.update(suffix_iters=st.suffix_call_max, infix_iters=st.infix_pass_max)
        if member != case.member:
            self.errors.append(f"{case.label}: smp_decide_poly says {member}")
        tr.call("smp.cp_suffix", cp_suffix, inst.gens, inst.target)
        dual_gens = GenSet(band=band.dual(), n=inst.gens.n, members=inst.gens.members)
        tr.call("smp.cp_suffix", cp_suffix, dual_gens, inst.target)
        infix = first_infix(item)
        if infix is not None:
            st = LoopStats()
            with tr.span("smp.cp_infix") as s:
                cp_infix(infix, stats=st)
            s.counts.update(infix_iters=st.infix_pass_max)
        if case.word is not None:
            if not tr.call("smp.verify_word", verify_word, inst.gens, case.word, inst.target):
                self.errors.append(f"{case.label}: verify_word rejects the generator's word")
        gens = inst.gens.members
        with tr.span("power.mul_tuple") as s:
            for i in range(MUL_CALLS):
                mul_tuple(band, gens[i % len(gens)], gens[(i + 1) % len(gens)])
        s.counts.update(calls=MUL_CALLS)
        tr.call("power.parse_instance", parse_instance, case.text, band)

    def _probe_gadget(self, tr: Tracer, item: GadgetItem) -> None:
        case = item.case
        gadget_band, w, out = reduce_path(tr, item.band, case.text)
        gens, target = out.instance.gens, out.instance.target
        word = tr.call("power.member_closure_word", member_closure_word, gens, target)
        assignment = None
        if word is not None:
            tr.call("smp.verify_word", verify_word, gens, word, target)
            assignment = tr.call("reduction.word_to_assignment", word_to_assignment, out, word)
        err = check_gadget(case, gadget_band, w, out, word is not None, word, assignment)
        if err:
            self.errors.append(f"{case.label}: {err}")
        if not item.full_closure:
            return
        with tr.span("power.closure") as s:
            s.counts["tuples"] = len(closure(gens))
        if self.bytes_per_tuple is None:
            tracemalloc.start()
            try:
                tuples = len(closure(gens))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.bytes_per_tuple = peak / tuples

    def _probe_cli(self, tr: Tracer, argvs: list[list[str]]) -> None:
        snippet = ("import time; t = time.perf_counter(); import bandsmp; "
                   "print((time.perf_counter() - t) * 1e3)")
        with tr.span("cli.import") as s:
            proc = run_cli([sys.executable, "-c", snippet], cli_env())
        s.counts["import_ms"] = float(proc.stdout.strip())
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                tr.call("cli.main", bandsmp_cli.main, argv)


# -- poly-staircase ------------------------------------------------------------------

class PolyStaircase(Workload):
    """Tractable bands through ``smp_decide_auto``, which takes the poly path."""

    name = "poly-staircase"

    def __init__(self, seed: int):
        super().__init__(seed)
        inp = gen.poly_inputs(seed)
        self.tables, self.cases = inp.bands, inp.cases
        self.texts = {k: gen.band_text(t) for k, t in self.tables.items()}
        heights = {k: ref.j_height(t) for k, t in self.tables.items()}
        self.bounds = [len(c.target) * (heights[c.band] - 1) for c in self.cases]
        for case in self.cases:
            if not certified(self.tables[case.band], case):
                raise RuntimeError(f"generator made an uncertified case: {case.label}")

    def setup(self) -> None:
        self.bands = {k: parse_band_text(text, name=k) for k, text in self.texts.items()}
        for band in self.bands.values():
            classify(band)
            band.dual()
        self.items = [PolyItem(self.bands[c.band], parse_instance(c.text, self.bands[c.band]), c)
                      for c in self.cases]

    def finish_setup(self) -> None:
        self.ops = [Op(item.case.label, self._run(item), self._check(item.case, bound))
                    for item, bound in zip(self.items, self.bounds)]

    @staticmethod
    def _run(item: PolyItem):
        def run(tr: Tracer):
            st = LoopStats()
            with tr.span("smp.smp_decide_auto") as s:
                res = smp_decide_auto(item.inst, stats=st)
            if s is not None:
                s.counts.update(suffix_iters=st.suffix_call_max, infix_iters=st.infix_pass_max)
            return res, st
        return run

    @staticmethod
    def _check(case: gen.SmpCase, bound: int):
        def check(result) -> Optional[str]:
            res, st = result
            if res.method != "poly":
                return f"took the {res.method} path"
            if res.member != case.member:
                return f"verdict {res.member}, referee says {case.member}"
            if max(st.suffix_call_max, st.infix_pass_max) > bound:
                return f"loop counter above n(h-1) = {bound}"
            return None
        return check

    def probe_set(self) -> Probes:
        return Probes(band_texts=list(self.texts.values()), poly=self.items)


# -- closure-gadget -------------------------------------------------------------------

class ClosureGadget(Workload):
    """Random 3-CNFs through the reduce path, then closure search."""

    name = "closure-gadget"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.tables, self.cases = gen.closure_inputs(seed)
        self.texts = {k: gen.band_text(t) for k, t in self.tables.items()}

    def setup(self) -> None:
        self.bands = {k: parse_band_text(text, name=k) for k, text in self.texts.items()}
        for band in self.bands.values():
            classify(band)

    def finish_setup(self) -> None:
        self.ops = [Op(case.label, self._run(case), self._check(case)) for case in self.cases]

    def _run(self, case: gen.SatCase):
        band = self.bands[case.band]

        def run(tr: Tracer):
            gadget_band, w, out = reduce_path(tr, band, case.text)
            res = tr.call("smp.smp_decide_auto", smp_decide_auto, out.instance)
            assignment = None
            if res.member:
                assignment = tr.call("reduction.word_to_assignment", word_to_assignment, out, res.word)
            return gadget_band, w, out, res, assignment
        return run

    @staticmethod
    def _check(case: gen.SatCase):
        def check(result) -> Optional[str]:
            gadget_band, w, out, res, assignment = result
            if res.method != "closure":
                return f"took the {res.method} path"
            return check_gadget(case, gadget_band, w, out, res.member, res.word, assignment)
        return check

    def probe_set(self) -> Probes:
        unsat = [c for c in self.cases if not c.sat][:2]
        sat = [c for c in self.cases if c.sat][:2]
        return Probes(
            band_texts=list(self.texts.values()),
            gadget=[GadgetItem(self.bands[c.band], c, not c.sat) for c in unsat + sat],
        )


@functools.lru_cache(maxsize=None)
def forbidden_table(case: str):
    return catalog(case).table


def verdict_error(verdict, report, table, dual) -> Optional[str]:
    """NP-COMPLETE iff a forbidden band embeds in S or dual(S).

    Every witness must meet the scan's premise and break its conclusion,
    and every embedding must be an injective homomorphism.
    """
    if verdict.tractable == report.any_embedding:
        return f"{verdict.verdict} but embedding found: {report.any_embedding}"
    if not verdict.tractable and verdict.lambda_witness is None and verdict.lambda_dual_witness is None:
        return "NP-COMPLETE without a witness"
    for w, t in ((verdict.lambda_witness, table), (verdict.lambda_dual_witness, dual)):
        if w is not None and not ref.is_lambda_witness(t, *w.as_tuple()):
            return f"witness {w} fails its premise or conclusion"
    for case, orientation, emb in report.entries:
        if emb is not None and not ref.is_injective_hom(
                forbidden_table(case), table if orientation == "S" else dual, emb):
            return f"{case} -> {orientation} is not an injective homomorphism"
    return None


# -- cli-cold -----------------------------------------------------------------------

def cli_env(**extra: str) -> dict[str, str]:
    """The environment of a CLI process: the package is found through ``src``."""
    env = {k: v for k, v in os.environ.items() if k not in ("BANDSMP_CAP", "PYTHONPATH")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    env.update(extra)
    return env


def run_cli(argv: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)


class CliCold(Workload):
    """Cold ``python -m bandsmp.cli`` processes, one at a time.

    The batch call runs two worker processes of its own (``--jobs 2``).
    """

    name = "cli-cold"

    def __init__(self, seed: int):
        super().__init__(seed)
        inp = self.inp = gen.cli_inputs(seed)
        self.texts = {stem: gen.band_text(t) for stem, t in inp.bands.items()}
        for stem, case in inp.singles + [("poly", c) for c in inp.batch]:
            if not certified(inp.bands[stem], case):
                raise RuntimeError(f"generator made an uncertified case: {case.label}")
        OUT_DIR.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"cli-{seed}-", dir=OUT_DIR))
        # compile the bytecode cache, as an installed package would have it
        run_cli([sys.executable, "-m", "bandsmp.cli", "catalog"], cli_env())

    def setup(self) -> None:
        """Write every input file, and build the objects the checks and probes use.

        A repeated set-up writes the same files again, over the old ones.
        """
        inp = self.inp
        self.bands = {stem: parse_band_text(text, name=stem) for stem, text in self.texts.items()}
        self.files = {stem: self._write(f"{stem}.band", text) for stem, text in self.texts.items()}
        self.verdicts = {stem: classify(self.bands[stem]) for stem in inp.classify}
        self.singles = [self._item(stem, case, f"single-{i}.smp") for i, (stem, case) in enumerate(inp.singles)]
        self.batch = [self._item("poly", case, f"batch-{i}.smp") for i, case in enumerate(inp.batch)]
        # the closure-path single call, on a gadget instance made by the reduce path
        self.gadget = reduce_path(Tracer(False), self.bands["gadget"], inp.sat.text)
        self.gadget_file = self._write("gadget.smp", format_instance(self.gadget[2].instance))
        # malformed input must end in exit 2 and a one-line message, never a traceback
        lines = inp.singles[0][1].text.split("\n")
        lines[1] = "x" + lines[1]
        self.bad_file = self._write("bad-token.smp", "\n".join(lines))

    def finish_setup(self) -> None:
        inp, files = self.inp, self.files
        self.ops, self.argvs = [], []  # argvs: the single calls, replayed in process when traced

        for stem in inp.classify:
            verdict, table = self.verdicts[stem], inp.bands[stem]
            err = verdict_error(verdict, embeds_forbidden(self.bands[stem]), table, gen.dual_table(table))
            if err:
                self.errors.append(f"in-process classify of {stem}: {err}")
            # a product is tractable iff every factor is
            expected = all(self._factor_tractable(f) for f in inp.factors[stem])
            if verdict.tractable != expected:
                self.errors.append(f"{stem} is {verdict.verdict}, but its factors say tractable={expected}")
            self._single(f"classify {stem}", ["classify", "--band", files[stem], "--json"],
                         self._classify_check(verdict.verdict))

        for (stem, case), (item, path) in zip(inp.singles, self.singles):
            self._decide(item)
            self._single(case.label, ["smp", "--band", files[stem], "--instance", path, "--stats", "--json"],
                         self._smp_check(case.member, case.gens, case.target, inp.bands[stem]))

        gadget = self.bands["gadget"]
        gadget_band, w, out = self.gadget
        res = smp_decide_auto(out.instance)
        assignment = word_to_assignment(out, res.word) if res.member else None
        err = check_gadget(inp.sat, gadget_band, w, out, res.member, res.word, assignment)
        if gadget_band is not gadget:
            err = "T9 has no witness in the plain orientation"
        if err:
            self.errors.append(f"in-process gadget instance: {err}")
        self.gadget_item = GadgetItem(gadget, inp.sat, True)
        self._single(inp.sat.label,
                     ["smp", "--band", files["gadget"], "--instance", self.gadget_file, "--stats", "--json"],
                     self._smp_check(res.member, out.instance.gens.members, out.instance.target, gadget.table))

        for item, _ in self.batch:
            self._decide(item)
        paths = [path for _, path in self.batch]
        argv = ["smp", "--band", files["poly"], "--instance", *paths, "--jobs", "2"]
        self.ops.append(self._op(f"batch of {len(paths)} --jobs 2", argv, cli_env(),
                                 self._batch_check(paths, [c.member for c in inp.batch])))

        self.ops.append(self._op("non-integer token in an instance file",
                                 ["smp", "--band", files["poly"], "--instance", self.bad_file], cli_env(),
                                 self._malformed_check))
        self.ops.append(self._op("BANDSMP_CAP=abc",
                                 ["smp", "--band", files["poly"], "--instance", self.singles[0][1]],
                                 cli_env(BANDSMP_CAP="abc"), self._malformed_check))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def probe_set(self) -> Probes:
        return Probes(band_texts=[gen.band_text(t) for t in self.inp.bands.values()],
                      poly=[item for item, _ in self.singles + self.batch],
                      gadget=[self.gadget_item], cli_argvs=self.argvs)

    # -- helpers ---------------------------------------------------------------------

    def _write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _item(self, stem: str, case: gen.SmpCase, name: str) -> tuple[PolyItem, str]:
        """Write the instance file and parse the same text in process."""
        path = self._write(name, case.text)
        return PolyItem(self.bands[stem], parse_instance(case.text, self.bands[stem]), case), path

    def _decide(self, item: PolyItem) -> None:
        """The in-process verdict must agree with the referee's certificate."""
        if smp_decide_auto(item.inst).member != item.case.member:
            self.errors.append(f"in-process verdict disagrees with the referee: {item.case.label}")

    def _factor_tractable(self, name: str) -> bool:
        """Classify a catalog factor afresh; its verdict must pass the witness and embedding rules."""
        table = gen.catalog_table(name)
        band = parse_band_text(gen.band_text(table), name=name)
        verdict = classify(band)
        err = verdict_error(verdict, embeds_forbidden(band), table, gen.dual_table(table))
        if err:
            self.errors.append(f"factor {name}: {err}")
        return verdict.tractable

    @staticmethod
    def _op(label: str, argv: list[str], env: dict[str, str], check) -> Op:
        cmd = [sys.executable, "-m", "bandsmp.cli", *argv]

        def run(tr: Tracer):
            with tr.span("cli.call"):
                return run_cli(cmd, env)
        return Op(label, run, check)

    def _single(self, label: str, argv: list[str], check) -> None:
        self.argvs.append(argv)
        self.ops.append(self._op(label, argv, cli_env(), check))

    @staticmethod
    def _classify_check(expected: str):
        def check(proc) -> Optional[str]:
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
            got = json.loads(proc.stdout)["verdict"]
            return None if got == expected else f"CLI says {got}, in process {expected}"
        return check

    @staticmethod
    def _smp_check(member: bool, gens, target, table):
        def check(proc) -> Optional[str]:
            want = 0 if member else 1
            if proc.returncode != want:
                return f"exit {proc.returncode}, in process says exit {want}: {proc.stderr.strip()[-200:]}"
            obj = json.loads(proc.stdout)
            if obj["verdict"] != ("member" if member else "non-member"):
                return f"CLI verdict {obj['verdict']}"
            if "witness_word" in obj and ref.word_product(table, gens, obj["witness_word"]) != tuple(target):
                return "CLI witness word does not multiply out to the target"
            if "witness_pair" in obj:
                x = [v - 1 for v in obj["witness_pair"]["x"]]
                y = [v - 1 for v in obj["witness_pair"]["y"]]
                if ref.mul(table, y, x) != tuple(target):
                    return "CLI witness pair: y x is not the target"
            return None
        return check

    @staticmethod
    def _batch_check(paths: list[str], members: list[bool]):
        def check(proc) -> Optional[str]:
            want = 0 if all(members) else 1
            if proc.returncode != want:
                return f"exit {proc.returncode}, expected {want}: {proc.stderr.strip()[-200:]}"
            expected = [f"{p}\t{'member' if m else 'non-member'}" for p, m in zip(paths, members)]
            got = proc.stdout.splitlines()
            return None if got == expected else f"batch lines {got} != {expected}"
        return check

    @staticmethod
    def _malformed_check(proc) -> Optional[str]:
        message = proc.stderr.strip().splitlines()
        if proc.returncode != 2 or "Traceback" in proc.stderr or len(message) != 1:
            raise Failed(f"exit {proc.returncode}, {len(message)} lines on stderr")
        return None


WORKLOADS = {w.name: w for w in (PolyStaircase, ClosureGadget, CliCold)}
