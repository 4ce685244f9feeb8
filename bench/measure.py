"""The timed loop, and the metrics made from it.

Operations run in whole rounds until ``seconds`` have passed, so every run
attempts each operation the same number of times per round and ``failed``
is the same share of ``attempted`` in every run. Between operations the
workload's set-up runs again, timed, whenever set-ups have taken less than
``SETUP_SHARE`` of the run so far.

Before each operation the reference task runs once, timed: a fixed
brute-force closure from ``referees.py``. It shares no code with the
library but does the same kind of work (tuples, dictionaries, lists). The
shared host this benchmark was written on runs such work about 1.7 times as
slow for seconds to minutes at a time, and the library, cold CLI
processes and the reference task slow down together. So every time is
scaled to one machine speed: multiplied by ``REFERENCE_S`` and divided by
the mean time of the reference task in the same round. An operation's
time is the median of its scaled times over the plain rounds, and
``setup_s`` is the median of the scaled set-ups (see README).

A traced run alternates plain rounds with traced ones. A traced round
wraps each operation in an ``op`` span around its spanned library calls,
then probes every layer (``Workload.probe``). Per-layer metrics come from
the probe spans, which lie outside every ``op`` span; the ``op`` spans give
the tracing overhead, against the plain rounds of the same run, and the
self-time table printed to standard error.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import gen
import referees as ref
from spans import LAYERS, Tracer, median
from workloads import Failed, Workload

ROOT_SPAN = "op"
SETUP_SHARE = 0.05
#: the reference task's time at the machine speed every time is scaled to:
#: its best time on the 2-vCPU host this benchmark was written on
REFERENCE_S = 0.0054

_REF_TABLE, _REF_GENS = gen.reference_instance()


def reference_task() -> float:
    """Run the reference task once from a collected heap; its duration in seconds."""
    gc.collect()
    t0 = time.perf_counter()
    tuples = len(ref.closure_words(_REF_TABLE, _REF_GENS))
    dt = time.perf_counter() - t0
    if tuples != gen.REFERENCE_TUPLES:
        raise RuntimeError(f"the reference task made {tuples} tuples, not {gen.REFERENCE_TUPLES}")
    return dt


@dataclass
class Result:
    workload: Workload
    tracer: Tracer
    traced: bool
    # (round, duration) of every set-up; the first one, before round 0, counts in round 0
    setups: list[tuple[int, float]]
    attempted: int = 0
    failed: int = 0
    # per round: the durations of its reference tasks
    references: list[list[float]] = field(default_factory=list)
    # per operation: (round, duration) of its successful runs in plain and in traced rounds
    by_op: dict[int, tuple[list[tuple[int, float]], list[tuple[int, float]]]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def scale(self, rnd: int) -> float:
        """The factor that takes a duration measured in round ``rnd`` to the reference speed."""
        return REFERENCE_S / statistics.fmean(self.references[rnd])

    def scaled(self, timed: list[tuple[int, float]]) -> float:
        """Median over rounds of durations scaled to the reference speed."""
        return median(dt * self.scale(rnd) for rnd, dt in timed)

    def summary(self) -> dict:
        metrics = self.layer_metrics() if self.traced else self.end_to_end()
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Latency and throughput from each operation's scaled median time."""
        times = [self.scaled(plain) for plain, _ in self.by_op.values() if plain]
        return {
            "setup_s": (self.scaled(self.setups), "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "op_ms_p50": (median(times) * 1e3, "ms"),
            "peak_rss_mb": (self.workload.peak_rss_mb(), "MB"),
        }

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures; times are scaled by the run's median round factor."""
        tr = self.tracer
        own = tr.self_times()
        k = median(self.scale(rnd) for rnd in range(len(self.references)))

        def probe_ms(name: str) -> float:
            return median(own[i] * 1e3 for i in tr.outside(name, ROOT_SPAN)) * k

        def counts(name: str, key: str) -> list[tuple[float, float]]:
            return [(tr.spans[i].counts[key], tr.spans[i].dur)
                    for i in tr.outside(name, ROOT_SPAN) if key in tr.spans[i].counts]

        def iters_max(key: str) -> float:
            return max((s.counts.get(key, 0) for s in tr.spans), default=0)

        closures = counts("power.closure", "tuples")
        muls = counts("power.mul_tuple", "calls")
        return {
            "band.construct_ms": (probe_ms("band.parse_band_text"), "ms"),
            "band.dual_ms": (probe_ms("band.Band.dual"), "ms"),
            "band.find_embedding_ms": (probe_ms("band.find_embedding"), "ms"),
            "quasi.scan_ms": (probe_ms("quasi.find_lambda_witness"), "ms"),
            "quasi.classify_ms": (probe_ms("quasi.classify"), "ms"),
            "quasi.embeds_forbidden_ms": (probe_ms("quasi.embeds_forbidden"), "ms"),
            "power.closure_tuples": (median(n for n, _ in closures), "count"),
            "power.closure_tuples_per_s": (median(n / d for n, d in closures) / k, "1/s"),
            "power.closure_bytes_per_tuple": (self.workload.bytes_per_tuple or 0.0, "B"),
            "power.closure_word_ms": (probe_ms("power.member_closure_word"), "ms"),
            "power.mul_tuple_us": (median(d / n * 1e6 for n, d in muls) * k, "us"),
            "power.parse_instance_ms": (probe_ms("power.parse_instance"), "ms"),
            "smp.poly_ms": (probe_ms("smp.smp_decide_poly"), "ms"),
            "smp.suffix_ms": (probe_ms("smp.cp_suffix"), "ms"),
            "smp.infix_ms": (probe_ms("smp.cp_infix"), "ms"),
            "smp.suffix_iters_max": (iters_max("suffix_iters"), "count"),
            "smp.infix_iters_max": (iters_max("infix_iters"), "count"),
            "smp.verify_word_ms": (probe_ms("smp.verify_word"), "ms"),
            "reduction.parse_dimacs_ms": (probe_ms("reduction.parse_dimacs"), "ms"),
            "reduction.sat_to_smp_ms": (probe_ms("reduction.sat_to_smp"), "ms"),
            "reduction.word_to_assignment_ms": (probe_ms("reduction.word_to_assignment"), "ms"),
            "cli.import_ms": (median(n for n, _ in counts("cli.import", "import_ms")) * k, "ms"),
            "cli.main_ms": (probe_ms("cli.main"), "ms"),
            "trace.overhead_pct": (self.overhead_pct(), "%"),
        }

    def overhead_pct(self) -> float:
        """Median over operations of traced against plain scaled time, in percent."""
        ratios = [self.scaled(traced) / self.scaled(plain)
                  for plain, traced in self.by_op.values() if plain and traced]
        return (median(ratios) - 1) * 100 if ratios else 0.0


def run(wl: Workload, seconds: float, traced: bool, first_setup: float) -> Result:
    """Run whole rounds for ``seconds``; ``first_setup`` is the set-up timed before them."""
    on, off = Tracer(True), Tracer(False)
    res = Result(wl, on, traced, [(0, first_setup)])
    start = time.perf_counter()
    rounds = 0
    while True:
        in_trace = traced and rounds % 2 == 1
        tr = on if in_trace else off
        res.references.append([])
        for k, op in enumerate(wl.ops):
            if sum(dt for _, dt in res.setups) < SETUP_SHARE * (time.perf_counter() - start):
                gc.collect()  # start each set-up from a collected heap
                t0 = time.perf_counter()
                wl.setup()
                res.setups.append((rounds, time.perf_counter() - t0))
            res.references[-1].append(reference_task())
            res.attempted += 1
            gc.collect()  # and each operation
            t0 = time.perf_counter()
            try:
                with tr.span(ROOT_SPAN):
                    out = op.run(tr)
            except Exception:
                res.failed += 1
                print(f"FAILED: {op.label}\n{traceback.format_exc()}", file=sys.stderr)
                continue
            dt = time.perf_counter() - t0
            try:
                err = op.check(out)
            except Failed as exc:
                res.failed += 1
                if rounds == 0:
                    print(f"FAILED: {op.label}: {exc}", file=sys.stderr)
                continue
            if err:
                res.errors.append(f"{op.label}: {err}")
            res.by_op.setdefault(k, ([], []))[in_trace].append((rounds, dt))
        if in_trace:
            wl.probe(on)
        rounds += 1
        if time.perf_counter() - start >= seconds and (rounds >= 2 or not traced):
            break
    res.errors.extend(wl.errors)
    return res


def print_layer_table(res: Result, path) -> None:
    """Self time per layer inside the traced operations, to standard error."""
    ops = sum(len(traced) for _, traced in res.by_op.values())
    totals = res.tracer.layer_self_ms(ROOT_SPAN)
    whole = sum(totals.values()) or 1.0
    print(f"spans written to {path}", file=sys.stderr)
    print(f"self time per traced operation ({ops} operations, {len(res.tracer.spans)} spans):",
          file=sys.stderr)
    for layer in LAYERS + ("bench",):
        ms = totals[layer] / max(ops, 1)
        print(f"  {layer:10s} {ms:10.3f} ms  {100 * totals[layer] / whole:5.1f}%", file=sys.stderr)
    if res.workload.sample_kinds:
        kinds = ", ".join(sorted(res.workload.sample_kinds))
        print(f"probes of kind {kinds} ran on the seeded sample", file=sys.stderr)
