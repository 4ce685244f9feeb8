"""Each benchmark workload, built with seed 1, runs its set-up, every
operation and the probes of a traced round once, untimed, and every check
passes.

The benchmark reads the CLI's JSON keys and batch lines, ``Decision``'s
fields and the loop counters; a change to any of them fails here, in the
tests the library is checked with, and not first in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_operation_passes_its_check(name):
    wl = workloads.WORKLOADS[name](1)
    try:
        wl.setup()
        wl.finish_setup()
        assert wl.ops
        tr = Tracer(False)
        wrong = [(op.label, err) for op in wl.ops if (err := op.check(op.run(tr)))]
        assert wrong == []
        wl.probe(Tracer(True))
        assert wl.errors == []
    finally:
        wl.close()
