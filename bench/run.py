"""Run one workload of the bandsmp benchmark and print its metrics.

    python3 bench/run.py --workload poly-staircase --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the package is imported from ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones,
and the spans are written to ``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bandsmp" / "__init__.py").is_file():
        print(f"error: no bandsmp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    wl = cls(args.seed)  # generates the inputs and has the referees certify them
    try:
        start = time.perf_counter()
        wl.setup()
        first_setup = time.perf_counter() - start
        wl.finish_setup()
        result = measure.run(wl, args.seconds, bool(args.trace), first_setup)
    finally:
        wl.close()
    if args.trace:
        workloads.OUT_DIR.mkdir(exist_ok=True)
        path = workloads.OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        result.tracer.write(str(path))
        measure.print_layer_table(result, path)
    means = [sum(r) / len(r) for r in result.references]
    print(f"reference task: {len(result.references)} rounds, mean per round {min(means) * 1e3:.2f}"
          f"-{max(means) * 1e3:.2f} ms, median {sorted(means)[len(means) // 2] * 1e3:.2f} ms; "
          f"times are scaled to {measure.REFERENCE_S * 1e3:.1f} ms", file=sys.stderr)
    for err in result.errors[:10]:
        print(f"WRONG: {err}", file=sys.stderr)
    print(json.dumps(result.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
