"""Command-line interface.

Exit codes: 0 member/true/ok, 1 non-member/false, 2 domain error or
unknown, 64 usage. All output is deterministic for fixed inputs; element
labels and variable indices are 1-based on the way in and out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import Optional

from . import band as band_mod
from . import power, quasi, reduction, smp, words
from .errors import BandSmpError, parse_file, parsing

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_band_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--band", metavar="FILE", help="band file (text or JSON format)")
    p.add_argument("--catalog", metavar="NAME", help="named catalog band, e.g. S9")


def _resolve_band(args) -> band_mod.Band:
    if bool(args.band) == bool(args.catalog):
        raise BandSmpError("exactly one of --band and --catalog is required")
    if args.band:
        return band_mod.load_band(args.band)
    return band_mod.catalog(args.catalog)


def _witness_json(w: Optional[quasi.Witness]):
    if w is None:
        return None
    d, e, x, y, h = w.labels()
    return {"d": d, "e": e, "x": x, "y": y, "h": h}


# --- subcommands ---------------------------------------------------------------

def _cmd_validate(args) -> int:
    band = _resolve_band(args)
    if args.json:
        print(json.dumps({"valid": True, "order": band.order, "name": band.name}))
    else:
        print(f"VALID: band of order {band.order}")
    return EXIT_TRUE


def _cmd_green(args) -> int:
    band = _resolve_band(args)
    classes = [[v + 1 for v in cls] for cls in band.green.j_classes]
    if args.json:
        print(json.dumps({
            "order": band.order,
            "height": band.green.height,
            "j_classes": classes,
        }))
    else:
        print(f"order: {band.order}")
        print(f"height: {band.green.height}")
        parts = " ".join("{" + ",".join(map(str, c)) + "}" for c in classes)
        print(f"J-classes: {parts}")
    return EXIT_TRUE


def _cmd_classify(args) -> int:
    band = _resolve_band(args)
    result = quasi.classify(band)
    if args.json:
        print(json.dumps({
            "verdict": result.verdict,
            "lambda_witness": _witness_json(result.lambda_witness),
            "lambda_dual_witness": _witness_json(result.lambda_dual_witness),
            "forbidden": [
                {"case": case, "orientation": orientation, "image": [v + 1 for v in image]}
                for case, orientation, image in quasi.embeds_forbidden(band).entries
            ],
        }))
    else:
        print(result.verdict)
        if result.lambda_witness is not None:
            print(f"lambda witness: {result.lambda_witness}")
        if result.lambda_dual_witness is not None:
            print(f"lambda-dual witness: {result.lambda_dual_witness}")
    return EXIT_TRUE


def _default_cap(args) -> int:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("BANDSMP_CAP")
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise BandSmpError(f"BANDSMP_CAP must be an integer, got {env!r}") from None
        if cap < 0:
            raise BandSmpError(f"BANDSMP_CAP must be at least 0, got {env!r}")
        return cap
    return power.DEFAULT_CAP


def _decide_one(inst, method, force, cap) -> dict:
    """Decide one instance; returns the record of its Decision that --json
    prints and --stats renders."""
    decision = smp.smp_decide_auto(inst, cap=cap, method=method, force=force)
    record = {"verdict": decision.verdict, "method": decision.method}
    if decision.method == "poly":
        record["stats"] = {
            "bound": inst.gens.n * (inst.band.green.height - 1),
            "infix_inner_max": decision.stats.infix_pass_max,
            "suffix_while_max": decision.stats.suffix_call_max,
        }
    if decision.pair is not None:
        x, y = decision.pair
        record["witness_pair"] = {
            "x": [v + 1 for v in x],
            "y": [v + 1 for v in y],
            "verified": power.mul_tuple(inst.band, y, x) == inst.target,
        }
    if decision.word is not None:
        record["witness_word"] = decision.word
        record["verified"] = smp.verify_word(inst.gens, decision.word, inst.target)
    return record


def _stats_lines(record: dict) -> list[str]:
    """The --stats text of a decision record."""
    lines = [f"method: {record['method']}"]
    if "stats" in record:
        stats = record["stats"]
        lines += [f"loop bound n(h-1): {stats['bound']}",
                  f"infix inner-body max: {stats['infix_inner_max']}",
                  f"suffix while max: {stats['suffix_while_max']}"]
    if "witness_pair" in record:
        pair = record["witness_pair"]
        x, y = (",".join(map(str, pair[key])) for key in "xy")
        lines += [f"witness pair: x=({x}) y=({y})", f"verified: {json.dumps(pair['verified'])}"]
    if "witness_word" in record:
        lines += [f"witness word: {' '.join(map(str, record['witness_word']))}",
                  f"verified: {json.dumps(record['verified'])}"]
    return lines


def _verdict_code(verdict: str) -> int:
    return {"member": EXIT_TRUE, "non-member": EXIT_FALSE}.get(verdict, EXIT_ERROR)


#: the band of a batch worker process, set once by the pool's initializer
_worker_band: Optional[band_mod.Band] = None


def _set_worker_band(band: band_mod.Band) -> None:
    global _worker_band
    _worker_band = band


def _decide_entry(source, method, force, cap, band=None):
    """(name, record, error) for a (name, text)
    source over band, by default the worker's; a text of None is read from
    the file name, so an unreadable file gets its own error, and a
    ParseError names the file."""
    name, text = source
    parse = partial(power.parse_instance, band=band or _worker_band)
    try:
        inst = parse_file(name, parse) if text is None else parse(text)
        return name, _decide_one(inst, method, force, cap), None
    except (BandSmpError, OSError) as exc:
        return name, {"verdict": "error"}, f"{type(exc).__name__}: {exc}"


def _cmd_smp(args) -> int:
    band = _resolve_band(args)
    cap = _default_cap(args)
    sources = [(path, None) for path in args.instance or []]
    if args.inline:
        sources.insert(0, ("<inline>", args.inline.replace(";", "\n")))
    if not sources:
        raise BandSmpError("no instance given: use --instance FILE or --inline TEXT")

    jobs = min(args.jobs, len(sources), os.cpu_count() or 1)
    method = None if args.algo == "auto" else args.algo
    decide = partial(_decide_entry, method=method, force=args.force, cap=cap)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(jobs, initializer=_set_worker_band,
                                 initargs=(band,)) as pool:
            results = list(pool.map(decide, sources))
    else:
        results = [decide(source, band=band) for source in sources]

    if len(results) == 1:  # one instance: its verdict, stats or JSON object
        _, record, err = results[0]
        if err:
            print(f"error: {err}", file=sys.stderr)
        elif args.json:
            print(json.dumps(record))
        else:
            print(record["verdict"], *(_stats_lines(record) if args.stats else []), sep="\n")
    elif args.json:  # a batch: one verdict line per instance, order preserved
        print(json.dumps({
            "results": [
                {"instance": name, "verdict": record["verdict"], "error": err}
                for name, record, err in results
            ]
        }))
    else:
        for name, record, err in results:
            suffix = f" ({err})" if err else ""
            print(f"{name}\t{record['verdict']}{suffix}")
    return max(_verdict_code(record["verdict"]) for _, record, _ in results)


def _cmd_words(args) -> int:
    action = args.action
    if action == "content":
        w = words.word_from_text(args.word)
        print(" ".join(map(str, sorted(words.content(w)))))
    elif action == "cut":
        print(words.word_to_text(words.left_cut_s(words.word_from_text(args.word))))
    elif action == "sigma":
        print(words.word_to_text(words.sigma(words.word_from_text(args.word))))
    elif action == "dual":
        print(words.word_to_text(words.dual_word(words.word_from_text(args.word))))
    elif action == "hn":
        print(words.word_to_text(words.h_n(args.n, words.word_from_text(args.word))))
    elif action == "pbound":
        print(words.length_bound_p(args.n, args.k))
    elif action == "ghi":
        with parsing(f"word name {args.name!r}, expected e.g. G3"):
            family, n = args.name[:1], int(args.name[1:])
        print(words.word_to_text(words.ghi_word(family, n)))
    elif action == "eval":
        band = _resolve_band(args)
        w = words.word_from_text(args.word)
        with parsing("--assign"):
            assign = [int(v) - 1 for v in args.assign.split()]
        print(words.eval_word(band, w, assign) + 1)
    elif action == "identity":
        band = _resolve_band(args)
        ident = words.Identity(
            words.word_from_text(args.lhs), words.word_from_text(args.rhs)
        )
        result = words.satisfies_identity(band, ident)
        if result is True:
            print("holds")
            return EXIT_TRUE
        print("fails at " + " ".join(
            f"x{i + 1}={v + 1}" for i, v in enumerate(result)
        ))
        return EXIT_FALSE
    return EXIT_TRUE


def _cmd_reduce(args) -> int:
    band = _resolve_band(args)
    sat = parse_file(args.cnf, reduction.parse_dimacs)

    failing = quasi.normalized_witnesses(band)
    if not failing:
        raise BandSmpError("band passes both quasiidentity scans; no hardness instance exists")
    # the first failing orientation; membership in the dual mirrors reversed products
    orientation, gadget_band, witness = failing[0]
    out = reduction.sat_to_smp(sat, gadget_band, witness)

    text = power.format_instance(out.instance)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    if args.roles:
        with open(args.roles, "w", encoding="utf-8") as fh:
            fh.write(reduction.format_roles(out))
    info = {
        "instance_file": args.output,
        "orientation": orientation,
        "arity": out.instance.gens.n,
        "generators": len(out.instance.gens),
        "clauses": len(out.sat.clauses),
        "variables": out.sat.num_vars,
        "variable_map": {str(k): v for k, v in sorted(out.variable_map.items())},
        "witness": _witness_json(witness),
    }
    if args.json:
        print(json.dumps(info))
    else:
        print(f"wrote {args.output}: arity {info['arity']}, "
              f"{info['generators']} generators ({orientation} orientation)")
    return EXIT_TRUE


def _cmd_catalog(args) -> int:
    if not args.name:
        for name in band_mod.CATALOG_EXAMPLES:
            print(name)
        return EXIT_TRUE
    band = band_mod.catalog(args.name)
    if args.json:
        payload = json.dumps({
            "name": band.name,
            "order": band.order,
            "table": (band.itable + 1).tolist(),
        })
        output = payload + "\n"
    else:
        output = band.to_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(output)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(output)
    return EXIT_TRUE


# --- parser --------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="bandsmp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a band table")
    _add_band_source(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("green", help="J-classes and height of the J-quotient")
    _add_band_source(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_green)

    p = sub.add_parser("classify", help="tractability dichotomy verdict")
    _add_band_source(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("smp", help="decide subpower membership")
    _add_band_source(p)
    p.add_argument("--instance", metavar="FILE", nargs="+",
                   help="instance file(s); several files run as a batch")
    p.add_argument("--inline", metavar="TEXT",
                   help="inline instance, ';' separates lines")
    p.add_argument("--algo", choices=("auto", "poly", "closure"), default="auto")
    p.add_argument("--force", action="store_true",
                   help="with --algo poly: run it even if the scans fail; "
                        "'no' answers are then reported as unknown")
    p.add_argument("--cap", type=int, default=None,
                   help="closure cap (default 5e6, or env BANDSMP_CAP)")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for a batch; at most one per file and per CPU")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_smp)

    p = sub.add_parser("words", help="free-band word tools")
    wsub = p.add_subparsers(dest="action", required=True)
    for name in ("content", "cut", "sigma", "dual"):
        wp = wsub.add_parser(name)
        wp.add_argument("word", help="space-separated variable indices")
    wp = wsub.add_parser("hn")
    wp.add_argument("--n", type=int, required=True)
    wp.add_argument("word")
    wp = wsub.add_parser("pbound")
    wp.add_argument("--n", type=int, required=True)
    wp.add_argument("--k", type=int, required=True)
    wp = wsub.add_parser("ghi")
    wp.add_argument("name", help="G, H or I and any n >= 2, e.g. G3, H4, I12")
    wp = wsub.add_parser("eval")
    _add_band_source(wp)
    wp.add_argument("--assign", required=True, help="1-based elements for x1 x2 ...")
    wp.add_argument("word")
    wp = wsub.add_parser("identity")
    _add_band_source(wp)
    wp.add_argument("--lhs", required=True)
    wp.add_argument("--rhs", required=True)
    p.set_defaults(func=_cmd_words)

    p = sub.add_parser("reduce", help="emit the SAT hardness instance")
    p.add_argument("--cnf", required=True, metavar="FILE", help="DIMACS CNF input")
    _add_band_source(p)
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.add_argument("--roles", metavar="FILE", help="write generator role map")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("catalog", help="export a named band (no name: list them)")
    p.add_argument("name", nargs="?")
    p.add_argument("-o", "--output", metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "smp":  # flags that would do nothing are refused
        if args.force and args.algo != "poly":
            parser.error("--force requires --algo poly")
        if args.stats and len(args.instance or []) + bool(args.inline) > 1:
            parser.error("--stats requires a single instance")
        if args.cap is not None and args.cap < 0:
            parser.error(f"--cap must be at least 0, got {args.cap}")
        if args.jobs < 1:
            parser.error(f"--jobs must be at least 1, got {args.jobs}")
    try:
        return args.func(args)
    except (BandSmpError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
