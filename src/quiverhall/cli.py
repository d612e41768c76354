"""Batch front end: structure-constant tables and verification suites.

Exit codes: 0 all checks pass, 1 at least one relation fails, 2 bad input.
Reports are byte-identical for identical configurations.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from json.encoder import encode_basestring_ascii

from .errors import EngineError
from .quiver import Quiver
from .report import FIELDS, report_json
from .reps import RepCategory
from .scalars import check_prime
from .suites import SAMPLED_SUITES, SUITES, table_rows


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="quiverhall",
        description="Exact Hall-algebra computations for quiver representations "
                    "over prime fields.")
    p.add_argument("--quiver", required=True, help="path to quiver JSON "
                   '({"vertices": n, "arrows": [[s, t], ...]})')
    p.add_argument("--q", type=int, required=True, help="prime field order")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--suite", choices=sorted(SUITES), help="verification suite")
    mode.add_argument("--table", action="store_true",
                      help="emit the structure-constant table")
    p.add_argument("--bound", type=int, default=None,
                   help="total dimension bound for --table (default 3)")
    p.add_argument("--samples", type=int, default=None,
                   help="sample count for the randomized suites: "
                        f"{', '.join(SAMPLED_SUITES)} (default 20)")
    p.add_argument("--seed", type=int, default=None,
                   help="random seed for the randomized suites (default 0)")
    p.add_argument("--sink", type=int, default=None,
                   help="sink vertex for the reflection suite (default: first "
                        "sink with an incoming arrow)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--perturb", action="store_true",
                   help="negative control: drop the -sqrt(q) factor in the "
                        "quantum-group suite (must fail)")
    return p


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# One table row as json.dumps(sort_keys=True, indent=2) renders it inside the
# top-level list, with the fields in sorted order.
_TABLE_ROW = ('  {\n    "A": %s,\n    "B": %s,\n    "C": %s,\n'
              '    "bridgeland_constant": %s,\n    "hall_number": %d\n  }')


def _table_text(rows, fmt: str) -> str:
    if fmt == "json":
        # json.dumps(rows, sort_keys=True, indent=2) + "\n", byte for byte, with
        # the strings rendered by the C encoder (report.report_json).
        if not rows:
            return "[]\n"
        enc = encode_basestring_ascii
        return "[\n" + ",\n".join(
            _TABLE_ROW % (enc(r["A"]), enc(r["B"]), enc(r["C"]),
                          enc(r["bridgeland_constant"]), r["hall_number"])
            for r in rows) + "\n]\n"
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=["A", "B", "C", "hall_number",
                                        "bridgeland_constant"])
    w.writeheader()
    for r in rows:
        w.writerow(r)
    return buf.getvalue()


def _report_text(rows, args, quiver: Quiver, seed: int) -> str:
    if args.format == "json":
        return report_json(args.suite, args.q, json.loads(quiver.to_json()), seed, rows)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(FIELDS)
    w.writerows(rows)
    return buf.getvalue()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # A flag the chosen mode ignores would let a run report what it never did.
        if args.perturb and args.suite != "quantum-group":
            raise EngineError("--perturb applies only to --suite quantum-group")
        if args.sink is not None and args.suite != "reflection":
            raise EngineError("--sink applies only to --suite reflection")
        if args.bound is not None and not args.table:
            raise EngineError("--bound applies only to --table")
        for flag, value in (("--samples", args.samples), ("--seed", args.seed)):
            if value is not None and args.suite not in SAMPLED_SUITES:
                raise EngineError(f"{flag} applies only to --suite {', '.join(SAMPLED_SUITES)}")
        bound = 3 if args.bound is None else args.bound
        samples = 20 if args.samples is None else args.samples
        seed = 0 if args.seed is None else args.seed
        with open(args.quiver, "r", encoding="utf-8") as fh:
            quiver = Quiver.from_json(fh.read())
        check_prime(args.q)
        if samples < 1:
            raise EngineError("--samples must be >= 1")
        if bound < 0:
            raise EngineError("--bound must be >= 0")
        cat = RepCategory(quiver, args.q)
    except (OSError, ValueError, EngineError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    try:
        if args.table:
            text, code = _table_text(table_rows(cat, bound), args.format), 0
        else:
            sink = args.sink
            if args.suite == "reflection" and sink is None:
                sinks = [v for v in range(1, quiver.n + 1)
                         if quiver.is_sink(v) and quiver.arrows_into(v)]
                if not sinks:
                    raise EngineError("quiver has no sink with an incoming arrow")
                sink = sinks[0]
            rows = SUITES[args.suite](cat, samples, seed, sink, args.perturb)
            text = _report_text(rows, args, quiver, seed)
            code = 0 if all(row[1] == "pass" for row in rows) else 1
    except EngineError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        _emit(text, args.out)
    except OSError as exc:   # an unwritable --out is bad input, not a failed relation
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
