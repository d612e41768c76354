"""Regenerate ``reference.json``: the expected facts of every operation.

    python3 bench/make_reference.py

Runs every operation of every workload once (seed 0; the facts recorded do
not depend on the seed) and stores its label-independent summary.  Rerun
only when the operation lists change, never to make a failing check pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(wl.ROOT / "src"))
    reference = {}
    for name, spec in wl.WORKLOADS.items():
        for op in spec["ops"](0):
            code, out, err = wl.run_op(op)
            reference[op.id] = wl.summarize(code, out)
            print(name, op.id, reference[op.id], err.strip(), flush=True)
    (BENCH / "reference.json").write_text(
        json.dumps(reference, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
