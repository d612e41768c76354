"""Measure a baseline: every workload on several seeds, plus one traced run.

    python3 bench/baseline.py

Runs ``run.py`` once per (workload, seed) with tracing off, seeds 0-9, for
BENCHMARK.json's ``run_seconds`` each, and once per workload with tracing on
(seed 0), one run at a time.  Writes
each end-to-end metric's median and quartiles over the seeds, their spread
((q3 - q1) / median, as the bounds in BENCHMARK.json are checked), the
per-layer metrics, the largest-inclusive-time layer, and the machine.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
SEEDS = range(10)
OUT = BENCH / "baseline.json"


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=wl.ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main() -> int:
    seconds = json.loads((wl.ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))["run_seconds"]

    out = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "system": platform.system(), "machine": platform.machine()},
        "seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for name, spec in wl.WORKLOADS.items():
        results = []
        for seed in SEEDS:
            result, _ = run(name, seed, seconds, 0)
            results.append(result)
            print(name, seed, json.dumps(result), flush=True)
        traced, lines = run(name, 0, seconds, 1)
        print(name, "traced", json.dumps(traced), flush=True)
        metrics = results[0]["metrics"]
        out["workloads"][name] = {
            "why": spec["why"],
            "stresses": spec["stresses"],
            "bypasses": spec["bypasses"],
            "operations": [op.id for op in spec["ops"](0)],
            "correct": all(r["correct"] for r in results + [traced]),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {m: dict(summary([r["metrics"][m]["value"] for r in results]),
                                   unit=metrics[m]["unit"]) for m in metrics},
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
            "trace_note": next((l for l in lines if l.startswith("trace:")), ""),
        }
    OUT.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
