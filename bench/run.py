"""The quiverhall benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (the package is imported from
``src/``).  One closed-loop client in one process, no extra threads: the
workload's operations (``workloads.py``) run one after another, each a cold
in-process CLI call, and every output is checked against ``reference.json``
and for byte-identical repeats.

``--trace 0`` runs whole passes over the operation list while the next pass
is expected to end within ``--seconds`` (at least one pass) and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced pass and then the same
pass under ``tracer.Tracer`` and reports the per-layer metrics; it writes
the spans and per-function aggregates to ``.bench_out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit code 2 means the benchmark could not set up.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import workloads as wl
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
DIGESTS = OUT_DIR / "digests.json"
# Import and quiver loading take tens of milliseconds, and the CPU speed of a
# shared host switches between levels up to 1.8 times apart for seconds to
# minutes.  So set-up is timed SETUP_REPEATS times before the first pass and
# again after every pass, and setup_s is the fastest of all of them: the
# median follows the share of the run spent at the slow level, the minimum
# only needs the fast level to occur once in the run (README.md, "Baseline").
SETUP_REPEATS = 9


def setup(quivers) -> list:
    """Import the package and load the quivers afresh; seconds of each try."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m.split(".")[0] == "quiverhall"]:
            del sys.modules[name]
        # The modules just dropped hold reference cycles; free them now, so
        # that repeated set-ups neither add to peak_rss_mb nor time a
        # collection of an earlier set-up's modules.
        gc.collect()
        t0 = time.perf_counter()
        importlib.import_module("quiverhall.cli")
        quiver_cls = importlib.import_module("quiverhall.quiver").Quiver
        for name in quivers:
            quiver_cls.from_json(wl.quiver_path(name).read_text(encoding="utf-8"))
        times.append(time.perf_counter() - t0)
    return times


def code_digest() -> str:
    """Hash of the program and its inputs: what "the same code" means."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "quiverhall").glob("*.py")) + \
            sorted(wl.QUIVER_DIR.glob("*.json")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs operations, times them and records why any of them failed."""

    def __init__(self, reference, known_digests):
        self.reference = reference
        self.digests = known_digests      # operation and arguments -> sha256
        self.attempted = 0
        self.failures = defaultdict(list)  # op id -> reasons

    def run_pass(self, ops, tracer=None):
        """One pass over ``ops``; returns {op id: seconds}."""
        latency = {}
        for op in ops:
            self.attempted += 1
            call = lambda: wl.run_op(op)
            t0 = time.perf_counter()
            try:
                code, out, err = tracer.run_op(op.id, call) if tracer else call()
            except Exception:
                latency[op.id] = time.perf_counter() - t0
                self.failures[op.id].append(
                    "raised " + traceback.format_exc().strip().splitlines()[-1])
                continue
            latency[op.id] = time.perf_counter() - t0
            reason = wl.verify(op, code, out, self.reference)
            if reason is None:
                reason = self._check_digest(op, out)
            if reason is not None:
                self.failures[op.id].append(reason + (f"; stderr: {err.strip()}"
                                                      if err.strip() else ""))
        return latency

    def _check_digest(self, op, out):
        key = " ".join((op.id,) + op.args)
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        first = self.digests.setdefault(key, digest)
        if first != digest:
            return f"output bytes differ between runs (sha256 {digest[:12]} != {first[:12]})"
        return None

    @property
    def failed(self):
        return sum(len(v) for v in self.failures.values())


def load_digests(code):
    try:
        return json.loads(DIGESTS.read_text(encoding="utf-8")).get(code, {})
    except (OSError, ValueError):
        return {}


def save_digests(code, digests):
    try:
        stored = json.loads(DIGESTS.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        stored = {}
    stored.setdefault(code, {}).update(digests)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = DIGESTS.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(stored, sort_keys=True, indent=1), encoding="utf-8")
    os.replace(tmp, DIGESTS)


def end_to_end(runner, ops, seconds, setup_times):
    quivers = sorted({op.quiver for op in ops})
    samples = defaultdict(list)
    start = time.perf_counter()
    passes = 0
    while True:
        t0 = time.perf_counter()
        for op_id, dt in runner.run_pass(ops).items():
            samples[op_id].append(dt)
        passes += 1
        last = time.perf_counter() - t0
        setup_times += setup(quivers)
        if time.perf_counter() - start + last > seconds:
            break
    # The mean over passes, not the median: on a shared host the CPU speed
    # drifts over tens of seconds, and the mean follows that drift smoothly
    # where the median of a few passes jumps between regimes.
    per_op = {op_id: statistics.mean(v) for op_id, v in samples.items()}
    every = [dt for v in samples.values() for dt in v]
    slowest = max(per_op, key=per_op.get)
    metrics = {
        "setup_s": (min(setup_times), "s"),
        "wall_s": (sum(per_op.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"fastest of {len(setup_times)} imports and quiver loads, "
                   f"{SETUP_REPEATS} before the first pass and after each pass",
        "wall_s": f"one pass over {len(per_op)} operations, mean of {passes} pass(es)",
        # Printed, not BENCHMARK.json metrics: each is the latency of one
        # operation, so it carries that operation's timing noise alone (see
        # README.md, "Baseline").
        "op_p50_s": f"{statistics.median(every):.6g} s, median of {len(every)} "
                    f"operation latencies",
        "op_max_s": f"{per_op[slowest]:.6g} s, mean latency of the slowest "
                    f"operation, {slowest}",
        "peak_rss_mb": "peak resident set of the benchmark process",
    }
    return metrics, notes


def per_layer(runner, ops, workload, seed):
    scan_budget = importlib.import_module("quiverhall.reps").SCAN_BUDGET
    untraced = runner.run_pass(ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(scan_budget, sum(traced.values()) / sum(untraced.values()))
    largest = tracer.largest_layer()
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "largest_inclusive_layer": largest,
        "metrics": {k: v for k, (v, _unit) in metrics.items()},
        "functions": tracer.call_stats(),
        "span_fields": ["id", "name", "start", "end", "parent", "op"],
        "spans": tracer.spans,
    }), encoding="utf-8")
    notes = {"trace": f"one traced pass; spans and aggregates in "
                      f"{path.relative_to(ROOT)}; largest inclusive time: {largest}"}
    return metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    ops = wl.WORKLOADS[args.workload]["ops"](args.seed)
    try:
        setup_times = setup(sorted({op.quiver for op in ops}))
        reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    except (ImportError, OSError, ValueError) as exc:
        sys.stderr.write(f"bench: cannot set up: {exc}\n")
        return 2
    code = code_digest()
    runner = Runner(reference, load_digests(code))
    if args.trace:
        metrics, notes = per_layer(runner, ops, args.workload, args.seed)
    else:
        metrics, notes = end_to_end(runner, ops, args.seconds, setup_times)
    save_digests(code, runner.digests)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{runner.attempted} operations attempted, {runner.failed} failed "
          f"(fail_ratio {runner.failed / runner.attempted:g})")
    for op_id, reasons in sorted(runner.failures.items()):
        print(f"FAILED {op_id}: {reasons[0]}" +
              (f" (and {len(reasons) - 1} more)" if len(reasons) > 1 else ""))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name:36s} {value:14.6g} {unit}" + (f"  ({note})" if note else ""))
    for name, note in notes.items():
        if name not in metrics:
            print(f"{name}: {note}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
