"""Operation lists of the quiverhall benchmark and how each operation runs.

An operation is one cold in-process run of the command-line front end: a
call of ``quiverhall.cli.main(argv)``, which builds a fresh ``RepCategory``
every time.  The CLI runs the ``bridgeland-compare`` suite only with its
fixed complex pool (total dimension 4), which takes 40-55 s per call on the
baseline machine, longer than one benchmark run may take.  While a
``complexes`` operation runs, the CLI's entry for that suite is therefore
swapped for the same suite function with ``max_total=3``.

Each operation is checked against ``reference.json`` by label-independent
facts only (exit code, check count, table invariants), so that a change of
canonical representatives or labels does not need a benchmark edit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUIVER_DIR = ROOT / "examples_quivers"

SUITES = ("ringel", "presentation-uv", "euler-lemmas", "assoc-z", "assoc-z2",
          "quantum-group", "reflection", "torus-commutation",
          "quotient-relations")
# Samples per seeded suite.  The time of these suites depends on which random
# elements the seed draws (assoc-z2 on A2 at q=3 ranges 1.8-3.7 s over seeds
# 0-9 at the CLI default of 20), and runs are compared across seeds; one
# sample keeps that seed-dependent share of a pass near 5%.
# quotient-relations needs two: one conflation in each grading.
SEEDED_SAMPLES = {"assoc-z": 1, "assoc-z2": 1, "quotient-relations": 2}
# Pool bound of the complexes workload (see the module docstring).
BRIDGELAND_MAX_TOTAL = 3


@dataclass(frozen=True)
class Op:
    id: str                 # stable across seeds; keys reference.json
    quiver: str             # file stem under examples_quivers/
    q: int
    args: tuple             # CLI arguments after --quiver/--q
    expect_exit: int = 0    # 1 for the negative controls


def _suite(quiver, q, suite, seed, extra=()):
    args = ("--suite", suite) + tuple(extra)
    if suite in SEEDED_SAMPLES:
        args += ("--samples", str(SEEDED_SAMPLES[suite]), "--seed", str(seed))
    tag = "-".join([suite] + [a.lstrip("-") for a in extra])
    return Op(f"{quiver}-q{q}-{tag}", quiver, q, args,
              1 if "--perturb" in extra else 0)


def _table(quiver, q, bound):
    return Op(f"{quiver}-q{q}-table-b{bound}", quiver, q,
              ("--table", "--bound", str(bound)))


def _bridgeland(quiver, q):
    return Op(f"{quiver}-q{q}-bridgeland-compare-t{BRIDGELAND_MAX_TOTAL}",
              quiver, q, ("--suite", "bridgeland-compare"))


WORKLOADS = {
    "suites": {
        "ops": lambda seed: [_suite(qv, q, s, seed)
                             for qv, q in (("a2", 2), ("a2", 3), ("a3", 3))
                             for s in SUITES]
        + [_suite("a2", q, "quantum-group", seed, ("--perturb",))
           for q in (2, 3)],
        "why": "everyday verification: every suite but bridgeland-compare "
               "on A2 q=2,3 and A3 q=3, plus 2 negative controls; "
               "sdh2/sdhz/reflection products and normal forms",
        "stresses": ["sdh2", "sdhz", "reflection", "scalars", "report"],
        "bypasses": ["cx2.aut_count scans"],
    },
    "tables": {
        "ops": lambda seed: [_table("a2", 2, 4), _table("a2", 3, 4),
                             _table("a3", 2, 4)],
        "why": "--table --bound 4 on A2 q=2,3 and A3 q=2: iso-class "
               "enumeration, canonical forms and Fitting decomposition in "
               "reps; never touches cx2 or sdh2",
        "stresses": ["reps", "hall", "linalg"],
        "bypasses": ["cx2", "sdh2", "sdhz", "reflection"],
    },
    "large-q": {
        "ops": lambda seed: [op for q in (11, 13) for op in
                             (_table("a2", q, 3),
                              _suite("a2", q, "quantum-group", seed),
                              _suite("a2", q, "reflection", seed),
                              _suite("a2", q, "ringel", seed))],
        "why": "A2 at q=11,13 (table bound 3, quantum-group, reflection, "
               "ringel): the reps layer with small dimension and large p, "
               "where per-field tables and caches cost most",
        "stresses": ["reps", "scalars", "hall", "sdh2"],
        "bypasses": ["sdhz", "cx2.aut_count scans"],
    },
    "complexes": {
        "ops": lambda seed: [_bridgeland(qv, q) for qv, q in
                             (("a1", 2), ("a2", 2), ("a3", 2), ("a1", 3))],
        "why": "bridgeland-compare with pool bound 3 on A1-A3 at q=2 and A1 "
               "at q=3: exhaustive chain-endomorphism scans and sub-complex "
               "enumeration in cx2",
        "stresses": ["cx2", "linalg", "reps"],
        "bypasses": ["hall", "sdhz", "reflection"],
    },
}


def quiver_path(name: str) -> Path:
    return QUIVER_DIR / f"{name}.json"


def run_op(op: Op):
    """Run one operation cold; return (exit code, output text, error text)."""
    from quiverhall import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with _small_bridgeland_pool():
            code = cli.main(["--quiver", str(quiver_path(op.quiver)),
                             "--q", str(op.q), *op.args])
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _small_bridgeland_pool():
    """Run bridgeland-compare with pool bound BRIDGELAND_MAX_TOTAL meanwhile."""
    from quiverhall import suites

    original = suites.SUITES["bridgeland-compare"]
    suites.SUITES["bridgeland-compare"] = lambda cat, *_: \
        suites.suite_bridgeland_compare(cat, BRIDGELAND_MAX_TOTAL)
    try:
        yield
    finally:
        suites.SUITES["bridgeland-compare"] = original


def summarize(code: int, text: str) -> dict:
    """Label-independent facts of one output, compared with reference.json."""
    data = json.loads(text)
    if isinstance(data, list):      # --table rows
        pairs = sorted([r["hall_number"], r["bridgeland_constant"]] for r in data)
        digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
        return {"exit": code, "rows": len(data), "pairs_sha256": digest}
    return {"exit": code, "checks": len(data["checks"])}


def verify(op: Op, code: int, text: str, reference: dict) -> str | None:
    """Return None if the output is correct, else the reason it is not."""
    if code != op.expect_exit:
        return f"exit code {code}, expected {op.expect_exit}"
    try:
        summary = summarize(code, text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    if summary != reference.get(op.id):
        return f"summary {summary} differs from reference {reference.get(op.id)}"
    if "checks" in summary:
        failing = [c["name"] for c in json.loads(text)["checks"]
                   if c["status"] != "pass"]
        if op.expect_exit == 0 and failing:
            return f"failing checks: {failing[:3]}"
        if op.expect_exit == 1 and not any(n.startswith("[E") for n in failing):
            return "negative control has no failing [E...] check"
    return None
