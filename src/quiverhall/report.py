"""Machine-readable verification reports: one row (FIELDS) per checked identity."""

from __future__ import annotations

import json

FIELDS = ("name", "status", "lhs", "rhs")


def check_row(name: str, lhs, rhs) -> tuple:
    """The report row of the identity lhs = rhs between two elements or two
    scalars: status "pass" exactly when lhs - rhs is zero, and both sides
    rendered, so a failure is diagnosable from the report alone."""
    return (name, "pass" if (lhs - rhs).is_zero() else "fail", str(lhs), str(rhs))


def report_json(suite: str, q: int, quiver: dict, seed: int, rows) -> str:
    obj = {"suite": suite, "q": q, "quiver": quiver, "seed": seed,
           "checks": [dict(zip(FIELDS, row)) for row in rows]}
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
