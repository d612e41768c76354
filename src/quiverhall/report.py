"""Machine-readable verification reports: one row (FIELDS) per checked identity."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

FIELDS = ("name", "status", "lhs", "rhs")

# One check as json.dumps(sort_keys=True, indent=2) renders it inside the
# "checks" list, with the fields in sorted order.
_ROW = '    {\n      "lhs": %s,\n      "name": %s,\n      "rhs": %s,\n      "status": %s\n    }'


def check_row(name: str, lhs, rhs) -> tuple:
    """The report row of the identity lhs = rhs between two elements or two
    scalars: status "pass" exactly when lhs - rhs is zero, and both sides
    rendered, so a failure is diagnosable from the report alone."""
    return (name, "pass" if (lhs - rhs).is_zero() else "fail", str(lhs), str(rhs))


def report_json(suite: str, q: int, quiver: dict, seed: int, rows) -> str:
    """json.dumps(sort_keys=True, indent=2) of the report object, byte for
    byte, with the rows (tuples of strings in FIELDS order) rendered by the
    C string encoder into a fixed template and spliced into the dump of the
    rest: the pure-Python encoder would walk every row."""
    text = json.dumps({"suite": suite, "q": q, "quiver": quiver, "seed": seed, "checks": []},
                      sort_keys=True, indent=2)
    enc = encode_basestring_ascii
    body = ",\n".join(_ROW % (enc(lhs), enc(name), enc(rhs), enc(status))
                      for name, status, lhs, rhs in rows)
    if body:
        # "checks" sorts first, so its empty list is the first match
        text = text.replace('"checks": []', '"checks": [\n' + body + "\n  ]", 1)
    return text + "\n"
