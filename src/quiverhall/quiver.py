"""Acyclic quivers and their additive Euler form.

Vertices are 1-indexed, matching the JSON input format
{"vertices": n, "arrows": [[s, t], ...]}.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import PreconditionError, ShapeError


class Quiver:
    __slots__ = ("n", "arrows")

    def __init__(self, n: int, arrows):
        arrows = tuple((int(s), int(t)) for s, t in arrows)
        if n < 1:
            raise PreconditionError("quiver needs at least one vertex")
        for s, t in arrows:
            if not (1 <= s <= n and 1 <= t <= n):
                raise PreconditionError(f"arrow ({s},{t}) out of range 1..{n}")
        self.n = n
        self.arrows = arrows
        if self.topological_order() is None:
            raise PreconditionError("quiver must be acyclic")

    def topological_order(self):
        """Vertices in a topological order, or None if the quiver has a cycle."""
        indeg = {v: 0 for v in range(1, self.n + 1)}
        for _, t in self.arrows:
            indeg[t] += 1
        stack = sorted(v for v, d in indeg.items() if d == 0)
        order = []
        while stack:
            v = stack.pop(0)
            order.append(v)
            for s, t in self.arrows:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        stack.append(t)
            stack.sort()
        return order if len(order) == self.n else None

    def arrows_into(self, i: int):
        return [a for a, (s, t) in enumerate(self.arrows) if t == i]

    def arrows_out_of(self, i: int):
        return [a for a, (s, t) in enumerate(self.arrows) if s == i]

    def is_sink(self, i: int) -> bool:
        if not 1 <= i <= self.n:
            raise PreconditionError(f"vertex {i} out of range 1..{self.n}")
        return not self.arrows_out_of(i)

    def reflect_at_sink(self, i: int) -> "Quiver":
        """The quiver with all arrows into the sink i reversed."""
        if not self.is_sink(i):
            raise PreconditionError(f"vertex {i} is not a sink")
        new_arrows = [(t, s) if t == i else (s, t) for s, t in self.arrows]
        return Quiver(self.n, new_arrows)

    def euler_form(self, d, e) -> int:
        """Additive Euler form exponent: <d,e> = sum d_i e_i - sum_a d_s(a) e_t(a)."""
        if len(d) != self.n or len(e) != self.n:
            raise ShapeError("dimension vector length mismatch")
        val = sum(d[i] * e[i] for i in range(self.n))
        for s, t in self.arrows:
            val -= d[s - 1] * e[t - 1]
        return val

    def symmetrized_euler(self, d, e) -> int:
        return self.euler_form(d, e) + self.euler_form(e, d)

    def is_dynkin(self) -> bool:
        """Whether the symmetrized Euler form is positive definite, that is,
        whether every connected component is of type A, D or E (Gabriel).

        Sylvester's criterion, in exact arithmetic: elimination without row
        exchanges leaves the k-th pivot equal to the ratio of the k-th and
        (k-1)-th leading principal minors, so all minors are positive exactly
        when all pivots are.  A disconnected quiver's form is block diagonal,
        and so needs no special case."""
        units = [tuple(int(i == j) for i in range(self.n)) for j in range(self.n)]
        a = [[Fraction(self.symmetrized_euler(u, v)) for v in units] for u in units]
        for k in range(self.n):
            if a[k][k] <= 0:
                return False
            for r in range(k + 1, self.n):
                c = a[r][k] / a[k][k]
                for j in range(k, self.n):
                    a[r][j] -= c * a[k][j]
        return True

    def simple_reflection(self, i: int, d) -> tuple:
        """Weyl simple reflection s_i on dimension vectors (simply-laced rule)."""
        if len(d) != self.n:
            raise ShapeError("dimension vector length mismatch")
        out = list(d)
        nbr = sum(d[s - 1] for s, t in self.arrows if t == i)
        nbr += sum(d[t - 1] for s, t in self.arrows if s == i)
        out[i - 1] = nbr - d[i - 1]
        return tuple(out)

    # -- serialization ----------------------------------------------------

    @staticmethod
    def from_json(text: str) -> "Quiver":
        obj = json.loads(text)
        if not isinstance(obj, dict) or "vertices" not in obj or "arrows" not in obj:
            raise PreconditionError('quiver JSON must be {"vertices": n, "arrows": [[s,t],...]}')
        n, arrows = obj["vertices"], obj["arrows"]
        if not _is_int(n):
            raise PreconditionError(f'"vertices" must be an integer, got {n!r}')
        if not isinstance(arrows, list) or not all(
                isinstance(a, list) and len(a) == 2 and all(map(_is_int, a)) for a in arrows):
            raise PreconditionError(f'"arrows" must be a list of integer pairs, got {arrows!r}')
        return Quiver(n, arrows)

    def to_json(self) -> str:
        return json.dumps({"vertices": self.n, "arrows": [list(a) for a in self.arrows]})

    def __eq__(self, other):
        return isinstance(other, Quiver) and self.n == other.n and self.arrows == other.arrows

    def __hash__(self):
        return hash((self.n, self.arrows))

    def __repr__(self):
        return f"Quiver(n={self.n}, arrows={list(self.arrows)})"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def a_n_quiver(n: int) -> Quiver:
    """Linearly oriented type-A quiver 1 -> 2 -> ... -> n."""
    return Quiver(n, [(i, i + 1) for i in range(1, n)])
