"""Dense exact linear algebra over prime fields F_p.

Matrices are immutable, stored row-major, and act on column vectors.
All eliminations use reduced row echelon form with the leftmost-pivot,
first-nonzero-row strategy, so every derived object (kernel bases, solved
representatives, subspace enumerations) is deterministic run to run.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Optional

from .errors import ShapeError


class FpMatrix:
    __slots__ = ("p", "rows", "cols", "data")

    def __init__(self, p: int, data: Iterable[Iterable[int]], cols: int = None):
        self.p = p
        rows_t = tuple(tuple(int(x) % p for x in row) for row in data)
        if rows_t:
            ncols = len(rows_t[0])
            if any(len(r) != ncols for r in rows_t):
                raise ShapeError("ragged matrix rows")
        else:
            ncols = cols if cols is not None else 0
        self.data = rows_t
        self.rows = len(rows_t)
        self.cols = ncols

    @classmethod
    def _trusted(cls, p: int, data, cols: int) -> "FpMatrix":
        """Wrap rows whose entries are already reduced mod p and whose lengths
        all equal cols, skipping the checks and the re-reduction of __init__."""
        m = object.__new__(cls)
        m.p = p
        m.data = tuple(map(tuple, data))
        m.rows = len(m.data)
        m.cols = cols
        return m

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(p: int, rows: int, cols: int) -> "FpMatrix":
        return FpMatrix._trusted(p, [(0,) * cols] * rows, cols)

    @staticmethod
    def identity(p: int, n: int) -> "FpMatrix":
        return FpMatrix._trusted(p, [[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @staticmethod
    def from_columns(p: int, columns: Iterable[Iterable[int]], nrows: int) -> "FpMatrix":
        cols = [tuple(c) for c in columns]
        if any(len(c) != nrows for c in cols):
            raise ShapeError("column length mismatch")
        return FpMatrix(p, [[c[i] for c in cols] for i in range(nrows)], cols=len(cols))

    # -- basic ops -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.p, self.rows, self.cols, self.data))

    def __repr__(self):
        return f"FpMatrix(p={self.p}, {self.rows}x{self.cols}, {self.data})"

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.data)

    def entries_flat(self) -> tuple:
        return tuple(x for row in self.data for x in row)

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._same_shape(other)
        p = self.p
        return FpMatrix._trusted(p, [
            [(a + b) % p for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.data, other.data)
        ], self.cols)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._same_shape(other)
        p = self.p
        return FpMatrix._trusted(p, [
            [(a - b) % p for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.data, other.data)
        ], self.cols)

    def __neg__(self) -> "FpMatrix":
        p = self.p
        return FpMatrix._trusted(p, [[(-a) % p for a in row] for row in self.data], self.cols)

    def scale(self, c: int) -> "FpMatrix":
        p = self.p
        c %= p
        return FpMatrix._trusted(p, [[(c * a) % p for a in row] for row in self.data], self.cols)

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if self.cols != other.rows:
            raise ShapeError(f"matmul shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        p = self.p
        od = other.data
        out = []
        for r1 in self.data:
            row = [0] * other.cols
            for k, a in enumerate(r1):
                if a:
                    rk = od[k]
                    for j in range(other.cols):
                        row[j] += a * rk[j]
            out.append([x % p for x in row])
        return FpMatrix._trusted(p, out, other.cols)

    def mul_vec(self, vec: Iterable[int]) -> tuple:
        v = tuple(vec)
        if len(v) != self.cols:
            raise ShapeError("vector length mismatch")
        p = self.p
        return tuple(sum(a * x for a, x in zip(row, v)) % p for row in self.data)

    def transpose(self) -> "FpMatrix":
        return FpMatrix._trusted(self.p, zip(*self.data) if self.rows else
                                 [()] * self.cols, self.rows)

    def _same_shape(self, other: "FpMatrix") -> None:
        if self.p != other.p or self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape/field mismatch")

    # -- elimination ------------------------------------------------------

    def rref(self) -> tuple["FpMatrix", tuple]:
        """Reduced row echelon form and its pivot columns."""
        p = self.p
        m = [list(row) for row in self.data]
        nr, nc = self.rows, self.cols
        pivots = []
        r = 0
        for c in range(nc):
            pr = None
            for i in range(r, nr):
                if m[i][c] % p:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = pow(m[r][c], -1, p)
            m[r] = [(x * inv) % p for x in m[r]]
            for i in range(nr):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == nr:
                break
        return FpMatrix._trusted(p, m, nc), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list:
        """Echelonized basis of {v : M v = 0}, as column vectors (tuples).

        Free variables are set one at a time in increasing column order, so
        the result is deterministic.
        """
        R, pivots = self.rref()
        p = self.p
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        basis = []
        for fc in free:
            v = [0] * self.cols
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = (-R.data[r][fc]) % p
            basis.append(tuple(v))
        return basis

    def solve(self, rhs: Iterable[int]) -> Optional[tuple]:
        """Some x with M x = rhs, or None when inconsistent (see solve_matrix)."""
        b = [(int(x) % self.p,) for x in rhs]
        if len(b) != self.rows:
            raise ShapeError("rhs length mismatch")
        X = self.solve_matrix(FpMatrix._trusted(self.p, b, 1))
        return None if X is None else tuple(row[0] for row in X.data)

    def solve_matrix(self, B: "FpMatrix") -> Optional["FpMatrix"]:
        """Some X with M X = B, or None when some column is inconsistent.

        One elimination of [M | B], none when B has no columns.  Free
        variables are set to 0 in echelon order, so X is deterministic, and
        each column is the one solve would give for it alone.
        """
        if B.rows != self.rows:
            raise ShapeError("rhs length mismatch")
        n, k = self.cols, B.cols
        if k == 0:
            return FpMatrix.zero(self.p, n, 0)
        R, pivots = FpMatrix._trusted(self.p, [a + b for a, b in zip(self.data, B.data)],
                                      n + k).rref()
        if pivots and pivots[-1] >= n:
            return None
        X = [(0,) * k] * n
        for r, pc in enumerate(pivots):
            X[pc] = R.data[r][n:]
        return FpMatrix._trusted(self.p, X, k)

    def column_space_basis(self) -> list:
        """The reduced echelon basis of the column space, as column vectors."""
        Rt, pivots = self.transpose().rref()
        return [tuple(Rt.data[i]) for i in range(len(pivots))]

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "FpMatrix":
        if self.rows != self.cols:
            raise ShapeError("inverse of non-square matrix")
        n = self.rows
        aug = FpMatrix(self.p, [list(self.data[i]) + [1 if j == i else 0 for j in range(n)]
                                for i in range(n)], cols=2 * n)
        R, pivots = aug.rref()
        if tuple(pivots) != tuple(range(n)):
            raise ShapeError("matrix not invertible")
        return FpMatrix(self.p, [row[n:] for row in R.data], cols=n)

    # -- block constructions ----------------------------------------------

    @staticmethod
    def hstack(mats: list) -> "FpMatrix":
        mats = list(mats)
        p = mats[0].p
        nr = mats[0].rows
        if any(m.rows != nr or m.p != p for m in mats):
            raise ShapeError("hstack row mismatch")
        return FpMatrix._trusted(p, [sum((m.data[i] for m in mats), ()) for i in range(nr)],
                                 sum(m.cols for m in mats))

    @staticmethod
    def vstack(mats: list) -> "FpMatrix":
        mats = list(mats)
        p = mats[0].p
        nc = mats[0].cols
        if any(m.cols != nc or m.p != p for m in mats):
            raise ShapeError("vstack column mismatch")
        return FpMatrix._trusted(p, [row for m in mats for row in m.data], nc)

    @staticmethod
    def block(p: int, grid: list) -> "FpMatrix":
        """Assemble a block matrix from a grid of FpMatrix entries."""
        cols = sum(m.cols for m in grid[0])
        data = []
        for row in grid:
            if any(m.rows != row[0].rows for m in row) or sum(m.cols for m in row) != cols:
                raise ShapeError("block grid shape mismatch")
            data.extend(sum(parts, ()) for parts in zip(*(m.data for m in row)))
        return FpMatrix._trusted(p, data, cols)


def combine_flat(p: int, vecs, coeffs, size: int) -> tuple:
    """The flat entry vector sum_i coeffs[i] * vecs[i] mod p, of length size."""
    out = [0] * size
    for v, c in zip(vecs, coeffs):
        if c:
            out = [a + c * x for a, x in zip(out, v)]
    return tuple([a % p for a in out])


def split_flat(p: int, flat, shapes) -> list:
    """Cut a flat entry vector into one matrix per (rows, cols) block, in order."""
    mats = []
    off = 0
    for r, c in shapes:
        mats.append(FpMatrix._trusted(p, [flat[off + i * c:off + (i + 1) * c]
                                          for i in range(r)], c))
        off += r * c
    return mats


def projective_points(p: int, k: int):
    """Yield (coeffs, weight) for one vector of each line of F_p^k.

    First the zero vector with weight 1, then every vector whose first
    nonzero entry is 1, with weight p - 1 (the number of nonzero vectors on
    its line); the weights sum to p^k.  The order is that of
    itertools.product(range(p), repeat=k) restricted to these vectors: a
    line's normalised vector is the first of its vectors in that order, so a
    weighted walk meets every class in the order a full walk would.
    """
    yield (0,) * k, 1
    for lead in reversed(range(k)):
        head = (0,) * lead + (1,)
        for tail in product(range(p), repeat=k - lead - 1):
            yield head + tail, p - 1


def coset_points(p: int, basis, sub):
    """(k, points): k = dim span(basis)/span(sub), and points yields
    (coeffs, weight) for one vector on each line of that quotient.

    basis and sub are lists of flat vectors, basis independent and sub
    inside span(basis); sub may be dependent, so k counts its rank, not its
    length.  coeffs are coordinates in basis that vanish at the pivots of
    sub's coordinates, so they run over a complement of span(sub): every
    coset stands on exactly one line, and the weights (those of
    projective_points, the zero vector first) sum to p^k.  The solve runs at
    the call, so a sub outside the span raises ShapeError there; an empty
    sub needs none.
    """
    t = len(basis)
    pivots = set()
    if sub:
        Bmat = FpMatrix.from_columns(p, basis, len(basis[0]) if basis else 0)
        coords = Bmat.solve_matrix(FpMatrix.from_columns(p, sub, Bmat.rows))
        if coords is None:
            raise ShapeError("subspace outside the span of the basis (engine bug)")
        pivots = set(coords.transpose().rref()[1])
    free = [j for j in range(t) if j not in pivots]

    def points():
        for vals, weight in projective_points(p, len(free)):
            coeffs = [0] * t
            for pos, v in zip(free, vals):
                coeffs[pos] = v
            yield coeffs, weight

    return len(free), points()


def echelon_subspaces(p: int, n: int, d: int):
    """Yield all d-dimensional subspaces of F_p^n as rref row bases.

    Each subspace appears exactly once, as a tuple of row vectors in reduced
    echelon form; enumeration order is deterministic (pivot sets in
    lexicographic order, then free entries in odometer order).
    """
    from itertools import combinations

    if d == 0:
        yield ()
        return
    if d > n:
        return
    for pivots in combinations(range(n), d):
        pivset = set(pivots)
        # Free positions: strictly right of the row's pivot, not a pivot column.
        free_pos = []
        for r, pc in enumerate(pivots):
            for c in range(pc + 1, n):
                if c not in pivset:
                    free_pos.append((r, c))
        for vals in product(range(p), repeat=len(free_pos)):
            rows = [[0] * n for _ in range(d)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), val in zip(free_pos, vals):
                rows[r][c] = val
            yield tuple(tuple(r) for r in rows)


def gaussian_binomial(n: int, d: int, p: int) -> int:
    """Number of d-dimensional subspaces of F_p^n."""
    if d < 0 or d > n:
        return 0
    num = 1
    den = 1
    for i in range(d):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den
