"""Finite-dimensional quiver representations over F_p and their category.

A representation assigns F_p^(d_i) to each vertex and a matrix X_a (acting on
column vectors, shape d_t(a) x d_s(a)) to each arrow.  RepCategory is the
working context for a fixed (quiver, p): it owns every cache and the
isomorphism-class registry, so keys are stable within a run and reproducible
across runs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional

from .errors import (
    BudgetExceeded,
    CategoryMismatch,
    NotASubmodule,
    NotInSubcategory,
    PreconditionError,
    ShapeError,
)
from .linalg import (
    FpMatrix,
    combine_flat,
    echelon_subspaces,
    gaussian_binomial,
    invertible_combinations,
    projective_points,
    reduce_against_rows,
    split_flat,
    subspace_contains,
)
from .quiver import Quiver
from .scalars import check_prime

SCAN_BUDGET = 1 << 20
ENUM_DIM_GUARD = 6
DECOMPOSE_DIM_GUARD = 12


def check_scan(guard: str, p: int, k: int) -> None:
    """Raise BudgetExceeded, naming the guard, when p^k exceeds SCAN_BUDGET."""
    if p ** k > SCAN_BUDGET:
        raise BudgetExceeded(f"{guard}: {p}^{k} = {p ** k} > SCAN_BUDGET {SCAN_BUDGET}")


def check_count(guard: str, count: int, what: str) -> None:
    """Raise BudgetExceeded, naming the guard, when count items of an
    enumeration exceed SCAN_BUDGET."""
    if count > SCAN_BUDGET:
        raise BudgetExceeded(f"{guard}: {count} {what} > SCAN_BUDGET {SCAN_BUDGET}")


def check_dim(guard: str, dim: int, limit: int, name: str) -> None:
    """Raise BudgetExceeded, naming the guard, when dim exceeds limit."""
    if dim > limit:
        raise BudgetExceeded(f"{guard}: total dimension {dim} > {name} {limit}")


class Rep:
    __slots__ = ("quiver", "p", "dim", "maps", "_sig")

    def __init__(self, quiver: Quiver, p: int, dim, maps):
        self.quiver = quiver
        self.p = p
        self.dim = tuple(int(x) for x in dim)
        if len(self.dim) != quiver.n:
            raise ShapeError("dimension vector length mismatch")
        maps = tuple(maps)
        if len(maps) != len(quiver.arrows):
            raise ShapeError("one matrix per arrow required")
        for a, (s, t) in enumerate(quiver.arrows):
            m = maps[a]
            if m.rows != self.dim[t - 1] or m.cols != self.dim[s - 1]:
                raise ShapeError(f"map for arrow {a} has shape {m.rows}x{m.cols}, "
                                 f"expected {self.dim[t-1]}x{self.dim[s-1]}")
        self.maps = maps
        self._sig = None

    def signature(self) -> tuple:
        if self._sig is None:
            self._sig = (self.dim, tuple(m.entries_flat() for m in self.maps))
        return self._sig

    def total_dim(self) -> int:
        return sum(self.dim)

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dim)

    def __eq__(self, other):
        return (isinstance(other, Rep) and self.quiver == other.quiver
                and self.p == other.p and self.signature() == other.signature())

    def __hash__(self):
        return hash((self.quiver, self.p, self.signature()))

    def __repr__(self):
        return f"Rep(dim={self.dim})"


class RepMorphism:
    __slots__ = ("dom", "cod", "mats")

    def __init__(self, dom: Rep, cod: Rep, mats):
        self.dom = dom
        self.cod = cod
        mats = tuple(mats)
        for i in range(dom.quiver.n):
            m = mats[i]
            if m.rows != cod.dim[i] or m.cols != dom.dim[i]:
                raise ShapeError("morphism component shape mismatch")
        self.mats = mats

    def compose(self, other: "RepMorphism") -> "RepMorphism":
        """self o other (apply other first)."""
        if other.cod is not self.dom and other.cod.signature() != self.dom.signature():
            raise ShapeError("composition domain mismatch")
        return RepMorphism(other.dom, self.cod,
                           [a @ b for a, b in zip(self.mats, other.mats)])

    def __add__(self, other: "RepMorphism") -> "RepMorphism":
        return RepMorphism(self.dom, self.cod,
                           [a + b for a, b in zip(self.mats, other.mats)])

    def __neg__(self) -> "RepMorphism":
        return RepMorphism(self.dom, self.cod, [-a for a in self.mats])

    def scale(self, c: int) -> "RepMorphism":
        return RepMorphism(self.dom, self.cod, [m.scale(c) for m in self.mats])

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats)

    def is_isomorphism(self) -> bool:
        return (self.dom.dim == self.cod.dim
                and all(m.is_invertible() for m in self.mats))

    def entries_flat(self) -> tuple:
        return tuple(x for m in self.mats for x in m.entries_flat())

    def check_intertwining(self) -> bool:
        Q = self.dom.quiver
        for a, (s, t) in enumerate(Q.arrows):
            lhs = self.mats[t - 1] @ self.dom.maps[a]
            rhs = self.cod.maps[a] @ self.mats[s - 1]
            if lhs != rhs:
                return False
        return True


class IsoClassKey:
    """Interned key for an isomorphism class; holds a canonical representative."""

    __slots__ = ("sig", "rep", "label")

    def __init__(self, sig, rep, label):
        self.sig = sig
        self.rep = rep
        self.label = label

    @property
    def dim(self):
        return self.rep.dim

    def __eq__(self, other):
        return isinstance(other, IsoClassKey) and self.sig == other.sig

    def __hash__(self):
        return hash(self.sig)

    def __lt__(self, other):
        return self.sig < other.sig

    def __repr__(self):
        return self.label


class RepCategory:
    """Context for rep_k(Q) over F_p: constructors, hom spaces, registry."""

    def __init__(self, quiver: Quiver, p: int):
        check_prime(p)
        self.quiver = quiver
        self.p = p
        self._hom_cache = {}
        self._intern_cache = {}
        self._registry = {}
        self._canonical_cache = {}
        self._decompose_cache = {}
        self._resolution_cache = {}
        self._aut_cache = {}
        self._paths_cache = None
        self._gl_cache = {}
        self.zero_rep = self.rep((0,) * quiver.n)

    # ------------------------------------------------------------------
    # constructors

    def rep(self, dim, maps=None) -> Rep:
        Q = self.quiver
        dim = tuple(dim)
        if maps is None:
            maps = [FpMatrix.zero(self.p, dim[t - 1], dim[s - 1]) for s, t in Q.arrows]
        else:
            maps = [m if isinstance(m, FpMatrix) else FpMatrix(self.p, m,
                                                               cols=dim[s - 1])
                    for m, (s, t) in zip(maps, Q.arrows)]
        return Rep(Q, self.p, dim, maps)

    def simple(self, i: int) -> Rep:
        Q = self.quiver
        if not (1 <= i <= Q.n):
            raise IndexError(f"vertex {i} out of range")
        dim = tuple(1 if v == i else 0 for v in range(1, Q.n + 1))
        return self.rep(dim)

    def _paths(self):
        """All paths of the quiver, as tuples of arrow indices, grouped by start.

        Path (a1, a2, ..., ak) means a1 is traversed first; the empty tuple at
        vertex i is the lazy path e_i.
        """
        if self._paths_cache is not None:
            return self._paths_cache
        Q = self.quiver
        by_start = {i: [] for i in range(1, Q.n + 1)}
        for i in range(1, Q.n + 1):
            frontier = [((), i)]
            while frontier:
                path, end = frontier.pop(0)
                by_start[i].append((path, end))
                for a, (s, t) in enumerate(Q.arrows):
                    if s == end:
                        frontier.append((path + (a,), t))
            by_start[i].sort(key=lambda pe: (len(pe[0]), pe[0]))
        self._paths_cache = by_start
        return by_start

    def projective(self, i: int) -> Rep:
        """P_i: basis given by paths starting at i, arrows act by appending."""
        Q = self.quiver
        if not (1 <= i <= Q.n):
            raise IndexError(f"vertex {i} out of range")
        paths = self._paths()[i]
        at_vertex = {v: [] for v in range(1, Q.n + 1)}
        for idx, (path, end) in enumerate(paths):
            at_vertex[end].append((path, idx))
        local_index = {}
        for v in range(1, Q.n + 1):
            for k, (path, idx) in enumerate(at_vertex[v]):
                local_index[path] = (v, k)
        dim = tuple(len(at_vertex[v]) for v in range(1, Q.n + 1))
        mats = []
        for a, (s, t) in enumerate(Q.arrows):
            m = [[0] * dim[s - 1] for _ in range(dim[t - 1])]
            for path, _idx in at_vertex[s]:
                _, col = local_index[path]
                newpath = path + (a,)
                _, row = local_index[newpath]
                m[row][col] = 1
            mats.append(FpMatrix(self.p, m, cols=dim[s - 1]))
        return Rep(Q, self.p, dim, mats)

    def direct_sum(self, reps: Iterable[Rep]) -> Rep:
        reps = list(reps)
        Q = self.quiver
        if not reps:
            return self.rep((0,) * Q.n)
        dim = tuple(sum(r.dim[i] for r in reps) for i in range(Q.n))
        mats = []
        for a, (s, t) in enumerate(Q.arrows):
            blocks = []
            for ri, r in enumerate(reps):
                row = [FpMatrix.zero(self.p, r.dim[t - 1], r2.dim[s - 1])
                       if rj != ri else r.maps[a]
                       for rj, r2 in enumerate(reps)]
                blocks.append(row)
            mats.append(FpMatrix.block(self.p, blocks))
        return Rep(Q, self.p, dim, mats)

    # ------------------------------------------------------------------
    # hom spaces

    def _check_same(self, M: Rep, N: Rep) -> None:
        if M.quiver != self.quiver or N.quiver != self.quiver or M.p != self.p or N.p != self.p:
            raise CategoryMismatch("representations over a different quiver or field")

    def hom_basis(self, M: Rep, N: Rep) -> list:
        """Deterministic basis of Hom(M, N) as RepMorphism objects."""
        self._check_same(M, N)
        key = (M.signature(), N.signature())
        cached = self._hom_cache.get(key)
        if cached is not None:
            return [RepMorphism(M, N, mats) for mats in cached]
        Q = self.quiver
        p = self.p
        offsets = []
        off = 0
        for i in range(Q.n):
            offsets.append(off)
            off += N.dim[i] * M.dim[i]
        nvars = off
        rows = []
        for a, (s, t) in enumerate(Q.arrows):
            XM = M.maps[a]
            XN = N.maps[a]
            si, ti = s - 1, t - 1
            for r in range(N.dim[ti]):
                for c in range(M.dim[si]):
                    row = [0] * nvars
                    # (f_t XM)[r][c] = sum_k f_t[r][k] XM[k][c]
                    for k in range(M.dim[ti]):
                        row[offsets[ti] + r * M.dim[ti] + k] = XM.data[k][c] % p
                    # -(XN f_s)[r][c] = -sum_k XN[r][k] f_s[k][c]
                    for k in range(N.dim[si]):
                        row[offsets[si] + k * M.dim[si] + c] = (
                            row[offsets[si] + k * M.dim[si] + c] - XN.data[r][k]) % p
                    rows.append(row)
        if nvars == 0:
            self._hom_cache[key] = []
            return []
        if not rows:
            A = FpMatrix.zero(p, 1, nvars)
        else:
            A = FpMatrix(p, rows, cols=nvars)
        shapes = [(N.dim[i], M.dim[i]) for i in range(Q.n)]
        basis_mats = [tuple(split_flat(p, v, shapes)) for v in A.kernel_basis()]
        self._hom_cache[key] = basis_mats
        return [RepMorphism(M, N, mats) for mats in basis_mats]

    def hom_dim(self, M: Rep, N: Rep) -> int:
        return len(self.hom_basis(M, N))

    def euler_form_int(self, d, e) -> int:
        return self.quiver.euler_form(tuple(d), tuple(e))

    def ext1_dim(self, M: Rep, N: Rep) -> int:
        """dim Ext^1(M, N), via the hereditary identity, cross-validated
        against the projective-resolution cokernel."""
        self._check_same(M, N)
        h = self.hom_dim(M, N)
        e = h - self.euler_form_int(M.dim, N.dim)
        P1, P0, _incl, _proj = self.min_proj_resolution(M)
        e2 = self.hom_dim(P1, N) - self.hom_dim(P0, N) + h
        if e != e2:
            raise ShapeError(f"Euler identity violated: {e} vs {e2} (engine bug)")
        return e

    # ------------------------------------------------------------------
    # isomorphism, decomposition, canonical keys

    def morphisms_from_coeffs(self, basis: list, coeffs) -> Optional[RepMorphism]:
        if not basis:
            return None
        M, N = basis[0].dom, basis[0].cod
        shapes = [(N.dim[i], M.dim[i]) for i in range(self.quiver.n)]
        flat = combine_flat(self.p, [b.entries_flat() for b in basis], coeffs,
                            sum(r * c for r, c in shapes))
        return RepMorphism(M, N, split_flat(self.p, flat, shapes))

    def invertible_coeffs(self, basis: list, sides, guard: str):
        """(coeffs, weight) of one invertible element per invertible line of
        span(basis), weight being the number of invertible elements it stands
        for; the entries_flat() of the basis are square blocks with the given
        sides.  The budget still bounds the p^k elements of the span."""
        k = len(basis)
        check_scan(guard, self.p, k)
        return invertible_combinations(self.p, [b.entries_flat() for b in basis], sides,
                                       projective_points(self.p, k))

    def is_isomorphic(self, M: Rep, N: Rep) -> bool:
        """Exhaustive scan of Hom(M, N) for an invertible element."""
        self._check_same(M, N)
        if M.dim != N.dim:
            return False
        if M.signature() == N.signature():
            return True
        basis = self.hom_basis(M, N)
        if len(basis) != self.hom_dim(N, M) or self.hom_dim(M, M) != self.hom_dim(N, N):
            return False
        return next(self.invertible_coeffs(basis, M.dim, "isomorphism scan"), None) is not None

    def end_scan(self, M: Rep):
        """Iterate over all endomorphisms of M (budget-guarded)."""
        basis = self.hom_basis(M, M)
        k = len(basis)
        check_scan("endomorphism scan", self.p, k)
        for coeffs in product(range(self.p), repeat=k):
            yield self.morphisms_from_coeffs(basis, coeffs)

    def aut_count(self, M: Rep) -> int:
        """|Aut M|.

        When every indecomposable summand is a brick (one-dimensional
        endomorphism ring), units are counted through the semisimple quotient
        of End(M):  q^(dim rad) * prod |GL_{n_j}(F_q)| over the summand
        multiplicities.  Otherwise End(M) is scanned exhaustively.
        """
        sig = M.signature()
        if sig in self._aut_cache:
            return self._aut_cache[sig]
        check_dim("aut_count guardrail", M.total_dim(), ENUM_DIM_GUARD, "ENUM_DIM_GUARD")
        if M.is_zero():
            self._aut_cache[sig] = 1
            return 1
        mult = {}
        for key in self.decompose(M):
            mult[key] = mult.get(key, 0) + 1
        if all(self.hom_dim(k.rep, k.rep) == 1 for k in mult):
            dim_end = self.hom_dim(M, M)
            rad_dim = dim_end - sum(n * n for n in mult.values())
            out = self.p ** rad_dim
            for n in mult.values():
                out *= _gl_order(n, self.p)
            self._aut_cache[sig] = out
            return out
        n = sum(w for _, w in self.invertible_coeffs(self.hom_basis(M, M), M.dim,
                                                     "endomorphism scan"))
        self._aut_cache[sig] = n
        return n

    def sub_rep(self, C: Rep, U) -> tuple:
        """Subrepresentation on the row bases U=(U_1..U_n); returns (rep, inclusion)."""
        p = self.p
        Q = self.quiver
        bases = [FpMatrix(p, u, cols=C.dim[i]) if u else FpMatrix.zero(p, 0, C.dim[i])
                 for i, u in enumerate(U)]
        dims = tuple(b.rows for b in bases)
        mats = []
        for a, (s, t) in enumerate(Q.arrows):
            Bs, Bt = bases[s - 1], bases[t - 1]
            cols = []
            BtT = Bt.transpose()
            for r in range(Bs.rows):
                img = C.maps[a].mul_vec(Bs.data[r])
                y = BtT.solve(img)
                if y is None:
                    raise NotASubmodule("subspaces not stable under arrow maps")
                cols.append(y)
            mats.append(FpMatrix.from_columns(p, cols, dims[t - 1])
                        if cols else FpMatrix.zero(p, dims[t - 1], 0))
        sub = Rep(Q, p, dims, mats)
        incl = RepMorphism(sub, C, [b.transpose() for b in bases])
        return sub, incl

    def quotient(self, C: Rep, U) -> tuple:
        """Quotient of C by the subrepresentation with row bases U; (rep, projection)."""
        p = self.p
        Q = self.quiver
        # Validate stability first.
        for a, (s, t) in enumerate(Q.arrows):
            for row in U[s - 1]:
                img = C.maps[a].mul_vec(row)
                if not subspace_contains(p, list(U[t - 1]), img):
                    raise NotASubmodule("subspaces not stable under arrow maps")
        projs = []
        sections = []
        dims = []
        for i in range(Q.n):
            rows = list(U[i])
            pivots = set()
            for row in rows:
                lead = next((j for j, a in enumerate(row) if a), None)
                if lead is not None:
                    pivots.add(lead)
            nonpiv = [j for j in range(C.dim[i]) if j not in pivots]
            dims.append(len(nonpiv))
            pm = []
            for j in range(C.dim[i]):
                e = [0] * C.dim[i]
                e[j] = 1
                resid = reduce_against_rows(p, rows, e)
                pm.append([resid[np] for np in nonpiv])
            proj = FpMatrix(p, [[pm[j][r] for j in range(C.dim[i])]
                                for r in range(len(nonpiv))], cols=C.dim[i])
            sec = FpMatrix(p, [[1 if nonpiv[c] == j else 0 for c in range(len(nonpiv))]
                               for j in range(C.dim[i])], cols=len(nonpiv))
            projs.append(proj)
            sections.append(sec)
        mats = []
        for a, (s, t) in enumerate(Q.arrows):
            mats.append(projs[t - 1] @ C.maps[a] @ sections[s - 1])
        quo = Rep(Q, p, tuple(dims), mats)
        proj_mor = RepMorphism(C, quo, projs)
        return quo, proj_mor

    def image_subspaces(self, f: RepMorphism) -> tuple:
        """Per-vertex rref row bases of the image of a morphism."""
        out = []
        for i in range(self.quiver.n):
            cols = f.mats[i].column_space_basis()
            if cols:
                R, _ = FpMatrix(self.p, cols, cols=f.cod.dim[i]).rref()
                out.append(tuple(R.data[:len(cols)]))
            else:
                out.append(())
        return tuple(out)

    def kernel_subspaces(self, f: RepMorphism) -> tuple:
        out = []
        for i in range(self.quiver.n):
            ker = f.mats[i].kernel_basis()
            if ker:
                R, piv = FpMatrix(self.p, ker, cols=f.dom.dim[i]).rref()
                out.append(tuple(R.data[:len(piv)]))
            else:
                out.append(())
        return tuple(out)

    def _fitting_split(self, M: Rep, f: RepMorphism):
        """Split M = ker(f^N) + im(f^N) when f is neither nilpotent nor
        invertible; returns (S1, S2) or None."""
        h = f
        steps = max(M.total_dim().bit_length(), 1)
        for _ in range(steps):
            h = h.compose(h)
        if h.is_zero() or h.is_isomorphism():
            return None
        U_im = self.image_subspaces(h)
        U_ker = self.kernel_subspaces(h)
        S1, _ = self.sub_rep(M, U_im)
        S2, _ = self.sub_rep(M, U_ker)
        if S1.total_dim() + S2.total_dim() != M.total_dim() \
                or S1.is_zero() or S2.is_zero():
            return None
        return S1, S2

    def decompose_reps(self, M: Rep) -> list:
        """Indecomposable direct summands of M, as concrete reps.

        Fitting splittings along endomorphism powers peel off summands
        cheaply; indecomposability is certified either by a one-dimensional
        endomorphism ring or by the exhaustive idempotent scan.
        """
        check_dim("decompose guardrail", M.total_dim(), DECOMPOSE_DIM_GUARD,
                  "DECOMPOSE_DIM_GUARD")
        if M.is_zero():
            return []
        basis = self.hom_basis(M, M)
        if len(basis) == 1:
            return [M]

        def candidates():
            # Built one at a time: the first basis element usually splits.
            yield from basis
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    yield basis[i] + basis[j]
            rng = random.Random(0xF177)
            for _ in range(200):
                yield self.morphisms_from_coeffs(basis, [rng.randrange(self.p) for _ in basis])

        for f in candidates():
            split = self._fitting_split(M, f)
            if split is not None:
                S1, S2 = split
                return self.decompose_reps(S1) + self.decompose_reps(S2)
        # no splitter found: certify indecomposability by idempotent scan
        ident = RepMorphism(M, M, [FpMatrix.identity(self.p, d) for d in M.dim])
        for f in self.end_scan(M):
            if f is None:
                continue
            if f.is_zero() or all(a == b for a, b in zip(f.mats, ident.mats)):
                continue
            if f.compose(f).mats == f.mats:
                one_minus = ident + (-f)
                U1 = self.image_subspaces(f)
                U2 = self.image_subspaces(one_minus)
                S1, _ = self.sub_rep(M, U1)
                S2, _ = self.sub_rep(M, U2)
                if S1.total_dim() + S2.total_dim() != M.total_dim():
                    raise ShapeError("idempotent split dimension mismatch (engine bug)")
                return self.decompose_reps(S1) + self.decompose_reps(S2)
        return [M]

    def decompose(self, M: Rep) -> tuple:
        """Multiset (sorted tuple) of IsoClassKeys of indecomposable summands."""
        sig = M.signature()
        if sig in self._decompose_cache:
            return self._decompose_cache[sig]
        keys = tuple(sorted(self.intern(S) for S in self.decompose_reps(M)))
        self._decompose_cache[sig] = keys
        return keys

    def _gl(self, d: int) -> list:
        if d in self._gl_cache:
            return self._gl_cache[d]
        p = self.p
        if d == 0:
            out = [FpMatrix.zero(p, 0, 0)]
        else:
            check_scan("GL enumeration", p, d * d)
            out = []
            for entries in product(range(p), repeat=d * d):
                m = FpMatrix(p, [entries[r * d:(r + 1) * d] for r in range(d)], cols=d)
                if m.is_invertible():
                    out.append(m)
        self._gl_cache[d] = out
        return out

    def _canonical_indec(self, M: Rep) -> Rep:
        """Lex-least representative of the base-change orbit of M."""
        sig = M.signature()
        if sig in self._canonical_cache:
            return self._canonical_cache[sig]
        Q = self.quiver
        gls = [self._gl(d) for d in M.dim]
        total = 1
        for g in gls:
            total *= len(g)
        check_count("canonical form orbit", total, "base changes")
        best = None
        best_maps = None
        for combo in product(*gls):
            invs = [g.inverse() if g.rows else g for g in combo]
            mats = []
            for a, (s, t) in enumerate(Q.arrows):
                mats.append(combo[t - 1] @ M.maps[a] @ invs[s - 1])
            entry_sig = tuple(m.entries_flat() for m in mats)
            if best is None or entry_sig < best:
                best = entry_sig
                best_maps = mats
        canon = Rep(Q, self.p, M.dim, best_maps)
        self._canonical_cache[sig] = canon
        # every orbit member canonicalizes identically; prime the cache
        self._canonical_cache[canon.signature()] = canon
        return canon

    def canonical_rep(self, M: Rep) -> Rep:
        """Canonical representative: sorted direct sum of canonical summands."""
        parts = [self._canonical_indec(S) for S in self.decompose_reps(M)]
        parts.sort(key=lambda r: r.signature())
        return self.direct_sum(parts)

    def intern(self, M: Rep) -> IsoClassKey:
        sig = M.signature()
        key = self._intern_cache.get(sig)
        if key is not None:
            return key
        canon = self.canonical_rep(M)
        csig = canon.signature()
        key = self._registry.get(csig)
        if key is None:
            label = _label_for(canon)
            key = IsoClassKey(csig, canon, label)
            self._registry[csig] = key
        self._intern_cache[sig] = key
        return key

    def zero_key(self) -> IsoClassKey:
        return self.intern(self.zero_rep)

    # ------------------------------------------------------------------
    # submodule enumeration

    def submodules_with_dim(self, C: Rep, d) -> list:
        """All arrow-stable subspace tuples of prescribed dimension vector."""
        d = tuple(d)
        check_dim("submodule enumeration guardrail", C.total_dim(), ENUM_DIM_GUARD,
                  "ENUM_DIM_GUARD")
        if any(di > ci for di, ci in zip(d, C.dim)) or any(di < 0 for di in d):
            return []
        count = 1
        for di, ci in zip(d, C.dim):
            count *= gaussian_binomial(ci, di, self.p)
        check_count("submodule enumeration", count, "subspace tuples")
        per_vertex = [list(echelon_subspaces(self.p, C.dim[i], d[i]))
                      for i in range(self.quiver.n)]
        out = []
        for U in product(*per_vertex):
            ok = True
            for a, (s, t) in enumerate(self.quiver.arrows):
                rows_t = list(U[t - 1])
                for row in U[s - 1]:
                    img = C.maps[a].mul_vec(row)
                    if not subspace_contains(self.p, rows_t, img):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(U)
        return out

    # ------------------------------------------------------------------
    # projective resolutions

    def radical_subspaces(self, A: Rep) -> tuple:
        """rad A = sum of arrow images (valid for path algebras)."""
        out = []
        for i in range(self.quiver.n):
            gens = []
            for a, (s, t) in enumerate(self.quiver.arrows):
                if t == i + 1:
                    for c in range(A.dim[s - 1]):
                        col = tuple(A.maps[a].data[r][c] for r in range(A.dim[i]))
                        gens.append(col)
            if gens:
                R, piv = FpMatrix(self.p, gens, cols=A.dim[i]).rref()
                out.append(tuple(R.data[:len(piv)]))
            else:
                out.append(())
        return tuple(out)

    def min_proj_resolution(self, A: Rep):
        """0 -> P1 -> P0 -> A -> 0 with P0 the projective cover.

        Returns (P1, P0, incl, proj) where incl: P1 -> P0 and proj: P0 -> A.
        P1 is the concrete kernel subrepresentation (projective since the
        path algebra is hereditary).
        """
        sig = A.signature()
        if sig in self._resolution_cache:
            return self._resolution_cache[sig]
        Q = self.quiver
        p = self.p
        rad = self.radical_subspaces(A)
        cover_data = []  # (vertex i, lift vector w in A_i)
        for i in range(Q.n):
            pivots = set()
            for row in rad[i]:
                lead = next((j for j, a in enumerate(row) if a), None)
                if lead is not None:
                    pivots.add(lead)
            for j in range(A.dim[i]):
                if j not in pivots:
                    w = [0] * A.dim[i]
                    w[j] = 1
                    cover_data.append((i + 1, tuple(w)))
        summands = [self.projective(i) for i, _w in cover_data]
        P0 = self.direct_sum(summands)
        # Assemble proj: P0 -> A columnwise over path bases.
        cols_at_vertex = {v: [] for v in range(1, Q.n + 1)}
        for (i, w) in cover_data:
            for path, end in self._paths()[i]:
                vec = list(w)
                for a in path:
                    vec = list(A.maps[a].mul_vec(vec))
                cols_at_vertex[end].append(tuple(vec))
        mats = []
        for v in range(1, Q.n + 1):
            cols = cols_at_vertex[v]
            mats.append(FpMatrix.from_columns(p, cols, A.dim[v - 1])
                        if cols else FpMatrix.zero(p, A.dim[v - 1], 0))
        proj = RepMorphism(P0, A, mats)
        if not proj.check_intertwining():
            raise ShapeError("projective cover map not a morphism (engine bug)")
        for v in range(Q.n):
            if mats[v].rank() != A.dim[v]:
                raise ShapeError("projective cover map not surjective (engine bug)")
        ker = self.kernel_subspaces(proj)
        P1, incl = self.sub_rep(P0, ker)
        out = (P1, P0, incl, proj)
        self._resolution_cache[sig] = out
        return out

    # ------------------------------------------------------------------
    # BGP reflection at a sink

    def reflect_sink(self, i: int, M: Rep, target: "RepCategory") -> Rep:
        """BGP reflection functor at the sink i, landing in target = rep(Q')."""
        Q = self.quiver
        if not Q.is_sink(i):
            raise PreconditionError(f"vertex {i} is not a sink")
        if target.quiver != Q.reflect_at_sink(i) or target.p != self.p:
            raise CategoryMismatch("target category is not the reflected quiver")
        incoming = Q.arrows_into(i)
        blocks = [M.maps[a] for a in incoming]
        if blocks:
            phi = FpMatrix.hstack(blocks)
        else:
            phi = FpMatrix.zero(self.p, M.dim[i - 1], 0)
        if phi.rank() != M.dim[i - 1]:
            raise NotInSubcategory(f"representation has the simple at sink {i} as a summand")
        ker = phi.kernel_basis()
        new_dim = list(M.dim)
        new_dim[i - 1] = len(ker)
        offsets = {}
        off = 0
        for a in incoming:
            s = Q.arrows[a][0]
            offsets[a] = off
            off += M.dim[s - 1]
        mats = []
        for a, (s, t) in enumerate(Q.arrows):
            if t == i:
                # reversed arrow i -> s: project kernel vectors to the a-block
                ssz = M.dim[s - 1]
                o = offsets[a]
                cols = [tuple(v[o:o + ssz]) for v in ker]
                mats.append(FpMatrix.from_columns(self.p, cols, ssz)
                            if cols else FpMatrix.zero(self.p, ssz, 0))
            else:
                mats.append(M.maps[a])
        return Rep(target.quiver, self.p, tuple(new_dim), mats)

    # ------------------------------------------------------------------
    # enumeration of isomorphism classes

    def all_reps_of_dim(self, d):
        """All representations with dimension vector d (budget-guarded)."""
        d = tuple(d)
        Q = self.quiver
        total = 1
        for s, t in Q.arrows:
            total *= self.p ** (d[t - 1] * d[s - 1])
        check_count("representation enumeration", total, "representations")
        spaces = []
        for s, t in Q.arrows:
            r, c = d[t - 1], d[s - 1]
            mats = [FpMatrix(self.p, [ent[k * c:(k + 1) * c] for k in range(r)], cols=c)
                    for ent in product(range(self.p), repeat=r * c)]
            spaces.append(mats)
        for combo in product(*spaces):
            yield Rep(Q, self.p, d, list(combo))

    def iso_classes_up_to(self, bound: int) -> list:
        """Sorted IsoClassKeys of all classes with total dimension <= bound."""
        keys = set()
        for d in _dim_vectors(self.quiver.n, bound):
            for R in self.all_reps_of_dim(d):
                keys.add(self.intern(R))
        return sorted(keys)


class ProjectiveCoords:
    """K_0(rep Q) in the basis of the indecomposable projectives P_1..P_n.

    The dimension vectors of the P_j form a unimodular matrix (Q is acyclic),
    so every class has integer coordinates.  Both semi-derived algebras index
    their quantum tori by these coordinates.
    """

    def __init__(self, cat: RepCategory):
        n = cat.quiver.n
        self.projectives = [cat.projective(i) for i in range(1, n + 1)]
        # hom(P_j, P_k) = dim of P_k at vertex j
        self.hom_pp = [[self.projectives[k].dim[j] for k in range(n)] for j in range(n)]
        self._inv_cols = self._inverse_columns()
        self._coords_cache = {}

    def _inverse_columns(self):
        """Inverse of the matrix whose columns are dim P_j, over Q."""
        n = len(self.projectives)
        A = [[Fraction(P.dim[i]) for P in self.projectives] for i in range(n)]
        inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        for c in range(n):
            piv = next((r for r in range(c, n) if A[r][c] != 0), None)
            if piv is None:
                raise ShapeError("projective dimension vectors are dependent (engine bug)")
            A[c], A[piv] = A[piv], A[c]
            inv[c], inv[piv] = inv[piv], inv[c]
            f = A[c][c]
            A[c] = [x / f for x in A[c]]
            inv[c] = [x / f for x in inv[c]]
            for r in range(n):
                if r != c and A[r][c] != 0:
                    g = A[r][c]
                    A[r] = [x - g * y for x, y in zip(A[r], A[c])]
                    inv[r] = [x - g * y for x, y in zip(inv[r], inv[c])]
        return inv

    def coords(self, dimvec) -> tuple:
        """Coordinates of a K_0 class (dimension-vector valued) in the P-basis."""
        dv = tuple(int(x) for x in dimvec)
        res = self._coords_cache.get(dv)
        if res is None:
            out = []
            for row in self._inv_cols:
                val = sum(r * d for r, d in zip(row, dv))
                if val.denominator != 1:
                    raise ShapeError("non-integral projective coordinates (engine bug)")
                out.append(int(val))
            res = self._coords_cache[dv] = tuple(out)
        return res

    def dim_of_coords(self, a) -> tuple:
        n = len(self.projectives)
        return tuple(sum(a[j] * self.projectives[j].dim[i] for j in range(n))
                     for i in range(n))

    def hom_form(self, a, b) -> int:
        """sum_jk a_j b_k hom(P_j, P_k) for coordinate vectors a, b."""
        e = 0
        for j, aj in enumerate(a):
            if aj:
                for k, bk in enumerate(b):
                    if bk:
                        e += aj * bk * self.hom_pp[j][k]
        return e


def _gl_order(n: int, p: int) -> int:
    out = 1
    for i in range(n):
        out *= p ** n - p ** i
    return out


def _dim_vectors(n: int, bound: int):
    """All nonnegative integer vectors of length n with sum <= bound."""
    if n == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in _dim_vectors(n - 1, bound - first):
            yield (first,) + rest


def _label_for(canon: Rep) -> str:
    dims = ",".join(str(d) for d in canon.dim)
    ent = "".join(str(x) for m in canon.maps for x in m.entries_flat())
    return f"M[{dims}]" + (f"({ent})" if ent else "")
