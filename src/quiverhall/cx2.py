"""Z/2-graded complexes of quiver representations.

A complex is a pair of representations with differentials both ways composing
to zero.  Chain maps, homotopies, homology, the contractible complexes K_P
and K_P*, minimal projective-component representatives of quasi-isomorphism
classes, extension-class enumeration and Krull-Schmidt decomposition all live
here; the semi-derived algebra itself is in sdh2.
"""

from __future__ import annotations

from itertools import product

from .errors import (
    CategoryMismatch,
    ShapeError,
    SignConventionBroken,
)
from .linalg import (
    FpMatrix,
    combine_flat,
    coset_points,
    echelon_subspaces,
    gaussian_binomial,
    split_flat,
    subspace_contains,
)
from .reps import (
    DECOMPOSE_DIM_GUARD,
    Rep,
    RepCategory,
    RepMorphism,
    check_count,
    check_dim,
    check_scan,
)


class Cx2:
    """Z/2-graded complex (M0 <-> M1) with d1 o d0 = d0 o d1 = 0."""

    __slots__ = ("cat", "M0", "M1", "d0", "d1", "_sig")

    def __init__(self, cat: RepCategory, M0: Rep, M1: Rep, d0: RepMorphism, d1: RepMorphism):
        self.cat = cat
        self.M0 = M0
        self.M1 = M1
        self.d0 = d0
        self.d1 = d1
        if not (d0.check_intertwining() and d1.check_intertwining()):
            raise ShapeError("differentials are not morphisms of representations")
        for i in range(cat.quiver.n):
            if not (d1.mats[i] @ d0.mats[i]).is_zero() or not (d0.mats[i] @ d1.mats[i]).is_zero():
                raise SignConventionBroken("d o d != 0 in Z/2 complex")
        self._sig = None

    def signature(self) -> tuple:
        if self._sig is None:
            self._sig = (self.M0.signature(), self.M1.signature(),
                         tuple(m.entries_flat() for m in self.d0.mats),
                         tuple(m.entries_flat() for m in self.d1.mats))
        return self._sig

    def total_dim(self) -> int:
        return self.M0.total_dim() + self.M1.total_dim()

    def is_zero(self) -> bool:
        return self.M0.is_zero() and self.M1.is_zero()

    def component(self, b: int) -> Rep:
        return self.M0 if b % 2 == 0 else self.M1

    def shift(self) -> "Cx2":
        return Cx2(self.cat, self.M1, self.M0, -self.d1, -self.d0)

    def __eq__(self, other):
        return isinstance(other, Cx2) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return f"Cx2(dim0={self.M0.dim}, dim1={self.M1.dim})"


class Cx2Morphism:
    __slots__ = ("dom", "cod", "s0", "s1")

    def __init__(self, dom: Cx2, cod: Cx2, s0: RepMorphism, s1: RepMorphism):
        self.dom = dom
        self.cod = cod
        self.s0 = s0
        self.s1 = s1

    def entries_flat(self) -> tuple:
        return self.s0.entries_flat() + self.s1.entries_flat()

    def is_isomorphism(self) -> bool:
        return self.s0.is_isomorphism() and self.s1.is_isomorphism()

    def compose(self, other: "Cx2Morphism") -> "Cx2Morphism":
        return Cx2Morphism(other.dom, self.cod,
                           self.s0.compose(other.s0), self.s1.compose(other.s1))


def zero_cx2(cat: RepCategory) -> Cx2:
    Z = cat.rep((0,) * cat.quiver.n)
    zm = RepMorphism(Z, Z, [FpMatrix.zero(cat.p, 0, 0) for _ in range(cat.quiver.n)])
    return Cx2(cat, Z, Z, zm, zm)


def zero_morphism(cat: RepCategory, dom: Rep, cod: Rep) -> RepMorphism:
    return RepMorphism(dom, cod, [FpMatrix.zero(cat.p, cod.dim[i], dom.dim[i])
                                  for i in range(cat.quiver.n)])


def stalk_cx2(cat: RepCategory, A: Rep, degree: int) -> Cx2:
    """Stalk complex with A in the given degree (0 or 1)."""
    Z = cat.rep((0,) * cat.quiver.n)
    if degree % 2 == 0:
        return Cx2(cat, A, Z, zero_morphism(cat, A, Z), zero_morphism(cat, Z, A))
    return Cx2(cat, Z, A, zero_morphism(cat, Z, A), zero_morphism(cat, A, Z))


def identity_morphism(cat: RepCategory, M: Rep) -> RepMorphism:
    return RepMorphism(M, M, [FpMatrix.identity(cat.p, d) for d in M.dim])


def make_KP(cat: RepCategory, P: Rep) -> Cx2:
    """K_P = (P <-> P), d0 = id, d1 = 0: contractible."""
    return Cx2(cat, P, P, identity_morphism(cat, P), zero_morphism(cat, P, P))


def make_KPstar(cat: RepCategory, P: Rep) -> Cx2:
    """K_P* = (P <-> P), d0 = 0, d1 = id: the shift of K_P."""
    return Cx2(cat, P, P, zero_morphism(cat, P, P), identity_morphism(cat, P))


def direct_sum_cx2(cat: RepCategory, parts: list) -> Cx2:
    if not parts:
        return zero_cx2(cat)
    M0 = cat.direct_sum([X.M0 for X in parts])
    M1 = cat.direct_sum([X.M1 for X in parts])
    n = cat.quiver.n
    d0 = RepMorphism(M0, M1, [
        _block_diag(cat.p, [X.d0.mats[i] for X in parts]) for i in range(n)])
    d1 = RepMorphism(M1, M0, [
        _block_diag(cat.p, [X.d1.mats[i] for X in parts]) for i in range(n)])
    return Cx2(cat, M0, M1, d0, d1)


def _block_diag(p: int, mats: list) -> FpMatrix:
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[0] * cols for _ in range(rows)]
    ro = co = 0
    for m in mats:
        for r in range(m.rows):
            for c in range(m.cols):
                out[ro + r][co + c] = m.data[r][c]
        ro += m.rows
        co += m.cols
    return FpMatrix(p, out, cols=cols)


def _homology_at(cat: RepCategory, comp: Rep, d_out: RepMorphism, d_in: RepMorphism) -> Rep:
    """ker d_out / im d_in at one component, for complexes of either grading."""
    ker = cat.kernel_subspaces(d_out)
    K, incl = cat.sub_rep(comp, ker)
    # express the image of d_in inside kernel coordinates
    rows_by_vertex = []
    for i in range(cat.quiver.n):
        BT = incl.mats[i]  # comp.dim x K.dim, columns are the kernel basis
        img_rows = []
        for c in range(d_in.mats[i].cols):
            col = tuple(d_in.mats[i].data[r][c] for r in range(d_in.mats[i].rows))
            y = BT.solve(col)
            if y is None:
                raise ShapeError("image not inside kernel (engine bug)")
            img_rows.append(y)
        if img_rows:
            R, piv = FpMatrix(cat.p, img_rows, cols=K.dim[i]).rref()
            rows_by_vertex.append(tuple(R.data[k] for k in range(len(piv))))
        else:
            rows_by_vertex.append(())
    H, _ = cat.quotient(K, tuple(rows_by_vertex))
    return H


def minimal_complex(cat: RepCategory, A: Rep, B: Rep) -> Cx2:
    """Minimal projective-component complex with homology (A, B).

    Built from the minimal projective resolutions: the A-part is
    (deg0: P0(A), deg1: P1(A), d1 = inclusion, d0 = 0); the B-part is the
    same for B, shifted.
    """
    P1A, P0A, iA, _ = cat.min_proj_resolution(A)
    P1B, P0B, iB, _ = cat.min_proj_resolution(B)
    p = cat.p
    n = cat.quiver.n
    M0 = cat.direct_sum([P0A, P1B])
    M1 = cat.direct_sum([P1A, P0B])
    d0 = RepMorphism(M0, M1, [FpMatrix.block(p, [
        [FpMatrix.zero(p, P1A.dim[i], P0A.dim[i]), FpMatrix.zero(p, P1A.dim[i], P1B.dim[i])],
        [FpMatrix.zero(p, P0B.dim[i], P0A.dim[i]), -iB.mats[i]],
    ]) for i in range(n)])
    d1 = RepMorphism(M1, M0, [FpMatrix.block(p, [
        [iA.mats[i], FpMatrix.zero(p, P0A.dim[i], P0B.dim[i])],
        [FpMatrix.zero(p, P1B.dim[i], P1A.dim[i]), FpMatrix.zero(p, P1B.dim[i], P0B.dim[i])],
    ]) for i in range(n)])
    return Cx2(cat, M0, M1, d0, d1)


# ----------------------------------------------------------------------
# chain maps, homotopies, extensions


class Cx2Tools:
    """Caches and linear-algebra routines for Z/2 complexes over one category."""

    def __init__(self, cat: RepCategory):
        self.cat = cat
        self._chain_cache = {}
        self._homotopy_cache = {}
        self._homology_cache = {}
        self._aut_cache = {}

    def _check(self, L: Cx2, M: Cx2) -> None:
        if L.cat is not self.cat or M.cat is not self.cat:
            raise CategoryMismatch("complexes from a different category context")

    def chain_maps_basis(self, L: Cx2, M: Cx2) -> list:
        """Deterministic basis of Hom_{C_Z/2}(L, M)."""
        self._check(L, M)
        ck = (L.signature(), M.signature())
        cached = self._chain_cache.get(ck)
        if cached is None:
            cached = self._solve_chain_maps(L, M)
            self._chain_cache[ck] = cached
        out = []
        for (m0, m1) in cached:
            out.append(Cx2Morphism(L, M, RepMorphism(L.M0, M.M0, m0),
                                   RepMorphism(L.M1, M.M1, m1)))
        return out

    def _solve_chain_maps(self, L: Cx2, M: Cx2) -> list:
        p = self.cat.p
        n = self.cat.quiver.n
        # variable layout: s0 blocks per vertex, then s1 blocks per vertex
        off0, off1 = [], []
        off = 0
        for i in range(n):
            off0.append(off)
            off += M.M0.dim[i] * L.M0.dim[i]
        for i in range(n):
            off1.append(off)
            off += M.M1.dim[i] * L.M1.dim[i]
        nvars = off
        if nvars == 0:
            return []
        rows = []

        def emit(U_off, U_cols, Cmat, V_off, V_cols, Dmat, nrows, ncols):
            # equation U o Cmat - Dmat o V = 0 entrywise
            for r in range(nrows):
                for c in range(ncols):
                    row = [0] * nvars
                    for k in range(Cmat.rows):
                        row[U_off + r * U_cols + k] = (row[U_off + r * U_cols + k]
                                                       + Cmat.data[k][c]) % p
                    for k in range(Dmat.cols):
                        row[V_off + k * V_cols + c] = (row[V_off + k * V_cols + c]
                                                       - Dmat.data[r][k]) % p
                    rows.append(row)

        # intertwining of s0 and s1 with the arrow maps
        for a, (s, t) in enumerate(self.cat.quiver.arrows):
            si, ti = s - 1, t - 1
            emit(off0[ti], L.M0.dim[ti], L.M0.maps[a],
                 off0[si], L.M0.dim[si], M.M0.maps[a],
                 M.M0.dim[ti], L.M0.dim[si])
            emit(off1[ti], L.M1.dim[ti], L.M1.maps[a],
                 off1[si], L.M1.dim[si], M.M1.maps[a],
                 M.M1.dim[ti], L.M1.dim[si])
        # squares: s1 d0_L = d0_M s0  and  s0 d1_L = d1_M s1
        for i in range(n):
            emit(off1[i], L.M1.dim[i], L.d0.mats[i],
                 off0[i], L.M0.dim[i], M.d0.mats[i],
                 M.M1.dim[i], L.M0.dim[i])
            emit(off0[i], L.M0.dim[i], L.d1.mats[i],
                 off1[i], L.M1.dim[i], M.d1.mats[i],
                 M.M0.dim[i], L.M1.dim[i])
        if rows:
            A = FpMatrix(p, rows, cols=nvars)
        else:
            A = FpMatrix.zero(p, 1, nvars)
        shapes = ([(M.M0.dim[i], L.M0.dim[i]) for i in range(n)]
                  + [(M.M1.dim[i], L.M1.dim[i]) for i in range(n)])
        basis = []
        for v in A.kernel_basis():
            mats = split_flat(p, v, shapes)
            basis.append((tuple(mats[:n]), tuple(mats[n:])))
        return basis

    def hom_dim(self, L: Cx2, M: Cx2) -> int:
        return len(self.chain_maps_basis(L, M))

    def homotopy_subspace(self, L: Cx2, M: Cx2) -> list:
        """rref rows (in flat chain-map coordinates) of the null-homotopic maps."""
        ck = (L.signature(), M.signature())
        cached = self._homotopy_cache.get(ck)
        if cached is not None:
            return cached
        cat = self.cat
        gens = []
        for h0 in cat.hom_basis(L.M0, M.M1):
            t0 = M.d1.compose(h0)
            t1 = h0.compose(L.d1)
            gens.append(t0.entries_flat() + t1.entries_flat())
        for h1 in cat.hom_basis(L.M1, M.M0):
            t0 = h1.compose(L.d0)
            t1 = M.d0.compose(h1)
            gens.append(t0.entries_flat() + t1.entries_flat())
        if not gens or not gens[0]:
            self._homotopy_cache[ck] = []
            return []
        R, piv = FpMatrix(cat.p, gens, cols=len(gens[0])).rref()
        rows = [R.data[i] for i in range(len(piv))]
        self._homotopy_cache[ck] = rows
        return rows

    def homotopy_dim(self, L: Cx2, M: Cx2) -> int:
        return len(self.homotopy_subspace(L, M))

    def homology(self, X: Cx2) -> tuple:
        """(H0, H1) as concrete representations."""
        ck = X.signature()
        cached = self._homology_cache.get(ck)
        if cached is not None:
            return cached
        H0 = _homology_at(self.cat, X.M0, X.d0, X.d1)
        H1 = _homology_at(self.cat, X.M1, X.d1, X.d0)
        self._homology_cache[ck] = (H0, H1)
        return (H0, H1)

    def homology_keys(self, X: Cx2) -> tuple:
        H0, H1 = self.homology(X)
        return (self.cat.intern(H0), self.cat.intern(H1))

    def is_acyclic(self, X: Cx2) -> bool:
        H0, H1 = self.homology(X)
        return H0.is_zero() and H1.is_zero()

    # -- extension classes ------------------------------------------------

    def ext1_classes_proj(self, L: Cx2, M: Cx2) -> list:
        """(f, E(f), weight) for one chain map f: L -> ΣM per line of
        extension classes of L by M, with its middle term E(f); requires
        projective components of L.

        Ext^1(L, M) is identified with chain maps L -> ΣM modulo homotopy;
        the middle term uses the block differential [[d_M, f], [0, d_L]] and
        is validated against d*d = 0 on construction.  diag(λ, 1) is a chain
        isomorphism E(f) -> E(λf), so one class stands for the weight
        classes of its line (linalg.coset_points); the weights sum to
        |Ext^1(L, M)|.
        """
        SM = M.shift()
        basis = self.chain_maps_basis(L, SM)
        p = self.cat.p
        check_scan("extension-class enumeration", p, len(basis))
        if not basis:
            return [(None, direct_sum_cx2(self.cat, [M, L]), 1)]
        out = []
        for coeffs, weight in coset_points(p, [b.entries_flat() for b in basis],
                                           self.homotopy_subspace(L, SM)):
            f = self._cx2_from_coeffs(basis, coeffs, L, SM)
            out.append((f, self.middle_term(L, M, f), weight))
        return out

    def _cx2_from_coeffs(self, basis: list, coeffs, L: Cx2, SM: Cx2) -> Cx2Morphism:
        p = self.cat.p
        n = self.cat.quiver.n
        shapes = ([(SM.M0.dim[i], L.M0.dim[i]) for i in range(n)]
                  + [(SM.M1.dim[i], L.M1.dim[i]) for i in range(n)])
        flat = combine_flat(p, [b.entries_flat() for b in basis], coeffs,
                            sum(r * c for r, c in shapes))
        mats = split_flat(p, flat, shapes)
        return Cx2Morphism(L, SM, RepMorphism(L.M0, SM.M0, mats[:n]),
                           RepMorphism(L.M1, SM.M1, mats[n:]))

    def middle_term(self, L: Cx2, M: Cx2, f) -> Cx2:
        """Extension of L by M along f: L -> ΣM (f may be None for 0)."""
        cat = self.cat
        p = cat.p
        n = cat.quiver.n
        E0 = cat.direct_sum([M.M0, L.M0])
        E1 = cat.direct_sum([M.M1, L.M1])
        d0m, d1m = [], []
        for i in range(n):
            f0 = f.s0.mats[i] if f is not None else FpMatrix.zero(p, M.M1.dim[i], L.M0.dim[i])
            f1 = f.s1.mats[i] if f is not None else FpMatrix.zero(p, M.M0.dim[i], L.M1.dim[i])
            d0m.append(FpMatrix.block(p, [
                [M.d0.mats[i], f0],
                [FpMatrix.zero(p, L.M1.dim[i], M.M0.dim[i]), L.d0.mats[i]],
            ]))
            d1m.append(FpMatrix.block(p, [
                [M.d1.mats[i], f1],
                [FpMatrix.zero(p, L.M0.dim[i], M.M1.dim[i]), L.d1.mats[i]],
            ]))
        return Cx2(cat, E0, E1, RepMorphism(E0, E1, d0m), RepMorphism(E1, E0, d1m))

    # -- isomorphism and decomposition --------------------------------------

    def is_isomorphic(self, X: Cx2, Y: Cx2) -> bool:
        if X.M0.dim != Y.M0.dim or X.M1.dim != Y.M1.dim:
            return False
        if X.signature() == Y.signature():
            return True
        if self.homology_keys(X) != self.homology_keys(Y):
            return False
        basis = self.chain_maps_basis(X, Y)
        if len(basis) != self.hom_dim(Y, X):
            return False
        found = self.cat.invertible_coeffs(basis, X.M0.dim + X.M1.dim, "complex isomorphism scan")
        return next(found, None) is not None

    def end_scan(self, X: Cx2):
        basis = self.chain_maps_basis(X, X)
        k = len(basis)
        check_scan("complex endomorphism scan", self.cat.p, k)
        for coeffs in product(range(self.cat.p), repeat=k):
            yield self._cx2_from_coeffs(basis, coeffs, X, X)

    def aut_count(self, X: Cx2) -> int:
        if X.is_zero():
            return 1
        ck = X.signature()
        cached = self._aut_cache.get(ck)
        if cached is not None:
            return cached
        n = sum(w for _, w in self.cat.invertible_coeffs(self.chain_maps_basis(X, X),
                                                         X.M0.dim + X.M1.dim,
                                                         "complex endomorphism scan"))
        self._aut_cache[ck] = n
        return n

    def sub_complex(self, X: Cx2, U0, U1) -> Cx2:
        cat = self.cat
        S0, i0 = cat.sub_rep(X.M0, U0)
        S1, i1 = cat.sub_rep(X.M1, U1)
        d0 = self._restrict(X.d0, S0, i0, S1, i1)
        d1 = self._restrict(X.d1, S1, i1, S0, i0)
        return Cx2(cat, S0, S1, d0, d1)

    def _restrict(self, d: RepMorphism, Sdom: Rep, idom: RepMorphism,
                  Scod: Rep, icod: RepMorphism) -> RepMorphism:
        cat = self.cat
        mats = []
        for i in range(cat.quiver.n):
            cols = []
            for c in range(Sdom.dim[i]):
                col = tuple(idom.mats[i].data[r][c] for r in range(idom.mats[i].rows))
                img = d.mats[i].mul_vec(col)
                y = icod.mats[i].solve(img)
                if y is None:
                    raise ShapeError("subspaces not differential-stable")
                cols.append(y)
            mats.append(FpMatrix.from_columns(cat.p, cols, Scod.dim[i])
                        if cols else FpMatrix.zero(cat.p, Scod.dim[i], 0))
        return RepMorphism(Sdom, Scod, mats)

    def quotient_complex(self, X: Cx2, U0, U1) -> Cx2:
        cat = self.cat
        Q0, p0 = cat.quotient(X.M0, U0)
        Q1, p1 = cat.quotient(X.M1, U1)
        # induced differentials: solve p o d = dbar o p via sections
        d0 = self._induce_quotient(X.d0, X.M0, Q0, p0, Q1, p1)
        d1 = self._induce_quotient(X.d1, X.M1, Q1, p1, Q0, p0)
        return Cx2(cat, Q0, Q1, d0, d1)

    def _induce_quotient(self, d: RepMorphism, dom: Rep, Qdom: Rep,
                         pdom: RepMorphism, Qcod: Rep, pcod: RepMorphism) -> RepMorphism:
        cat = self.cat
        mats = []
        for i in range(cat.quiver.n):
            # a section of pdom: for each quotient basis vector pick a preimage
            cols = []
            for c in range(Qdom.dim[i]):
                e = [0] * Qdom.dim[i]
                e[c] = 1
                x = pdom.mats[i].solve(e)
                if x is None:
                    raise ShapeError("projection not surjective (engine bug)")
                img = d.mats[i].mul_vec(x)
                cols.append(pcod.mats[i].mul_vec(img))
            mats.append(FpMatrix.from_columns(cat.p, cols, Qcod.dim[i])
                        if cols else FpMatrix.zero(cat.p, Qcod.dim[i], 0))
        return RepMorphism(Qdom, Qcod, mats)

    def sub_complexes_with_dims(self, X: Cx2, d0dims, d1dims) -> list:
        """All subcomplexes with prescribed per-vertex dimensions (both degrees)."""
        cat = self.cat
        p = cat.p
        check_dim("subcomplex enumeration guardrail", X.total_dim(),
                  2 * (DECOMPOSE_DIM_GUARD // 2), "DECOMPOSE_DIM_GUARD")
        count = 1
        for di, ci in zip(tuple(d0dims) + tuple(d1dims), X.M0.dim + X.M1.dim):
            count *= gaussian_binomial(ci, di, p)
        check_count("subcomplex enumeration", count, "subspace tuples")
        per0 = [list(echelon_subspaces(p, X.M0.dim[i], d0dims[i]))
                for i in range(cat.quiver.n)]
        per1 = [list(echelon_subspaces(p, X.M1.dim[i], d1dims[i]))
                for i in range(cat.quiver.n)]
        out = []
        for U0 in product(*per0):
            if not _arrow_stable(cat, X.M0, U0):
                continue
            for U1 in product(*per1):
                if not _arrow_stable(cat, X.M1, U1):
                    continue
                if not _map_into(cat, X.d0, U0, U1):
                    continue
                if not _map_into(cat, X.d1, U1, U0):
                    continue
                out.append((U0, U1))
        return out

    def decompose2(self, X: Cx2) -> list:
        """Indecomposable direct summands (concrete complexes), by idempotent scan."""
        check_dim("decompose2 guardrail", X.total_dim(), DECOMPOSE_DIM_GUARD,
                  "DECOMPOSE_DIM_GUARD")
        if X.is_zero():
            return []
        cat = self.cat
        n = cat.quiver.n
        for f in self.end_scan(X):
            if all(m.is_zero() for m in f.s0.mats) and all(m.is_zero() for m in f.s1.mats):
                continue
            ident0 = identity_morphism(cat, X.M0)
            if (tuple(f.s0.mats) == tuple(ident0.mats)
                    and tuple(f.s1.mats) == tuple(identity_morphism(cat, X.M1).mats)):
                continue
            sq = f.compose(f)
            if tuple(sq.s0.mats) == tuple(f.s0.mats) and tuple(sq.s1.mats) == tuple(f.s1.mats):
                one0 = identity_morphism(cat, X.M0) + (-f.s0)
                one1 = identity_morphism(cat, X.M1) + (-f.s1)
                U0a = cat.image_subspaces(f.s0)
                U1a = cat.image_subspaces(f.s1)
                U0b = cat.image_subspaces(one0)
                U1b = cat.image_subspaces(one1)
                Xa = self.sub_complex(X, U0a, U1a)
                Xb = self.sub_complex(X, U0b, U1b)
                if Xa.total_dim() + Xb.total_dim() != X.total_dim():
                    raise ShapeError("idempotent split mismatch (engine bug)")
                return self.decompose2(Xa) + self.decompose2(Xb)
        return [X]

    def classify_acyclic_indec(self, Z: Cx2) -> tuple:
        """('K', P) or ('K*', P) for an indecomposable contractible summand.

        An indecomposable acyclic complex with projective components has one
        differential exactly zero; the other is then an isomorphism.
        """
        d0zero = all(m.is_zero() for m in Z.d0.mats)
        d1zero = all(m.is_zero() for m in Z.d1.mats)
        if d1zero and not d0zero:
            return ("K", Z.M0)
        if d0zero and not d1zero:
            return ("K*", Z.M1)
        raise ShapeError("acyclic indecomposable with both differentials nonzero")


def _arrow_stable(cat: RepCategory, M: Rep, U) -> bool:
    for a, (s, t) in enumerate(cat.quiver.arrows):
        rows_t = list(U[t - 1])
        for row in U[s - 1]:
            if not subspace_contains(cat.p, rows_t, M.maps[a].mul_vec(row)):
                return False
    return True


def _map_into(cat: RepCategory, d: RepMorphism, Usrc, Udst) -> bool:
    for i in range(cat.quiver.n):
        rows_dst = list(Udst[i])
        for row in Usrc[i]:
            if not subspace_contains(cat.p, rows_dst, d.mats[i].mul_vec(row)):
                return False
    return True
