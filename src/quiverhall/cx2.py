"""Complexes of quiver representations in either grading, and one engine for both.

A Z/2-graded complex (Cx2) is a pair of representations with differentials
both ways composing to zero, read as a 2-periodic complex; a Z-graded bounded
complex is sdhz.CxB.  Both expose one protocol:

  degrees()           the degrees of the components, in increasing order
  degree(m)           how the complex reads the integer m (Cx2: m mod 2)
  component(m)        the representation in degree m
  diff(m)             the differential component(m) -> component(m + 1)
  shift(k=1)          Sigma^k, differentials negated k times
  like(comps, mats)   a complex of the same grading with comps[m] in degree m
                      and the per-vertex matrices mats[m] of d^m

Cx2Tools solves chain maps, homotopies, homology, extension classes and their
middle terms through this protocol alone.  The contractible complexes K_P and
K_P*, minimal projective-component representatives of quasi-isomorphism
classes, sub- and quotient complexes and Krull-Schmidt decomposition of Z/2
complexes also live here; the semi-derived algebras are in sdh (the core of
both), sdh2 and sdhz.
"""

from __future__ import annotations

from functools import reduce
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

    def degrees(self) -> tuple:
        return (0, 1)

    @staticmethod
    def degree(m: int) -> int:
        return m % 2

    def component(self, m: int) -> Rep:
        return self.M1 if m % 2 else self.M0

    def diff(self, m: int) -> RepMorphism:
        """d^m: component(m) -> component(m + 1)."""
        return self.d1 if m % 2 else self.d0

    def shift(self, k: int = 1) -> "Cx2":
        if k % 2 == 0:
            return self
        return Cx2(self.cat, self.M1, self.M0, -self.d1, -self.d0)

    def like(self, comps: dict, mats: dict) -> "Cx2":
        M0, M1 = comps[0], comps[1]
        return Cx2(self.cat, M0, M1, RepMorphism(M0, M1, mats[0]), RepMorphism(M1, M0, mats[1]))

    def __eq__(self, other):
        return isinstance(other, Cx2) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return f"Cx2(dim0={self.M0.dim}, dim1={self.M1.dim})"


def _dims(X) -> dict:
    """{degree: dimension vector} of a complex of either grading."""
    return {m: X.component(m).dim for m in X.degrees()}


class ChainMorphism:
    """A chain map dom -> cod of complexes of either grading: one RepMorphism
    per degree of Cx2Tools._layout(dom, cod)."""

    __slots__ = ("dom", "cod", "maps", "_flat")

    def __init__(self, dom, cod, maps: dict, flat: tuple = None):
        self.dom = dom
        self.cod = cod
        self.maps = maps
        self._flat = flat

    def entries_flat(self) -> tuple:
        if self._flat is None:
            self._flat = tuple(x for s in self.maps.values() for x in s.entries_flat())
        return self._flat

    def is_isomorphism(self) -> bool:
        return (_dims(self.dom) == _dims(self.cod)
                and all(s.is_isomorphism() for s in self.maps.values()))

    def compose(self, other: "ChainMorphism") -> "ChainMorphism":
        return ChainMorphism(other.dom, self.cod,
                             {m: s.compose(other.maps[m]) for m, s in self.maps.items()})


def zero_morphism(cat: RepCategory, dom: Rep, cod: Rep) -> RepMorphism:
    return RepMorphism(dom, cod, [FpMatrix.zero(cat.p, cod.dim[i], dom.dim[i])
                                  for i in range(cat.quiver.n)])


def stalk_cx2(cat: RepCategory, A: Rep, degree: int) -> Cx2:
    """Stalk complex with A in the given degree (0 or 1)."""
    Z = cat.zero_rep
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


def middle_term(L, M, f=None):
    """Extension of L by M along a chain map f: L -> ΣM, with block
    differential [[d_M, f], [0, d_L]] in each degree; f = None gives the
    direct sum M (+) L.  d*d = 0 is validated on construction."""
    cat = L.cat
    p = cat.p
    degs = set(L.degrees()) | set(M.degrees())
    span = range(min(degs, default=0), max(degs, default=-1) + 1)
    comps = {m: cat.direct_sum([M.component(m), L.component(m)]) for m in span}
    mats = {}
    for m in span:
        if L.degree(m + 1) not in comps:
            continue  # the top of a bounded span
        fm = f.maps.get(m) if f is not None else None
        mats[m] = [FpMatrix.block(p, [
            [dM, fm.mats[i] if fm is not None else FpMatrix.zero(p, dM.rows, dL.cols)],
            [FpMatrix.zero(p, dL.rows, dM.cols), dL],
        ]) for i, (dM, dL) in enumerate(zip(M.diff(m).mats, L.diff(m).mats))]
    return L.like(comps, mats)


def direct_sum(parts: list):
    """Degreewise direct sum of one or more complexes of one grading."""
    return reduce(lambda S, X: middle_term(X, S), parts[1:], parts[0])


def _homology_at(cat: RepCategory, comp: Rep, d_out: RepMorphism, d_in: RepMorphism) -> Rep:
    """ker d_out / im d_in at one component."""
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
    """Caches and linear-algebra routines for complexes of either grading over
    one category, through the protocol of the module docstring."""

    def __init__(self, cat: RepCategory):
        self.cat = cat
        self._chain_cache = {}
        self._homotopy_cache = {}
        self._homology_cache = {}
        self._aut_cache = {}

    def _check(self, L, M) -> None:
        if L.cat is not self.cat or M.cat is not self.cat:
            raise CategoryMismatch("complexes from a different category context")

    def _layout(self, U, V) -> tuple:
        """(degrees, offsets, shapes, size) of the flat chain maps U -> V:
        over the degrees of both, one row-major block of the given shape per
        degree and vertex, degree-major and vertex-minor, the block of
        (degree, vertex) starting at offsets[degree, vertex]."""
        degs = [m for m in U.degrees() if m in V.degrees()]
        offsets = {}
        shapes = []
        size = 0
        for m in degs:
            for i in range(self.cat.quiver.n):
                offsets[m, i] = size
                shapes.append((V.component(m).dim[i], U.component(m).dim[i]))
                size += shapes[-1][0] * shapes[-1][1]
        return degs, offsets, shapes, size

    def _chain_map(self, U, V, degs, shapes, flat) -> ChainMorphism:
        """The chain map U -> V with the given flat entries, in the layout
        (degs, shapes) of U -> V."""
        n = self.cat.quiver.n
        mats = split_flat(self.cat.p, flat, shapes)
        return ChainMorphism(U, V, {
            m: RepMorphism(U.component(m), V.component(m), mats[k * n:(k + 1) * n])
            for k, m in enumerate(degs)}, flat)

    def _from_coeffs(self, basis: list, coeffs, U, V) -> ChainMorphism:
        """The chain map sum_i coeffs[i] * basis[i]: U -> V (zero for an
        empty basis)."""
        degs, _, shapes, size = self._layout(U, V)
        flat = combine_flat(self.cat.p, [b.entries_flat() for b in basis], coeffs, size)
        return self._chain_map(U, V, degs, shapes, flat)

    def chain_maps_basis(self, L, M) -> list:
        """Deterministic basis of the chain maps L -> M (a cached list)."""
        self._check(L, M)
        ck = (L.signature(), M.signature())
        basis = self._chain_cache.get(ck)
        if basis is None:
            degs, _, shapes, _ = self._layout(L, M)
            basis = self._chain_cache[ck] = [self._chain_map(L, M, degs, shapes, v)
                                             for v in self._solve_chain_maps(L, M)]
        return basis

    def _solve_chain_maps(self, U, V) -> list:
        """Flat basis of the kernel of the intertwining and square equations.
        It is read off the unique rref of the equations, so it does not depend
        on the order they are emitted in."""
        degs, offsets, _, nvars = self._layout(U, V)
        if nvars == 0:
            return []
        rows = []

        def emit(o1, C, o2, D):
            # S1 o C - D o S2 = 0 entrywise, S1 and S2 the blocks at offsets
            # o1 and o2.  A block outside the layout has a zero source or
            # target, so its loop below never runs.
            for r in range(D.rows):
                for c in range(C.cols):
                    row = [0] * nvars
                    for k in range(C.rows):
                        row[o1 + r * C.rows + k] += C.data[k][c]
                    for k in range(D.cols):
                        row[o2 + k * C.cols + c] -= D.data[r][k]
                    if any(row):
                        rows.append(row)

        for m in degs:
            Um, Vm = U.component(m), V.component(m)
            for a, (s, t) in enumerate(self.cat.quiver.arrows):
                emit(offsets[m, t - 1], Um.maps[a], offsets[m, s - 1], Vm.maps[a])
        # squares s^(m+1) dU^m = dV^m s^m
        for m in U.degrees():
            dU, dV = U.diff(m), V.diff(m)
            for i in range(self.cat.quiver.n):
                emit(offsets.get((U.degree(m + 1), i)), dU.mats[i],
                     offsets.get((m, i)), dV.mats[i])
        p = self.cat.p
        A = FpMatrix(p, rows, cols=nvars) if rows else FpMatrix.zero(p, 1, nvars)
        return A.kernel_basis()

    def hom_dim(self, L, M) -> int:
        return len(self.chain_maps_basis(L, M))

    def homotopy_subspace(self, L, M) -> list:
        """rref rows (in flat chain-map coordinates) of the null-homotopic
        maps d_M h + h d_L, over h^m: L^m -> M^(m-1)."""
        ck = (L.signature(), M.signature())
        cached = self._homotopy_cache.get(ck)
        if cached is not None:
            return cached
        cat = self.cat
        _, offsets, _, size = self._layout(L, M)
        gens = []
        # null-homotopic maps are chain maps, so with none there is nothing to do
        for m in L.degrees() if self.chain_maps_basis(L, M) else ():
            for h in cat.hom_basis(L.component(m), M.component(m - 1)):
                vec = [0] * size
                for deg, t in ((m, M.diff(m - 1).compose(h)),
                               (L.degree(m - 1), h.compose(L.diff(m - 1)))):
                    # a degree outside the layout has only empty blocks
                    for i, mat in enumerate(t.mats):
                        for j, x in enumerate(mat.entries_flat()):
                            vec[offsets[deg, i] + j] += x
                if any(vec):
                    gens.append(vec)
        rows = []
        if gens:
            R, piv = FpMatrix(cat.p, gens, cols=size).rref()
            rows = [R.data[i] for i in range(len(piv))]
        self._homotopy_cache[ck] = rows
        return rows

    def homotopy_dim(self, L, M) -> int:
        return len(self.homotopy_subspace(L, M))

    def hom_k_dim(self, L, M) -> int:
        """dim Hom in the homotopy category."""
        return self.hom_dim(L, M) - self.homotopy_dim(L, M)

    def homology(self, X) -> dict:
        """{degree: homology representation} over X.degrees()."""
        ck = X.signature()
        cached = self._homology_cache.get(ck)
        if cached is None:
            cached = self._homology_cache[ck] = {
                m: _homology_at(self.cat, X.component(m), X.diff(m), X.diff(m - 1))
                for m in X.degrees()}
        return cached

    def homology_keys(self, X) -> tuple:
        return tuple(self.cat.intern(H) for H in self.homology(X).values())

    def is_acyclic(self, X) -> bool:
        return all(H.is_zero() for H in self.homology(X).values())

    # -- extension classes ------------------------------------------------

    def ext1_classes_proj(self, L, M) -> list:
        """(f, E(f), weight) for one chain map f: L -> ΣM per line of
        extension classes of L by M, with its middle term E(f); requires
        projective components of L.

        Ext^1(L, M) is identified with chain maps L -> ΣM modulo homotopy.
        diag(λ, 1) is a chain isomorphism E(f) -> E(λf), so one class stands
        for the weight classes of its line (linalg.coset_points); the weights
        sum to |Ext^1(L, M)|.
        """
        SM = M.shift()
        basis = self.chain_maps_basis(L, SM)
        p = self.cat.p
        check_scan("extension-class enumeration", p, len(basis))
        out = []
        for coeffs, weight in coset_points(p, [b.entries_flat() for b in basis],
                                           self.homotopy_subspace(L, SM)):
            f = self._from_coeffs(basis, coeffs, L, SM)
            out.append((f, middle_term(L, M, f), weight))
        return out

    # -- isomorphism and decomposition --------------------------------------

    def is_isomorphic(self, X, Y) -> bool:
        dims = _dims(X)
        if dims != _dims(Y):
            return False
        if X.signature() == Y.signature():
            return True
        if self.homology_keys(X) != self.homology_keys(Y):
            return False
        basis = self.chain_maps_basis(X, Y)
        if len(basis) != self.hom_dim(Y, X):
            return False
        found = self.cat.invertible_coeffs(basis, sum(dims.values(), ()),
                                           "complex isomorphism scan")
        return next(found, None) is not None

    def end_scan(self, X):
        basis = self.chain_maps_basis(X, X)
        k = len(basis)
        check_scan("complex endomorphism scan", self.cat.p, k)
        for coeffs in product(range(self.cat.p), repeat=k):
            yield self._from_coeffs(basis, coeffs, X, X)

    def aut_count(self, X) -> int:
        if X.is_zero():
            return 1
        ck = X.signature()
        cached = self._aut_cache.get(ck)
        if cached is not None:
            return cached
        n = sum(w for _, w in self.cat.invertible_coeffs(self.chain_maps_basis(X, X),
                                                         sum(_dims(X).values(), ()),
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
        one = ChainMorphism(X, X, {b: identity_morphism(cat, X.component(b)) for b in (0, 1)})
        for f in self.end_scan(X):
            flat = f.entries_flat()
            if not any(flat) or flat == one.entries_flat():
                continue
            if f.compose(f).entries_flat() == flat:
                Xa = self.sub_complex(X, *(cat.image_subspaces(f.maps[b]) for b in (0, 1)))
                Xb = self.sub_complex(X, *(cat.image_subspaces(one.maps[b] + (-f.maps[b]))
                                           for b in (0, 1)))
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
