"""Finite-dimensional quiver representations over F_p and their category.

A representation assigns F_p^(d_i) to each vertex and a matrix X_a (acting on
column vectors, shape d_t(a) x d_s(a)) to each arrow.  RepCategory is the
working context for a fixed (quiver, p): it owns every cache and the
isomorphism-class registry, so keys are stable within a run and reproducible
across runs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, islice, product
from math import prod
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
    coset_points,
    echelon_subspaces,
    gaussian_binomial,
    split_flat,
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
            if m.p != p:
                raise CategoryMismatch(f"map for arrow {a} is over F_{m.p}, expected F_{p}")
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
    __slots__ = ("dom", "cod", "mats", "_flat")

    def __init__(self, dom: Rep, cod: Rep, mats, flat: tuple = None):
        self.dom = dom
        self.cod = cod
        mats = tuple(mats)
        for i in range(dom.quiver.n):
            m = mats[i]
            if m.rows != cod.dim[i] or m.cols != dom.dim[i]:
                raise ShapeError("morphism component shape mismatch")
            if m.p != dom.p:
                raise CategoryMismatch(f"morphism component at vertex {i + 1} is over "
                                       f"F_{m.p}, expected F_{dom.p}")
        self.mats = mats
        self._flat = flat

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
        """The entries of the matrices, vertex by vertex and row-major: given
        by the constructor or built on the first call, then kept, so a cached
        hom basis is flattened once (KrullSchmidt.morphisms_from_coeffs)."""
        if self._flat is None:
            self._flat = tuple(x for m in self.mats for x in m.entries_flat())
        return self._flat

    def blocks(self) -> tuple:
        """The matrices of entries_flat(), one per vertex."""
        return self.mats

    def check_intertwining(self) -> bool:
        Q = self.dom.quiver
        for a, (s, t) in enumerate(Q.arrows):
            lhs = self.mats[t - 1] @ self.dom.maps[a]
            rhs = self.cod.maps[a] @ self.mats[s - 1]
            if lhs != rhs:
                return False
        return True


class IsoClassKey:
    """Interned key for an isomorphism class; holds a canonical representative
    and its parts, the canonical forms of its indecomposable summands (with
    multiplicity, sorted by signature), whose direct sum it is."""

    __slots__ = ("sig", "rep", "label", "parts", "_hash")

    def __init__(self, sig, rep, label, parts):
        self.sig = sig
        self.rep = rep
        self.label = label
        self.parts = parts
        self._hash = hash(sig)   # tuples do not cache theirs

    @property
    def dim(self):
        return self.rep.dim

    def __eq__(self, other):
        return isinstance(other, IsoClassKey) and self.sig == other.sig

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.sig < other.sig

    def __repr__(self):
        return self.label


class KrullSchmidt:
    """Hom spaces, images and kernels, Krull-Schmidt decomposition,
    isomorphism tests and automorphism counts shared by the category of
    representations (RepCategory) and that of complexes (cx2.Cx2Tools).

    An object's structure is stated once, over a span of degrees: None for
    modules, a range of degrees for complexes.  A subclass supplies
    scan_prefix (the prefix of its guards), sub_guard (the name, limit and
    limit name of the sub-object walk's guardrail), _check_same(X, Y)
    (CategoryMismatch unless both objects are its own), span(X, Y) (the
    degrees a morphism X -> Y is read over), sides(X, span=None) (the
    dimensions of X's spaces over span, X's own degrees by default, a
    component outside them reading as zero), structure_maps(X, span=None)
    (the (matrix, source side, target side) that a sub-object is stable
    under and a morphism intertwines, over the same sides),
    morphism(X, Y, flat) (the morphism X -> Y with these flat entries, in
    the layout of hom_equations) and from_structure(X, dims, mats) (the
    inverse of the two: the object of X's kind and degrees with these sides
    and structure maps, in the order of sides() and structure_maps()).
    A sub-object U is a tuple of row bases in reduced echelon form (each
    lead entry 1, the only nonzero entry of its column), one per side, in
    sides() order; sub_object, quotient_object and hall_count read
    coordinates in them.  The objects have signature(), total_dim() and
    is_zero(); the morphisms compose(), is_zero(), is_isomorphism(),
    entries_flat() and blocks() (the matrices of entries_flat(), in the
    order of sides()).
    """

    scan_prefix = ""

    def __init__(self, p: int):
        self.p = p
        self._hom_cache = {}
        self._aut_cache = {}
        self._groups_cache = {}
        self._units_cache = {}

    def hom_basis(self, X, Y) -> list:
        """Deterministic basis of Hom(X, Y), solved once per pair of
        signatures: one cached list, shared by equal-signature objects."""
        self._check_same(X, Y)
        key = (X.signature(), Y.signature())
        basis = self._hom_cache.get(key)
        if basis is None:
            basis = self._hom_cache[key] = [
                self.morphism(X, Y, v) for v in intertwiners(self.p, *self.hom_equations(X, Y))]
        return basis

    def _layout(self, X, Y) -> tuple:
        """(span(X, Y), offsets) of the flat morphisms X -> Y: one row-major
        block of sides(Y) by sides(X) per side over the span, the block of
        side k at offsets[k], their total size last.  A side outside X or Y
        has a block of size zero."""
        span = self.span(X, Y)
        return span, [0, *accumulate(a * b for a, b in zip(self.sides(X, span),
                                                           self.sides(Y, span)))]

    def hom_equations(self, X, Y) -> tuple:
        """(number of unknowns, equations) of Hom(X, Y) in the layout of
        _layout: phi_t f = g phi_s for each pair of corresponding structure
        maps f of X and g of Y from side s to side t.  The equations are
        built only as the solver reads them."""
        span, offsets = self._layout(X, Y)

        def equations():
            for (f, s, t), (g, _, _) in zip(self.structure_maps(X, span),
                                            self.structure_maps(Y, span)):
                yield offsets[t], f, offsets[s], g

        return offsets[-1], equations()

    def hom_dim(self, X, Y) -> int:
        """dim Hom(X, Y).  Hom is additive, so when the summand classes of
        both objects are cached (_groups_cache) and X and Y are not two single
        indecomposables, it is sum m n dim Hom(S, T) over the classes [S, m]
        of X and [T, n] of Y, and Hom(X, Y) is never solved."""
        self._check_same(X, Y)
        gx = self._groups_cache.get(X.signature())
        gy = self._groups_cache.get(Y.signature())
        if gx is None or gy is None or len(gx) == len(gy) == 1 and gx[0][1] == gy[0][1] == 1:
            return len(self.hom_basis(X, Y))
        return sum(m * n * self.hom_dim(S, T) for S, m in gx for T, n in gy)

    def _solved_hom_dim(self, X, Y) -> int:
        """dim Hom(X, Y) from the rank of its equations, caching no basis:
        a hom vector solves one Hom per root brick and middle term, and
        caching those bases held 37 MB, not 28, on D4 q=3 --table --bound 5."""
        nvars, equations = self.hom_equations(X, Y)
        return nvars and nvars - _equation_matrix(self.p, nvars, equations).rank()

    def morphisms_from_coeffs(self, X, Y, basis: list, coeffs):
        """The morphism sum_i coeffs[i] * basis[i]: X -> Y, zero for an
        empty basis."""
        vecs = [b.entries_flat() for b in basis]
        size = len(vecs[0]) if vecs else self._layout(X, Y)[1][-1]
        return self.morphism(X, Y, combine_flat(self.p, vecs, coeffs, size))

    def image_subspaces(self, f) -> tuple:
        """Per-block reduced echelon row bases of the image of f."""
        return tuple(tuple(m.column_space_basis()) for m in f.blocks())

    def kernel_subspaces(self, f) -> tuple:
        """Per-block reduced echelon row bases of the kernel of f."""
        out = []
        for m in f.blocks():
            ker = m.kernel_basis()
            if ker:
                R, piv = FpMatrix(self.p, ker, cols=m.cols).rref()
                out.append(tuple(R.data[:len(piv)]))
            else:
                out.append(())
        return tuple(out)

    @staticmethod
    def _fitting_power(X, f):
        """f^N for an endomorphism f of X, N >= total_dim(X): zero exactly
        when f is nilpotent, invertible exactly when f is."""
        h = f
        for _ in range(max(X.total_dim().bit_length(), 1)):
            h = h.compose(h)
        return h

    def _fitting_split(self, X, h):
        """Split X = im h + ker h for h = f^N (_fitting_power) neither zero nor
        invertible (Fitting's lemma); returns (S1, S2) or None."""
        S1 = self.sub_object(X, self.image_subspaces(h))
        S2 = self.sub_object(X, self.kernel_subspaces(h))
        if S1.total_dim() + S2.total_dim() != X.total_dim() \
                or S1.is_zero() or S2.is_zero():
            return None
        return S1, S2

    def lines(self, X, Y, basis, guard: str, modulo=()):
        """Yield (f, weight) for one morphism f: X -> Y on each nonzero line
        of span(basis)/span(modulo) in Hom(X, Y), weight being the number of
        classes on that line (linalg.coset_points); modulo is a list of flat
        vectors inside span(basis), dependent or not.  The weights sum to
        p^k - 1, k the dimension of the quotient, which bounds the walk under
        guard (check_scan) before the first morphism is built.  The zero
        class is neither yielded nor built: it is no unit, splits nothing,
        and is the split extension."""
        k, points = coset_points(self.p, [b.entries_flat() for b in basis], modulo)
        check_scan(guard, self.p, k)
        for coeffs, weight in islice(points, 1, None):
            yield self.morphisms_from_coeffs(X, Y, basis, coeffs), weight

    def _summands(self, X) -> list:
        """Indecomposable direct summands of X, as concrete sub-objects.

        By Fitting's lemma X is indecomposable exactly when every endomorphism
        is nilpotent or invertible, and a scalar multiple of one is too.  The
        candidates are the basis of End X, which usually splits at once, then
        one endomorphism per nonzero line of End X (lines), which certify X
        indecomposable when none splits.  A brick (dim End X = 1) is
        indecomposable with no candidate.  The "decompose guardrail"
        (check_dim) bounds total_dim(X), the "endomorphism scan" guard of
        lines the p^(dim End X) elements of End X, and only once the basis
        has failed to split X.

        The certifying walk decides every unit on the way, since f is
        invertible exactly when f^N is: the weights of its invertible lines
        add up to |Aut X|, recorded per signature (_units_cache) for
        residue_order, which then walks End X no second time.
        """
        check_dim(self.scan_prefix + "decompose guardrail", X.total_dim(),
                  DECOMPOSE_DIM_GUARD, "DECOMPOSE_DIM_GUARD")
        if X.is_zero():
            return []
        basis = self.hom_basis(X, X)
        if len(basis) == 1:
            return [X]
        # Built one at a time: the first basis element usually splits.  The
        # basis comes again among the lines, so it counts no unit here.
        scan = self.lines(X, X, basis, self.scan_prefix + "endomorphism scan")
        units = 0
        for f, weight in chain(((f, 0) for f in basis), scan):
            h = self._fitting_power(X, f)
            if h.is_zero():
                continue
            if h.is_isomorphism():
                units += weight
                continue
            split = self._fitting_split(X, h)
            if split is not None:
                return self._summands(split[0]) + self._summands(split[1])
        self._units_cache[X.signature()] = units
        return [X]

    def _groups(self, X) -> list:
        """[S, m] per isomorphism class of indecomposable summands of X: one
        summand S of the class and its multiplicity m."""
        sig = X.signature()
        if sig not in self._groups_cache:
            groups = []
            for S in self._summands(X):
                g = next((g for g in groups if self._indecomposables_isomorphic(g[0], S)), None)
                if g is None:
                    groups.append([S, 1])
                else:
                    g[1] += 1
            self._groups_cache[sig] = groups
        return self._groups_cache[sig]

    def _indecomposables_isomorphic(self, S, T) -> bool:
        """S ~ T for indecomposable S and T: some g o f over basis maps
        f: S -> T and g: T -> S is invertible.  End S is local, so its
        non-invertible elements form a subspace, its radical; if every such
        g o f lies in it, so does every composite S -> T -> S."""
        if self.sides(S) != self.sides(T):
            return False
        back = self.hom_basis(T, S)
        return any(g.compose(f).is_isomorphism() for f in self.hom_basis(S, T) for g in back)

    def is_isomorphic(self, X, Y) -> bool:
        """X ~ Y: their classes of indecomposable summands match one to one,
        with multiplicity (Krull-Schmidt).  The classes of one object are
        pairwise distinct, so each class of X matches at most one of Y."""
        self._check_same(X, Y)
        if self.sides(X) != self.sides(Y):
            return False
        if X.signature() == Y.signature():
            return True
        gx, gy = self._groups(X), self._groups(Y)
        return len(gx) == len(gy) and all(
            any(n == m and self._indecomposables_isomorphic(S, T) for T, n in gy)
            for S, m in gx)

    def sub_objects(self, X, dims) -> list:
        """Every sub-object U of X with dims[k]-dimensional U[k], in product
        order, one side at a time: a map is tested once both its sides are.
        ShapeError unless dims has one entry per side of X.  The "<kind>
        enumeration guardrail" (check_dim) bounds total_dim(X), the "<kind>
        enumeration" (check_count) the subspace tuples."""
        return self._sub_object_walk(X, dims, self.sides(X), self.structure_maps(X))

    def _sub_object_walk(self, X, dims, sides, structure) -> list:
        """sub_objects(X, dims) over X's sides and structure maps, which the
        caller has built (hall_count reads them again)."""
        kind, limit, name = self.sub_guard
        if len(dims) != len(sides):
            raise ShapeError(f"{len(dims)} sub-object dimensions for an object "
                             f"with {len(sides)} sides")
        check_dim(kind + " enumeration guardrail", X.total_dim(), limit, name)
        count = 1
        for c, d in zip(sides, dims):
            count *= gaussian_binomial(c, d, self.p)
        check_count(kind + " enumeration", count, "subspace tuples")
        if not count:
            return []
        closing = [[] for _ in sides]
        for f, s, t in structure:
            closing[max(s, t)].append((f, s, t))
        found = [()]
        for c, d, maps in zip(sides, dims, closing):
            extended = (U + (V,) for U, V in product(found, list(echelon_subspaces(self.p, c, d))))
            found = [U for U in extended if maps_into(self.p, maps, U)]
        return found

    def sub_object(self, X, U):
        """The sub-object of X on U, its structure maps read off the leads of
        U (_restricted_rows); NotASubmodule unless U spans a sub-object."""
        maps = self.structure_maps(X)
        if not maps_into(self.p, maps, U):
            raise NotASubmodule("subspaces not stable under the structure maps")
        return self._from_rows(X, maps, tuple(map(len, U)),
                               _restricted_rows(self.p, maps, U))

    def quotient_object(self, X, U):
        """The quotient of X by the sub-object on U, its structure maps read
        at the free positions, those that lead no row of U (_quotient_rows);
        NotASubmodule unless U spans a sub-object."""
        maps = self.structure_maps(X)
        if not maps_into(self.p, maps, U):
            raise NotASubmodule("subspaces not stable under the structure maps")
        free = [_free_positions(u, c) for u, c in zip(U, self.sides(X))]
        return self._from_rows(X, maps, tuple(map(len, free)),
                               _quotient_rows(self.p, maps, U, free))

    def _from_rows(self, X, maps, dims, rows):
        """from_structure(X, dims, ...) on the rows of each structure map of
        X's kind, one per (f, s, t) of maps."""
        return self.from_structure(X, dims, [FpMatrix._trusted(self.p, r, dims[s])
                                             for r, (_, s, _) in zip(rows, maps)])

    def hall_count(self, quot, X, sub) -> int:
        """The Hall number: how many sub-objects of X are isomorphic to sub
        with quotient isomorphic to quot.

        sub and quot are read over X's degrees (span(X, X)), and one with a
        component outside them is no sub-object or quotient of X: the count
        is 0.  The walk has proved each sub-object U stable, so the structure
        maps of U and of X/U are read straight off U's echelon rows with no
        second stability test.  Each of the two is then decided against sub
        (quot) on these flat data, its sides and the rows of its structure
        maps, read over the same span:
        - equal data: isomorphic.  from_structure gives sub back from its
          own flat data over X's degrees, so equal data build an object with
          sub's signature, the first test that is_isomorphic passes;
        - other sides, or a structure map of another rank: not isomorphic,
          since an isomorphism is invertible on each side and intertwines
          each structure map;
        - otherwise the object is built and is_isomorphic decides.
        """
        self._check_same(quot, X)
        self._check_same(X, sub)
        span = self.span(X, X)
        wants = [(self.sides(Y, span), tuple(f.data for f, _, _ in self.structure_maps(Y, span)))
                 for Y in (sub, quot)]
        if any(sum(dims) != Y.total_dim() for (dims, _), Y in zip(wants, (sub, quot))):
            return 0
        want_sub, want_quot = wants
        p, maps, sides = self.p, self.structure_maps(X), self.sides(X)
        subs = self._sub_object_walk(X, want_sub[0], sides, maps)

        def isomorphic(dims, rows, want, Y) -> bool:
            if (dims, rows) == want:
                return True
            if dims != want[0] or _ranks(p, maps, dims, rows) != _ranks(p, maps, dims, want[1]):
                return False
            return self.is_isomorphic(self._from_rows(X, maps, dims, rows), Y)

        count = 0
        for U in subs:
            if isomorphic(tuple(map(len, U)), _restricted_rows(p, maps, U), want_sub, sub):
                free = [_free_positions(u, c) for u, c in zip(U, sides)]
                count += isomorphic(tuple(map(len, free)), _quotient_rows(p, maps, U, free),
                                    want_quot, quot)
        return count

    def riedtmann(self, g: int, quot, X, sub) -> Fraction:
        """|Ext^1(quot, sub)_X| / |Hom(quot, sub)| = g |Aut quot| |Aut sub| / |Aut X|
        for the Hall number g (Riedtmann, J. Algebra 1994; for complexes,
        Bridgeland, Ann. Math. 2013)."""
        return Fraction(g * self.aut_count(quot) * self.aut_count(sub), self.aut_count(X))

    def aut_count(self, X) -> int:
        """|Aut X| = q^(dim End X) * prod_j |GL_{m_j}(F_{Q_j})| / Q_j^(m_j^2)
        over the classes S_j of indecomposable summands, of multiplicity m_j.

        End X modulo its radical is prod_j M_{m_j}(D_j), the residue field
        D_j = End S_j / rad End S_j having some order Q_j, and an endomorphism
        is invertible when its image there is: |Aut X| = |rad End X| *
        prod_j |GL_{m_j}(D_j)|.  The local ring End S_j has the units outside
        its radical, so Q_j = q^k / (q^k - |Aut S_j|), k = dim End S_j
        (residue_order).  A brick (k = 1, End S_j = F_q) has Q_j = q and
        walks nothing; otherwise |Aut S_j| is the weight of the lines of
        End S_j whose endomorphism is invertible, which the walk of
        _summands over the lines of End S_j records as it certifies S_j
        (residue_order).  The product is aut_order's.
        """
        self._check_same(X, X)
        sig = X.signature()
        if sig not in self._aut_cache:
            self._aut_cache[sig] = aut_order(self.p, self.hom_dim(X, X), [
                (m, self.residue_order(S)) for S, m in self._groups(X)])
        return self._aut_cache[sig]

    def residue_order(self, S) -> int:
        """Q = |End S / rad End S| for an indecomposable S: q for a brick
        (dim End S = 1) with no walk, otherwise q^k / (q^k - |Aut S|),
        k = dim End S.  |Aut S| is the one that _summands recorded when its
        walk certified S (or, for a module, a member of the class whose
        canonical form S is), else the weight of the lines of End S whose
        endomorphism is invertible, walked under the "endomorphism scan"
        guard (lines) and recorded."""
        basis = self.hom_basis(S, S)
        if len(basis) == 1:
            return self.p
        qk = self.p ** len(basis)
        units = self._units_cache.get(S.signature())
        if units is None:
            scan = self.lines(S, S, basis, self.scan_prefix + "endomorphism scan")
            units = self._units_cache[S.signature()] = sum(
                w for f, w in scan if f.is_isomorphism())
        return qk // (qk - units)


class RepCategory(KrullSchmidt):
    """Context for rep_k(Q) over F_p: constructors, hom spaces, registry."""

    sub_guard = ("submodule", ENUM_DIM_GUARD, "ENUM_DIM_GUARD")
    # The Krull-Schmidt core, under the names the rest of the engine uses.
    decompose_reps = KrullSchmidt._summands
    hom_basis = KrullSchmidt.hom_basis
    morphisms_from_coeffs = KrullSchmidt.morphisms_from_coeffs
    is_isomorphic = KrullSchmidt.is_isomorphic
    aut_count = KrullSchmidt.aut_count
    submodules_with_dim = KrullSchmidt.sub_objects

    def __init__(self, quiver: Quiver, p: int):
        check_prime(p)
        super().__init__(p)
        self.quiver = quiver
        self._intern_cache = {}
        self._registry = {}
        self._canonical_cache = {}
        self._resolution_cache = {}
        self._resolution_dims_cache = {}
        self._projective_dims = None
        self._zero_map_cache = {}
        self._paths_cache = None
        self._forms = {}
        self._root_bricks = []    # one per positive root, in _hom_order
        self._root_bound = -1     # ... of every root of total dimension <= this
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
            raise PreconditionError(f"vertex {i} out of range 1..{Q.n}")
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
            raise PreconditionError(f"vertex {i} out of range 1..{Q.n}")
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
        """The block-diagonal sum: each summand's rows, padded with zeros
        left and right to the columns of the other summands."""
        reps = list(reps)
        Q = self.quiver
        dim = tuple(sum(r.dim[i] for r in reps) for i in range(Q.n))
        mats = []
        for a, (s, t) in enumerate(Q.arrows):
            rows, left = [], 0
            for r in reps:
                pad, right = (0,) * left, (0,) * (dim[s - 1] - left - r.dim[s - 1])
                rows.extend(pad + row + right for row in r.maps[a].data)
                left += r.dim[s - 1]
            mats.append(FpMatrix._trusted(self.p, rows, dim[s - 1]))
        return Rep(Q, self.p, dim, mats)

    # ------------------------------------------------------------------
    # hom spaces

    def _check_same(self, M: Rep, N: Rep) -> None:
        # The identity test first: nearly every Rep shares the category's quiver.
        Q = self.quiver
        if ((M.quiver is not Q and M.quiver != Q) or (N.quiver is not Q and N.quiver != Q)
                or M.p != self.p or N.p != self.p):
            raise CategoryMismatch("representations over a different quiver or field")

    def span(self, M: Rep, N: Rep) -> None:
        """None: a representation has no degrees."""
        return None

    def morphism(self, M: Rep, N: Rep, flat) -> RepMorphism:
        return RepMorphism(M, N, split_flat(self.p, flat, zip(N.dim, M.dim)), flat)

    def euler_form_int(self, d, e) -> int:
        return self.quiver.euler_form(tuple(d), tuple(e))

    def zero_map(self, M: Rep, N: Rep) -> RepMorphism:
        """The zero morphism M -> N, built once per pair of signatures."""
        ck = (M.signature(), N.signature())
        if ck not in self._zero_map_cache:
            self._zero_map_cache[ck] = RepMorphism(
                M, N, [FpMatrix.zero(self.p, b, a) for a, b in zip(M.dim, N.dim)])
        return self._zero_map_cache[ck]

    # ------------------------------------------------------------------
    # sub-objects, quotients, canonical keys

    def sub_rep(self, C: Rep, U) -> tuple:
        """Subrepresentation on the reduced echelon row bases U=(U_1..U_n);
        returns (rep, inclusion)."""
        sub = self.sub_object(C, U)
        return sub, RepMorphism(sub, C, [_from_columns(self.p, u, d) for u, d in zip(U, C.dim)])

    def structure_maps(self, C: Rep, span=None) -> list:
        """(X_a, s - 1, t - 1) for each arrow a: s -> t."""
        return [(m, s - 1, t - 1) for m, (s, t) in zip(C.maps, self.quiver.arrows)]

    def from_structure(self, C: Rep, dims, mats) -> Rep:
        return Rep(self.quiver, self.p, dims, mats)

    def quotient(self, C: Rep, U) -> tuple:
        """Quotient of C by the subrepresentation with reduced echelon row
        bases U; (rep, projection).  The projection sends a vector to its
        reduction against U_i, read at the positions that lead no row:
        column j is the unit at j when j leads no row, else -row[free]."""
        quo = self.quotient_object(C, U)
        p = self.p
        projs = []
        for i, d in enumerate(C.dim):
            lead = {next(j for j, a in enumerate(row) if a): row for row in U[i]}
            projs.append(FpMatrix._trusted(p, [[-lead[j][k] % p if j in lead else int(j == k)
                                                for j in range(d)]
                                               for k in range(d) if k not in lead], d))
        return quo, RepMorphism(C, quo, projs)

    def sides(self, M: Rep, span=None) -> tuple:
        return M.dim

    def _canonical_indec(self, M: Rep) -> Rep:
        """Lex-least member of the base-change orbit of the indecomposable M.

        The orbit is every R of M's dimension vector with R ~ M, so this is
        the first such R in the walk of all_reps_of_dim, which goes in
        signature order.  _indecomposables_isomorphic(M, R) is exact for such
        R: an invertible g o f (f: M -> R, g: R -> M) makes M a direct summand
        of R, and equal dimensions force R = f(M).  Isomorphic modules share
        one orbit, so a form already found for M's class is the answer, and
        each class is walked once.
        """
        sig = M.signature()
        if sig not in self._canonical_cache:
            shape = _shape(M)
            iso = lambda R: self._indecomposables_isomorphic(M, R)
            canon = next(filter(iso, self._forms.get(shape, ())), None)
            canon = self._canonical_cache[sig] = canon or self._register_form(
                next(filter(iso, self._reps_of_dim(*shape))))
            # |Aut| is a class invariant: the one _summands recorded for M
            # serves the canonical form too.
            if sig in self._units_cache:
                self._units_cache.setdefault(canon.signature(), self._units_cache[sig])
        return self._canonical_cache[sig]

    def _register_form(self, canon: Rep) -> Rep:
        """Record canon as the canonical form of its class."""
        if canon.signature() not in self._canonical_cache:
            # Keyed by the arrow ranks too, orbit invariants: they keep each
            # list short (the regular Kronecker classes grow with q), and the
            # walk skips candidates of other ranks.  Without them Kronecker
            # q=5 assoc-z2 took 71 s and 292 MB, not 5 s and 44 MB (2 CPUs).
            self._forms.setdefault(_shape(canon), []).append(canon)
            self._canonical_cache[canon.signature()] = canon
        return canon

    def canonical_rep(self, M: Rep) -> Rep:
        """Canonical representative: sorted direct sum of canonical summands,
        registered (_key_of_parts) as the representative of M's key.  The
        summands are read off M's hom vector when _parts_by_hom_vector
        applies, else found by the Fitting decomposition."""
        parts = self._parts_by_hom_vector(M)
        if parts is None:
            parts = [self._canonical_indec(S) for S in self.decompose_reps(M)]
        return self._key_of_parts(sorted(parts, key=Rep.signature)).rep

    def _key_of_parts(self, parts: list) -> IsoClassKey:
        """The key of the direct sum of parts, canonical indecomposables
        sorted by signature: the one registration path of keys.

        The registry is keyed by the parts' signatures: canonical forms are
        unique per class, so by Krull-Schmidt equal tuples are exactly equal
        classes.  A new key also interns its representative and seeds
        _groups_cache with the parts grouped by class (equal signatures), so
        aut_count, is_isomorphic and hom_dim never decompose it."""
        psig = tuple(S.signature() for S in parts)
        key = self._registry.get(psig)
        if key is None:
            canon = self.direct_sum(parts)
            csig = canon.signature()
            key = self._registry[psig] = IsoClassKey(csig, canon, _label_for(canon), tuple(parts))
            self._intern_cache[csig] = key
            groups = {}
            for S in parts:
                groups.setdefault(S.signature(), [S, 0])[1] += 1
            self._groups_cache.setdefault(csig, list(groups.values()))
        return key

    def intern(self, M: Rep) -> IsoClassKey:
        """The key of M's class: cached per signature; on a miss,
        canonical_rep registers the key under its representative's."""
        sig = M.signature()
        key = self._intern_cache.get(sig)
        if key is None:
            key = self._intern_cache[sig] = self._intern_cache[self.canonical_rep(M).signature()]
        return key

    def sum_key(self, keys) -> IsoClassKey:
        """intern(direct_sum(reps)) for representatives reps of keys, from
        their parts alone: by Krull-Schmidt the indecomposable summands of
        a direct sum are those of its terms, so nothing is decomposed."""
        return self._key_of_parts(sorted((S for k in keys for S in k.parts), key=Rep.signature))

    def zero_key(self) -> IsoClassKey:
        return self.intern(self.zero_rep)

    # ------------------------------------------------------------------
    # projective resolutions

    def radical_subspaces(self, A: Rep) -> tuple:
        """rad A = sum of arrow images (valid for path algebras)."""
        return tuple(tuple(self._incoming(A, i).column_space_basis())
                     for i in range(1, self.quiver.n + 1))

    def resolution_dims(self, A: Rep) -> tuple:
        """(dim P1, dim P0) of the minimal projective resolution of A, read
        off the top of A with nothing built: rad A is the sum of the arrow
        images (radical_subspaces), so top_i = dim A_i - the rank of the
        arrows into i, the projective cover P0 is the sum of top_i copies of
        P_i, and P1 = ker(P0 ->> A) has dim P0 - dim A.  Cached per
        signature; min_proj_resolution, which builds both, is its oracle."""
        sig = A.signature()
        dims = self._resolution_dims_cache.get(sig)
        if dims is None:
            if self._projective_dims is None:
                # dim P_i at v: the paths from i that end at v
                self._projective_dims = [
                    tuple(sum(end == v for _, end in self._paths()[i])
                          for v in range(1, self.quiver.n + 1))
                    for i in range(1, self.quiver.n + 1)]
            p0 = [0] * self.quiver.n
            for i, (a, P) in enumerate(zip(A.dim, self._projective_dims), start=1):
                top = a - self._incoming(A, i).rank() if a else 0
                for v, d in enumerate(P):
                    p0[v] += top * d
            dims = self._resolution_dims_cache[sig] = (
                tuple(x - a for x, a in zip(p0, A.dim)), tuple(p0))
        return dims

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
            for j in _free_positions(rad[i], A.dim[i]):
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
        K = self.sink_kernel(i, M)
        if K.rows - K.cols != M.dim[i - 1]:   # the rank of the incoming map
            raise NotInSubcategory(f"representation has the simple at sink {i} as a summand")
        new_dim = list(M.dim)
        new_dim[i - 1] = K.cols
        offsets = {}
        off = 0
        for a in Q.arrows_into(i):
            offsets[a] = off
            off += M.dim[Q.arrows[a][0] - 1]
        mats = []
        for a, (s, t) in enumerate(Q.arrows):
            if t == i:
                # reversed arrow i -> s: the a-block of the kernel vectors
                o = offsets[a]
                mats.append(FpMatrix._trusted(self.p, K.data[o:o + M.dim[s - 1]], K.cols))
            else:
                mats.append(M.maps[a])
        return Rep(target.quiver, self.p, tuple(new_dim), mats)

    def sink_kernel(self, i: int, M: Rep) -> FpMatrix:
        """Kernel of (X_a)_a: (+)_{a: s -> i} M_s -> M_i over the arrows into
        i, as the matrix whose columns are its echelonized basis."""
        phi = self._incoming(M, i)
        return FpMatrix.from_columns(self.p, phi.kernel_basis(), phi.cols)

    def _incoming(self, M: Rep, i: int) -> FpMatrix:
        """(X_a)_a: (+)_{a: s -> i} M_s -> M_i, the arrows into i side by
        side in arrow order; of width 0 when no arrow comes in."""
        blocks = [M.maps[a] for a in self.quiver.arrows_into(i)]
        return FpMatrix.hstack(blocks) if blocks else FpMatrix.zero(self.p, M.dim[i - 1], 0)

    # ------------------------------------------------------------------
    # enumeration of isomorphism classes

    def all_reps_of_dim(self, d):
        """All representations with dimension vector d (budget-guarded), in
        increasing signature order: arrow 0 slowest, each matrix row-major."""
        return self._reps_of_dim(tuple(d), None)

    def _reps_of_dim(self, d: tuple, ranks):
        """all_reps_of_dim(d), or, with ranks given, those of its
        representations whose arrow a has rank ranks[a] and whose arrow 0 is
        the least matrix of its rank.

        These meet every base-change orbit of these ranks in its lex-least
        member, its first in the walk of all_reps_of_dim: arrow 0 joins two
        distinct vertices s and t (the quiver is acyclic) and GL_t x GL_s is
        transitive on the t x s matrices of one rank, so some member of the
        orbit has the least of them at arrow 0, and no member a lesser one.
        The "representation enumeration" guard (check_count) bounds the
        representations yielded, prod_a p^(r_a c_a) over the arrows a of
        shape r_a x c_a (over a >= 1 when ranks are given), and the matrices
        built, sum_a p^(r_a c_a)."""
        Q, p = self.quiver, self.p
        sizes = [p ** (d[t - 1] * d[s - 1]) for s, t in Q.arrows]
        check_count("representation enumeration", prod(sizes[1:] if ranks else sizes),
                    "representations")
        check_count("representation enumeration", sum(sizes), "matrices")
        spaces = []
        for a, (s, t) in enumerate(Q.arrows):
            r, c = d[t - 1], d[s - 1]
            mats = [FpMatrix(p, [ent[k * c:(k + 1) * c] for k in range(r)], cols=c)
                    for ent in product(range(p), repeat=r * c)]
            if ranks:
                mats = [m for m in mats if m.rank() == ranks[a]]
                if a == 0:
                    mats = mats[:1]
            spaces.append(mats)
        for combo in product(*spaces):
            yield Rep(Q, p, d, list(combo))

    def iso_classes_up_to(self, bound: int) -> list:
        """Sorted IsoClassKeys of all classes with total dimension <= bound:
        built from the positive roots for a Dynkin quiver, by enumerating every
        representation otherwise."""
        if self.quiver.is_dynkin():
            return self._classes_from_roots(bound)
        return self._classes_by_enumeration(bound)

    def _classes_by_enumeration(self, bound: int) -> list:
        """iso_classes_up_to by interning every representation; the oracle of
        _classes_from_roots."""
        keys = set()
        for d in _dim_vectors(self.quiver.n, bound):
            for R in self.all_reps_of_dim(d):
                keys.add(self.intern(R))
        return sorted(keys)

    def _classes_from_roots(self, bound: int) -> list:
        """iso_classes_up_to for a Dynkin quiver, without enumerating
        representations.

        By Gabriel's theorem the indecomposables are bricks, one for each
        positive root d (d >= 0 with <d, d> = 1).  Every brick of dimension d
        lies in that one class, so the first representation of dimension d
        with dim End = 1 is the first member of the class in the walk of
        _canonical_indec: its own canonical form, registered with no search
        and kept in _root_bricks for _parts_by_hom_vector.  By Krull-Schmidt
        every class is a multiset of these, and canonical_rep of any of its
        members is the direct sum of their canonical forms sorted by
        signature, since each summand's orbit has one lex-least member.  So
        the keys that _key_of_parts registers here, with their signatures and
        labels, are exactly those intern gives the enumerated
        representations, and reports are byte-identical.
        """
        Q = self.quiver
        known = {S.dim for S in self._root_bricks}
        bricks = self._root_bricks + [
            self._register_form(next(R for R in self.all_reps_of_dim(d)
                                     if self.hom_dim(R, R) == 1))
            for d in _dim_vectors(Q.n, bound) if Q.euler_form(d, d) == 1 and d not in known]
        self._root_bricks = self._hom_order(bricks)
        self._root_bound = max(self._root_bound, bound)
        indecs = sorted((S for S in bricks if S.total_dim() <= bound), key=Rep.signature)
        return sorted(self._key_of_parts([S for S, m in groups for _ in range(m)])
                      for groups in _multisets(indecs, bound))

    def _hom_order(self, bricks: list) -> list:
        """The bricks ordered so that Hom(X, Y) != 0 puts X before Y when
        X != Y, layer by layer (Kahn): rep Q of a Dynkin quiver is
        representation-directed, so such an order exists, and a cycle of
        nonzero maps raises ShapeError (engine bug)."""
        left, order = sorted(bricks, key=Rep.signature), []
        while left:
            first = [Y for Y in left if not any(X is not Y and self.hom_dim(X, Y) for X in left)]
            if not first:
                raise ShapeError("root bricks with a cycle of nonzero maps (engine bug)")
            order += first
            left = [Y for Y in left if Y not in first]
        return order

    def _parts_by_hom_vector(self, M: Rep) -> Optional[list]:
        """M's canonical parts from its hom vector h_b = dim Hom(X_b, M) over
        the root bricks X_b, or None unless a brick is registered for every
        positive root b <= dim M (a Dynkin quiver whose _classes_from_roots
        ran with a bound of at least M's total dimension).

        This is exact: for a representation-finite algebra M ~ N exactly when
        their hom vectors agree (Auslander, 1982).  By Gabriel's theorem
        M = sum_b X_b^(m_b), so h = H m with H_ab = dim Hom(X_a, X_b).  Every
        summand of M has dimension vector <= dim M, so m_b = 0 for every
        other root and h restricted to the roots b <= dim M is H m over them
        alone.  In the order of _hom_order H is unitriangular (a brick has
        End = F_q), and a principal submatrix of a unitriangular matrix is
        unitriangular, so back-substitution from the last of these roots gives
        m.  A negative m_b or sum m_b b != dim M raises ShapeError (engine
        bug).
        """
        if M.total_dim() > self._root_bound:
            return None
        roots = [X for X in self._root_bricks if all(a <= b for a, b in zip(X.dim, M.dim))]
        mult = [0] * len(roots)
        for k in reversed(range(len(roots))):
            mult[k] = self._solved_hom_dim(roots[k], M) - sum(
                self.hom_dim(roots[k], roots[j]) * mult[j]
                for j in range(k + 1, len(roots)) if mult[j])
            if mult[k] < 0:
                raise ShapeError("negative multiplicity from a hom vector (engine bug)")
        if tuple(sum(n * X.dim[i] for X, n in zip(roots, mult))
                 for i in range(self.quiver.n)) != M.dim:
            raise ShapeError("hom-vector summands miss the dimension vector (engine bug)")
        return [X for X, n in zip(roots, mult) for _ in range(n)]


class ProjectiveCoords:
    """K_0(rep Q) in the basis of the indecomposable projectives P_1..P_n.

    The dimension vectors of the P_j form a unimodular matrix (Q is acyclic),
    so every class has integer coordinates.  Both semi-derived algebras index
    their quantum tori by these coordinates.
    """

    def __init__(self, cat: RepCategory):
        n = cat.quiver.n
        self.quiver = cat.quiver
        self.projectives = [cat.projective(i) for i in range(1, n + 1)]
        # hom(P_j, P_k) = dim of P_k at vertex j
        self.hom_pp = [[self.projectives[k].dim[j] for k in range(n)] for j in range(n)]
        self._coords_cache = {}

    def coords(self, dimvec) -> tuple:
        """Coordinates of a K_0 class (dimension-vector valued) in the P-basis:
        <dim P_j, y> = y_j, so the j-th one is the Euler form <d, e_j>."""
        dv = tuple(int(x) for x in dimvec)
        res = self._coords_cache.get(dv)
        if res is None:
            Q = self.quiver
            res = self._coords_cache[dv] = tuple(
                Q.euler_form(dv, tuple(int(i == j) for i in range(Q.n))) for j in range(Q.n))
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


def intertwiners(p: int, nvars: int, equations) -> list:
    """Flat basis of the solutions S in F_p^nvars of S1 C = D S2 for every
    equation (o1, C, o2, D), S1 and S2 being the row-major blocks of S at
    offsets o1 (shape D.rows x C.rows) and o2 (shape D.cols x C.cols): the one
    solver of hom spaces and chain maps.  It is read off the unique rref of
    the equations, so it does not depend on the order they come in.  A block
    outside the unknowns has a zero source or target, so its loop never runs.
    """
    if nvars == 0:
        return []
    return _equation_matrix(p, nvars, equations).kernel_basis()


def _equation_matrix(p: int, nvars: int, equations) -> FpMatrix:
    """The equations of intertwiners as one matrix on F_p^nvars, nvars > 0."""
    rows = []
    for o1, C, o2, D in equations:
        for r in range(D.rows):
            for c in range(C.cols):
                row = [0] * nvars
                for k in range(C.rows):
                    row[o1 + r * C.rows + k] += C.data[k][c]
                for k in range(D.cols):
                    row[o2 + k * C.cols + c] -= D.data[r][k]
                if any(row):
                    rows.append(row)
    return FpMatrix(p, rows, cols=nvars) if rows else FpMatrix.zero(p, 1, nvars)


def echelon_coords(p: int, rows, v) -> tuple:
    """(coords, residual) of the vector v against rows in reduced echelon
    form: coords are v's entries at the leads (the first 1 of each row), and
    the residual v - sum_k coords[k] rows[k], 0 at every lead, is zero exactly
    when v lies in the span of rows, coords then being its coordinates."""
    coords = tuple(v[row.index(1)] for row in rows)
    residual = v
    for c, row in zip(coords, rows):
        if c:
            residual = [(a - c * b) % p for a, b in zip(residual, row)]
    return coords, residual


def maps_into(p: int, maps, U) -> bool:
    """Whether each (f, s, t) of maps sends the span of the reduced echelon
    rows U[s] into the span of U[t]: the one stability test of sub-objects."""
    return not any(any(echelon_coords(p, U[t], f.mul_vec(row))[1])
                   for f, s, t in maps for row in U[s])


def _restricted_rows(p: int, maps, U) -> tuple:
    """The rows of each structure map (f, s, t) restricted to the stable
    reduced echelon rows U: entry (k, j) is the coordinate of f U[s][j] along
    U[t][k], which is its entry at the lead of U[t][k] (echelon_coords)."""
    return tuple(tuple(tuple(sum(a * b for a, b in zip(lead, u)) % p for u in U[s])
                       for lead in [f.data[row.index(1)] for row in U[t]])
                 for f, s, t in maps)


def _ranks(p: int, maps, dims, rows) -> tuple:
    """The rank of each structure map (f, s, t) with these rows."""
    return tuple(FpMatrix._trusted(p, r, dims[s]).rank() for r, (_, s, _) in zip(rows, maps))


def _quotient_rows(p: int, maps, U, free) -> tuple:
    """The rows of each structure map (f, s, t) on the quotient by the
    sub-object on the reduced echelon rows U, at the free positions of each
    side: column j of f, reduced against U[t] (echelon_coords), read at
    free[t].  So row i is f's row i less U[t][k][i] times f's row at the lead
    of U[t][k], over the rows k of U[t], read at free[s]."""
    out = []
    for f, s, t in maps:
        leads = [(u, f.data[u.index(1)]) for u in U[t]]
        rows = []
        for i in free[t]:
            r = f.data[i]
            for u, lead_row in leads:
                if u[i]:
                    r = [a - u[i] * b for a, b in zip(r, lead_row)]
            rows.append(tuple(r[j] % p for j in free[s]))
        out.append(tuple(rows))
    return tuple(out)


def _from_columns(p: int, cols, nrows: int) -> FpMatrix:
    """The nrows x len(cols) matrix with the given columns, whose entries
    are already reduced mod p."""
    return FpMatrix._trusted(p, zip(*cols) if cols else [()] * nrows, len(cols))


def _free_positions(rows, n: int) -> list:
    """The positions in range(n) that lead none of the reduced echelon rows."""
    leads = {row.index(1) for row in rows}
    return [j for j in range(n) if j not in leads]


def aut_order(q: int, end_dim: int, classes) -> int:
    """|Aut X| = q^(dim End X) * prod_j |GL_{m_j}(F_{Q_j})| / Q_j^(m_j^2) for
    End X of dimension end_dim over F_q and one (m_j, Q_j) per class of
    indecomposable summands of X: its multiplicity and the order of its
    residue field (KrullSchmidt.aut_count)."""
    units, orders = 1, 1
    for m, Q in classes:
        units *= _gl_order(m, Q)
        orders *= Q ** (m * m)
    return q ** end_dim * units // orders


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


def _multisets(parts: list, bound: int):
    """Every list of (part, multiplicity >= 1), in the order of parts, of
    total dimension at most bound."""
    if not parts:
        if bound >= 0:
            yield []
        return
    first, rest = parts[0], parts[1:]
    for m in range(bound // first.total_dim() + 1):
        for tail in _multisets(rest, bound - m * first.total_dim()):
            yield [(first, m)] + tail if m else tail


def _shape(M: Rep) -> tuple:
    """(dimension vector, arrow ranks): the same on M's whole orbit."""
    return M.dim, tuple(m.rank() for m in M.maps)


def _label_for(canon: Rep) -> str:
    dims = ",".join(str(d) for d in canon.dim)
    ent = "".join(str(x) for m in canon.maps for x in m.entries_flat())
    return f"M[{dims}]" + (f"({ent})" if ent else "")
