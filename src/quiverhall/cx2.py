"""Complexes of quiver representations in either grading, and one engine for both.

One class, Complex, holds a complex of either grading: its components from
degree lo up, its differentials and the grading's period, 2 for Z/2 and None
for Z.  A Z/2-graded complex is a pair of representations with differentials
both ways composing to zero, read as a 2-periodic complex; a Z-graded one is
bounded.  The protocol the engine reads is written once for both:

  period              the grading: 2 for Z/2, None for Z
  degrees()           the degrees of the components, in increasing order
  degree(m)           how the complex reads the integer m (Z/2: m mod 2)
  component(m)        the representation in degree m
  diff(m)             the differential component(m) -> component(m + 1)
  shift(k=1)          Sigma^k, differentials negated k times
  like(comps, mats)   a complex of the same grading with comps[m] in degree m
                      and the per-vertex matrices mats[m] of d^m

Cx2Tools supplies the hooks of reps.KrullSchmidt for complexes, through this
protocol alone: span (the degrees from the lowest to the highest of two
complexes, always 0, 1 for Z/2), sides and structure_maps (the arrow maps of
each degree over the span, then the differentials, over sides ordered by
degree), morphism (flat entries split by those sides into a ChainMorphism)
and from_structure (their inverse over a complex's own degrees).  On top of
them it solves homotopies, homology, extension classes and their middle
terms, and builds sub- and quotient complexes.  The contractible complexes
P = P and the resolution complexes P1(A) -> P0(A) of either grading, whose
direct sums represent the homology classes of both semi-derived algebras,
also live here; the chain-map equations and bases, coefficient combinations,
images and kernels, Krull-Schmidt decomposition, isomorphism tests,
automorphism and hom-space counts, sub-complex enumeration and Hall numbers
are those of reps.KrullSchmidt.  The semi-derived algebras are in sdh
(the core of both), sdh2 and sdhz.
"""

from __future__ import annotations

from functools import reduce
from itertools import product

from .errors import CategoryMismatch, ShapeError, SignConventionBroken, WindowExceeded
from .linalg import FpMatrix, split_flat
from .reps import (
    DECOMPOSE_DIM_GUARD,
    KrullSchmidt,
    Rep,
    RepCategory,
    RepMorphism,
    echelon_coords,
)

# The hard degree window of Z-graded complexes: building one with a nonzero
# component outside it raises WindowExceeded.
_HARD_LO = -24
_HARD_HI = 24


class Complex:
    """comps[i] in degree lo + i and diffs[i] = d^(lo + i), in the grading of
    period: 2 for Z/2, None for Z.

    Every construction, checked or trusted, puts the complex in the normal
    shape of its grading.  A Z/2 complex sits in degrees 0, 1, with both
    differentials (a component or a differential not given is zero).  A Z
    complex keeps the differentials between its components only, loses
    zero end components (lo is 0 when none is left) and must lie in
    [_HARD_LO, _HARD_HI].  The constructor then checks the endpoints, that
    each differential is a morphism and that d o d = 0 in every degree."""

    __slots__ = ("cat", "lo", "comps", "diffs", "period", "_sig")

    def __init__(self, cat: RepCategory, lo: int, comps, diffs, period: int = None):
        self._wrap(cat, lo, comps, diffs, period)
        n = len(self.comps)
        if len(self.diffs) != (n if period else max(n - 1, 0)) or (period and n != period):
            raise ShapeError("need one differential per degree (but the top of a Z complex)")
        for m, d in zip(self.degrees(), self.diffs):
            if (d.dom.signature(), d.cod.signature()) != (
                    self.component(m).signature(), self.component(m + 1).signature()):
                raise ShapeError("differential endpoints mismatch")
            if not d.check_intertwining():
                raise ShapeError("differential is not a morphism")
        for m in self.degrees():
            if not all((b @ a).is_zero() for a, b in zip(self.diff(m).mats, self.diff(m + 1).mats)):
                raise SignConventionBroken("d o d != 0 in complex")

    def _wrap(self, cat: RepCategory, lo: int, comps, diffs, period) -> None:
        """Set the fields in the normal shape of the class docstring."""
        comps, diffs = list(comps), list(diffs)
        if period:
            comps += [cat.zero_rep] * (period - len(comps))
            diffs += [cat.zero_map(comps[i], comps[(i + 1) % period])
                      for i in range(len(diffs), period)]
            k = -lo % period   # the position of degree 0
            comps, diffs, lo = comps[k:] + comps[:k], diffs[k:] + diffs[:k], 0
        else:
            while comps and comps[0].is_zero():
                del comps[0], diffs[:1]
                lo += 1
            while comps and comps[-1].is_zero():
                del comps[-1], diffs[-1:]
            if not comps:
                lo = 0
            elif not (_HARD_LO <= lo and lo + len(comps) - 1 <= _HARD_HI):
                raise WindowExceeded("complex outside the hard degree window")
        self.cat, self.lo, self.period, self._sig = cat, lo, period, None
        self.comps, self.diffs = tuple(comps), tuple(diffs)

    @classmethod
    def _trusted(cls, cat: RepCategory, lo: int, comps, diffs, period: int = None) -> "Complex":
        """Wrap differentials already known to form a complex, such as those
        of a shift, skipping the checks of __init__ but not the normal shape."""
        X = object.__new__(cls)
        X._wrap(cat, lo, comps, diffs, period)
        return X

    def signature(self) -> tuple:
        if self._sig is None:
            self._sig = (self.period, self.lo, tuple(c.signature() for c in self.comps),
                         tuple(tuple(m.entries_flat() for m in d.mats) for d in self.diffs))
        return self._sig

    def total_dim(self) -> int:
        return sum(c.total_dim() for c in self.comps)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def degrees(self) -> range:
        return range(self.lo, self.lo + len(self.comps))

    def degree(self, m: int) -> int:
        return m % self.period if self.period else m

    def component(self, m: int) -> Rep:
        i = self.degree(m) - self.lo
        return self.comps[i] if 0 <= i < len(self.comps) else self.cat.zero_rep

    def diff(self, m: int) -> RepMorphism:
        """d^m: component(m) -> component(m + 1); past either end of a Z
        complex the zero map of the category between those components."""
        i = self.degree(m) - self.lo
        if 0 <= i < len(self.diffs):
            return self.diffs[i]
        return self.cat.zero_map(self.component(m), self.component(m + 1))

    def shift(self, k: int = 1) -> "Complex":
        """Sigma^k: component(m) of the shift is component(m + k) and d^m is
        (-1)^k diff(m + k), that is the same tuples from degree lo - k."""
        diffs = self.diffs if k % 2 == 0 else [-d for d in self.diffs]
        return Complex._trusted(self.cat, self.lo - k, self.comps, diffs, self.period)

    def like(self, comps: dict, mats: dict) -> "Complex":
        """The complex of this grading with comps[m] in degree m, over
        consecutive degrees, and d^m the per-vertex matrices mats[m], for
        each degree m with d^m inside the complex.  The caller vouches that
        they form a complex: middle_term's block differentials and
        from_structure's sub-objects and quotients are valid by construction."""
        degs = list(comps)
        return Complex._trusted(self.cat, degs[0] if degs else 0, comps.values(), [
            RepMorphism(comps[m], comps[self.degree(m + 1)], mats[m]) for m in degs if m in mats
        ], self.period)

    def __eq__(self, other):
        return type(other) is Complex and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return f"Complex(period={self.period}, lo={self.lo}, dims={[c.dim for c in self.comps]})"


def Cx2(cat: RepCategory, M0: Rep, M1: Rep, d0: RepMorphism, d1: RepMorphism) -> Complex:
    """The checked Z/2-graded complex M0 <-> M1 with d^0 = d0 and d^1 = d1."""
    return Complex(cat, 0, (M0, M1), (d0, d1), 2)


def zero_complex(cat: RepCategory, period: int = None) -> Complex:
    """The zero complex of the grading with this period."""
    return Complex._trusted(cat, 0, (), (), period)


def squares_to_zero(d0: RepMorphism, d1: RepMorphism) -> bool:
    """Whether d1 o d0 = d0 o d1 = 0 at every vertex."""
    return all((b @ a).is_zero() and (a @ b).is_zero() for a, b in zip(d0.mats, d1.mats))


class ChainMorphism:
    """A chain map dom -> cod of complexes of either grading: one RepMorphism
    per degree that both complexes occupy."""

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

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.maps.values())

    def blocks(self) -> tuple:
        """The matrices of entries_flat(), degree-major and vertex-minor."""
        return tuple(m for s in self.maps.values() for m in s.mats)

    def is_isomorphism(self) -> bool:
        return (self.dom.degrees() == self.cod.degrees()
                and all(s.is_isomorphism() for s in self.maps.values()))

    def compose(self, other: "ChainMorphism") -> "ChainMorphism":
        return ChainMorphism(other.dom, self.cod,
                             {m: s.compose(other.maps[m]) for m, s in self.maps.items()})


def contractible(cat: RepCategory, P: Rep, m: int, period: int = None) -> Complex:
    """The contractible complex P = P in degrees m, m + 1 of the grading with
    this period: d^m = id, and for Z/2 d^(m + 1) = 0, so K_P for even m and
    K_P* for odd m."""
    ident = RepMorphism(P, P, [FpMatrix.identity(cat.p, d) for d in P.dim])
    return Complex._trusted(cat, m, (P, P), (ident,), period)


def _span(U, V) -> range:
    """The degrees from the lowest to the highest of the complexes U and V
    of one grading: 0, 1 for Z/2."""
    du, dv = U.degrees(), V.degrees()
    if not du or not dv:
        return du or dv
    return range(min(du.start, dv.start), max(du.stop, dv.stop))


def middle_term(L, M, f=None):
    """Extension of L by M along a chain map f: L -> ΣM, with block
    differential [[d_M, f], [0, d_L]] in each degree; f = None gives the
    direct sum M (+) L.  For f None or a chain map (as hom_basis gives) the
    block differentials form a complex, so it is built unchecked."""
    cat = L.cat
    p = cat.p
    span = _span(L, M)
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
    """ker d_out / im d_in at one component.  At each vertex the image of
    d_in is read in the kernel's reduced echelon rows U: the echelon_coords
    of each reduced echelon image row.  These coordinate rows are in reduced
    echelon form already: an image row in span(U) leads at the lead of its
    first nonzero coordinate, and it is 0 at the other image rows' leads."""
    U = cat.kernel_subspaces(d_out)
    image = []
    for rows, im in zip(U, cat.image_subspaces(d_in)):
        read = [echelon_coords(cat.p, rows, v) for v in im]
        if any(any(residual) for _, residual in read):
            raise ShapeError("image not inside kernel (engine bug)")
        image.append(tuple(coords for coords, _ in read))
    return cat.quotient_object(cat.sub_object(comp, U), tuple(image))


def resolution(cat: RepCategory, A: Rep, m: int, period: int = None) -> Complex:
    """The minimal projective resolution P1(A) -> P0(A) of A in degrees
    m - 1, m of the grading with this period, valid by construction: the
    representative of the stalk class of A in degree m."""
    P1, P0, incl, _ = cat.min_proj_resolution(A)
    return Complex._trusted(cat, m - 1, (P1, P0), (incl,), period)


def minimal_complex(cat: RepCategory, A: Rep, B: Rep) -> Complex:
    """Minimal Z/2 projective-component complex with homology (A, B): the
    resolution of A in degree 0 plus that of B in degree 1."""
    return direct_sum([resolution(cat, A, 0, 2), resolution(cat, B, 1, 2)])


# ----------------------------------------------------------------------
# chain maps, homotopies, extensions


class Cx2Tools(KrullSchmidt):
    """Caches and linear-algebra routines for complexes of either grading over
    one category, through the protocol of the module docstring."""

    scan_prefix = "complex "
    sub_guard = ("subcomplex", DECOMPOSE_DIM_GUARD, "DECOMPOSE_DIM_GUARD")
    # The Krull-Schmidt core, under the names the rest of the engine uses.
    decompose2 = KrullSchmidt._summands
    hom_basis = KrullSchmidt.hom_basis
    is_isomorphic = KrullSchmidt.is_isomorphic
    aut_count = KrullSchmidt.aut_count
    sub_complexes_with_dims = KrullSchmidt.sub_objects

    def __init__(self, cat: RepCategory):
        super().__init__(cat.p)
        self.cat = cat
        self._homotopy_cache = {}

    def _check_same(self, L, M) -> None:
        if L.cat is not self.cat or M.cat is not self.cat:
            raise CategoryMismatch("complexes from a different category context")

    span = staticmethod(_span)

    def sides(self, X, span=None) -> tuple:
        """The dimension vectors of X's components over span, X's degrees by
        default, one after another."""
        return sum((c.dim for c in (X.comps if span is None else map(X.component, span))), ())

    def morphism(self, U, V, flat) -> ChainMorphism:
        """The chain map U -> V with the given flat entries, in the layout of
        U -> V: one RepMorphism per degree of both, split by the sides over
        those degrees.  The other degrees of span(U, V) have empty blocks,
        U or V being zero there."""
        du, dv = U.degrees(), V.degrees()
        both = range(max(du.start, dv.start), min(du.stop, dv.stop))
        n = self.cat.quiver.n
        mats = split_flat(self.p, flat, zip(self.sides(V, both), self.sides(U, both)))
        return ChainMorphism(U, V, {
            m: RepMorphism(U.component(m), V.component(m), mats[k * n:(k + 1) * n])
            for k, m in enumerate(both)}, flat)

    def homotopy_subspace(self, L, M) -> list:
        """rref rows (in flat chain-map coordinates) of the null-homotopic
        maps d_M h + h d_L, over h^m: L^m -> M^(m-1)."""
        ck = (L.signature(), M.signature())
        cached = self._homotopy_cache.get(ck)
        if cached is not None:
            return cached
        cat = self.cat
        span, offsets = self._layout(L, M)
        size = offsets[-1]
        # the offset of the block of each (degree, vertex), the sides' order
        block = dict(zip(product(span, range(cat.quiver.n)), offsets))
        gens = []
        # null-homotopic maps are chain maps, so with none there is nothing to do
        for m in L.degrees() if self.hom_basis(L, M) else ():
            for h in cat.hom_basis(L.component(m), M.component(m - 1)):
                vec = [0] * size
                for deg, t in ((m, M.diff(m - 1).compose(h)),
                               (L.degree(m - 1), h.compose(L.diff(m - 1)))):
                    # a degree outside the span has only empty blocks
                    for i, mat in enumerate(t.mats):
                        for j, x in enumerate(mat.entries_flat()):
                            vec[block[deg, i] + j] += x
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
        return {m: _homology_at(self.cat, X.component(m), X.diff(m), X.diff(m - 1))
                for m in X.degrees()}

    # -- extension classes ------------------------------------------------

    def ext1_classes_proj(self, L, M) -> list:
        """(f, E(f), weight) for one chain map f: L -> ΣM per line of
        extension classes of L by M, with its middle term E(f); requires
        projective components of L.

        Ext^1(L, M) is identified with chain maps L -> ΣM modulo homotopy.
        The zero chain map comes first, with weight 1: the split class.
        diag(λ, 1) is a chain isomorphism E(f) -> E(λf), so one class stands
        for the weight classes of its line, walked modulo the homotopies
        (lines); the weights sum to |Ext^1(L, M)|.  The "extension-class
        enumeration" guard of lines bounds the p^(dim Ext^1) classes, not
        the chain maps, before any middle term is built.
        """
        SM = M.shift()
        basis = self.hom_basis(L, SM)
        walk = list(self.lines(L, SM, basis, "extension-class enumeration",
                               self.homotopy_subspace(L, SM)))
        zero = self.morphisms_from_coeffs(L, SM, basis, [0] * len(basis))
        return [(f, middle_term(L, M, f), weight) for f, weight in [(zero, 1)] + walk]

    def structure_maps(self, X, span=None) -> list:
        """The arrow maps of each component, then (d^m at vertex i, its source
        side, its target side), over sides(X, span)."""
        n = self.cat.quiver.n
        off = {m: k * n for k, m in enumerate(X.degrees() if span is None else span)}
        return [(f, off[m] + s, off[m] + t) for m in off
                for f, s, t in self.cat.structure_maps(X.component(m))] + [
            (f, off[m] + i, off[X.degree(m + 1)] + i) for m in off if X.degree(m + 1) in off
            for i, f in enumerate(X.diff(m).mats)]

    def from_structure(self, X, dims, mats):
        """The complex of X's grading and degrees with these sides, arrow maps
        and differentials, split by degree as structure_maps lists them."""
        Q = self.cat.quiver
        n, k = Q.n, len(Q.arrows)
        degs = X.degrees()
        comps = {m: Rep(Q, self.p, dims[j * n:(j + 1) * n], mats[j * k:(j + 1) * k])
                 for j, m in enumerate(degs)}
        diffs = mats[len(degs) * k:]
        ends = [m for m in degs if X.degree(m + 1) in comps]
        return X.like(comps, {m: diffs[j * n:(j + 1) * n] for j, m in enumerate(ends)})

    quotient_complex = KrullSchmidt.quotient_object
