"""The semi-derived Hall algebra core shared by both gradings.

SDH(E) is free over the quantum torus of acyclic complexes, with a basis of
homology classes, so every element is kept as a combination of basis terms

    coeff * T_g . [R_key],

with g a point of the Grothendieck lattice of acyclic complexes and R_key
the chosen projective-component representative of the homology class key.
Both g and key are maps from degrees: slot m of g holds the coordinates
(over the indecomposable projectives P_j) of the contractible complexes
P_j = P_j in degrees m, m + 1, and key maps a degree to the iso class of the
homology there.  Each grading keeps its own representation of both (sdh2:
dense pairs over the slots 0 and 1; sdhz: sparse sorted ((m, value), ...))
and supplies two hooks, _slots to list one and _from_slots to build one.
Everything else here reads complexes through the protocol of cx2 and is the
same for both gradings.

All torus bookkeeping reduces to integer exponents of q, with deg the
grading's degree():
  <T_g, Y> = q^(sum over slots m of g_m . dim Y^m)
  <Y, T_g> = q^(sum over slots m, j of g_mj euler(dim Y^(m+1), dim P_j))
             (Y with projective components)
  <T_g, T_h> = q^(sum of hom(g_m, h_l) over slot pairs with
                  l in {deg(m), deg(m - 1)})
For Z/2 the last rule counts each of the four slot pairs once.

A product of two basis terms needs one product [R1] . [R2] of
representatives per pair of homology keys (_key_pair): the extension
classes of R1 by R2, each middle term E taken to its normal form
q^c T_ell . [R_key] and weighted by the number of classes it stands for,
summed per (ell, key) (_grouped).  In general these classes are read off
the category of complexes (Cx2Tools.ext1_classes_proj), a space much larger
than the Ext^1 of the homology.  A pair of keys neither of which has
homology in two or more degrees needs no such enumeration:

* the zero key: [R_0] is the unit, so [R_0] . [R] = [R] . [R_0] = [R];
* two stalk keys, A in degree m and B in degree m2, with R1 = P1(A) ->
  P0(A) in degrees m - 1, m and R2 = P1(B) -> P0(B) in degrees m2 - 1, m2.
  R1 has projective components, so Ext^1(R1, R2) is the chain maps
  R1 -> Sigma R2 up to homotopy: the morphisms A[-m] -> B[1 - m2] of the
  derived category, Ext^(m - m2 + 1)(A, B) (for Z/2 the sum over the
  exponents of that parity).  For a hereditary category only the exponents
  0 and 1 survive.  Every middle term E has the components of R2 (+) R1,
  so its homology and the ranks of its differentials give its normal form
  by the rank formula of normal_form (_normal_term):
  - m2 = m: Ext^1(R1, R2) = Ext^1(A, B), and every class has as its
    representative a chain map f with f^m = 0, that is a map
    P1(A) -> P0(B).  The long exact homology sequence of R2 -> E -> R1
    gives H^(m-1)(E) = 0 and H^m(E) = C, the middle term of the class in
    Ext^1(A, B).  So rank d^(m-1) = dim P1(A) + dim P1(B), d^m = 0, and
    HallAlgebra.ext_class_counts counts the classes with middle term C:
    the stalk classes multiply by the Ringel-Hall formula (the paper's
    theorem on hereditary E; for Z/2 also Bridgeland, "Quantum groups via
    Hall algebras of complexes", Ann. Math. 2013).
  - deg(m2) = deg(m + 1), Z with m2 = m + 1 and Z/2 with m2 != m:
    Ext^1(R1, R2) = Hom(A, B).  The long exact homology sequence of
    R2 -> E -> R1 has connecting map f: A = H^m(R1) -> H^(m+1)(R2) = B, the
    class of E, so E has homology ker f in degree m and coker f in degree
    m + 1.  In E, d^(m-1) is injective on P1(A), the only component it
    does not kill, so rank d^(m-1) = dim P1(A); H^(m+1) = coker f is the
    cokernel of d^m into P0(B), so
    rank d^m = dim P0(B) - dim coker f = dim P1(B) + dim A - dim ker f.
    Scaling f by a unit keeps ker f and coker f, so one f per nonzero line
    of Hom(A, B), weighted by the size of its line, stands for every class
    (KrullSchmidt.lines).  The class f = 0 is the split one below.
  - any other m2, which only Z allows (m2 < m or m2 > m + 1):
    Ext^1(R1, R2) = 0, so the one class is the split one, E = R2 (+) R1,
    with homology A in degree m and B in degree m2, and each d^l has the
    rank of the differential of the one resolution it lives in:
    rank d^(m-1) = dim P1(A), rank d^(m2-1) = dim P1(B).

Every number that this bookkeeping reads off a representative R_key comes
from module data: no complex is built, no resolution computed and no chain
map solved for it (rep_of_key builds R_key only where a complex is walked,
in _resolution_pair).  Both facts below are additive over the parts of a
homology class (IsoClassKey.parts), the indecomposable summands, so each is
read per part and cached:
* the dimensions (RepCategory.resolution_dims, _res_dims, _key_dims).  Over
  a path algebra rad S is the sum of the arrow images, so the top of S has
  top_i = dim S_i - (the rank of the arrows into i); the projective cover
  P0(S) is the sum of top_i copies of P_i, and P1(S) = ker(P0(S) ->> S) has
  dim P0(S) - dim S.  So R_key^d = P0(H^d) + P1(H^deg(d+1)).
* Hom between representatives (_key_hom).  Take a part S in degree m of k1
  and a part T in degree m2 of k2, res(S) = P1(S) -> P0(S) in degrees
  m - 1, m and res(T) = P1(T) -> P0(T) in degrees m2 - 1, m2.  The chain
  maps res(S) -> res(T) have dimension
  - hom(S, T) + hom(P0(S), P1(T)) for m2 = m.  Up to homotopy they are the
    morphisms S -> T of the derived category, Hom(S, T) (for Z/2 plus the
    Ext^(2i)(S, T), which vanish on a hereditary category).  A homotopy
    h: P0(S) -> P1(T) gives the null-homotopic map (h d_S, d_T h), and
    h -> d_T h is injective because d_T is; for Z/2 the other homotopy
    component, P1(S) -> P0(T), composes with the zero differentials
    P0 -> P1 on both sides and gives 0;
  - hom(P1(S), P0(T)) for deg(m2) = deg(m - 1) != m2.  Only P1(S) and P0(T)
    share a degree, m - 1, and each differential out of or into it meets a
    zero component, so every such map commutes; for Z/2, where P0(S) and
    P1(T) share degree m, a component f: P0(S) -> P1(T) has d_T f = 0 (the
    differential P0(S) -> P1(S) is zero), so f = 0;
  - 0 otherwise, only for Z: the degrees do not overlap, or m2 = m + 1 and
    the one component f: P0(S) -> P1(T) has d_T f = 0, so f = 0.
  The projective Homs are ProjectiveCoords.hom_form of the coordinates of
  the dimension vectors; Cx2Tools.hom_dim on rep_of_key is the oracle.

Each key pair is computed once per orbit of the shift where the grading
lets it.  The shift Sigma of C_{Z/2}(P) is an exact automorphism: it keeps
Hom, homotopies and Ext^1, takes R_key to a complex isomorphic to R_(Sigma
key), the key with its two degrees swapped, and swaps the slots of every
lattice point (K_P with K_P^*).  A middle term E of R1 by R2 goes to the
middle term Sigma E of Sigma R1 by Sigma R2, with the same weight, and
normal_form(Sigma E) has the coefficient of normal_form(E), since
<T_g, R_key> pairs slot m of g with degree m of R_key.  So the key pair of
(Sigma k1, Sigma k2) has the hom and the coefficients of the pair (k1, k2),
term by term, with each ell and key swapped: _partner_pair reads it off
the cache when the partner is there.  Pairs with the zero key are always
computed first-hand (they are the unit's product).  For Z, re-indexing
degrees is the same kind of automorphism, but key pairs are not shared
along it (sdhz only shares its Euler exponents across translates).

The torus twist of a product reads one integer form per (key, slot)
(_twist): <T_g, R> pairs g_m with dim R^m, since <P_j, M> = dim M_j on a
hereditary path algebra, and <R, T_g> pairs g_m with the Euler forms
<dim R^(m+1), dim P_j>; both are fixed by the component dimensions of
R = R_key (_key_dims).

|Aut X| of a projective-component complex is read off its class (g, key),
once per class, with nothing decomposed (aut_count).  By normal_form, X is
R_key (+) K, K the sum of g_mj copies of K_j^m, the contractible P_j = P_j
in degrees m, m + 1, over the slots m and projectives P_j.  So the classes
of indecomposable summands of X, with their multiplicities, are:
* the resolution res(S) = P1(S) -> P0(S) in degrees m - 1, m of each
  indecomposable part S of the homology class of the key in degree m, as
  often as S occurs there (the parts grouped by class, which
  RepCategory._key_of_parts caches for every key where _groups reads it).
  A map S -> S lifts to a chain map of res(S), and a chain
  map of res(S) that induces 0 on S sends P0(S) into d(P1(S)), inside
  rad P0(S) since the resolution is minimal, so it is nilpotent.  So
  End res(S) is local with the residue field of End S, of order
  Q = KrullSchmidt.residue_order(S);
* K_j^m, g_mj times, with End K_j^m = End P_j = k (Q is acyclic) and Q = q.
End X is End R_key + Hom(R_key, K) + Hom(K, X).  A chain map K_j^m -> Y is
fixed by its component P_j -> Y^m and a chain map Y -> K_j^m by its
component Y^(m+1) -> P_j, so
  dim End X = dim End R_key
              + sum over m, j of g_mj ((dim X^m)_j + hom(R_key^(m+1), P_j)),
the first term the Hom formula above once per key (_key_hom), the middle
one the pairing exp_g_Y(g, X), the last one proj.hom_form on the
coordinates of R_key^(m+1) (_key_dims).  reps.aut_order turns these into
|Aut X| by the formula of KrullSchmidt.aut_count, and riedtmann is
KrullSchmidt's Riedtmann conversion over this count.  Cx2Tools.aut_count, which Fitting-decomposes
X, is its oracle.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

from .cx2 import Cx2Tools, direct_sum, resolution, zero_complex
from .errors import ShapeError
from .hall import HallAlgebra
from .reps import KrullSchmidt, ProjectiveCoords, RepCategory, aut_order
from .scalars import CoeffScalar, LinComb, bilinear, q_power


class NormalForm(NamedTuple):
    """[X] = coeff * T_g . [R_key]."""
    coeff: CoeffScalar
    g: tuple
    key: tuple


class SemiDerivedAlgebra:
    """The grading-independent part of SDH2Algebra and SDHZAlgebra.

    A subclass sets the period of its grading (period: 2 for Z/2, None for
    Z), which gives the degree map deg of its complexes and the grading of
    the key representatives, lists and builds lattice points and keys
    (_slots, _from_slots) and wraps terms into its own elements (element)."""

    def __init__(self, cat: RepCategory):
        self.cat = cat
        self.q = cat.p
        self.tools = Cx2Tools(cat)
        self.hall = HallAlgebra(cat)
        self.proj = ProjectiveCoords(cat)
        self.coords = self.proj.coords
        self.dim_of_coords = self.proj.dim_of_coords
        self.deg = zero_complex(cat, self.period).degree
        self._zero = (0,) * cat.quiver.n
        self._rep_cache = {}
        self._res_cache = {}
        self._dims_cache = {}
        self._nf_cache = {}
        self._pair_cache = {}
        self._form_cache = {}
        self._aut_cache = {}

    def rep_of_key(self, key):
        """R_key, the representative complex of a key, built once per key
        (_representative), for the routes that walk it; the bookkeeping of
        products reads its dimensions and Homs off module data instead
        (_key_dims, _key_hom)."""
        R = self._rep_cache.get(key)
        if R is None:
            R = self._rep_cache[key] = self._representative(key)
        return R

    def _representative(self, key):
        """The direct sum of the resolutions P1(H^m) -> P0(H^m) in degrees
        m - 1, m over the nonzero homology H^m of the key; the zero complex
        for none."""
        parts = [resolution(self.cat, k.rep, m, self.period)
                 for m, k in self._homology_parts(key)]
        return direct_sum(parts) if parts else zero_complex(self.cat, self.period)

    # -- module data of key representatives ---------------------------------------

    def _res_dims(self, k) -> tuple:
        """(dim P1, dim P0) of the minimal resolution of the iso class k: the
        sum of RepCategory.resolution_dims over its parts, built once per
        class."""
        dims = self._res_cache.get(k)
        if dims is None:
            parts = [self.cat.resolution_dims(S) for S in k.parts]
            dims = self._res_cache[k] = tuple(
                tuple(map(sum, zip(self._zero, *(d[i] for d in parts)))) for i in (0, 1))
        return dims

    def _key_dims(self, key) -> dict:
        """{d: dim R_key^d} over the degrees d where R_key is nonzero, with no
        complex built: R_key^d = P0(H^d) + P1(H^deg(d+1)) (_res_dims).  Built
        once per key."""
        dims = self._dims_cache.get(key)
        if dims is None:
            deg, dims = self.deg, {}
            for m, k in self._homology_parts(key):
                for d, v in zip((deg(m - 1), m), self._res_dims(k)):
                    if any(v):
                        dims[d] = tuple(map(add, dims[d], v)) if d in dims else v
            self._dims_cache[key] = dims
        return dims

    def _key_hom(self, k1, k2) -> int:
        """dim Hom(R1, R2) of the chain maps between the representatives of
        two keys, by the resolution formula of the module docstring: over
        each degree m of k1 and m2 of k2, with A = H^m(k1) and B = H^m2(k2),
        hom(A, B) + hom(P0(A), P1(B)) for m2 = m, hom(P1(A), P0(B)) for
        deg(m2) = deg(m - 1) != m2, else 0.  The projective Homs are read off
        ProjectiveCoords.hom_form, and nothing is solved on complexes."""
        hom_form, coords, deg = self.proj.hom_form, self.coords, self.deg
        e = 0
        for m, A in self._homology_parts(k1):
            p1a, p0a = self._res_dims(A)
            for m2, B in self._homology_parts(k2):
                p1b, p0b = self._res_dims(B)
                if m2 == m:
                    e += self.cat.hom_dim(A.rep, B.rep) + hom_form(coords(p0a), coords(p1b))
                elif deg(m2) == deg(m - 1):
                    e += hom_form(coords(p1a), coords(p0b))
        return e

    def lattice_add(self, g, h) -> tuple:
        """The sum of two torus lattice points."""
        out = dict(self._slots(g))
        for m, c in self._slots(h):
            out[m] = tuple(a + b for a, b in zip(out[m], c)) if m in out else c
        return self._from_slots({m: c for m, c in out.items() if any(c)}, self._zero)

    # -- exponent pairings -------------------------------------------------------

    def exp_g_Y(self, g, Y) -> int:
        """log_q <T_g, Y> for a torus lattice point against any complex."""
        return sum(cj * dj for m, c in self._slots(g)
                   for cj, dj in zip(c, Y.component(m).dim))

    def _exp_g_key(self, g, key) -> int:
        """exp_g_Y(g, R_key), off the component dimensions of the key
        (_key_dims)."""
        dims = self._key_dims(key)
        return sum(cj * dj for m, c in self._slots(g) if m in dims
                   for cj, dj in zip(c, dims[m]))

    def _twist(self, key, g) -> int:
        """log_q <T_g, R> - log_q <R, T_g> for R = R_key: the dot product of
        each slot g_m with the form of (key, m), built once per (key, m)
        from the component dimensions of the key (module docstring)."""
        e = 0
        for m, c in self._slots(g):
            form = self._form_cache.get((key, m))
            if form is None:
                dims, zero = self._key_dims(key), self._zero
                d0, d1 = dims.get(m, zero), dims.get(self.deg(m + 1), zero)
                form = self._form_cache[key, m] = tuple(
                    a - self.cat.euler_form_int(d1, P.dim)
                    for a, P in zip(d0, self.proj.projectives))
            e += sum(cj * fj for cj, fj in zip(c, form))
        return e

    def exp_g_h(self, g, h) -> int:
        """log_q of the Euler form between two torus lattice points."""
        deg = self.deg
        return sum(self.proj.hom_form(c, d) for m, c in self._slots(g) if any(c)
                   for l, d in self._slots(h) if l in (deg(m), deg(m - 1)))

    # -- normal form ---------------------------------------------------------------

    def normal_form(self, X) -> NormalForm:
        """Normal form of a projective-component complex.

        X is R_key plus a sum of contractible complexes; the homology gives
        the key, and since d^m of R_key has the rank of P1(H^(m+1)), the
        rank of d^m gives slot m of g:
            g_m = coords(rank d^m - dim P1(H^deg(m+1))).
        Every degree d must then have
            dim X^d = dim P0(H^d) + dim P1(H^deg(d+1)) + g_d + g_deg(d-1).

        (g, key) is a complete isomorphism invariant in either grading: X ~ Y
        exactly when normal_form(X)[1:] == normal_form(Y)[1:].  Isomorphic
        complexes have isomorphic homology and equal ranks.  Conversely, over
        the hereditary rep_k(Q) im d^m and ker d^m are projective, so X^m =
        ker d^m (+) C^m with C^m ~ im d^m, and im d^(m-1) -> ker d^m, a
        projective resolution of H^m, is P1(H^m) -> P0(H^m) plus some
        G_(m-1) = G_(m-1): X is R_key plus G_m = G_m in degrees m, m + 1 over
        all m (for Z/2 Bridgeland, Ann. Math. 2013, section 4).  rank d^m =
        dim P1(H^(m+1)) + dim G_m, and a projective is fixed by its dimension
        vector (an acyclic quiver has a unitriangular Cartan matrix), so g
        fixes each G_m.  KrullSchmidt.is_isomorphic stays as the oracle of
        this test (tests/test_invariants.py).
        """
        ck = X.signature()
        nf = self._nf_cache.get(ck)
        if nf is not None:
            return nf
        keys = {m: self.cat.intern(H) for m, H in self.tools.homology(X).items()
                if not H.is_zero()}
        dims = {m: X.component(m).dim for m in X.degrees()}
        ranks = {m: tuple(M.rank() for M in X.diff(m).mats) for m in X.degrees()}
        nf = self._nf_cache[ck] = self._normal_term(dims, ranks, keys)
        return nf

    def _normal_term(self, dims, ranks, keys) -> NormalForm:
        """The normal form of a projective-component complex with components
        of dimension dims[d], differentials d^m of rank ranks[m] and nonzero
        homology classes keys[m], by the rank formula and the ledger of
        normal_form (a degree missing from dims has a zero component).  The
        resolutions are read as dimensions (_res_dims), and nothing is built."""
        cat = self.cat
        deg = self.deg
        res = {m: self._res_dims(k) for m, k in keys.items()}
        zero = self._zero

        def p_dim(m, i):
            return res[deg(m)][i] if deg(m) in res else zero

        slots = {m: tuple(r - d for r, d in zip(rank, p_dim(m + 1, 0)))
                 for m, rank in ranks.items()}
        for d in set(dims) | {deg(m - 1) for m in res}:
            parts = (p_dim(d, 1), p_dim(d + 1, 0), slots.get(d, zero),
                     slots.get(deg(d - 1), zero))
            if dims.get(d, zero) != tuple(map(sum, zip(*parts))):
                raise ShapeError("acyclic ledger does not close (engine bug)")
        g = self._from_slots({m: self.coords(s) for m, s in slots.items() if any(s)}, zero)
        key = self._from_slots(keys, cat.zero_key())
        return NormalForm(q_power(self.q, self._exp_g_key(g, key)), g, key)

    # -- automorphism counts -------------------------------------------------------

    # The Riedtmann conversion of KrullSchmidt, over the aut_count below.
    riedtmann = KrullSchmidt.riedtmann

    def aut_count(self, X) -> int:
        """|Aut X| of a projective-component complex, read off its normal
        form once per class (g, key), with nothing decomposed (module
        docstring): aut_order over the summand classes, the resolution of
        each class of indecomposable parts of each homology class of the key
        (read off the key's seeded _groups, so nothing is decomposed) and
        the contractible P_j = P_j of each nonzero g_mj, and
            dim End X = dim End R_key
                        + sum over m, j of g_mj ((dim X^m)_j + hom(R^(m+1), P_j))."""
        _, g, key = self.normal_form(X)
        aut = self._aut_cache.get((g, key))
        if aut is not None:
            return aut
        q, dims, zero = self.q, self._key_dims(key), self._zero
        classes = []
        for _, k in self._homology_parts(key):
            classes += [(n, self.cat.residue_order(S)) for S, n in self.cat._groups(k.rep)]
        end_dim = self._key_hom(key, key) + self.exp_g_Y(g, X)
        for m, c in self._slots(g):
            end_dim += self.proj.hom_form(self.coords(dims.get(self.deg(m + 1), zero)), c)
            classes += [(n, q) for n in c if n]
        aut = self._aut_cache[g, key] = aut_order(q, end_dim, classes)
        return aut

    # -- elements ------------------------------------------------------------------

    def element_of(self, X) -> LinComb:
        coeff, g, key = self.normal_form(X)
        return self.term(g, key, coeff)

    def zero(self) -> LinComb:
        return self.element({})

    def unit(self) -> LinComb:
        """T_0 . [R_0]: the zero lattice point and the zero homology."""
        return self.term(self._from_slots({}, self._zero),
                         self._from_slots({}, self.cat.zero_key()))

    def term(self, g, key, coeff=None) -> LinComb:
        c = coeff if coeff is not None else CoeffScalar.one(self.q)
        return self.element({(g, key): c})

    def stalk_term(self, A, m: int) -> LinComb:
        """The class of the stalk complex with A in degree m: the unit for
        A = 0, else q^-hom(e, e) T_g . [R_key], key {deg(m): A}, with e the
        coordinates of P1(A) and g = -e in slot deg(m - 1)."""
        if A.is_zero():
            return self.unit()
        deg = self.deg
        k = self.cat.intern(A)
        e = self.coords(self._res_dims(k)[0])
        g = self._from_slots({deg(m - 1): tuple(-x for x in e)} if any(e) else {}, self._zero)
        key = self._from_slots({deg(m): k}, self.cat.zero_key())
        return self.term(g, key, q_power(self.q, -self.proj.hom_form(e, e)))

    # -- products --------------------------------------------------------------------

    def product(self, x: LinComb, y: LinComb) -> LinComb:
        q = self.q

        def pair(s, t):
            for term, c, e in self._product_exponents(s, t):
                yield term, c * q_power(q, e) if e else c
        return bilinear(x, y, pair)

    def _product_exponents(self, t1, t2):
        """The product of two basis terms as (term, c, e) items: it is the sum
        of c * q^e * term.  [R1] . [R2] is cached per homology-key pair
        (_key_pair), and c is its coefficient; the torus twist of g1, g2
        against each term's acyclic part is the integer e, computed here
        per call from the cached forms of k1 (_twist)."""
        g1, k1 = t1
        g2, k2 = t2
        hom, terms = self._key_pair(k1, k2)
        base_exp = self._twist(k1, g2) - self.exp_g_h(g1, g2) - hom
        g12 = self.lattice_add(g1, g2)
        for (ell, key), c in terms:
            yield (self.lattice_add(g12, ell), key), c, base_exp - self.exp_g_h(g12, ell)

    def _key_pair(self, k1, k2) -> tuple:
        """(hom_dim(R1, R2), [((ell, key), coeff), ...]) for the homology keys
        k1, k2: [R1] . [R2] is q^-hom times the sum of coeff * T_ell . [R_key].
        Cached per pair.  Zero-key and single-stalk pairs come from module
        data (module docstring): the unit, and the classes of two stalks read
        off Ext^1 or Hom of their modules (_stalk_pair).  A key with homology
        in two or more degrees takes the extension classes of the
        resolutions (_resolution_pair).  A pair of nonzero keys whose shift
        partner is cached is read off it (_partner_pair)."""
        cached = self._pair_cache.get((k1, k2))
        if cached is not None:
            return cached
        h1, h2 = self._homology_parts(k1), self._homology_parts(k2)
        if not h1 or not h2:
            one = CoeffScalar.one(self.q)
            cached = (0, [((self._from_slots({}, self._zero), k1 if h1 else k2), one)])
        elif (partner := self._partner_pair(k1, k2)) is not None:
            cached = partner
        elif len(h1) == len(h2) == 1:
            cached = self._stalk_pair(k1, k2, *h1[0], *h2[0])
        else:
            cached = self._resolution_pair(k1, k2)
        self._pair_cache[(k1, k2)] = cached
        return cached

    def _partner_pair(self, k1, k2):
        """_key_pair of (k1, k2) read off the cached pair of their shift
        partners, or None (module docstring); the grading's hook, and a
        grading that shares no pairs along its shift keeps this None."""
        return None

    def _homology_parts(self, key) -> list:
        """[(degree, iso class)] of the nonzero homology of a key."""
        return [(m, k) for m, k in self._slots(key) if any(k.dim)]

    def _stalk_pair(self, k1, k2, m, A, m2, B) -> tuple:
        """_key_pair of the stalk keys k1 (the iso class A in degree m) and
        k2 (B in degree m2), from the classes of R1 by R2 that the module
        docstring derives, each as (weight, homology, differential ranks)
        and taken to its normal form by _normal_term: the middle terms of
        Ext^1(A, B) for m2 = m; for any other m2 the split class, written
        once as data (A in degree m, B in degree m2), then for
        deg(m2) = deg(m + 1), where it is the class f = 0, one f per nonzero
        line of Hom(A, B) (KrullSchmidt.lines).  The "extension-class
        enumeration" guard of lines bounds the q^(dim Hom(A, B)) classes of
        that walk, as ext_class_counts bounds its own.  The dimensions and
        the hom come from module data (_key_dims, _res_dims, _key_hom)."""
        cat = self.cat
        deg = self.deg
        d1, d2, zero = self._key_dims(k1), self._key_dims(k2), self._zero
        dims = {d: tuple(map(add, d1.get(d, zero), d2.get(d, zero))) for d in d1.keys() | d2.keys()}
        p1a, p1b = self._res_dims(A)[0], self._res_dims(B)[0]
        if m2 == m:
            p1ab = tuple(a + b for a, b in zip(p1a, p1b))
            classes = [(count, {m: C}, {deg(m - 1): p1ab})
                       for C, count in self.hall.ext_class_counts(A, B).items()]
        else:
            classes = [(1, {m: A, m2: B}, {deg(m - 1): p1a, deg(m2 - 1): p1b})]
        if deg(m2) == deg(m + 1):
            basis = cat.hom_basis(A.rep, B.rep)
            for f, weight in cat.lines(A.rep, B.rep, basis, "extension-class enumeration"):
                ker = cat.sub_object(A.rep, cat.kernel_subspaces(f))
                coker = cat.quotient_object(B.rep, cat.image_subspaces(f))
                keys = {d: cat.intern(H) for d, H in ((m, ker), (m2, coker)) if not H.is_zero()}
                ranks = {deg(m - 1): p1a,
                         m: tuple(b + a - k for b, a, k in zip(p1b, A.dim, ker.dim))}
                classes.append((weight, keys, ranks))
        return self._key_hom(k1, k2), self._grouped(
            (weight, self._normal_term(dims, ranks, keys)) for weight, keys, ranks in classes)

    def _resolution_pair(self, k1, k2) -> tuple:
        """_key_pair uncached, by enumeration: the middle terms of
        Ext^1(R1, R2) in normal form (_grouped)."""
        R1 = self.rep_of_key(k1)
        R2 = self.rep_of_key(k2)
        return self.tools.hom_dim(R1, R2), self._grouped(
            (weight, self.normal_form(E)) for _f, E, weight in self.tools.ext1_classes_proj(R1, R2))

    @staticmethod
    def _grouped(classes) -> list:
        """[((ell, key), coeff)] of extension classes given as (weight,
        normal form) items: per T_ell . [R_key], the sum of coeff * weight
        over its classes.  The coefficients are positive, so no group
        cancels."""
        groups = {}
        for weight, (coeff, ell, key) in classes:
            c = coeff.scale(weight)
            groups[ell, key] = groups[ell, key] + c if (ell, key) in groups else c
        return list(groups.items())
