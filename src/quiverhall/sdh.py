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
"""

from __future__ import annotations

from typing import NamedTuple

from .cx2 import Cx2Tools
from .errors import ShapeError
from .reps import ProjectiveCoords, RepCategory
from .scalars import CoeffScalar, LinComb, bilinear, q_power


class NormalForm(NamedTuple):
    """[X] = coeff * T_g . [R_key]."""
    coeff: CoeffScalar
    g: tuple
    key: tuple


class SemiDerivedAlgebra:
    """The grading-independent part of SDH2Algebra and SDHZAlgebra.

    A subclass names its complex class (complex_type, for degree()), builds
    the representative of a key (_representative), lists and builds lattice
    points and keys (_slots, _from_slots), and wraps terms into its own
    elements (element)."""

    def __init__(self, cat: RepCategory):
        self.cat = cat
        self.q = cat.p
        self.tools = Cx2Tools(cat)
        self.proj = ProjectiveCoords(cat)
        self.coords = self.proj.coords
        self.dim_of_coords = self.proj.dim_of_coords
        self._zero = (0,) * cat.quiver.n
        self._rep_cache = {}
        self._nf_cache = {}
        self._pair_cache = {}

    def rep_of_key(self, key):
        """R_key, the representative complex of a key, built once per key."""
        R = self._rep_cache.get(key)
        if R is None:
            R = self._rep_cache[key] = self._representative(key)
        return R

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

    def exp_Y_g(self, Y, g) -> int:
        """log_q <Y, T_g>; Y must have projective components."""
        e = 0
        for m, c in self._slots(g):
            dim = Y.component(m + 1).dim
            for j, cj in enumerate(c):
                if cj:
                    e += cj * self.cat.euler_form_int(dim, self.proj.projectives[j].dim)
        return e

    def exp_g_h(self, g, h) -> int:
        """log_q of the Euler form between two torus lattice points."""
        deg = self.complex_type.degree
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
        """
        ck = X.signature()
        nf = self._nf_cache.get(ck)
        if nf is not None:
            return nf
        cat = self.cat
        deg = X.degree
        keys = {m: cat.intern(H) for m, H in self.tools.homology(X).items()
                if not H.is_zero()}
        res = {m: cat.min_proj_resolution(k.rep) for m, k in keys.items()}
        zero = self._zero

        def p_dim(m, i):
            return res[deg(m)][i].dim if deg(m) in res else zero

        slots = {m: tuple(M.rank() - d for M, d in zip(X.diff(m).mats, p_dim(m + 1, 0)))
                 for m in X.degrees()}
        for d in set(X.degrees()) | {deg(m - 1) for m in res}:
            parts = (p_dim(d, 1), p_dim(d + 1, 0), slots.get(d, zero),
                     slots.get(deg(d - 1), zero))
            if X.component(d).dim != tuple(map(sum, zip(*parts))):
                raise ShapeError("acyclic ledger does not close (engine bug)")
        g = self._from_slots({m: self.coords(s) for m, s in slots.items() if any(s)}, zero)
        key = self._from_slots(keys, cat.zero_key())
        coeff = q_power(self.q, self.exp_g_Y(g, self.rep_of_key(key)))
        nf = self._nf_cache[ck] = NormalForm(coeff, g, key)
        return nf

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

    # -- products --------------------------------------------------------------------

    def product(self, x: LinComb, y: LinComb) -> LinComb:
        return bilinear(x, y, lambda s, t: self._product_terms(s, t).items())

    def _product_terms(self, t1, t2) -> dict:
        """The product of two basis terms, as a fresh {term: coefficient}
        dict.  [R1] . [R2] is cached per homology-key pair (_key_pair); the
        torus twist of g1, g2 against each term's acyclic part is applied
        here, per call."""
        g1, k1 = t1
        g2, k2 = t2
        hom, terms = self._key_pair(k1, k2)
        R1 = self.rep_of_key(k1)
        base_exp = (self.exp_g_Y(g2, R1) - self.exp_Y_g(R1, g2)
                    - self.exp_g_h(g1, g2) - hom)
        g12 = self.lattice_add(g1, g2)
        out = {}
        for (ell, key), c in terms:
            e = base_exp - self.exp_g_h(g12, ell)
            out[(self.lattice_add(g12, ell), key)] = c * q_power(self.q, e) if e else c
        return out

    def _key_pair(self, k1, k2) -> tuple:
        """(hom_dim(R1, R2), [((ell, key), coeff), ...]) for the homology keys
        k1, k2: the middle terms of Ext^1(R1, R2), grouped by normal form
        T_ell . [R_key], each with the sum of coeff * weight over its
        classes.  The coefficients are positive, so no group cancels."""
        cached = self._pair_cache.get((k1, k2))
        if cached is not None:
            return cached
        R1 = self.rep_of_key(k1)
        R2 = self.rep_of_key(k2)
        hom = self.tools.hom_dim(R1, R2)
        groups = {}
        for _f, E, weight in self.tools.ext1_classes_proj(R1, R2):
            coeff, ell, key = self.normal_form(E)
            gk = (ell, key)
            c = coeff.scale(weight)
            groups[gk] = groups[gk] + c if gk in groups else c
        cached = self._pair_cache[(k1, k2)] = (hom, list(groups.items()))
        return cached
