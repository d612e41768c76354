"""The Z-graded semi-derived Hall algebra of bounded complexes over rep_k(Q).

Bounded complexes are cx2.Complex with no period; Cx2Tools solves their
chain maps, homotopies, homology and extension classes.
Elements are combinations of T_g . [R_key] with

  g    a finitely supported map  degree -> Z^n  (exponents of the classes of
       the two-term contractible complexes on the indecomposable projectives,
       the complex for slot (j, m) living in degrees m, m+1), and
  key  a finitely supported map  degree -> module iso class (the homology),
       represented by the direct sum of shifted two-term minimal resolutions.

Ambient degrees are capped at [-8, 8]; operations that would leave the window
raise WindowExceeded.  Normal forms, products and the torus pairings are those
of sdh; for example <v_{P_j,m}, v_{P_k,l}> = q^(hom(P_j, P_k)) when l is m - 1
or m, else 1.
"""

from __future__ import annotations

from .cx2 import _HARD_LO, Complex, contractible, resolution, zero_complex
from .errors import ShapeError, WindowExceeded
from .reps import Rep, RepCategory
from .scalars import CoeffScalar, LinComb, q_power
from .sdh import SemiDerivedAlgebra

WINDOW_LO = -8
WINDOW_HI = 8


def CxB(cat: RepCategory, lo: int, comps, diffs) -> Complex:
    """The checked bounded complex with comps[i] in degree lo + i and
    d^(lo + i) = diffs[i]."""
    return Complex(cat, lo, comps, diffs)


def stalk_cxb(cat: RepCategory, A: Rep, m: int) -> Complex:
    """The stalk complex with A in degree m: no differential to check."""
    return Complex._trusted(cat, m, (A,), ())


# ----------------------------------------------------------------------


def _sdhz_str(terms) -> str:
    bits = []
    for (g, hom) in sorted(terms, key=lambda t: (t[0], tuple(
            (m, k.sig) for m, k in t[1]))):
        gs = "".join(f"v[{list(cc)}]@{m}" for m, cc in g)
        hs = "".join(f"[{k.label}]@{m}" for m, k in hom)
        body = (gs + "." + hs) if gs and hs else (gs or hs or "1")
        bits.append(f"({terms[(g, hom)]})*{body}")
    return " + ".join(bits)


class SDHZAlgebra(SemiDerivedAlgebra):
    period = None

    # Bound in this class body, so that a per-class trace (bench/tracer.py)
    # counts them apart from the Z/2-graded algebra's.
    productZ = SemiDerivedAlgebra.product
    normal_form = SemiDerivedAlgebra.normal_form

    def __init__(self, cat: RepCategory):
        super().__init__(cat)
        self._pieces_cache = {}
        self._euler_cache = {}

    # -- lattice / key plumbing ---------------------------------------------

    @staticmethod
    def _slots(g) -> tuple:
        return g

    @staticmethod
    def _from_slots(slots: dict, zero) -> tuple:
        return tuple(sorted(slots.items()))

    @staticmethod
    def window_check(g, key) -> None:
        """Refuse a term whose homology key has a degree outside
        [WINDOW_LO, WINDOW_HI], or whose torus lattice has a slot outside
        [WINDOW_LO, WINDOW_HI - 1]: slot m lives in degrees m and m + 1."""
        for what, points, hi in (("homology degree", key, WINDOW_HI),
                                 ("torus slot", g, WINDOW_HI - 1)):
            for m, _x in points:
                if not WINDOW_LO <= m <= hi:
                    raise WindowExceeded(f"{what} {m} outside [{WINDOW_LO}, {hi}]")

    # -- constructors -------------------------------------------------------------

    def element(self, terms) -> LinComb:
        """Combination of basis terms (lattice, key); * is productZ."""
        return LinComb(self.q, terms, self.productZ, _sdhz_str)

    def u_gen(self, A: Rep, m: int) -> LinComb:
        """Class of the stalk complex with A in degree m, its one term
        inside the window (window_check): degree m, and slot m - 1 unless A
        is projective."""
        x = self.stalk_term(A, m)
        for g, key in x.terms:
            self.window_check(g, key)
        return x

    def v_gen(self, alpha_dim, m: int) -> LinComb:
        """Torus generator for the class alpha at slot m (degrees m, m+1).

        This is the lattice basis element of the class in K_0 of acyclic
        complexes: for a module A it is exactly the class of the contractible
        complex A = A in degrees m, m+1, and it extends to arbitrary alpha
        independently of any splitting alpha = A - B.  (The quotient-of-
        objects formula [v_A][v_B]^{-1} picks up Euler factors that depend on
        the splitting in the untwisted torus; the lattice basis element is the
        canonical choice and is what the structure constants produce.)
        """
        a = self.coords(alpha_dim)
        g = ((m, a),)
        self.window_check(g, ())   # slot m, even for the zero class
        if not any(a):
            return self.unit()
        return self.term(g, ())

    # -- product ----------------------------------------------------------------

    def _product_exponents(self, t1, t2):
        """SemiDerivedAlgebra._product_exponents inside the degree window: the
        hard window is checked before the key-pair lookup, on the lowest
        nonzero degree of R_key for the key of t2 (_key_dims, no complex
        built), and every term on every call (window_check)."""
        dims = self._key_dims(t2[1])
        if dims and min(dims) - 1 < _HARD_LO:
            raise WindowExceeded("shift leaves the hard window")
        for item in super()._product_exponents(t1, t2):
            self.window_check(*item[0])
            yield item

    # -- Euler pairings of generators, by linear algebra -----------------------

    def euler_pairZ(self, spec1, spec2) -> CoeffScalar:
        """The multiplicative Euler form of two generator symbols ("u", A, m)
        and ("v", alpha, m), bilinear over their signed pieces (_pieces)."""
        e = sum(s1 * s2 * self._exponent(R, K, Y)
                for s1, R, K, _ in self._pieces(spec1) for s2, _, _, Y in self._pieces(spec2))
        return q_power(self.q, e)

    def _pieces(self, spec) -> list:
        """[(sign, R, K, X)]: the symbol is the signed sum of the complexes X,
        each with a deflation quasi-isomorphism R ->> X from a complex R with
        projective components, of acyclic kernel K.  A u-symbol is the stalk
        of A in degree m, with its resolution and P1(A) = P1(A) in degrees
        m - 1, m; a v-symbol is P = P in degrees m, m + 1 on the projective
        sums P of the positive and the negative parts of alpha's coordinates,
        each its own replacement, with K = 0.  Built once per symbol."""
        out = self._pieces_cache.get(spec)
        if out is not None:
            return out
        cat = self.cat
        kind, A, m = spec
        if kind == "u":
            P1A = cat.min_proj_resolution(A)[0]
            out = [(1, resolution(cat, A, m), contractible(cat, P1A, m - 1), stalk_cxb(cat, A, m))]
        elif kind == "v":
            out = []
            a = self.coords(A)
            for sign in (1, -1):
                P = cat.direct_sum([self.proj.projectives[j]
                                    for j, x in enumerate(a) for _ in range(sign * x)])
                if not P.is_zero():
                    X = contractible(cat, P, m)
                    out.append((sign, X, zero_complex(cat), X))
        else:
            raise ShapeError(f"unknown generator spec {kind}")
        self._pieces_cache[spec] = out
        return out

    def _exponent(self, R, K, Y) -> int:
        """log_q of the multiplicative Euler form of X against Y, for R ->> X
        with acyclic kernel K, from chain-map and homotopy dimensions
        (independent of any closed-form identity).

        Re-indexing all degrees by one t keeps Hom, homotopies and the
        shifts Y[p] that _exponent_uncached visits, so triples related by a
        common translation share one computation: the cache is keyed by the
        triple translated so that its lowest nonzero degree is 0 (a zero
        complex keys as itself, whatever the offset).  A miss is computed at
        the original degrees, so no translated complex is built."""
        triple = (R, K, Y)
        lo = min((X.lo for X in triple if X.comps), default=0)
        ck = tuple((X.lo - lo,) + X.signature()[2:] if X.comps else () for X in triple)
        e = self._euler_cache.get(ck)
        if e is None:
            e = self._euler_cache[ck] = self._exponent_uncached(R, K, Y)
        return e

    def _exponent_uncached(self, R, K, Y) -> int:
        if Y.is_zero():
            return 0
        e = self.tools.hom_dim(R, Y)
        degs = R.degrees()
        if degs:
            for p_ in range(1, Y.degrees()[-1] - degs[0] + 2):
                Yp = Y.shift(p_)
                if Yp.degrees()[-1] < degs[0] or Yp.degrees()[0] > degs[-1]:
                    continue
                d = self.tools.hom_k_dim(R, Yp)
                e += d if p_ % 2 == 0 else -d
        e -= self.tools.hom_dim(K, Y)
        return e
