"""The Z-graded semi-derived Hall algebra of bounded complexes over rep_k(Q).

Bounded complexes (CxB) follow the complex protocol of cx2, whose Cx2Tools
solves their chain maps, homotopies, homology and extension classes.
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

from .cx2 import direct_sum, identity_morphism
from .errors import (
    ShapeError,
    SignConventionBroken,
    WindowExceeded,
)
from .reps import Rep, RepCategory, RepMorphism
from .scalars import CoeffScalar, LinComb, q_power
from .sdh import SemiDerivedAlgebra

WINDOW_LO = -8
WINDOW_HI = 8
_HARD_LO = -24
_HARD_HI = 24


class CxB:
    """Bounded complex; comps[i] sits in degree lo + i, differentials raise degree."""

    __slots__ = ("cat", "lo", "comps", "diffs", "_sig")

    def __init__(self, cat: RepCategory, lo: int, comps, diffs):
        comps = list(comps)
        diffs = list(diffs)
        # trim zero components at both ends
        while comps and comps[0].is_zero():
            comps.pop(0)
            if diffs:
                diffs.pop(0)
            lo += 1
        while comps and comps[-1].is_zero():
            comps.pop()
            if diffs:
                diffs.pop()
        self._wrap(cat, lo, comps, diffs)
        if len(self.diffs) != max(len(self.comps) - 1, 0):
            raise ShapeError("need one differential per adjacent pair")
        for i, d in enumerate(self.diffs):
            if not d.check_intertwining():
                raise ShapeError("differential is not a morphism")
            if d.dom.dim != self.comps[i].dim or d.cod.dim != self.comps[i + 1].dim:
                raise ShapeError("differential endpoints mismatch")
        for i in range(len(self.diffs) - 1):
            for m in range(cat.quiver.n):
                if not (self.diffs[i + 1].mats[m] @ self.diffs[i].mats[m]).is_zero():
                    raise SignConventionBroken("d o d != 0 in bounded complex")

    def _wrap(self, cat: RepCategory, lo: int, comps, diffs) -> None:
        """Set the fields from nonzero end components and their differentials;
        only the hard degree window is checked."""
        self.cat = cat
        self.lo = lo
        self.comps = tuple(comps)
        self.diffs = tuple(diffs)
        if comps and not (_HARD_LO <= lo and lo + len(comps) - 1 <= _HARD_HI):
            raise WindowExceeded("complex outside the hard degree window")
        self._sig = None

    @classmethod
    def _trusted(cls, cat: RepCategory, lo: int, comps, diffs) -> "CxB":
        """Wrap components with nonzero ends and differentials already known
        to form a complex, such as those of a shifted complex, skipping the
        checks of __init__ but the hard degree window."""
        X = object.__new__(cls)
        X._wrap(cat, lo, comps, diffs)
        return X

    @property
    def hi(self) -> int:
        return self.lo + len(self.comps) - 1 if self.comps else self.lo - 1

    def is_zero(self) -> bool:
        return not self.comps

    def component(self, m: int) -> Rep:
        if self.comps and self.lo <= m <= self.hi:
            return self.comps[m - self.lo]
        return self.cat.zero_rep

    def diff(self, m: int) -> RepMorphism:
        """d^m: component(m) -> component(m+1); past either end the zero map
        of the category between those components."""
        idx = m - self.lo
        if 0 <= idx < len(self.diffs):
            return self.diffs[idx]
        return self.cat.zero_map(self.component(m), self.component(m + 1))

    def degrees(self):
        return range(self.lo, self.hi + 1) if self.comps else range(0)

    @staticmethod
    def degree(m: int) -> int:
        return m

    def total_dim(self) -> int:
        return sum(c.total_dim() for c in self.comps)

    def shift(self, k: int = 1) -> "CxB":
        """Sigma^k: component(m) of the shift is component(m + k), with the
        differentials negated k times."""
        if self.is_zero():
            return self
        diffs = self.diffs if k % 2 == 0 else [-d for d in self.diffs]
        return CxB._trusted(self.cat, self.lo - k, self.comps, diffs)

    def like(self, comps: dict, mats: dict) -> "CxB":
        """comps over consecutive degrees, mats[m] for each degree but the last."""
        degs = list(comps)
        return CxB(self.cat, degs[0] if degs else 0, comps.values(),
                   [RepMorphism(comps[m], comps[m + 1], mats[m]) for m in degs[:-1]])

    def signature(self):
        if self._sig is None:
            self._sig = (self.lo if self.comps else 0,
                         tuple(c.signature() for c in self.comps),
                         tuple(tuple(m.entries_flat() for m in d.mats) for d in self.diffs))
        return self._sig

    def __eq__(self, other):
        return isinstance(other, CxB) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return f"CxB(lo={self.lo}, dims={[c.dim for c in self.comps]})"


def zero_cxb(cat: RepCategory) -> CxB:
    return CxB(cat, 0, [], [])


def stalk_cxb(cat: RepCategory, A: Rep, m: int) -> CxB:
    if A.is_zero():
        return zero_cxb(cat)
    return CxB(cat, m, [A], [])


def two_term_cxb(cat: RepCategory, m: int, dom: Rep, cod: Rep, d: RepMorphism) -> CxB:
    """Complex with dom in degree m, cod in degree m+1 and differential d."""
    return CxB(cat, m, [dom, cod], [d])


def v_complex(cat: RepCategory, A: Rep, m: int) -> CxB:
    """The contractible complex A = A concentrated in degrees m, m+1."""
    return two_term_cxb(cat, m, A, A, identity_morphism(cat, A))


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
    complex_type = CxB

    # Bound in this class body, so that a per-class trace (bench/tracer.py)
    # counts them apart from the Z/2-graded algebra's.
    productZ = SemiDerivedAlgebra.product
    normal_form = SemiDerivedAlgebra.normal_form

    def __init__(self, cat: RepCategory):
        super().__init__(cat)
        self._euler_cache = {}
        self._proj_cache = {}

    # -- lattice / key plumbing ---------------------------------------------

    @staticmethod
    def _slots(g) -> tuple:
        return g

    @staticmethod
    def _from_slots(slots: dict, zero) -> tuple:
        return tuple(sorted(slots.items()))

    def window_check_key(self, hom) -> None:
        for m, _k in hom:
            if not (WINDOW_LO <= m <= WINDOW_HI):
                raise WindowExceeded(f"homology degree {m} outside [-8, 8]")

    def window_check_lattice(self, g) -> None:
        for m, _c in g:
            if not (WINDOW_LO <= m <= WINDOW_HI):
                raise WindowExceeded(f"torus slot {m} outside [-8, 8]")

    def _representative(self, hom) -> CxB:
        parts = []
        for m, k in hom:
            P1, P0, incl, _ = self.cat.min_proj_resolution(k.rep)
            if P0.is_zero():
                continue
            parts.append(two_term_cxb(self.cat, m - 1, P1, P0, incl))
        return direct_sum(parts) if parts else zero_cxb(self.cat)

    # -- constructors -------------------------------------------------------------

    def element(self, terms) -> LinComb:
        """Combination of basis terms (lattice, key); * is productZ."""
        return LinComb(self.q, terms, self.productZ, _sdhz_str)

    def u_gen(self, A: Rep, m: int) -> LinComb:
        """Class of the stalk complex with A in degree m."""
        if A.is_zero():
            return self.unit()
        if not (WINDOW_LO <= m <= WINDOW_HI):
            raise WindowExceeded(f"u generator at degree {m} leaves the window")
        if m - 1 < WINDOW_LO and not self.cat.min_proj_resolution(A)[0].is_zero():
            raise WindowExceeded(f"u generator at degree {m} needs torus slot {m-1}")
        return self.stalk_term(A, m)

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
        if not (WINDOW_LO <= m and m + 1 <= WINDOW_HI):
            raise WindowExceeded(f"v generator at slot {m} leaves the window")
        a = self.coords(alpha_dim)
        if not any(a):
            return self.unit()
        return self.term(((m, a),), ())

    # -- product ----------------------------------------------------------------

    def _product_terms(self, t1, t2) -> dict:
        """SemiDerivedAlgebra._product_terms inside the degree window: the
        hard window is checked before the key-pair lookup, and the homology
        key, then the torus lattice, of every term on every call."""
        R2 = self.rep_of_key(t2[1])
        if not R2.is_zero() and R2.lo - 1 < _HARD_LO:
            raise WindowExceeded("shift leaves the hard window")
        out = super()._product_terms(t1, t2)
        for g, key in out:
            self.window_check_key(key)
            self.window_check_lattice(g)
        return out

    # -- Euler pairings of generators, by linear algebra -----------------------

    def _proj_replacement(self, spec) -> tuple:
        """(R, K) with a deflation quasi-isomorphism R ->> X, K acyclic kernel,
        for X a u-stalk or a concrete v-complex."""
        kind = spec[0]
        if kind == "u":
            _, A, m = spec
            P1A, P0A, incl, _ = self.cat.min_proj_resolution(A)
            R = two_term_cxb(self.cat, m - 1, P1A, P0A, incl) if not P0A.is_zero() \
                else zero_cxb(self.cat)
            K = v_complex(self.cat, P1A, m - 1) if not P1A.is_zero() else zero_cxb(self.cat)
            return R, K
        if kind == "vA":
            _, A, m = spec
            if A.is_zero():
                return zero_cxb(self.cat), zero_cxb(self.cat)
            P1A, P0A, incl, proj = self.cat.min_proj_resolution(A)
            R = v_complex(self.cat, P0A, m)
            K = v_complex(self.cat, P1A, m) if not P1A.is_zero() else zero_cxb(self.cat)
            return R, K
        raise ShapeError(f"unknown generator spec {kind}")

    def _concrete(self, spec) -> CxB:
        kind = spec[0]
        if kind == "u":
            return stalk_cxb(self.cat, spec[1], spec[2])
        if kind == "vA":
            return v_complex(self.cat, spec[1], spec[2]) if not spec[1].is_zero() \
                else zero_cxb(self.cat)
        raise ShapeError(f"unknown generator spec {kind}")

    def euler_exponent_concrete(self, spec1, spec2) -> int:
        """log_q of the multiplicative Euler form between two generator
        complexes, from chain-map/homotopy dimensions (independent of any
        closed-form identity)."""
        ck = ((spec1[0], spec1[1].signature(), spec1[2]),
              (spec2[0], spec2[1].signature(), spec2[2]))
        e = self._euler_cache.get(ck)
        if e is None:
            e = self._euler_cache[ck] = self._euler_exponent_uncached(spec1, spec2)
        return e

    def _euler_exponent_uncached(self, spec1, spec2) -> int:
        Y = self._concrete(spec2)
        R, K = self._proj_replacement(spec1)
        if Y.is_zero():
            return 0
        e = self.tools.hom_dim(R, Y)
        if not R.is_zero():
            width = (Y.hi - R.lo) if not Y.is_zero() else 0
            for p_ in range(1, width + 2):
                Yp = Y.shift(p_)
                if Yp.hi < R.lo or Yp.lo > R.hi:
                    continue
                d = self.tools.hom_k_dim(R, Yp)
                e += d if p_ % 2 == 0 else -d
        e -= self.tools.hom_dim(K, Y)
        return e

    def euler_pairZ(self, spec1, spec2) -> CoeffScalar:
        """Euler form on generator symbols; bilinear over the +/- split of
        v-type classes."""
        parts1 = self._split(spec1)
        parts2 = self._split(spec2)
        e = 0
        for s1, sign1 in parts1:
            for s2, sign2 in parts2:
                e += sign1 * sign2 * self.euler_exponent_concrete(s1, s2)
        return q_power(self.q, e)

    def _split(self, spec) -> list:
        if spec[0] == "u":
            return [(spec, 1)]
        if spec[0] == "v":
            _, alpha, m = spec
            a = self.coords(alpha)
            parts = ((tuple(max(s * x, 0) for x in a), s) for s in (1, -1))
            return [(("vA", self._proj_of_dims(c), m), s) for c, s in parts if any(c)]
        raise ShapeError(f"unknown generator spec {spec[0]}")

    def _proj_of_dims(self, coeffs) -> Rep:
        """The direct sum of coeffs[j] copies of each indecomposable
        projective P_j, built once per coefficient tuple."""
        P = self._proj_cache.get(coeffs)
        if P is None:
            parts = []
            for j, c in enumerate(coeffs):
                parts.extend([self.proj.projectives[j]] * c)
            P = self._proj_cache[coeffs] = self.cat.direct_sum(parts)
        return P
