"""Classical, twisted and extended Hall algebras of rep_k(Q).

Structure constants are computed by two independent routes:

* subobject counting (Hall numbers) followed by the automorphism-group
  conversion, and
* direct enumeration of extension classes from a projective resolution,
  classifying every middle term.

The two routes are cross-checked (always in the "always" profile, one
triple in 16 in the "sampled" profile); a mismatch raises ConversionMismatch
since it can only be an engine bug.
"""

from __future__ import annotations

from fractions import Fraction
from .errors import ConversionMismatch
from .linalg import FpMatrix, coset_points
from .reps import IsoClassKey, RepCategory, RepMorphism
from .scalars import CoeffScalar, v_power


class HallElement:
    """Finite linear combination of isomorphism classes."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "HallAlgebra", terms=None):
        self.algebra = algebra
        self.terms = {}
        if terms:
            for k, c in terms.items():
                if not c.is_zero():
                    self.terms[k] = c

    def __add__(self, other: "HallElement") -> "HallElement":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            out[k] = c if s is None else s + c
        return HallElement(self.algebra, out)

    def __sub__(self, other: "HallElement") -> "HallElement":
        return self + other.scale_scalar(CoeffScalar.of(self.algebra.q, -1))

    def scale_scalar(self, c: CoeffScalar) -> "HallElement":
        return HallElement(self.algebra, {k: v * c for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, HallElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __mul__(self, other: "HallElement") -> "HallElement":
        return self.algebra.twisted_product(self, other)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms):
            bits.append(f"({self.terms[k]})*[{k.label}]")
        return " + ".join(bits)


class HallAlgebra:
    def __init__(self, cat: RepCategory, cross_check: str = "always"):
        if cross_check not in ("always", "sampled"):
            raise ValueError("cross_check must be 'always' or 'sampled'")
        self.cat = cat
        self.q = cat.p
        self.cross_check = cross_check
        self._ext_cache = {}
        self._hall_cache = {}

    # -- basic elements --------------------------------------------------

    def cls(self, M) -> HallElement:
        key = M if isinstance(M, IsoClassKey) else self.cat.intern(M)
        return HallElement(self, {key: CoeffScalar.one(self.q)})

    def unit(self) -> HallElement:
        return self.cls(self.cat.zero_key())

    def zero(self) -> HallElement:
        return HallElement(self, {})

    # -- structure constants ----------------------------------------------

    def hall_number(self, quot: IsoClassKey, ambient: IsoClassKey, sub: IsoClassKey) -> int:
        """|{B' subset of ambient : B' iso sub, ambient/B' iso quot}|."""
        if tuple(a + b for a, b in zip(quot.dim, sub.dim)) != ambient.dim:
            return 0
        ck = (quot.sig, ambient.sig, sub.sig)
        if ck in self._hall_cache:
            return self._hall_cache[ck]
        C = ambient.rep
        n = 0
        for U in self.cat.submodules_with_dim(C, sub.dim):
            S, _ = self.cat.sub_rep(C, U)
            if self.cat.intern(S) != sub:
                continue
            Qt, _ = self.cat.quotient(C, U)
            if self.cat.intern(Qt) == quot:
                n += 1
        self._hall_cache[ck] = n
        return n

    def aut_count(self, key: IsoClassKey) -> int:
        return self.cat.aut_count(key.rep)

    def ext_class_counts(self, top: IsoClassKey, bottom: IsoClassKey) -> dict:
        """{middle key: |Ext^1(top, bottom)_middle|} by resolution enumeration.

        Classes of Ext^1(top, bottom) are cosets of Hom(P0, bottom) o incl
        inside Hom(P1, bottom); the middle term of a class f is the pushout
        (bottom + P0)/(f, -incl)(P1).  λ·1_bottom + 1_P0 carries the pushout
        of f to that of λf, so one class per line is classified and counted
        with its line's weight (linalg.coset_points).
        """
        ck = (top.sig, bottom.sig)
        if ck in self._ext_cache:
            return self._ext_cache[ck]
        cat = self.cat
        p = self.q
        A = top.rep
        C = bottom.rep
        P1, P0, incl, _proj = cat.min_proj_resolution(A)
        HB1 = cat.hom_basis(P1, C)
        HB0 = cat.hom_basis(P0, C)
        e1 = len(HB1)
        counts = {}
        if e1 == 0:
            D = cat.direct_sum([C, A])
            counts[cat.intern(D)] = 1
            self._ext_cache[ck] = counts
            return counts
        D = cat.direct_sum([C, P0])
        restricted = [g.compose(incl).entries_flat() for g in HB0]
        for coeffs, weight in coset_points(p, [h.entries_flat() for h in HB1], restricted):
            f = cat.morphisms_from_coeffs(HB1, coeffs)
            graph = RepMorphism(P1, D, [FpMatrix.vstack([f.mats[i], (-incl.mats[i])])
                                        for i in range(cat.quiver.n)])
            W = cat.image_subspaces(graph)
            E, _ = cat.quotient(D, W)
            k = cat.intern(E)
            counts[k] = counts.get(k, 0) + weight
        self._ext_cache[ck] = counts
        return counts

    def _riedtmann_value(self, top, bottom, middle) -> Fraction:
        g = self.hall_number(top, middle, bottom)
        if g == 0:
            return Fraction(0)
        return Fraction(g * self.aut_count(top) * self.aut_count(bottom),
                        self.aut_count(middle))

    def _should_cross_check(self, top, bottom, middle) -> bool:
        if self.cross_check == "always":
            return True
        h = hash((top.sig, bottom.sig, middle.sig))
        return h % 16 == 0

    def ext_constant(self, top: IsoClassKey, bottom: IsoClassKey,
                     middle: IsoClassKey) -> CoeffScalar:
        """|Ext^1(top, bottom)_middle| / |Hom(top, bottom)|, cross-checked
        against the Hall-number/automorphism conversion."""
        counts = self.ext_class_counts(top, bottom)
        n = counts.get(middle, 0)
        hom = self.cat.hom_dim(top.rep, bottom.rep)
        val = Fraction(n, self.q ** hom)
        if self._should_cross_check(top, bottom, middle):
            conv = self._riedtmann_value(top, bottom, middle)
            if conv != val:
                raise ConversionMismatch(
                    f"structure constant mismatch for ({top.label},{bottom.label},"
                    f"{middle.label}): counting {conv}, enumeration {val}")
        return CoeffScalar.of(self.q, val)

    def product_pair(self, top: IsoClassKey, bottom: IsoClassKey) -> HallElement:
        """[top] o [bottom] expanded in the basis."""
        counts = self.ext_class_counts(top, bottom)
        hom = self.cat.hom_dim(top.rep, bottom.rep)
        terms = {}
        for mid, n in counts.items():
            val = Fraction(n, self.q ** hom)
            if self._should_cross_check(top, bottom, mid):
                conv = self._riedtmann_value(top, bottom, mid)
                if conv != val:
                    raise ConversionMismatch(
                        f"structure constant mismatch at middle {mid.label}")
            terms[mid] = CoeffScalar.of(self.q, val)
        return HallElement(self, terms)

    # -- products ----------------------------------------------------------

    def hall_product(self, x: HallElement, y: HallElement) -> HallElement:
        out = self.zero()
        for kx, cx in x.terms.items():
            for ky, cy in y.terms.items():
                out = out + self.product_pair(kx, ky).scale_scalar(cx * cy)
        return out

    def twisted_product(self, x: HallElement, y: HallElement) -> HallElement:
        out = self.zero()
        for kx, cx in x.terms.items():
            for ky, cy in y.terms.items():
                tw = v_power(self.q, self.cat.euler_form_int(kx.dim, ky.dim))
                out = out + self.product_pair(kx, ky).scale_scalar(cx * cy * tw)
        return out


class ExtHallElement:
    """Element of the twisted extended Hall algebra, K_alpha normal-ordered left."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: HallAlgebra, terms=None):
        self.algebra = algebra
        self.terms = {}
        if terms:
            for k, c in terms.items():
                if not c.is_zero():
                    self.terms[k] = c

    @staticmethod
    def from_hall(x: HallElement) -> "ExtHallElement":
        zero_alpha = (0,) * x.algebra.cat.quiver.n
        return ExtHallElement(x.algebra, {(zero_alpha, k): c for k, c in x.terms.items()})

    @staticmethod
    def k_symbol(algebra: HallAlgebra, alpha) -> "ExtHallElement":
        key = (tuple(int(a) for a in alpha), algebra.cat.zero_key())
        return ExtHallElement(algebra, {key: CoeffScalar.one(algebra.q)})

    def __add__(self, other: "ExtHallElement") -> "ExtHallElement":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            out[k] = c if s is None else s + c
        return ExtHallElement(self.algebra, out)

    def __sub__(self, other: "ExtHallElement") -> "ExtHallElement":
        return self + other.scale_scalar(CoeffScalar.of(self.algebra.q, -1))

    def scale_scalar(self, c: CoeffScalar) -> "ExtHallElement":
        return ExtHallElement(self.algebra, {k: v * c for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtHallElement) and self.terms == other.terms

    def __mul__(self, other: "ExtHallElement") -> "ExtHallElement":
        """Twisted extended product.

        K_alpha * [B] = v^{sym(alpha, dim B)} [B] * K_alpha, with sym the
        symmetrized Euler exponent; module classes multiply by the twisted
        Hall product and K-symbols add.
        """
        alg = self.algebra
        cat = alg.cat
        out = ExtHallElement(alg, {})
        for (al, ka), ca in self.terms.items():
            for (be, kb), cb in other.terms.items():
                # move K_be across [ka]: [ka] * K_be = v^{-sym(be, dim ka)} K_be * [ka]
                sym = cat.quiver.symmetrized_euler(be, ka.dim)
                pref = v_power(alg.q, -sym)
                mods = alg.twisted_product(alg.cls(ka), alg.cls(kb))
                alpha = tuple(a + b for a, b in zip(al, be))
                for km, cm in mods.terms.items():
                    key = (alpha, km)
                    add = ca * cb * pref * cm
                    cur = out.terms.get(key)
                    tot = add if cur is None else cur + add
                    if tot.is_zero():
                        out.terms.pop(key, None)
                    else:
                        out.terms[key] = tot
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (al, k) in sorted(self.terms, key=lambda t: (t[0], t[1].sig)):
            c = self.terms[(al, k)]
            ks = f"K{list(al)}*[{k.label}]" if any(al) else f"[{k.label}]"
            bits.append(f"({c})*{ks}")
        return " + ".join(bits)


def serre_checks(algebra: HallAlgebra, gens: dict) -> list:
    """Quantum Serre relation residuals for an assignment i -> E_i.

    Returns [(name, element)] where every element must be zero; adjacency is
    read off the quiver (simply-laced assumption: at most one edge per pair).
    """
    Q = algebra.cat.quiver
    q = algebra.q
    out = []
    v = v_power(q, 1)
    vbar = v_power(q, -1)
    for i in range(1, Q.n + 1):
        for j in range(1, Q.n + 1):
            if i == j:
                continue
            Ei, Ej = gens[i], gens[j]
            if Q.adjacent(i, j):
                lhs = (Ei * Ei) * Ej \
                    - (Ei * Ej * Ei).scale_scalar(v + vbar) \
                    + Ej * (Ei * Ei)
                out.append((f"serre({i},{j})", lhs))
            elif i < j:
                out.append((f"commute({i},{j})", Ei * Ej - Ej * Ei))
    return out


def verify_ringel(cat: RepCategory, cross_check: str = "always"):
    """Check that E_i = [S_i]/(q-1) satisfies the quantum Serre relations
    in the twisted Hall algebra.  Returns [(name, status, lhs, rhs)]."""
    alg = HallAlgebra(cat, cross_check=cross_check)
    q = alg.q
    inv = CoeffScalar.of(q, Fraction(1, q - 1))
    gens = {i: alg.cls(cat.simple(i)).scale_scalar(inv)
            for i in range(1, cat.quiver.n + 1)}
    checks = []
    for name, residual in serre_checks(alg, gens):
        status = "pass" if residual.is_zero() else "fail"
        checks.append((name, status, str(residual), "0"))
    if cat.quiver.n == 1:
        checks.append(("serre(vacuous)", "pass", "0", "0"))
    return checks
