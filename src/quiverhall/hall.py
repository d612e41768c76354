"""Classical, twisted and extended Hall algebras of rep_k(Q).

Structure constants are computed by two independent routes:

* subobject counting (Hall numbers) followed by the automorphism-group
  conversion, and
* direct enumeration of extension classes from a projective resolution,
  classifying every middle term.  dim Ext^1(A, C) = hom(A, C) - <A, C> is
  read first, so the scan guard trips before any resolution is built and a
  pair with Ext^1 = 0 returns its split class alone.

The two routes are cross-checked (always in the "always" profile, one
triple in 16 in the "sampled" profile); a mismatch raises ConversionMismatch
since it can only be an engine bug.  Where a Hall number is wanted for every
triple (the --table rows), it is read back from the extension route's
constant by Riedtmann's formula, so subobjects are counted only on the
triples that are cross-checked.  Counting needs middle terms within
ENUM_DIM_GUARD (total dimension 6), so a table whose bound exceeds it is
rejected (exit 2) before any enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from .errors import ConversionMismatch
from .linalg import FpMatrix
from .report import check_row
from .reps import IsoClassKey, RepCategory, RepMorphism, check_scan
from .scalars import CoeffScalar, LinComb, bilinear, q_power, v_power


def _hall_str(terms) -> str:
    return " + ".join(f"({terms[k]})*[{k.label}]" for k in sorted(terms))


def _ext_str(terms) -> str:
    bits = []
    for (al, k) in sorted(terms, key=lambda t: (t[0], t[1].sig)):
        ks = f"K{list(al)}*[{k.label}]" if any(al) else f"[{k.label}]"
        bits.append(f"({terms[(al, k)]})*{ks}")
    return " + ".join(bits)


class HallAlgebra:
    def __init__(self, cat: RepCategory, cross_check: str = "always"):
        if cross_check not in ("always", "sampled"):
            raise ValueError("cross_check must be 'always' or 'sampled'")
        self.cat = cat
        self.q = cat.p
        self.cross_check = cross_check

    # -- basic elements --------------------------------------------------

    def element(self, terms) -> LinComb:
        """Combination of iso classes; * is the twisted product."""
        return LinComb(self.q, terms, self.twisted_product, _hall_str)

    def cls(self, M) -> LinComb:
        key = M if isinstance(M, IsoClassKey) else self.cat.intern(M)
        return self.element({key: CoeffScalar.one(self.q)})

    def unit(self) -> LinComb:
        return self.cls(self.cat.zero_key())

    def zero(self) -> LinComb:
        return self.element({})

    # -- structure constants ----------------------------------------------

    def hall_number(self, quot: IsoClassKey, ambient: IsoClassKey, sub: IsoClassKey) -> int:
        """|{B' subset of ambient : B' iso sub, ambient/B' iso quot}|."""
        if tuple(a + b for a, b in zip(quot.dim, sub.dim)) != ambient.dim:
            return 0
        return self.cat.hall_count(quot.rep, ambient.rep, sub.rep)

    def aut_count(self, key: IsoClassKey) -> int:
        return self.cat.aut_count(key.rep)

    def ext_class_counts(self, top: IsoClassKey, bottom: IsoClassKey) -> dict:
        """{middle key: |Ext^1(top, bottom)_middle|} by resolution enumeration.

        On an acyclic quiver dim Ext^1(A, C) = dim Hom(A, C) - <dim A, dim C>,
        and hom_dim of two keys adds up their cached summand classes, so the
        "extension-class enumeration" guard (check_scan) bounds the
        p^(dim Ext^1) classes before any resolution is built.  When
        Ext^1 = 0 the split class is the only one, and no Hom from the
        cover is solved.  Otherwise the classes of Ext^1(top, bottom) are
        cosets of Hom(P0, bottom) o incl inside Hom(P1, bottom); the middle
        term of a class f is the pushout (bottom + P0)/(f, -incl)(P1).
        λ·1_bottom + 1_P0 carries the pushout of f to that of λf, so one
        class per nonzero line of the quotient is classified and counted
        with its line's weight (KrullSchmidt.lines, whose guard reads the
        same exponent off the quotient, though Hom(P0, bottom) o incl may be
        spanned dependently).  The split class (the zero coset) has middle
        bottom + top, whose key RepCategory.sum_key reads off the parts of
        the two keys; every other middle is interned, which classifies it
        by its hom vector on a Dynkin table and by its Fitting decomposition
        otherwise.  Nothing is cached: SemiDerivedAlgebra._key_pair caches
        the stalk pairs that call it, and a Hall product asks for a pair of
        keys about once.
        """
        cat = self.cat
        p = self.q
        A = top.rep
        C = bottom.rep
        ext = cat.hom_dim(A, C) - cat.euler_form_int(A.dim, C.dim)
        check_scan("extension-class enumeration", p, ext)
        counts = {cat.sum_key([bottom, top]): 1}
        if not ext:
            return counts
        P1, P0, incl, _proj = cat.min_proj_resolution(A)
        HB1 = cat.hom_basis(P1, C)
        HB0 = cat.hom_basis(P0, C)
        D = cat.direct_sum([C, P0])
        restricted = [g.compose(incl).entries_flat() for g in HB0]
        for f, weight in cat.lines(P1, C, HB1, "extension-class enumeration", restricted):
            graph = RepMorphism(P1, D, [FpMatrix.vstack([f.mats[i], (-incl.mats[i])])
                                        for i in range(cat.quiver.n)])
            k = cat.intern(cat.quotient_object(D, cat.image_subspaces(graph)))
            counts[k] = counts.get(k, 0) + weight
        return counts

    def _riedtmann_value(self, top, bottom, middle) -> Fraction:
        return self.cat.riedtmann(self.hall_number(top, middle, bottom),
                                  top.rep, middle.rep, bottom.rep)

    def riedtmann_hall_number(self, top, bottom, middle, const: CoeffScalar) -> int:
        """g^middle_{top,bottom} = const * |Aut middle| / (|Aut top| |Aut bottom|)
        for const = |Ext^1(top, bottom)_middle| / |Hom(top, bottom)| (Riedtmann),
        the inverse of _riedtmann_value.  A √q part or a value that is not a
        non-negative integer raises ConversionMismatch: it can only be an
        engine bug."""
        g, r = divmod(const.A * self.aut_count(middle),
                      const.D * self.aut_count(top) * self.aut_count(bottom))
        if const.B or g < 0 or r:
            raise ConversionMismatch(f"Riedtmann Hall number from constant {const} "
                                     f"is not a non-negative integer at middle {middle.label}")
        return g

    def _should_cross_check(self, top, bottom, middle) -> bool:
        if self.cross_check == "always":
            return True
        h = hash((top.sig, bottom.sig, middle.sig))
        return h % 16 == 0

    def product_pair(self, top: IsoClassKey, bottom: IsoClassKey) -> LinComb:
        """[top] o [bottom] expanded in the basis."""
        counts = self.ext_class_counts(top, bottom)
        # The counts add up to |Ext^1| = q^(hom - <top, bottom>), so n / |Hom|
        # is (n / total) q^(-<top, bottom>), with no second hom_dim.
        total = sum(counts.values())
        inv = q_power(self.q, -self.cat.euler_form_int(top.dim, bottom.dim))
        terms = {}
        for mid, n in counts.items():
            val = inv.scale(Fraction(n, total))
            if self._should_cross_check(top, bottom, mid):
                conv = self._riedtmann_value(top, bottom, mid)
                if CoeffScalar.of(self.q, conv) != val:
                    raise ConversionMismatch(
                        f"structure constant mismatch at middle {mid.label}")
            terms[mid] = val
        return self.element(terms)

    # -- products ----------------------------------------------------------

    def _twisted_pair(self, top, bottom, e: int):
        """Terms of v^e [top] o [bottom]."""
        tw = v_power(self.q, e)
        return ((k, c * tw) for k, c in self.product_pair(top, bottom).terms.items())

    def twisted_product(self, x: LinComb, y: LinComb) -> LinComb:
        return bilinear(x, y, lambda a, b: self._twisted_pair(
            a, b, self.cat.euler_form_int(a.dim, b.dim)))

    # -- extended algebra ----------------------------------------------------
    # Elements of the twisted extended Hall algebra are combinations of
    # K_alpha * [M], keyed (alpha, M), with the K-symbol normal-ordered left.

    def extended_element(self, terms) -> LinComb:
        return LinComb(self.q, terms, self.extended_product, _ext_str)

    def extended(self, x: LinComb) -> LinComb:
        """A Hall element as an element of the extended algebra."""
        zero_alpha = (0,) * self.cat.quiver.n
        return self.extended_element({(zero_alpha, k): c for k, c in x.terms.items()})

    def k_symbol(self, alpha) -> LinComb:
        key = (tuple(int(a) for a in alpha), self.cat.zero_key())
        return self.extended_element({key: CoeffScalar.one(self.q)})

    def extended_product(self, x: LinComb, y: LinComb) -> LinComb:
        """Twisted extended product.

        K_alpha * [B] = v^{sym(alpha, dim B)} [B] * K_alpha, with sym the
        symmetrized Euler exponent; module classes multiply by the twisted
        Hall product and K-symbols add.
        """
        sym = self.cat.quiver.symmetrized_euler

        def pair(s, t):
            (al, ka), (be, kb) = s, t
            alpha = tuple(a + b for a, b in zip(al, be))
            # move K_be across [ka]: [ka] * K_be = v^{-sym(be, dim ka)} K_be * [ka]
            e = self.cat.euler_form_int(ka.dim, kb.dim) - sym(be, ka.dim)
            return (((alpha, k), c) for k, c in self._twisted_pair(ka, kb, e))

        return bilinear(x, y, pair)


def serre_checks(cat: RepCategory, gens: dict, tag: str = "") -> list:
    """Quantum Serre relation residuals for an assignment i -> E_i.

    Returns [(name, element)] where every element must be zero.  The Cartan
    entry a_ij = -(number of arrows between i and j) is read off the quiver;
    for a pair with no arrows the relation is the commutator, checked once.
    """
    n = cat.quiver.n
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            a = cat.quiver.symmetrized_euler(cat.simple(i).dim, cat.simple(j).dim)
            if a or i < j:
                kind = "serre" if a else "commute"
                out.append((f"{kind}{tag}({i},{j})", gens[i].serre(gens[j], a)))
    return out


def verify_ringel(cat: RepCategory):
    """Check that E_i = [S_i]/(q-1) satisfies the quantum Serre relations
    in the twisted Hall algebra.  Returns report rows (report.check_row)."""
    alg = HallAlgebra(cat)
    q = alg.q
    inv = CoeffScalar.of(q, Fraction(1, q - 1))
    gens = {i: alg.cls(cat.simple(i)).scale_scalar(inv)
            for i in range(1, cat.quiver.n + 1)}
    checks = [check_row(name, residual, alg.zero())
              for name, residual in serre_checks(cat, gens)]
    if cat.quiver.n == 1:
        checks.append(check_row("serre(vacuous)", alg.zero(), alg.zero()))
    return checks
