"""The Z/2-graded semi-derived Hall algebra of rep_k(Q).

Elements are kept in normal form: every term is

    coeff * T_g . [R_key],

where g = (alpha, beta) is a point of the Grothendieck lattice of acyclic
complexes (exponents of the classes [K_{P_j}] and [K*_{P_j}] over the
indecomposable projectives), and R_key is the minimal projective-component
complex with homology pair key.  Freeness over the quantum torus makes this
a basis, so equality of elements is equality of normal forms.

All torus bookkeeping reduces to integer exponents of q:
  <K_{P_j}, X>  = q^(dim X^0 at j)          (chain maps from K_{P_j})
  <K*_{P_j}, X> = q^(dim X^1 at j)
  <X, K_{P_j}>  = q^(hom(X^1, P_j))         (X with projective components)
  <X, K*_{P_j}> = q^(hom(X^0, P_j))
with hom between projectives given by the additive Euler form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .cx2 import Cx2, Cx2Tools, minimal_complex
from .hall import serre_checks
from .reps import ProjectiveCoords, Rep, RepCategory
from .scalars import CoeffScalar, LinComb, bilinear, q_power, v_power


@dataclass(frozen=True)
class NormalForm2:
    """[X] = coeff * T_(alpha,beta) . [minimal_complex(key)]."""
    coeff: CoeffScalar
    alpha: tuple
    beta: tuple
    key: tuple


def _format_terms(terms, reduced: bool) -> str:
    def keystr(k):
        g, (h0, h1) = k
        if reduced:
            gs = f"K{list(g)}" if any(g) else ""
        else:
            a, b = g
            gs = ""
            if any(a):
                gs += f"K{list(a)}"
            if any(b):
                gs += f"K*{list(b)}"
        hs = f"[{h0.label}|{h1.label}]"
        return (gs + "." + hs) if gs else hs
    bits = []
    for k in sorted(terms, key=lambda t: (t[0], t[1][0].sig, t[1][1].sig)):
        bits.append(f"({terms[k]})*{keystr(k)}")
    return " + ".join(bits)


_plain_str = partial(_format_terms, reduced=False)
_reduced_str = partial(_format_terms, reduced=True)


class SDH2Algebra:
    def __init__(self, cat: RepCategory):
        self.cat = cat
        self.q = cat.p
        self.tools = Cx2Tools(cat)
        self.proj = ProjectiveCoords(cat)
        self.coords = self.proj.coords
        self.dim_of_coords = self.proj.dim_of_coords
        self._rep_cache = {}
        self._nf_cache = {}
        self._pair_cache = {}

    # ------------------------------------------------------------------
    # basis representatives

    def zero_key2(self) -> tuple:
        z = self.cat.zero_key()
        return (z, z)

    def rep_of_key(self, key) -> Cx2:
        ck = (key[0].sig, key[1].sig)
        R = self._rep_cache.get(ck)
        if R is None:
            R = minimal_complex(self.cat, key[0].rep, key[1].rep)
            self._rep_cache[ck] = R
        return R

    # ------------------------------------------------------------------
    # integer exponent pairings

    def exp_g_R(self, g, key) -> int:
        """log_q <K_g, R_key> for the Euler form (left acyclic argument)."""
        R = self.rep_of_key(key)
        a, b = g
        return (sum(aj * R.M0.dim[j] for j, aj in enumerate(a))
                + sum(bj * R.M1.dim[j] for j, bj in enumerate(b)))

    def exp_R_g(self, key, g) -> int:
        """log_q <R_key, K_g> (right acyclic argument; R has projective parts)."""
        R = self.rep_of_key(key)
        a, b = g
        e = 0
        for j, aj in enumerate(a):
            if aj:
                e += aj * self.cat.euler_form_int(R.M1.dim, self.proj.projectives[j].dim)
        for j, bj in enumerate(b):
            if bj:
                e += bj * self.cat.euler_form_int(R.M0.dim, self.proj.projectives[j].dim)
        return e

    def exp_g_h(self, g, h) -> int:
        """log_q of the Euler form between two acyclic lattice points."""
        return self.proj.hom_form([x + y for x, y in zip(*g)],
                                  [x + y for x, y in zip(*h)])

    def torus_euler(self, g, h) -> CoeffScalar:
        """Euler form of two acyclic lattice points, as a power of q."""
        return q_power(self.q, self.exp_g_h(g, h))

    # ------------------------------------------------------------------
    # normal form

    def normal_form(self, X: Cx2) -> NormalForm2:
        """Normal form of a projective-component complex.

        The homology pair gives the key; the acyclic direct complement is
        identified through the ranks of the differentials:
            alpha-class = [im d0] - [P1(H1)],  beta-class = [im d1] - [P1(H0)].
        """
        ck = X.signature()
        nf = self._nf_cache.get(ck)
        if nf is not None:
            return nf
        cat = self.cat
        k0, k1 = self.tools.homology_keys(X)
        rank0 = tuple(m.rank() for m in X.d0.mats)
        rank1 = tuple(m.rank() for m in X.d1.mats)
        P1H0 = cat.min_proj_resolution(k0.rep)[0]
        P1H1 = cat.min_proj_resolution(k1.rep)[0]
        alpha = self.coords(tuple(r - d for r, d in zip(rank0, P1H1.dim)))
        beta = self.coords(tuple(r - d for r, d in zip(rank1, P1H0.dim)))
        key = (k0, k1)
        coeff = q_power(self.q, self.exp_g_R((alpha, beta), key))
        nf = NormalForm2(coeff, alpha, beta, key)
        self._nf_cache[ck] = nf
        return nf

    def element_of(self, X: Cx2) -> LinComb:
        nf = self.normal_form(X)
        return self.element({((nf.alpha, nf.beta), nf.key): nf.coeff})

    # ------------------------------------------------------------------
    # element constructors

    def element(self, terms) -> LinComb:
        """Combination of basis terms ((alpha, beta), key); * is product2."""
        return LinComb(self.q, terms, self.product2, _plain_str)

    def reduced_element(self, terms) -> LinComb:
        """Element of the reduced twisted algebra, the torus lattice collapsed
        to Z^n: terms (c, key); * is reduced_product."""
        return LinComb(self.q, terms, self.reduced_product, _reduced_str)

    def unit(self) -> LinComb:
        z = (0,) * self.cat.quiver.n
        return self.term((z, z), self.zero_key2())

    def zero(self) -> LinComb:
        return self.element({})

    def term(self, g, key, coeff=None) -> LinComb:
        c = coeff if coeff is not None else CoeffScalar.one(self.q)
        return self.element({(g, key): c})

    def torus_term(self, g) -> LinComb:
        return self.term(g, self.zero_key2())

    def torus_inverse_term(self, g) -> LinComb:
        """T_g^{-1} = (1/<g,g>) T_{-g}."""
        a, b = g
        neg = (tuple(-x for x in a), tuple(-x for x in b))
        c = q_power(self.q, -self.exp_g_h(g, g))
        return self.term(neg, self.zero_key2(), c)

    def E_class(self, A: Rep) -> LinComb:
        """Class of the stalk complex (0 <-> A) with A in degree 1."""
        if A.is_zero():
            return self.unit()
        P1A, _P0A, _i, _p = self.cat.min_proj_resolution(A)
        e1 = self.coords(P1A.dim)
        z = (0,) * self.cat.quiver.n
        g = (tuple(-x for x in e1), z)
        key = (self.cat.zero_key(), self.cat.intern(A))
        coeff = q_power(self.q, -self.exp_g_h((e1, z), (e1, z)))
        return self.term(g, key, coeff)

    def F_class(self, A: Rep) -> LinComb:
        return self.star(self.E_class(A))

    def K_class(self, alpha_dim) -> LinComb:
        a = self.coords(alpha_dim)
        z = (0,) * self.cat.quiver.n
        return self.torus_term((a, z))

    def Kstar_class(self, alpha_dim) -> LinComb:
        a = self.coords(alpha_dim)
        z = (0,) * self.cat.quiver.n
        return self.torus_term((z, a))

    def star(self, x: LinComb) -> LinComb:
        """Shift involution: swaps the two torus slots and the homology pair."""
        return self.element({((b, a), (h1, h0)): c
                             for ((a, b), (h0, h1)), c in x.terms.items()})

    # ------------------------------------------------------------------
    # products

    def product2(self, x: LinComb, y: LinComb) -> LinComb:
        return bilinear(x, y, lambda s, t: self._product_terms(s, t).items())

    def _product_terms(self, t1, t2) -> dict:
        """The product of two basis terms, as a fresh {term: coefficient}
        dict.  [R1] . [R2] is cached per homology-key pair (_key_pair); the
        torus twist of g1, g2 against each term's acyclic part is applied
        here, per call."""
        g1, k1 = t1
        g2, k2 = t2
        hom, terms = self._key_pair(k1, k2)
        base_exp = (self.exp_g_R(g2, k1) - self.exp_R_g(k1, g2)
                    - self.exp_g_h(g1, g2) - hom)
        g12 = (tuple(a + b for a, b in zip(g1[0], g2[0])),
               tuple(a + b for a, b in zip(g1[1], g2[1])))
        out = {}
        for (ell, key), c in terms:
            g = (tuple(a + b for a, b in zip(g12[0], ell[0])),
                 tuple(a + b for a, b in zip(g12[1], ell[1])))
            e = base_exp - self.exp_g_h(g12, ell)
            out[(g, key)] = c * q_power(self.q, e) if e else c
        return out

    def _key_pair(self, k1, k2) -> tuple:
        """(hom_dim(R1, R2), [((ell, key), coeff), ...]) for the homology keys
        k1, k2: the middle terms of Ext^1(R1, R2), grouped by normal form
        T_ell . [R_key], each with the sum of nf.coeff * weight over its
        classes.  The coefficients are positive, so no group cancels."""
        pk = (k1[0].sig, k1[1].sig, k2[0].sig, k2[1].sig)
        cached = self._pair_cache.get(pk)
        if cached is not None:
            return cached
        R1 = self.rep_of_key(k1)
        R2 = self.rep_of_key(k2)
        hom = self.tools.hom_dim(R1, R2)
        groups = {}
        for _f, E, weight in self.tools.ext1_classes_proj(R1, R2):
            nf = self.normal_form(E)
            gk = ((nf.alpha, nf.beta), nf.key)
            c = nf.coeff.scale(weight)
            groups[gk] = groups[gk] + c if gk in groups else c
        cached = (hom, list(groups.items()))
        self._pair_cache[pk] = cached
        return cached

    def comp_class(self, term_key, degree: int) -> tuple:
        """K_0 class (dimension-vector valued) of the degree-b component of a
        normal-form term's representative complex."""
        g, key = term_key
        R = self.rep_of_key(key)
        base = R.M0.dim if degree % 2 == 0 else R.M1.dim
        a, b = g
        extra = self.dim_of_coords(tuple(x + y for x, y in zip(a, b)))
        return tuple(u + v for u, v in zip(base, extra))

    def cw_exponent(self, t1, t2) -> int:
        """log_v of the componentwise twist between two basis terms."""
        c0x = self.comp_class(t1, 0)
        c1x = self.comp_class(t1, 1)
        c0y = self.comp_class(t2, 0)
        c1y = self.comp_class(t2, 1)
        return (self.cat.euler_form_int(c0x, c0y)
                + self.cat.euler_form_int(c1x, c1y))

    def twisted_product2(self, x: LinComb, y: LinComb) -> LinComb:
        def pair(s, t):
            tw = v_power(self.q, self.cw_exponent(s, t))
            return ((k, c * tw) for k, c in self._product_terms(s, t).items())
        return bilinear(x, y, pair)

    # ------------------------------------------------------------------
    # reduction

    def _comp_sum(self, key) -> tuple:
        R = self.rep_of_key(key)
        return tuple(u + v for u, v in zip(R.M0.dim, R.M1.dim))

    def reduce(self, x: LinComb) -> LinComb:
        """Quotient by K_alpha * K_alpha^* = 1.

        Terms are stored as T_(a,b) . [R] with the untwisted torus action, but
        the reduction ideal lives in the twisted algebra, where the torus is
        the plain group algebra.  Rewriting T_(a,b) = T_(a-b,0) * T_(b,b) and
        dropping the shift-invariant factor converts the coefficient by
        q^(-<B, R^0 + R^1>) with B the class carried by the K*-slot.
        """
        out = self.reduced_element({})
        for ((a, b), key), c in x.terms.items():
            B = self.dim_of_coords(b)
            c = c * q_power(self.q, -self.cat.euler_form_int(B, self._comp_sum(key)))
            out.add_term((tuple(x1 - y1 for x1, y1 in zip(a, b)), key), c)
        return out

    def lift(self, x: LinComb) -> LinComb:
        z = (0,) * self.cat.quiver.n
        return self.element({((c, z), key): coeff for (c, key), coeff in x.terms.items()})

    def reduced_product(self, x: LinComb, y: LinComb) -> LinComb:
        return self.reduce(self.twisted_product2(self.lift(x), self.lift(y)))

    def reduced_star(self, x: LinComb) -> LinComb:
        """Shift involution on the reduced algebra.

        Computed by lifting to the K-slot, starring there (which moves the
        lattice to the K*-slot) and reducing back; the reduction conversion
        contributes q^(-<C, R^0 + R^1>) with C the class of the lattice point.
        """
        out = self.reduced_element({})
        for (c, (h0, h1)), coeff in x.terms.items():
            C = self.dim_of_coords(c)
            cc = coeff * q_power(self.q, -self.cat.euler_form_int(C, self._comp_sum((h1, h0))))
            out.add_term((tuple(-x for x in c), (h1, h0)), cc)
        return out

    def reduced_unit(self) -> LinComb:
        return self.reduce(self.unit())

    def reduced_zero(self) -> LinComb:
        return self.reduced_element({})

    # ------------------------------------------------------------------
    # quantum group relation suite

    def quantum_group_generators(self, perturb: bool = False) -> dict:
        q = self.q
        n = self.cat.quiver.n
        gens = {"E": {}, "F": {}, "K": {}, "Kinv": {}}
        for i in range(1, n + 1):
            Si = self.cat.simple(i)
            gens["E"][i] = self.reduce(self.E_class(Si)).scale_scalar(
                CoeffScalar.of(q, Fraction(1, q - 1)))
            fc = CoeffScalar(q, 0, Fraction(-1, q - 1))
            if perturb:
                fc = CoeffScalar.of(q, Fraction(1, q - 1))
            gens["F"][i] = self.reduce(self.F_class(Si)).scale_scalar(fc)
            gens["K"][i] = self.reduce(self.K_class(Si.dim))
            gens["Kinv"][i] = self.reduced_element({
                (tuple(-x for x in self.coords(Si.dim)), self.zero_key2()):
                CoeffScalar.one(q)})
        return gens

    def verify_quantum_group(self, perturb: bool = False) -> list:
        """K-E commutation, E-F commutator and quantum Serre checks for the
        generator assignment E_i = [0 <-> S_i]/(q-1), F_i = -v [S_i <-> 0]/(q-1),
        K_i = K_{S_i} in the reduced twisted algebra."""
        Q = self.cat.quiver
        q = self.q
        g = self.quantum_group_generators(perturb=perturb)
        checks = []
        comm_inv = CoeffScalar(q, 0, Fraction(1, q - 1))  # 1/(v - v^{-1})
        for i in range(1, Q.n + 1):
            for j in range(1, Q.n + 1):
                aij = Q.symmetrized_euler(self.cat.simple(i).dim, self.cat.simple(j).dim)
                lhs = g["K"][i] * g["E"][j] * g["Kinv"][i]
                rhs = g["E"][j].scale_scalar(v_power(q, aij))
                checks.append((f"K{i}E{j}K{i}^-1 = v^{aij} E{j}", lhs, rhs))
                lhsf = g["K"][i] * g["F"][j] * g["Kinv"][i]
                rhsf = g["F"][j].scale_scalar(v_power(q, -aij))
                checks.append((f"K{i}F{j}K{i}^-1 = v^-{aij} F{j}", lhsf, rhsf))
        for i in range(1, Q.n + 1):
            for j in range(1, Q.n + 1):
                lhs = g["E"][i] * g["F"][j] - g["F"][j] * g["E"][i]
                if i == j:
                    rhs = (g["K"][i] - g["Kinv"][i]).scale_scalar(comm_inv)
                else:
                    rhs = self.reduced_zero()
                checks.append((f"[E{i},F{j}]", lhs, rhs))
        for fam in ("E", "F"):
            checks += [(name, lhs, self.reduced_zero())
                       for name, lhs in serre_checks(self.cat, g[fam], f"-{fam}")]
        out = []
        for name, lhs, rhs in checks:
            status = "pass" if (lhs - rhs).is_zero() else "fail"
            out.append((name, status, str(lhs), str(rhs)))
        if Q.n == 1:
            out.append(("serre(vacuous)", "pass", "0", "0"))
        return out
