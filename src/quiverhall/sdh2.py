"""The Z/2-graded semi-derived Hall algebra of rep_k(Q).

Elements are kept in normal form (sdh.SemiDerivedAlgebra): every term is

    coeff * T_g . [R_key],

where g = (alpha, beta) is a point of the Grothendieck lattice of acyclic
complexes (exponents of the classes [K_{P_j}] and [K*_{P_j}] over the
indecomposable projectives, the torus slots 0 and 1), and R_key is the
minimal projective-component complex with homology pair key = (H0, H1).
Freeness over the quantum torus makes this a basis, so equality of elements
is equality of normal forms.  The torus pairings of sdh read, for example,
<K_{P_j}, X> = q^(dim X^0 at j) and <X, K*_{P_j}> = q^(hom(X^0, P_j)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import add

from .hall import serre_checks
from .report import check_row
from .reps import Rep
from .scalars import CoeffScalar, LinComb, bilinear, q_power, v_power
from .sdh import SemiDerivedAlgebra


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


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


_plain_str = partial(_format_terms, reduced=False)
_reduced_str = partial(_format_terms, reduced=True)


class SDH2Algebra(SemiDerivedAlgebra):
    period = 2

    # Bound in this class body, so that a per-class trace (bench/tracer.py)
    # counts them apart from the Z-graded algebra's.
    product2 = SemiDerivedAlgebra.product
    normal_form = SemiDerivedAlgebra.normal_form

    def __init__(self, cat):
        super().__init__(cat)
        self._classes_cache = {}

    # ------------------------------------------------------------------
    # lattice points and keys

    @staticmethod
    def _slots(g) -> tuple:
        return ((0, g[0]), (1, g[1]))

    @staticmethod
    def _from_slots(slots: dict, zero) -> tuple:
        return (slots.get(0, zero), slots.get(1, zero))

    @staticmethod
    def lattice_add(g, h) -> tuple:
        """The sum of two torus lattice points, slot by slot: _from_slots
        fills both slots of every point."""
        return (tuple(map(add, g[0], h[0])), tuple(map(add, g[1], h[1])))

    def _partner_pair(self, k1, k2):
        """The key pair of the shift partners ((H1, H0), (H1', H0')), if
        cached, with each term's lattice slots and key degrees swapped: the
        same hom and coefficients (sdh module docstring)."""
        cached = self._pair_cache.get(((k1[1], k1[0]), (k2[1], k2[0])))
        if cached is None:
            return None
        hom, terms = cached
        return hom, [(((ell[1], ell[0]), (key[1], key[0])), c) for (ell, key), c in terms]

    def zero_key2(self) -> tuple:
        z = self.cat.zero_key()
        return (z, z)

    def torus_euler(self, g, h) -> CoeffScalar:
        """Euler form of two acyclic lattice points, as a power of q."""
        return q_power(self.q, self.exp_g_h(g, h))

    # ------------------------------------------------------------------
    # element constructors

    def element(self, terms) -> LinComb:
        """Combination of basis terms ((alpha, beta), key); * is product2."""
        return LinComb(self.q, terms, self.product2, _plain_str)

    def reduced_element(self, terms) -> LinComb:
        """Element of the reduced twisted algebra, the torus lattice collapsed
        to Z^n: terms (c, key); * is reduced_product."""
        return LinComb(self.q, terms, self.reduced_product, _reduced_str)

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
        return self.stalk_term(A, 1)

    def F_class(self, A: Rep) -> LinComb:
        """Class of the stalk complex (A <-> 0) with A in degree 0."""
        return self.stalk_term(A, 0)

    def K_class(self, alpha_dim) -> LinComb:
        return self.torus_term((self.coords(alpha_dim), self._zero))

    def Kstar_class(self, alpha_dim) -> LinComb:
        return self.torus_term((self._zero, self.coords(alpha_dim)))

    def star(self, x: LinComb) -> LinComb:
        """Shift involution: swaps the two torus slots and the homology pair."""
        return self.element({((b, a), (h1, h0)): c
                             for ((a, b), (h0, h1)), c in x.terms.items()})

    # ------------------------------------------------------------------
    # componentwise twist

    def comp_classes(self, term_key) -> tuple:
        """K_0 classes (dimension-vector valued) of the degree-0 and degree-1
        components of a normal-form term's representative complex; computed
        once per term."""
        out = self._classes_cache.get(term_key)
        if out is None:
            g, key = term_key
            R = self.rep_of_key(key)
            extra = self.dim_of_coords(tuple(x + y for x, y in zip(*g)))
            out = self._classes_cache[term_key] = tuple(
                tuple(u + v for u, v in zip(M.dim, extra)) for M in R.comps)
        return out

    def cw_exponent(self, t1, t2) -> int:
        """log_v of the componentwise twist between two basis terms."""
        (a0, a1), (b0, b1) = self.comp_classes(t1), self.comp_classes(t2)
        euler = self.cat.euler_form_int
        return euler(a0, b0) + euler(a1, b1)

    def _twisted_exponents(self, s, t):
        """The twisted product of two basis terms as (term, c, n) items: it is
        the sum of c * v^n * term, where n = cw_exponent(s, t) + 2e over the
        items (term, c, e) of _product_exponents(s, t)."""
        cw = self.cw_exponent(s, t)
        for term, c, e in self._product_exponents(s, t):
            yield term, c, cw + 2 * e

    def twisted_product2(self, x: LinComb, y: LinComb) -> LinComb:
        q = self.q

        def pair(s, t):
            for term, c, n in self._twisted_exponents(s, t):
                yield term, c * v_power(q, n) if n else c
        return bilinear(x, y, pair)

    # ------------------------------------------------------------------
    # reduction

    def _comp_sum(self, key) -> tuple:
        R = self.rep_of_key(key)
        return tuple(map(sum, zip(*(M.dim for M in R.comps))))

    def reduce(self, x: LinComb) -> LinComb:
        """Quotient by K_alpha * K_alpha^* = 1.

        Terms are stored as T_(a,b) . [R] with the untwisted torus action, but
        the reduction ideal lives in the twisted algebra, where the torus is
        the plain group algebra.  Rewriting T_(a,b) = T_(a-b,0) * T_(b,b) and
        dropping the shift-invariant factor converts the coefficient by
        q^(-<B, R^0 + R^1>) with B the class carried by the K*-slot.  B is
        the sum of the b_j P_j, and <P_j, M> = dim M_j on a hereditary path
        algebra, so the exponent is the dot product of b with dim R^0 + R^1.
        """
        out = self.reduced_element({})
        for ((a, b), key), c in x.terms.items():
            c = c * q_power(self.q, -_dot(b, self._comp_sum(key)))
            out.add_term((tuple(x1 - y1 for x1, y1 in zip(a, b)), key), c)
        return out

    def lift(self, x: LinComb) -> LinComb:
        z = self._zero
        return self.element({((c, z), key): coeff for (c, key), coeff in x.terms.items()})

    def reduced_product(self, x: LinComb, y: LinComb) -> LinComb:
        """The product of the reduced twisted algebra,
        reduce(twisted_product2(lift(x), lift(y))), in one pass.

        Lift the reduced terms s, t to the K-slot as s', t'.  twisted_product2
        gives s' * t' = sum of c v^n T_(a,b) . [R_key] over the items
        (T_(a,b) . [R_key], c, n) of _twisted_exponents(s', t').  reduce
        takes T_(a,b) . [R_key] to q^(-<B, R_key^0 + R_key^1>) times the
        reduced term (a - b, key), B the class of b.  So each item adds
        c * v^n' to (a - b, key), with the one integer exponent

            n' = n - 2 <B, R_key^0 + R_key^1>,

        (the dot product of b with dim R_key^0 + R_key^1, as in reduce) and
        its scalar is multiplied once, by v^n', instead of once per stage.
        The composed route is the oracle of this one (tests/test_sdh2.py).
        """
        q, z = self.q, self._zero

        def pair(s, t):
            for ((a, b), key), c, n in self._twisted_exponents(((s[0], z), s[1]),
                                                               ((t[0], z), t[1])):
                n -= 2 * _dot(b, self._comp_sum(key))
                yield (tuple(i - j for i, j in zip(a, b)), key), c * v_power(q, n) if n else c
        return bilinear(x, y, pair)

    def reduced_star(self, x: LinComb) -> LinComb:
        """Shift involution on the reduced algebra: lift to the K-slot, star
        there (which moves the lattice to the K*-slot) and reduce back."""
        return self.reduce(self.star(self.lift(x)))

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
                checks.append(check_row(f"K{i}E{j}K{i}^-1 = v^{aij} E{j}", lhs, rhs))
                lhsf = g["K"][i] * g["F"][j] * g["Kinv"][i]
                rhsf = g["F"][j].scale_scalar(v_power(q, -aij))
                checks.append(check_row(f"K{i}F{j}K{i}^-1 = v^-{aij} F{j}", lhsf, rhsf))
        for i in range(1, Q.n + 1):
            for j in range(1, Q.n + 1):
                lhs = g["E"][i] * g["F"][j] - g["F"][j] * g["E"][i]
                if i == j:
                    rhs = (g["K"][i] - g["Kinv"][i]).scale_scalar(comm_inv)
                else:
                    rhs = self.reduced_zero()
                checks.append(check_row(f"[E{i},F{j}]", lhs, rhs))
        for fam in ("E", "F"):
            checks += [check_row(name, lhs, self.reduced_zero())
                       for name, lhs in serre_checks(self.cat, g[fam], f"-{fam}")]
        if Q.n == 1:
            checks.append(check_row("serre(vacuous)", self.reduced_zero(), self.reduced_zero()))
        return checks
