"""BGP reflection at a sink as an isomorphism of reduced twisted algebras.

The reflection functor is exact on the subcategory of representations without
the sink simple as a summand.  Every basis element of the source algebra is
rewritten, inside the source algebra, in terms of a canonical representative
complex W whose components lie in that subcategory (stalk pieces for the
regular part, and for each sink-simple homology summand the two-term complex

    (+)_{j -> i} P_j  -->  tau^-(S_i)      (one-directional differential),

whose homology is the sink simple).  The map then transports W componentwise
and pushes the bookkeeping torus factors through the Weyl reflection on the
lattice.  The twisted product is the multiplicative structure, so all
conversions between the stored untwisted normal order and twisted products
carry explicit componentwise-twist exponents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cx2 import Cx2, direct_sum
from .errors import PreconditionError, ShapeError
from .linalg import FpMatrix
from .reps import Rep, RepCategory, RepMorphism
from .scalars import LinComb, q_power, v_power
from .sdh2 import SDH2Algebra


def lift_through_epi(cat: RepCategory, f: RepMorphism, e: RepMorphism) -> RepMorphism:
    """g with e o g = f, solved on the hom space (f: X -> Z, e: Y ->> Z)."""
    X, Y = f.dom, e.dom
    basis = cat.hom_basis(X, Y)
    target = f.entries_flat()
    cols = [e.compose(h).entries_flat() for h in basis]
    y = FpMatrix.from_columns(cat.p, cols, len(target)).solve(target)
    if y is None:
        raise ShapeError("no lift exists (source not projective enough)")
    return cat.morphisms_from_coeffs(X, Y, basis, y)


@dataclass
class Piece:
    """A complex with components avoiding the sink simple, together with a
    projective-component resolution P ->> X whose kernel is the contractible
    complex with lattice class ell."""
    X: Cx2
    P: Cx2
    ell: tuple


def two_term_piece(alg: SDH2Algebra, V0: Rep, V1: Rep, d: RepMorphism) -> Piece:
    """Piece for X = (V0 <-> V1) with d0 = d, d1 = 0 (V1 nonzero)."""
    cat = alg.cat
    X = Cx2(cat, V0, V1, d, cat.zero_map(V1, V0))
    P1r, P0r, incl, proj = cat.min_proj_resolution(V1)
    lift = lift_through_epi(cat, d, proj)
    M0 = cat.direct_sum([V0, P1r])
    mats = [FpMatrix.hstack([lift.mats[i], incl.mats[i]]) for i in range(cat.quiver.n)]
    d0 = RepMorphism(M0, P0r, mats)
    P = Cx2(cat, M0, P0r, d0, cat.zero_map(P0r, M0))
    zero = (0,) * cat.quiver.n
    ell = (alg.coords(P1r.dim), zero)
    tools = alg.tools
    if tools.homology_keys(P) != tools.homology_keys(X):
        raise ShapeError("piece resolution has wrong homology (engine bug)")
    return Piece(X, P, ell)


def shift_piece(p: Piece) -> Piece:
    a, b = p.ell
    return Piece(p.X.shift(), p.P.shift(), (b, a))


def class_of_pieces(alg: SDH2Algebra, pieces) -> LinComb:
    """Class of the direct sum of the pieces' complexes, via the piecewise
    deflation from projective-component complexes with contractible kernel."""
    cat = alg.cat
    if not pieces:
        return alg.unit()
    X = direct_sum([p.X for p in pieces])
    P = direct_sum([p.P for p in pieces])
    zero = (0,) * cat.quiver.n
    a = list(zero)
    b = list(zero)
    for p in pieces:
        a = [x + y for x, y in zip(a, p.ell[0])]
        b = [x + y for x, y in zip(b, p.ell[1])]
    ell = (tuple(a), tuple(b))
    elt = alg.product2(alg.torus_inverse_term(ell), alg.element_of(P))
    elt = elt.scale_scalar(q_power(alg.q, -alg.exp_g_Y(ell, X)))
    if len(elt.terms) != 1:
        raise ShapeError("piece class is not a single normal-form term (engine bug)")
    (g, key), _c = next(iter(elt.terms.items()))
    if key != alg.tools.homology_keys(X):
        raise ShapeError("piece class has wrong homology key (engine bug)")
    return elt


class SinkReflection:
    """t_i: reduced twisted SDH_{Z/2}(rep Q) -> reduced twisted SDH_{Z/2}(rep Q')."""

    def __init__(self, cat: RepCategory, sink: int):
        if not cat.quiver.is_sink(sink):
            raise PreconditionError(f"vertex {sink} is not a sink")
        if not cat.quiver.arrows_into(sink):
            # S_i is then projective-injective and tau^-(S_i) = 0, so the
            # sink piece (+)P_j -> tau^-(S_i) is 0 -> 0 and has no homology.
            raise PreconditionError(f"sink {sink} has no incoming arrow")
        self.cat = cat
        self.sink = sink
        self.cat2 = RepCategory(cat.quiver.reflect_at_sink(sink), cat.p)
        self.alg = SDH2Algebra(cat)
        self.alg2 = SDH2Algebra(self.cat2)
        self.q = cat.p
        self._xi_cache = {}
        self._image_cache = {}
        # natural mono S_i = P_i -> (+)_{j->i} P_j and its cokernel tau^-(S_i)
        Q = cat.quiver
        self.incoming = Q.arrows_into(sink)
        self.sources = [Q.arrows[a][0] for a in self.incoming]
        self.Psum = cat.direct_sum([cat.projective(j) for j in self.sources])
        Si = cat.simple(sink)
        mats = []
        for v in range(1, Q.n + 1):
            if v != sink:
                mats.append(FpMatrix.zero(cat.p, self.Psum.dim[v - 1], Si.dim[v - 1]))
                continue
            col = []
            off = 0
            for a, j in zip(self.incoming, self.sources):
                Pj = cat.projective(j)
                # basis position of the length-one path (a) inside P_j at the sink
                paths = [pe for pe in cat._paths()[j] if pe[1] == sink]
                idx = next(k for k, (path, _e) in enumerate(paths) if path == (a,))
                sub = [0] * Pj.dim[sink - 1]
                sub[idx] = 1
                col.extend(sub)
                off += Pj.dim[sink - 1]
            mats.append(FpMatrix.from_columns(cat.p, [col], len(col)))
        self.mono = RepMorphism(Si, self.Psum, mats)
        if not self.mono.check_intertwining():
            raise ShapeError("natural mono is not a morphism (engine bug)")
        img = cat.image_subspaces(self.mono)
        self.tau_minus, self.can = cat.quotient(self.Psum, img)

    # -- module/morphism transport ---------------------------------------

    def reflect_rep(self, M: Rep) -> Rep:
        return self.cat.reflect_sink(self.sink, M, self.cat2)

    def reflect_morphism(self, f: RepMorphism) -> RepMorphism:
        """Induced morphism between the reflected representations."""
        M2 = self.reflect_rep(f.dom)
        N2 = self.reflect_rep(f.cod)
        p = self.cat.p
        mats = []
        for v in range(1, self.cat.quiver.n + 1):
            if v != self.sink:
                mats.append(f.mats[v - 1])
                continue
            KM = self.cat.sink_kernel(self.sink, f.dom)
            KN = self.cat.sink_kernel(self.sink, f.cod)
            blocks = []
            for kk, sk in enumerate(self.sources):
                row = []
                for jj, sj in enumerate(self.sources):
                    if jj == kk:
                        row.append(f.mats[sk - 1])
                    else:
                        row.append(FpMatrix.zero(p, f.cod.dim[sk - 1],
                                                 f.dom.dim[sj - 1]))
                blocks.append(row)
            big = FpMatrix.block(p, blocks) if blocks else FpMatrix.zero(p, 0, 0)
            m = KN.solve_matrix(big @ KM)
            if m is None:
                raise ShapeError("reflected morphism leaves the kernel (engine bug)")
            mats.append(m)
        return RepMorphism(M2, N2, mats)

    # -- lattice transport --------------------------------------------------

    def reflect_class(self, dimvec) -> tuple:
        return self.cat.quiver.simple_reflection(self.sink, tuple(dimvec))

    def t_lattice(self, g) -> tuple:
        a, b = g
        da = self.alg.dim_of_coords(a)
        db = self.alg.dim_of_coords(b)
        return (self.alg2.coords(self.reflect_class(da)),
                self.alg2.coords(self.reflect_class(db)))

    # -- canonical pieces for a key -------------------------------------------

    def pieces_for_key(self, key) -> list:
        cat = self.cat
        Si_key = cat.intern(cat.simple(self.sink))
        pieces = []
        for degree, hk in ((0, key[0]), (1, key[1])):
            regular = []
            m_count = 0
            for summand in cat.decompose_reps(hk.rep):
                if cat.intern(summand) == Si_key:
                    m_count += 1
                else:
                    regular.append(summand)
            if regular:
                # stalk piece: two_term(0, A) has homology in degree 1
                A = cat.direct_sum(regular)
                Z = cat.zero_rep
                stalk = two_term_piece(self.alg, Z, A, cat.zero_map(Z, A))
                pieces.append(shift_piece(stalk) if degree == 0 else stalk)
            for _ in range(m_count):
                # sink piece: (+)P_j -> tau^-(S_i) has homology (S_i, 0)
                xp = two_term_piece(self.alg, self.Psum, self.tau_minus, self.can)
                pieces.append(xp if degree == 0 else shift_piece(xp))
        return pieces

    def reflect_piece(self, p: Piece) -> Piece:
        """Transport a piece componentwise (components avoid the sink simple).

        Pieces are two-term with a one-directional differential; the layout
        (plain or shifted) is read off from which differential can be nonzero
        and, for stalks, from which component is nonzero.
        """
        d0z = all(m.is_zero() for m in p.X.d0.mats)
        d1z = all(m.is_zero() for m in p.X.d1.mats)
        if not d1z or (d0z and d1z and p.X.M1.is_zero() and not p.X.M0.is_zero()):
            # shifted layout: the underlying two-term complex is the shift
            V0, V1, d = p.X.M1, p.X.M0, -p.X.d1
            return shift_piece(two_term_piece(
                self.alg2, self.reflect_rep(V0), self.reflect_rep(V1),
                self.reflect_morphism(d)))
        V0, V1, d = p.X.M0, p.X.M1, p.X.d0
        return two_term_piece(self.alg2, self.reflect_rep(V0),
                              self.reflect_rep(V1), self.reflect_morphism(d))

    # -- the map on reduced elements --------------------------------------------

    def xi(self, key) -> LinComb:
        """Image of the pure basis term (lattice 0, key); a fresh copy of the
        cached value, so callers may add to it in place."""
        ck = (key[0].sig, key[1].sig)
        out = self._xi_cache.get(ck)
        if out is None:
            out = self._xi_cache[ck] = self._xi_uncached(key)
        return out.like(out.terms)

    def _xi_uncached(self, key) -> LinComb:
        if key == self.alg.zero_key2():
            return self.alg2.reduced_unit()
        pieces = self.pieces_for_key(key)
        w_elt = class_of_pieces(self.alg, pieces)
        (h, wkey), nu = next(iter(w_elt.terms.items()))
        if wkey != key:
            raise ShapeError("canonical representative has wrong key (engine bug)")
        cw = self.alg.cw_exponent((h, self.alg.zero_key2()), (((0,) * self.cat.quiver.n,) * 2, key))
        pieces2 = [self.reflect_piece(p) for p in pieces]
        w2_elt = class_of_pieces(self.alg2, pieces2)
        th = self.t_lattice(h)
        tneg = (tuple(-x for x in th[0]), tuple(-x for x in th[1]))
        torus_red = self.alg2.reduce(self.alg2.torus_term(tneg))
        out = self.alg2.reduced_product(torus_red, self.alg2.reduce(w2_elt))
        return out.scale_scalar(nu.inverse() * v_power(self.q, cw))

    def t_hat(self, x: LinComb) -> LinComb:
        """The reflection isomorphism on a reduced twisted element, by
        linearity over its basis terms."""
        out = self.alg2.reduced_zero()
        for (c, key), coeff in x.terms.items():
            out += self._term_image(c, key).scale_scalar(coeff)
        return out

    def _term_image(self, c, key) -> LinComb:
        """t_hat of the basis term (c, key) with coefficient 1, built once per
        term; the cached value itself, so callers must not change it in place."""
        ck = (c, key[0].sig, key[1].sig)
        out = self._image_cache.get(ck)
        if out is None:
            out = self._image_cache[ck] = self._term_image_uncached(c, key)
        return out

    def _term_image_uncached(self, c, key) -> LinComb:
        zero = (0,) * self.cat.quiver.n
        cw = self.alg.cw_exponent(((c, zero), self.alg.zero_key2()), ((zero, zero), key))
        torus_red = self.alg2.reduce(self.alg2.torus_term(self.t_lattice((c, zero))))
        part = self.alg2.reduced_product(torus_red, self.xi(key))
        return part.scale_scalar(v_power(self.q, -cw))

    # -- verification suite --------------------------------------------------------

    def generator_elements(self) -> list:
        """Named reduced generators over the source algebra, total dim <= 3."""
        cat = self.cat
        out = []
        for j in range(1, cat.quiver.n + 1):
            Sj = cat.simple(j)
            out.append((f"E(S{j})", self.alg.reduce(self.alg.E_class(Sj))))
            out.append((f"F(S{j})", self.alg.reduce(self.alg.F_class(Sj))))
            out.append((f"K[S{j}]", self.alg.reduce(self.alg.K_class(Sj.dim))))
            out.append((f"K^-1[S{j}]", self.alg.reduce(self.alg.Kstar_class(Sj.dim))))
        return out

    def checks(self) -> list:
        cat = self.cat
        out = []
        # displayed formula: t_i([S_i <-> 0]) = q^{-1/2} [0 <-> S_i'] * K*_{S_i'}
        Si = cat.simple(self.sink)
        lhs = self.t_hat(self.alg.reduce(self.alg.F_class(Si)))
        Si2 = self.cat2.simple(self.sink)
        rhs = self.alg2.reduced_product(
            self.alg2.reduce(self.alg2.E_class(Si2)),
            self.alg2.reduce(self.alg2.Kstar_class(Si2.dim))).scale_scalar(
                v_power(self.q, -1))
        out.append(("t_i(F[S_sink]) = q^{-1/2} E'[S_sink'] * K*'",
                    "pass" if (lhs - rhs).is_zero() else "fail", str(lhs), str(rhs)))
        # torus bookkeeping: t_i(K_alpha) lattice = s_i(alpha)
        for j in range(1, cat.quiver.n + 1):
            Sj = cat.simple(j)
            got = self.t_hat(self.alg.reduce(self.alg.K_class(Sj.dim)))
            want = self.alg2.reduce(self.alg2.K_class(self.reflect_class(Sj.dim)))
            out.append((f"t_i(K[S{j}]) = K[s_i S{j}]",
                        "pass" if (got - want).is_zero() else "fail", str(got), str(want)))
        # exactness on the admissible part: F-classes of non-sink indecomposables
        for j in range(1, cat.quiver.n + 1):
            if j == self.sink:
                continue
            Sj = cat.simple(j)
            got = self.t_hat(self.alg.reduce(self.alg.F_class(Sj)))
            want = self.alg2.reduce(self.alg2.F_class(self.reflect_rep(Sj)))
            out.append((f"t_i(F[S{j}]) = F[s_i S{j}]",
                        "pass" if (got - want).is_zero() else "fail", str(got), str(want)))
        # involution compatibility on generators
        gens = self.generator_elements()
        for name, x in gens:
            lhs = self.t_hat(self.alg.reduced_star(x))
            rhs = self.alg2.reduced_star(self.t_hat(x))
            out.append((f"*t_i = t_i* on {name}",
                        "pass" if (lhs - rhs).is_zero() else "fail", str(lhs), str(rhs)))
        # multiplicativity on generator pairs
        for name1, x in gens:
            for name2, y in gens:
                lhs = self.t_hat(self.alg.reduced_product(x, y))
                rhs = self.alg2.reduced_product(self.t_hat(x), self.t_hat(y))
                out.append((f"t_i({name1}*{name2}) multiplicative",
                            "pass" if (lhs - rhs).is_zero() else "fail",
                            str(lhs), str(rhs)))
        return out
