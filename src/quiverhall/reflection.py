"""BGP reflection at a sink as an isomorphism of reduced twisted algebras.

The reflection functor s_i at the sink i is exact on the subcategory of
representations without the sink simple S_i as a summand.  The image of a
basis term [R_key] is found through a representative W of the homology
class key = (H_0, H_1) whose components lie in that subcategory: per degree
d, a stalk piece with the summands A of H_d other than S_i, and per copy of
S_i in H_d a sink piece, the two-term complex

    Psum = (+)_{j -> i} P_j  --can-->  tau^-(S_i)      (d1 = 0)

whose homology is S_i = ker can in degree 0, shifted for d = 1.  The map
transports W componentwise to a complex W' over Q' and pushes the torus
factors through the Weyl reflection on the lattice.  The twisted product is
the multiplicative structure, so all conversions between the stored
untwisted normal order and twisted products carry explicit
componentwise-twist exponents.

The class of W, and of W', is read off dimension data.  A two-term piece
X = (V0 --d--> V1), V0 projective, with the minimal resolution
0 -> P1 --incl--> P0 --proj--> V1 -> 0, is the quotient of the
projective-component complex

    P = (V0 (+) P1  --[lift | incl]-->  P0),      proj o lift = d,

by the deflation (first projection, proj) whose kernel, P1 --incl--> ker
proj, is contractible with lattice class ell = (coords(P1), 0).  So

    [X] = q^(-<ell, X>) T_ell^(-1) . [P],

and [P] is the normal form of P (sdh.SemiDerivedAlgebra._normal_term), which
needs only:
  * dim P^0 = dim V0 + dim P1 and dim P^1 = dim P0;
  * rank d^P = dim P1 + rank d, because im d^P = proj^(-1)(im d)
    (im incl = ker proj and proj o lift = d); the other differential is 0;
  * H(P) = H(X), the kernel of the deflation being acyclic.
A shift swaps both components, both ranks and both slots of ell, and a
direct sum adds them all, so W needs no complex built, no lift solved and
no homology computed.  The pieces:
  * stalk of A: V0 = 0, V1 = A, d = 0, homology A in degree 1, shifted for
    d = 0; dim P1(A) is the sum over the parts of A (IsoClassKey.parts).
    Over Q' it is the stalk of s_i A, the sum of the reflected parts.
  * sink piece: can is onto, so rank d^P = dim P0(tau^-).  s_i is left
    exact, and R s_i M = coker((+)_{j -> i} M_j -> M_i) is 0 on Psum (no
    S_i summand) and S_i' on S_i, so s_i takes 0 -> S_i -> Psum -> tau^- -> 0
    to 0 -> s_i Psum -> s_i tau^- -> S_i' -> 0.  Over Q' the piece has
    V0 = s_i Psum (projective: s_i P_j = P'_j for j != i), V1 = s_i tau^-
    and d injective with cokernel S_i' in degree 1 (0 when shifted), so
    rank d^P = dim P1(s_i tau^-) + dim s_i Psum.
By Krull-Schmidt, H'_e is then the sum of the reflected parts of H_e other
than S_i and one S_i' per copy of S_i in H_(1-e) (RepCategory.sum_key).
tests/oracles.py keeps the route that builds every piece, lifts it,
transports it with the reflected morphisms and reads its class off its
homology (xi_by_pieces) as the oracle of xi.
"""

from __future__ import annotations

from .errors import PreconditionError, ShapeError
from .linalg import FpMatrix
from .report import check_row
from .reps import Rep, RepCategory, RepMorphism
from .scalars import LinComb, q_power, v_power
from .sdh2 import SDH2Algebra


def _two_term(v0, v1, p1, p0, rank, shifted: bool) -> tuple:
    """The dimension data (X, P, ranks of P, ell), each a pair of dimension
    vectors over the degrees 0, 1, of the piece (V0 --d--> V1) of the module
    docstring: V0, V1 of dimension v0, v1, d of rank rank, and V1 resolved
    by P1 -> P0 of dimensions p1, p0; swapped when shifted."""
    zero = (0,) * len(v0)
    data = ((v0, v1), (_add(v0, p1), p0), (_add(p1, rank), zero), (p1, zero))
    return tuple((b, a) for a, b in data) if shifted else data


def _add(*vectors) -> tuple:
    return tuple(map(sum, zip(*vectors)))


def _stalk(cat: RepCategory, parts: list, shifted: bool) -> tuple:
    """_two_term data of the stalk piece 0 -> (+) parts, its resolution
    read off the tops of the parts (RepCategory.resolution_dims)."""
    res = [cat.resolution_dims(S) for S in parts]
    zero = (0,) * cat.quiver.n
    return _two_term(zero, _add(*(S.dim for S in parts)), _add(*(r[0] for r in res)),
                     _add(*(r[1] for r in res)), zero, shifted)


def _class_of_pieces(alg: SDH2Algebra, pieces: list, key) -> LinComb:
    """[X] = q^(-<ell, X>) T_ell^(-1) . [P] for X, P and ell the direct sums
    of the pieces' (_two_term data), key the homology of X."""
    x, p, rank, ell = ([_add(*(pc[f][m] for pc in pieces)) for m in (0, 1)]
                       for f in range(4))
    ell = (alg.coords(ell[0]), alg.coords(ell[1]))
    coeff, g, pkey = alg._normal_term({0: p[0], 1: p[1]}, {0: rank[0], 1: rank[1]},
                                      {m: k for m, k in enumerate(key) if any(k.dim)})
    elt = alg.product2(alg.torus_inverse_term(ell), alg.term(g, pkey, coeff))
    return elt.scale_scalar(q_power(alg.q, -sum(
        c * d for m in (0, 1) for c, d in zip(ell[m], x[m]))))


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
        mats = [FpMatrix.zero(cat.p, self.Psum.dim[v], Si.dim[v]) for v in range(Q.n)]
        # Q is acyclic, so (P_j)_j is the trivial path alone, and the matrix
        # of a: j -> i in P_j is the column of the path (a)
        mats[sink - 1] = FpMatrix.vstack([cat.projective(j).maps[a]
                                          for a, j in zip(self.incoming, self.sources)])
        self.mono = RepMorphism(Si, self.Psum, mats)
        if not self.mono.check_intertwining():
            raise ShapeError("natural mono is not a morphism (engine bug)")
        img = cat.image_subspaces(self.mono)
        self.tau_minus, self.can = cat.quotient(self.Psum, img)
        # the sink piece over Q and over Q', plain and shifted (_two_term)
        self._si_sig = cat.intern(Si).parts[0].signature()
        self._si2_key = self.cat2.intern(self.cat2.simple(sink))
        tau, Psum2 = self.tau_minus, self.reflect_rep(self.Psum)
        tau2 = self.reflect_rep(tau)
        p1, p0 = cat.resolution_dims(tau)
        p1b, p0b = self.cat2.resolution_dims(tau2)
        self._sink_pieces = [
            (_two_term(self.Psum.dim, tau.dim, p1, p0, tau.dim, d == 1),
             _two_term(Psum2.dim, tau2.dim, p1b, p0b, Psum2.dim, d == 1))
            for d in (0, 1)]

    # -- module transport ----------------------------------------------------

    def reflect_rep(self, M: Rep) -> Rep:
        return self.cat.reflect_sink(self.sink, M, self.cat2)

    # -- lattice transport --------------------------------------------------

    def reflect_class(self, dimvec) -> tuple:
        return self.cat.quiver.simple_reflection(self.sink, tuple(dimvec))

    def t_lattice(self, g) -> tuple:
        a, b = g
        da = self.alg.dim_of_coords(a)
        db = self.alg.dim_of_coords(b)
        return (self.alg2.coords(self.reflect_class(da)),
                self.alg2.coords(self.reflect_class(db)))

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
        """xi by the dimension data of the pieces of key and of their images
        (module docstring)."""
        if key == self.alg.zero_key2():
            return self.alg2.reduced_unit()
        cat, cat2 = self.cat, self.cat2
        pieces, pieces2, keys2 = [], [], ([], [])
        for d in (0, 1):
            regular = [S for S in key[d].parts if S.signature() != self._si_sig]
            if regular:
                reflected = [self.reflect_rep(S) for S in regular]
                pieces.append(_stalk(cat, regular, d == 0))
                pieces2.append(_stalk(cat2, reflected, d == 0))
                keys2[d].extend(cat2.intern(S) for S in reflected)
            m = len(key[d].parts) - len(regular)
            sink, sink2 = self._sink_pieces[d]
            pieces += [sink] * m
            pieces2 += [sink2] * m
            keys2[1 - d].extend([self._si2_key] * m)
        w_elt = _class_of_pieces(self.alg, pieces, key)
        [((h, _key), nu)] = w_elt.terms.items()
        cw = self.alg.cw_exponent((h, self.alg.zero_key2()), (((0,) * cat.quiver.n,) * 2, key))
        w2_elt = _class_of_pieces(self.alg2, pieces2, tuple(map(cat2.sum_key, keys2)))
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
        out.append(check_row("t_i(F[S_sink]) = q^{-1/2} E'[S_sink'] * K*'", lhs, rhs))
        # torus bookkeeping: t_i(K_alpha) lattice = s_i(alpha)
        for j in range(1, cat.quiver.n + 1):
            Sj = cat.simple(j)
            got = self.t_hat(self.alg.reduce(self.alg.K_class(Sj.dim)))
            want = self.alg2.reduce(self.alg2.K_class(self.reflect_class(Sj.dim)))
            out.append(check_row(f"t_i(K[S{j}]) = K[s_i S{j}]", got, want))
        # exactness on the admissible part: F-classes of non-sink indecomposables
        for j in range(1, cat.quiver.n + 1):
            if j == self.sink:
                continue
            Sj = cat.simple(j)
            got = self.t_hat(self.alg.reduce(self.alg.F_class(Sj)))
            want = self.alg2.reduce(self.alg2.F_class(self.reflect_rep(Sj)))
            out.append(check_row(f"t_i(F[S{j}]) = F[s_i S{j}]", got, want))
        # involution compatibility on generators
        gens = self.generator_elements()
        for name, x in gens:
            lhs = self.t_hat(self.alg.reduced_star(x))
            rhs = self.alg2.reduced_star(self.t_hat(x))
            out.append(check_row(f"*t_i = t_i* on {name}", lhs, rhs))
        # multiplicativity on generator pairs
        for name1, x in gens:
            for name2, y in gens:
                lhs = self.t_hat(self.alg.reduced_product(x, y))
                rhs = self.alg2.reduced_product(self.t_hat(x), self.t_hat(y))
                out.append(check_row(f"t_i({name1}*{name2}) multiplicative", lhs, rhs))
        return out
