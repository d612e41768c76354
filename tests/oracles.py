"""Test oracles: helpers that tests use to check the engine's behaviour, but
that the engine itself never calls.  Those that read an engine object (a
RepCategory, a Cx2Tools, a HallAlgebra, a semi-derived algebra or a
SinkReflection) take it as their first argument.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from typing import Iterable

from quiverhall.cx2 import Complex, Cx2, direct_sum, squares_to_zero
from quiverhall.errors import ShapeError
from quiverhall.hall import HallAlgebra
from quiverhall.linalg import FpMatrix
from quiverhall.reflection import SinkReflection
from quiverhall.report import FIELDS
from quiverhall.reps import Rep, RepCategory, RepMorphism, check_count, check_scan
from quiverhall.scalars import LinComb, bilinear, q_power, v_power
from quiverhall.sdh2 import SDH2Algebra


class FractionScalar:
    """a + b*sqrt(q) with a, b Fractions: the reference for the integer
    scalars.CoeffScalar.  Each ring operation is the textbook formula on the
    pair (a, b), which is unique because sqrt(q) is irrational."""

    __slots__ = ("q", "a", "b")

    def __init__(self, q: int, a=0, b=0):
        self.q, self.a, self.b = q, Fraction(a), Fraction(b)

    def __add__(self, o):
        return FractionScalar(self.q, self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return FractionScalar(self.q, self.a - o.a, self.b - o.b)

    def __neg__(self):
        return FractionScalar(self.q, -self.a, -self.b)

    def __mul__(self, o):
        return FractionScalar(self.q, self.a * o.a + self.q * self.b * o.b,
                              self.a * o.b + self.b * o.a)

    def scale(self, r):
        return FractionScalar(self.q, self.a * Fraction(r), self.b * Fraction(r))

    def inverse(self):
        norm = self.a * self.a - self.q * self.b * self.b
        return FractionScalar(self.q, self.a / norm, -self.b / norm)

    def __eq__(self, o):
        return (self.q, self.a, self.b) == (o.q, o.a, o.b)

    def __hash__(self):
        return hash((self.q, self.a, self.b))

    def __str__(self):
        return format_fraction_scalar(self)


def format_fraction_scalar(x: FractionScalar) -> str:
    """The rendering scalars.format_scalar must reproduce: '1', '-1/2', 'v',
    '1/2+3*v', with each part printed as its Fraction."""
    if not x.a and not x.b:
        return "0"
    parts = []
    if x.a != 0:
        parts.append(str(x.a))
    if x.b != 0:
        if x.b == 1:
            bs = "v"
        elif x.b == -1:
            bs = "-v"
        else:
            bs = f"{x.b}*v"
        if parts and not bs.startswith("-"):
            parts.append("+" + bs)
        else:
            parts.append(bs)
    return "".join(parts)


def stalk_cx2(cat: RepCategory, A: Rep, degree: int) -> Complex:
    """Stalk complex with A in the given degree (0 or 1)."""
    Z = cat.zero_rep
    if degree % 2 == 0:
        return Cx2(cat, A, Z, cat.zero_map(A, Z), cat.zero_map(Z, A))
    return Cx2(cat, Z, A, cat.zero_map(Z, A), cat.zero_map(A, Z))


def gl_elements(p: int, d: int) -> list:
    """GL_d(F_p), in entry order; the budget bounds the p^(d^2) matrices
    walked."""
    if d == 0:
        return [FpMatrix.zero(p, 0, 0)]
    check_scan("GL enumeration", p, d * d)
    mats = (FpMatrix(p, [entries[r * d:(r + 1) * d] for r in range(d)], cols=d)
            for entries in product(range(p), repeat=d * d))
    return [g for g in mats if g.is_invertible()]


def base_change_orbit(cat: RepCategory, M: Rep) -> set:
    """The signatures of every g . M, g walking GL_(d_1) x ... x GL_(d_n):
    the reference for RepCategory._canonical_indec, whose answer is the
    lex-least of them.  The matrix of an arrow s -> t depends only on the
    base changes at s and t, so each is moved once per such pair."""
    arrows = cat.quiver.arrows
    gls = [[(g, g.inverse()) for g in gl_elements(cat.p, d)] for d in M.dim]
    total = 1
    for g in gls:
        total *= len(g)
    check_count("canonical form orbit", total, "base changes")
    moved = [{(i, j): (g @ X @ h).entries_flat()
              for i, (g, _) in enumerate(gls[t - 1]) for j, (_, h) in enumerate(gls[s - 1])}
             for X, (s, t) in zip(M.maps, arrows)]
    return {(M.dim, tuple(m[c[t - 1], c[s - 1]] for m, (s, t) in zip(moved, arrows)))
            for c in product(*(range(len(g)) for g in gls))}


def block_direct_sum(cat: RepCategory, reps: list) -> Rep:
    """The direct sum assembled by FpMatrix.block, with one zero block per
    pair of distinct summand positions: the reference for
    RepCategory.direct_sum, which pads each summand's rows with zeros."""
    Q = cat.quiver
    dim = tuple(sum(r.dim[i] for r in reps) for i in range(Q.n))
    if not reps:
        return cat.rep(dim)
    mats = [FpMatrix.block(cat.p, [[r.maps[a] if j == i else
                                    FpMatrix.zero(cat.p, r.dim[t - 1], r2.dim[s - 1])
                                    for j, r2 in enumerate(reps)]
                                   for i, r in enumerate(reps)])
            for a, (s, t) in enumerate(Q.arrows)]
    return Rep(Q, cat.p, dim, mats)


def hall_product(alg: HallAlgebra, x: LinComb, y: LinComb) -> LinComb:
    """The untwisted Hall product x o y."""
    return bilinear(x, y, lambda a, b: alg.product_pair(a, b).terms.items())


def composed_reduced_product(alg: SDH2Algebra, x: LinComb, y: LinComb) -> LinComb:
    """x * y in the reduced twisted algebra by the composed route: lift both
    factors to the K-slot, multiply there and reduce.  The reference for
    SDH2Algebra.reduced_product, which does the three stages in one pass."""
    return alg.reduce(alg.twisted_product2(alg.lift(x), alg.lift(y)))


def report_json_by_dumps(suite: str, q: int, quiver: dict, seed: int, rows) -> str:
    """The report by the pure-Python encoder over the whole object: the
    reference for report.report_json, which renders the rows apart."""
    obj = {"suite": suite, "q": q, "quiver": quiver, "seed": seed,
           "checks": [dict(zip(FIELDS, row)) for row in rows]}
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def reduce_against_rows(p: int, rows: list, v: Iterable[int]) -> tuple:
    """Reduce v against an rref row basis; the residual has 0 at all pivots."""
    v = list(int(x) % p for x in v)
    for row in rows:
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is None:
            continue
        if v[lead]:
            f = (v[lead] * pow(row[lead], -1, p)) % p
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return tuple(v)


def subspace_contains(p: int, rref_rows: list, v: Iterable[int]) -> bool:
    return all(x == 0 for x in reduce_against_rows(p, rref_rows, v))


def is_acyclic(tools, X) -> bool:
    return all(H.is_zero() for H in tools.homology(X).values())


def homology_keys(tools, X) -> tuple:
    """The iso classes of the homology of X over X.degrees()."""
    return tuple(tools.cat.intern(H) for H in tools.homology(X).values())


def exp_Y_g(alg, Y, g) -> int:
    """log_q <Y, T_g> by the Euler forms <dim Y^(m+1), dim P_j>; Y must
    have projective components.  The reference for the second pairing of
    SemiDerivedAlgebra._twist."""
    e = 0
    for m, c in alg._slots(g):
        dim = Y.component(m + 1).dim
        for j, cj in enumerate(c):
            if cj:
                e += cj * alg.cat.euler_form_int(dim, alg.proj.projectives[j].dim)
    return e


def classify_acyclic_indec(Z: Complex) -> tuple:
    """('K', P) or ('K*', P) for an indecomposable contractible summand.

    An indecomposable acyclic complex with projective components has one
    differential exactly zero; the other is then an isomorphism.
    """
    d0zero = all(m.is_zero() for m in Z.diff(0).mats)
    d1zero = all(m.is_zero() for m in Z.diff(1).mats)
    if d1zero and not d0zero:
        return ("K", Z.component(0))
    if d0zero and not d1zero:
        return ("K*", Z.component(1))
    raise ShapeError("acyclic indecomposable with both differentials nonzero")


def ext1_dim(cat: RepCategory, M: Rep, N: Rep) -> int:
    """dim Ext^1(M, N), via the hereditary identity, cross-validated
    against the projective-resolution cokernel."""
    cat._check_same(M, N)
    h = cat.hom_dim(M, N)
    e = h - cat.euler_form_int(M.dim, N.dim)
    P1, P0, _incl, _proj = cat.min_proj_resolution(M)
    e2 = cat.hom_dim(P1, N) - cat.hom_dim(P0, N) + h
    if e != e2:
        raise ShapeError(f"Euler identity violated: {e} vs {e2} (engine bug)")
    return e


def lattice_neg(g) -> tuple:
    """The negative of a Z-graded torus lattice element of sdhz."""
    return tuple(sorted((m, tuple(-x for x in c)) for m, c in g))


def complex_pool_by_isomorphism(tools, max_total: int) -> list:
    """The projective-component Z/2 complexes with total component dimension
    <= max_total, the first of each isomorphism class kept, classes told
    apart by pairwise is_isomorphic scans: the reference for
    suites.proj_complex_pool, which keys them by normal form.  Components
    are direct sums of indecomposable projectives, one per dimension vector,
    built by adding one P_i at a time from each P_i."""
    cat = tools.cat
    projs = [cat.zero_rep]

    def extend(current):
        for i in range(1, cat.quiver.n + 1):
            cand = cat.direct_sum([current, cat.projective(i)])
            if cand.total_dim() <= max_total and all(cand.dim != P.dim for P in projs):
                projs.append(cand)
                extend(cand)
    for i in range(1, cat.quiver.n + 1):
        P = cat.projective(i)
        if P.total_dim() <= max_total and all(P.dim != Q.dim for Q in projs):
            projs.append(P)
            extend(P)

    def morphisms(S, T):
        basis = cat.hom_basis(S, T)
        return [cat.morphisms_from_coeffs(S, T, basis, c)
                for c in product(range(cat.p), repeat=len(basis))]

    pool = []
    for M0 in projs:
        for M1 in projs:
            if M0.total_dim() + M1.total_dim() > max_total:
                continue
            for d0, d1 in product(morphisms(M0, M1), morphisms(M1, M0)):
                if squares_to_zero(d0, d1):
                    X = Cx2(cat, M0, M1, d0, d1)
                    if not any(tools.is_isomorphic(X, Y) for Y in pool):
                        pool.append(X)
    return pool


# ----------------------------------------------------------------------
# the piece route of reflection.SinkReflection.xi


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
    X: Complex
    P: Complex
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
    if homology_keys(tools, P) != homology_keys(tools, X):
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
    if key != homology_keys(alg.tools, X):
        raise ShapeError("piece class has wrong homology key (engine bug)")
    return elt


def reflect_morphism(refl: SinkReflection, f: RepMorphism) -> RepMorphism:
    """Induced morphism between the reflected representations."""
    cat = refl.cat
    M2 = refl.reflect_rep(f.dom)
    N2 = refl.reflect_rep(f.cod)
    p = cat.p
    mats = []
    for v in range(1, cat.quiver.n + 1):
        if v != refl.sink:
            mats.append(f.mats[v - 1])
            continue
        KM = cat.sink_kernel(refl.sink, f.dom)
        KN = cat.sink_kernel(refl.sink, f.cod)
        blocks = []
        for kk, sk in enumerate(refl.sources):
            row = []
            for jj, sj in enumerate(refl.sources):
                if jj == kk:
                    row.append(f.mats[sk - 1])
                else:
                    row.append(FpMatrix.zero(p, f.cod.dim[sk - 1], f.dom.dim[sj - 1]))
            blocks.append(row)
        big = FpMatrix.block(p, blocks) if blocks else FpMatrix.zero(p, 0, 0)
        m = KN.solve_matrix(big @ KM)
        if m is None:
            raise ShapeError("reflected morphism leaves the kernel (engine bug)")
        mats.append(m)
    return RepMorphism(M2, N2, mats)


def pieces_for_key(refl: SinkReflection, key) -> list:
    """The pieces of the canonical representative W of a homology key: one
    stalk piece per degree for the summands other than the sink simple S_i,
    and one two-term piece (+)P_j -> tau^-(S_i) per copy of S_i."""
    cat = refl.cat
    Si_key = cat.intern(cat.simple(refl.sink))
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
            stalk = two_term_piece(refl.alg, Z, A, cat.zero_map(Z, A))
            pieces.append(shift_piece(stalk) if degree == 0 else stalk)
        for _ in range(m_count):
            # sink piece: (+)P_j -> tau^-(S_i) has homology (S_i, 0)
            xp = two_term_piece(refl.alg, refl.Psum, refl.tau_minus, refl.can)
            pieces.append(xp if degree == 0 else shift_piece(xp))
    return pieces


def reflect_piece(refl: SinkReflection, p: Piece) -> Piece:
    """Transport a piece componentwise (components avoid the sink simple).

    Pieces are two-term with a one-directional differential; the layout
    (plain or shifted) is read off from which differential can be nonzero
    and, for stalks, from which component is nonzero.
    """
    d0z = all(m.is_zero() for m in p.X.diff(0).mats)
    d1z = all(m.is_zero() for m in p.X.diff(1).mats)
    if not d1z or (d0z and d1z and p.X.component(1).is_zero() and not p.X.component(0).is_zero()):
        # shifted layout: the underlying two-term complex is the shift
        V0, V1, d = p.X.component(1), p.X.component(0), -p.X.diff(1)
        return shift_piece(two_term_piece(
            refl.alg2, refl.reflect_rep(V0), refl.reflect_rep(V1),
            reflect_morphism(refl, d)))
    V0, V1, d = p.X.component(0), p.X.component(1), p.X.diff(0)
    return two_term_piece(refl.alg2, refl.reflect_rep(V0),
                          refl.reflect_rep(V1), reflect_morphism(refl, d))


def xi_by_pieces(refl: SinkReflection, key) -> LinComb:
    """SinkReflection.xi by the piece route: the class of the pieces of key
    over Q, each piece transported by the reflection functor, the class of
    the transported pieces over Q', and the same torus and scalar factors."""
    alg, alg2 = refl.alg, refl.alg2
    if key == alg.zero_key2():
        return alg2.reduced_unit()
    pieces = pieces_for_key(refl, key)
    w_elt = class_of_pieces(alg, pieces)
    (h, wkey), nu = next(iter(w_elt.terms.items()))
    if wkey != key:
        raise ShapeError("canonical representative has wrong key (engine bug)")
    zero = (0,) * refl.cat.quiver.n
    cw = alg.cw_exponent((h, alg.zero_key2()), ((zero, zero), key))
    w2_elt = class_of_pieces(alg2, [reflect_piece(refl, p) for p in pieces])
    th = refl.t_lattice(h)
    tneg = (tuple(-x for x in th[0]), tuple(-x for x in th[1]))
    torus_red = alg2.reduce(alg2.torus_term(tneg))
    out = alg2.reduced_product(torus_red, alg2.reduce(w2_elt))
    return out.scale_scalar(nu.inverse() * v_power(refl.q, cw))


def hall_count_by_objects(ks, quot, X, sub) -> int:
    """The Hall number of quot, X and sub by building every sub-object of X
    with sub's sides over X's degrees and its quotient, and testing both
    with is_isomorphic: the oracle of KrullSchmidt.hall_count, which reads
    flat data instead."""
    return sum(1 for U in ks.sub_objects(X, ks.sides(sub, ks.span(X, X)))
               if ks.is_isomorphic(ks.sub_object(X, U), sub)
               and ks.is_isomorphic(ks.quotient_object(X, U), quot))


def module_hom_equations(cat: RepCategory, M: Rep, N: Rep) -> tuple:
    """(number of unknowns, equations) of Hom(M, N), written for modules:
    f_t X_a^M = X_a^N f_s for every arrow a: s -> t, over the blocks
    f_i: M_i -> N_i, vertex by vertex.  The reference for
    KrullSchmidt.hom_equations on a RepCategory."""
    offsets = [0, *accumulate(a * b for a, b in zip(M.dim, N.dim))]
    return offsets[-1], [(offsets[t - 1], M.maps[a], offsets[s - 1], N.maps[a])
                         for a, (s, t) in enumerate(cat.quiver.arrows)]


def chain_map_equations(tools, U, V) -> tuple:
    """(number of unknowns, equations) of the chain maps U -> V, written for
    complexes: one row-major block per degree of both U and V and vertex,
    degree-major; the intertwining equations of each of those degrees, then
    the squares s^(m+1) dU^m = dV^m s^m over the degrees m of U, a block
    outside the layout having a zero source or target.  The reference for
    KrullSchmidt.hom_equations on a Cx2Tools, which reads blocks over the
    span of both complexes instead."""
    degs = [m for m in U.degrees() if m in V.degrees()]
    offsets, size = {}, 0
    for m, i in product(degs, range(tools.cat.quiver.n)):
        offsets[m, i] = size
        size += V.component(m).dim[i] * U.component(m).dim[i]
    equations = [(offsets[m, t - 1], U.component(m).maps[a], offsets[m, s - 1],
                  V.component(m).maps[a])
                 for m in degs for a, (s, t) in enumerate(tools.cat.quiver.arrows)]
    return size, equations + [
        (offsets.get((U.degree(m + 1), i)), dU, offsets.get((m, i)), dV)
        for m in U.degrees() for i, (dU, dV) in enumerate(zip(U.diff(m).mats, V.diff(m).mats))]
