"""Test oracles: helpers that tests use to check the engine's behaviour, but
that the engine itself never calls.  Those that read an engine object (a
RepCategory, a Cx2Tools or a HallAlgebra) take it as their first argument.
"""

from itertools import product
from typing import Iterable

from quiverhall.cx2 import Cx2, squares_to_zero
from quiverhall.errors import ShapeError
from quiverhall.hall import HallAlgebra
from quiverhall.linalg import FpMatrix
from quiverhall.reps import Rep, RepCategory, check_count, check_scan
from quiverhall.scalars import LinComb, bilinear


def stalk_cx2(cat: RepCategory, A: Rep, degree: int) -> Cx2:
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


def classify_acyclic_indec(Z: Cx2) -> tuple:
    """('K', P) or ('K*', P) for an indecomposable contractible summand.

    An indecomposable acyclic complex with projective components has one
    differential exactly zero; the other is then an isomorphism.
    """
    d0zero = all(m.is_zero() for m in Z.d0.mats)
    d1zero = all(m.is_zero() for m in Z.d1.mats)
    if d1zero and not d0zero:
        return ("K", Z.M0)
    if d0zero and not d1zero:
        return ("K*", Z.M1)
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
