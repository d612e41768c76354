"""Cross-cutting property tests tying the layers together."""

import random
from collections import Counter
from itertools import product

import pytest

from oracles import (
    chain_map_equations,
    classify_acyclic_indec,
    complex_pool_by_isomorphism,
    exp_Y_g,
    hall_count_by_objects,
    is_acyclic,
    module_hom_equations,
    reduce_against_rows,
    subspace_contains,
)
from quiverhall.cx2 import (
    Complex,
    Cx2,
    Cx2Tools,
    contractible,
    direct_sum,
    middle_term,
    minimal_complex,
    resolution,
    zero_complex,
)
from quiverhall import reps, sdh
from quiverhall.errors import BudgetExceeded, NotASubmodule, WindowExceeded
from quiverhall.hall import HallAlgebra
from quiverhall.linalg import FpMatrix, echelon_subspaces
from quiverhall.quiver import Quiver, a_n_quiver
from quiverhall.reflection import SinkReflection
from quiverhall.reps import Rep, RepCategory, RepMorphism, intertwiners
from quiverhall.scalars import LinComb, q_power
from quiverhall.sdh import SemiDerivedAlgebra
from quiverhall.sdh2 import SDH2Algebra
from quiverhall.sdhz import WINDOW_LO, CxB, SDHZAlgebra, stalk_cxb
from quiverhall.suites import (
    SUITES,
    proj_complex_pool,
    suite_bridgeland_compare,
    suite_presentation_uv,
    suite_quotient_relations,
    suite_reflection,
    suite_torus_commutation,
)

# The extension-class enumerators and the line walk over End visit one vector
# per line of F_q^k with weight q - 1.  The scan tests below check them
# against a walk over every vector, whose classes and morphisms are built
# one by one; at q = 2 lines and vectors coincide, so q = 3 and 5 matter.
PRIMES = (2, 3, 5)


def _bound(p):
    """Total-dimension bound of the brute-force pools: at q = 5 the bound-3
    complex pool holds a complex with 5^9 chain endomorphisms, past
    SCAN_BUDGET, and building every morphism of larger hom spaces is slow."""
    return 3 if p < 5 else 2


def test_aut_formula_matches_scan():
    for p in (2, 3):
        for qv in (Quiver(1, []), a_n_quiver(2)):
            cat = RepCategory(qv, p)
            for key in cat.iso_classes_up_to(3):
                M = key.rep
                if M.is_zero():
                    continue
                basis = cat.hom_basis(M, M)
                if p ** len(basis) > 100000:
                    continue
                scan = sum(1 for _ in _scan_rep_isos(cat, M, M))
                assert scan == cat.aut_count(M), (p, qv.n, M.dim)


def _scan_cx2_isos(tools, X, Y):
    """Brute force: the chain maps X -> Y, each built as a morphism, that
    are invertible."""
    basis = tools.hom_basis(X, Y)
    return (c for c in product(range(tools.cat.p), repeat=len(basis))
            if tools.morphisms_from_coeffs(X, Y, basis, c).is_isomorphism())


def test_cx2_aut_count_and_is_isomorphic_match_scan():
    for qv in (Quiver(1, []), a_n_quiver(2)):
        for p in PRIMES:
            cat = RepCategory(qv, p)
            alg = SDH2Algebra(cat)
            tools = alg.tools
            pool = proj_complex_pool(alg, _bound(p))
            assert len(pool) > 3
            for X in pool:
                if not X.is_zero():
                    assert tools.aut_count(X) == sum(1 for _ in _scan_cx2_isos(tools, X, X))
            # The shift of a pool member is isomorphic to exactly one member,
            # usually through a chain map that is not the identity.
            for X in pool + [X.shift() for X in pool]:
                hits = 0
                for Y in pool:
                    same_dims = all(X.component(m).dim == Y.component(m).dim for m in (0, 1))
                    brute = same_dims and any(True for _ in _scan_cx2_isos(tools, X, Y))
                    assert tools.is_isomorphic(X, Y) == brute, (p, X, Y)
                    hits += brute
                assert hits == 1, (p, X)


def _scan_rep_isos(cat, M, N):
    """Brute force: the morphisms M -> N, each built as an object, that are
    invertible."""
    basis = cat.hom_basis(M, N)
    return (f for f in (cat.morphisms_from_coeffs(M, N, basis, c)
                        for c in product(range(cat.p), repeat=len(basis)))
            if f.is_isomorphism())


def _conjugate(cat, M, rng):
    """M transported along a random invertible base change at every vertex."""
    gs = []
    for d in M.dim:
        while True:
            g = FpMatrix(cat.p, [[rng.randrange(cat.p) for _ in range(d)] for _ in range(d)])
            if g.is_invertible():
                break
        gs.append(g)
    maps = [gs[t - 1] @ M.maps[a] @ gs[s - 1].inverse()
            for a, (s, t) in enumerate(cat.quiver.arrows)]
    return Rep(cat.quiver, cat.p, M.dim, maps)


def test_rep_is_isomorphic_matches_scan():
    rng = random.Random(5)
    for qv in (Quiver(1, []), a_n_quiver(2)):
        for p in PRIMES:
            cat = RepCategory(qv, p)
            # The zero rep has an empty hom basis, which the scan cannot walk.
            pool = [key.rep for key in cat.iso_classes_up_to(_bound(p))
                    if not key.rep.is_zero()]
            for M in pool + [_conjugate(cat, M, rng) for M in pool]:
                hits = 0
                for N in pool:
                    brute = M.dim == N.dim and any(True for _ in _scan_rep_isos(cat, M, N))
                    assert cat.is_isomorphic(M, N) == brute, (p, M, N)
                    hits += brute
                assert hits == 1, (p, M)


def test_rep_aut_count_scan_fallback():
    # k^2 over the one-vertex quiver is a sum of two bricks, so its count
    # comes from the GL formula; the line walk of aut_count needs a non-brick
    # summand.  weighted_scan sums the weights of the invertible lines of
    # the whole End M.
    def weighted_scan(cat, M):
        return sum(w for f, w in cat._lines(M, cat.hom_basis(M, M)) if f.is_isomorphism())

    for p in PRIMES:
        cat = RepCategory(Quiver(1, []), p)
        M = cat.rep((2,))
        assert cat.aut_count(M) == weighted_scan(cat, M) \
            == sum(1 for _ in _scan_rep_isos(cat, M, M)) == (p * p - 1) * (p * p - p)
        # The Kronecker module with arrows 1 and a nilpotent Jordan block is
        # indecomposable with End = k[x]/(x^2): |Aut| = (p - 1) p.
        kron = RepCategory(Quiver(2, [(1, 2), (1, 2)]), p)
        R = kron.rep((2, 2), [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
        assert weighted_scan(kron, R) == sum(1 for _ in _scan_rep_isos(kron, R, R)) \
            == (p - 1) * p
        assert kron.aut_count(R) == (p - 1) * p
        keys = sorted(kron.intern(S) for S in kron.decompose_reps(R))
        assert len(keys) == 1 and kron.hom_dim(R, R) == 2


KRONECKER = Quiver(2, [(1, 2), (1, 2)])


@pytest.mark.parametrize("p", [3, 5])
def test_decompose_certifies_indecomposable_with_one_candidate_per_line(p, monkeypatch):
    """(I, J_2) is indecomposable with End = k[x]/(x^2): no basis element
    splits it, and the walk builds one endomorphism per nonzero line of End,
    q + 1 candidates in all."""
    kron = RepCategory(KRONECKER, p)
    R = kron.rep((2, 2), [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    built = []
    build = kron.morphisms_from_coeffs

    def counting(X, Y, basis, coeffs):
        built.append(tuple(coeffs))
        return build(X, Y, basis, coeffs)

    monkeypatch.setattr(kron, "morphisms_from_coeffs", counting)
    assert kron.decompose_reps(R) == [R]
    assert len(built) == p + 1


def _non_bricks(kron):
    """Indecomposable Kronecker representations whose End is not F_q, with
    |Aut|: (I, J_2) with End = k[x]/(x^2), (I, J_3) with End = k[x]/(x^3),
    and (I, C), C the companion matrix of an irreducible x^2 + a x + b,
    with End = F_(q^2)."""
    p = kron.p
    a, b = next((a, b) for a in range(p) for b in range(p)
                if all((x * x + a * x + b) % p for x in range(p)))
    return [
        (kron.rep((2, 2), [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]), 2, (p - 1) * p),
        (kron.rep((3, 3), [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [0, 0, 0]]]),
         3, (p - 1) * p * p),
        (kron.rep((2, 2), [[[1, 0], [0, 1]], [[0, -b % p], [1, -a % p]]]), 2, p * p - 1),
    ]


@pytest.mark.parametrize("p", [2, 3])
def test_aut_count_of_non_bricks_matches_scan(p):
    """|Aut| of an indecomposable with a local End of either residue kind,
    k[x]/(x^n) (residue field F_q) or F_(q^2) (residue field F_(q^2)): the
    closed form, the scan of every endomorphism, and aut_count agree.  The
    minimal resolutions of these modules, in both gradings, are
    indecomposable complexes with a 2- or 3-dimensional End too, and their
    aut_count matches the scan of every chain endomorphism."""
    kron = RepCategory(KRONECKER, p)
    tools = Cx2Tools(kron)
    for R, k, aut in _non_bricks(kron):
        assert kron.decompose_reps(R) == [R] and kron.hom_dim(R, R) == k
        assert kron.aut_count(R) == sum(1 for _ in _scan_rep_isos(kron, R, R)) == aut
        for period in (2, None):
            X = resolution(kron, R, 0, period)
            assert tools.decompose2(X) == [X] and tools.hom_dim(X, X) == k
            assert tools.aut_count(X) == sum(1 for _ in _scan_cx2_isos(tools, X, X))


@pytest.mark.parametrize("p", [2, 3])
def test_aut_count_walks_one_line_per_nonzero_line_of_a_non_brick_end(p, monkeypatch):
    """aut_count walks no line for a brick class and (q^k - 1)/(q - 1)
    lines, one per nonzero line of End S, for a class S with dim End S = k,
    whatever its multiplicity.  The summand classes are found first, so
    only aut_count's own walk is counted."""
    kron = RepCategory(KRONECKER, p)
    tools = Cx2Tools(kron)
    built = []

    def counting(build):
        def wrapped(X, Y, basis, coeffs):
            built.append(tuple(coeffs))
            return build(X, Y, basis, coeffs)
        return wrapped

    monkeypatch.setattr(kron, "morphisms_from_coeffs", counting(kron.morphisms_from_coeffs))
    monkeypatch.setattr(tools, "morphisms_from_coeffs", counting(tools.morphisms_from_coeffs))
    S1, brick = kron.simple(1), kron.rep((1, 1), [[[1]], [[0]]])
    for ks, X, lines in [(kron, S1, 0), (kron, brick, 0), (kron, kron.direct_sum([S1, brick]), 0),
                         (tools, contractible(kron, brick, 0, 2), 0)]:
        ks._groups(X)
        built.clear()
        ks.aut_count(X)
        assert len(built) == lines, (X, built)
    for R, k, _ in _non_bricks(kron):
        lines = (p ** k - 1) // (p - 1)
        # R, S1, R where the decompose guardrail allows, else R, S1.
        summed = kron.direct_sum([R, S1, R][:3 if R.total_dim() < 6 else 2])
        for ks, X in [(kron, R), (kron, summed),
                      (tools, resolution(kron, R, 0, 2)), (tools, resolution(kron, R, 1, None))]:
            ks._groups(X)
            built.clear()
            ks.aut_count(X)
            assert len(built) == lines and (0,) * k not in built, (X, built)


def test_aut_count_off_normal_forms_matches_decomposition():
    """SemiDerivedAlgebra.aut_count reads |Aut X| off the class (g, key) of
    X and decomposes nothing; Cx2Tools.aut_count, which Fitting-decomposes
    X, is its oracle, on objects within DECOMPOSE_DIM_GUARD: the
    bridgeland-compare pools and the middle terms of their products (A1 and
    A2 at q = 2, 3, Kronecker at q = 2), their Z folds in degrees 0, 1 and
    1, 2, and the resolutions of the Kronecker non-bricks (residue field F_q
    or F_(q^2)) in either grading, alone and next to a contractible or the
    resolution of a projective."""
    checked = Counter()

    def check(source, alg, X):
        if X.total_dim() <= reps.DECOMPOSE_DIM_GUARD:
            assert alg.aut_count(X) == alg.tools.aut_count(X), (alg.q, X)
            checked[source] += 1

    for cat in _a1_a2(2) + _a1_a2(3) + [RepCategory(KRONECKER, 2)]:
        alg, algz = SDH2Algebra(cat), SDHZAlgebra(cat)
        objects = _with_middle_terms(alg.tools, proj_complex_pool(alg, 3), 4)
        for X in objects:
            check("pool", alg, X)
            if not X.is_zero():
                check("fold", algz, _fold(X))
                check("fold", algz, _fold(X).shift(-1))
    for p in (2, 3):
        kron = RepCategory(KRONECKER, p)
        P2 = kron.projective(2)
        for period, alg in ((2, SDH2Algebra(kron)), (None, SDHZAlgebra(kron))):
            extras = [contractible(kron, P2, 0, period), contractible(kron, P2, 1, period),
                      resolution(kron, P2, 1, period)]
            for R, _, _ in _non_bricks(kron):
                X = resolution(kron, R, 0, period)
                for Y in [X] + [direct_sum([X, E]) for E in extras]:
                    check("non-brick", alg, Y)
    assert checked["pool"] > 700 and checked["fold"] > 1400, checked
    assert checked["non-brick"] > 30, checked


def test_bridgeland_compare_decomposes_no_complex(monkeypatch):
    """Route B of bridgeland-compare reads each |Aut| off normal forms, so
    the suite passes on A2 at q = 2 with the Fitting decomposition of
    complexes (Cx2Tools._groups) made to raise."""
    def refuse(self, X):
        raise AssertionError(f"{X} decomposed")

    monkeypatch.setattr(Cx2Tools, "_groups", refuse)
    rows = suite_bridgeland_compare(RepCategory(a_n_quiver(2), 2), 3)
    assert len(rows) > 10 and all(row[1] == "pass" for row in rows)


def test_decompose_splits_into_fitting_indecomposables():
    """Every Kronecker representation of dimension (2, 2) over F_2: the
    summands' dimension vectors add up to X's, and a full scan of each
    summand's End finds only nilpotent or invertible elements, which by
    Fitting's lemma makes it indecomposable."""
    kron = RepCategory(KRONECKER, 2)
    reps = list(kron.all_reps_of_dim((2, 2)))
    assert len(reps) == 256
    for X in reps:
        summands = kron.decompose_reps(X)
        assert tuple(map(sum, zip(*(S.dim for S in summands)))) == X.dim
        for S in summands:
            assert not S.is_zero()
            basis = kron.hom_basis(S, S)
            for c in product(range(2), repeat=len(basis)):
                f = h = kron.morphisms_from_coeffs(S, S, basis, c)
                for _ in range(sum(S.dim)):
                    h = h.compose(f)
                assert h.is_zero() or f.is_isomorphism(), (X, S, c)


# x^2 + a x + b irreducible over F_p, as (a, b)
IRREDUCIBLE_QUADRATICS = {2: (1, 1), 3: (0, 1), 5: (0, 2)}


def _kronecker_field_module(kron, a, b):
    """The Kronecker module (I, C), C the companion matrix of x^2 + a x + b.
    Its End is F_p[C], a field of order p^2 when the polynomial is
    irreducible: an indecomposable that is not a brick."""
    p = kron.p
    return kron.rep((2, 2), [[[1, 0], [0, 1]], [[0, -b % p], [1, -a % p]]])


def test_aut_formula_with_residue_field_extension():
    for p, (a, b) in IRREDUCIBLE_QUADRATICS.items():
        kron = RepCategory(Quiver(2, [(1, 2), (1, 2)]), p)
        R = _kronecker_field_module(kron, a, b)
        RR = kron.direct_sum([R, R])
        assert kron.hom_dim(R, R) == 2 and len(kron.decompose_reps(RR)) == 2
        assert kron.aut_count(R) == p * p - 1 == sum(1 for _ in _scan_rep_isos(kron, R, R))
        # |GL_2(F_{p^2})|
        assert kron.aut_count(RR) == (p ** 4 - 1) * (p ** 4 - p ** 2)
        if p <= 3:
            assert kron.aut_count(RR) == sum(1 for _ in _scan_rep_isos(kron, RR, RR))


def test_is_isomorphic_tells_residue_fields_apart():
    """x^2 + 1 and x^2 + x + 2 are irreducible over F_3 with different
    roots, so their Kronecker modules have isomorphic Ends but are not
    isomorphic; a base change of one is isomorphic to it."""
    kron = RepCategory(Quiver(2, [(1, 2), (1, 2)]), 3)
    R1 = _kronecker_field_module(kron, 0, 1)
    R2 = _kronecker_field_module(kron, 1, 2)
    assert not kron.is_isomorphic(R1, R2)
    assert not any(True for _ in _scan_rep_isos(kron, R1, R2))
    assert kron.is_isomorphic(_conjugate(kron, R1, random.Random(3)), R1)
    R12, R11 = kron.direct_sum([R1, R2]), kron.direct_sum([R1, R1])
    assert not kron.is_isomorphic(R12, R11)
    assert kron.is_isomorphic(R12, kron.direct_sum([R2, R1]))
    # Hom(R1, R2) = 0, so End(R1 + R2) = F_9 x F_9.
    assert kron.aut_count(R12) == 8 * 8


def test_flat_combination_matches_scale_and_add():
    rng = random.Random(9)
    cat = RepCategory(a_n_quiver(2), 3)
    tools = SDH2Algebra(cat).tools
    for X in proj_complex_pool(SDH2Algebra(cat), 3)[1:]:
        basis = tools.hom_basis(X, X)
        R = X.component(0) if cat.hom_dim(X.component(0), X.component(0)) else X.component(1)
        rbasis = cat.hom_basis(R, R)
        for _ in range(5):
            c = [rng.randrange(-3, 6) for _ in basis]
            f = tools.morphisms_from_coeffs(X, X, basis, c)
            g0, g1 = basis[0].maps[0].scale(c[0]), basis[0].maps[1].scale(c[0])
            for b, ci in zip(basis[1:], c[1:]):
                g0, g1 = g0 + b.maps[0].scale(ci), g1 + b.maps[1].scale(ci)
            assert f.maps[0].mats == g0.mats and f.maps[1].mats == g1.mats
            c = [rng.randrange(-3, 6) for _ in rbasis]
            h = rbasis[0].scale(c[0])
            for b, ci in zip(rbasis[1:], c[1:]):
                h = h + b.scale(ci)
            assert cat.morphisms_from_coeffs(R, R, rbasis, c).mats == h.mats


def _idempotent_scan(ks, X):
    """The decomposer before Fitting's lemma certified indecomposability:
    walk every endomorphism of X and split X = im e + ker e along the first
    idempotent e other than 0 and 1; ks is a RepCategory or a Cx2Tools."""
    if X.is_zero():
        return []
    basis = ks.hom_basis(X, X)
    for c in product(range(ks.p), repeat=len(basis)):
        e = ks.morphisms_from_coeffs(X, X, basis, c)
        if e.is_zero() or e.is_isomorphism() \
                or e.compose(e).entries_flat() != e.entries_flat():
            continue
        parts = [ks.sub_object(X, U) for U in (ks.image_subspaces(e), ks.kernel_subspaces(e))]
        assert sum(S.total_dim() for S in parts) == X.total_dim()
        return [S for part in parts for S in _idempotent_scan(ks, part)]
    return [X]


def test_rep_decomposition_matches_idempotent_scan():
    """Every rep of total dimension <= 3 on A1, A2 and A3 at q = 2 and on A2
    at q = 3, and every Kronecker rep up to (2, 2) at q = 2, among them the
    local module with End = k[x]/(x^2): the same summand keys."""
    def up_to(n, bound):
        return [d for d in product(range(bound + 1), repeat=n) if sum(d) <= bound]

    kron = RepCategory(Quiver(2, [(1, 2), (1, 2)]), 2)
    cases = [(RepCategory(a_n_quiver(n), 2), up_to(n, 3)) for n in (1, 2, 3)]
    cases += [(RepCategory(a_n_quiver(2), 3), up_to(2, 3)),
              (kron, list(product(range(3), repeat=2)))]
    local = kron.rep((2, 2), [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    seen = 0
    for cat, dims in cases:
        for d in dims:
            for M in cat.all_reps_of_dim(d):
                got = sorted(cat.intern(S) for S in cat.decompose_reps(M))
                assert got == sorted(cat.intern(S) for S in _idempotent_scan(cat, M)), M
                seen += M == local
    assert seen == 1 and len(kron.decompose_reps(local)) == 1


def test_complex_decomposition_matches_idempotent_scan():
    """The bound-3 complex pool of A1 and A2 at q = 2 and 3, the middle terms
    of its extensions, the sums K_P + K_Q* and, Z-graded, the sums of P = P
    and Q = Q in degrees (0, 1) and (m, m + 1): summands isomorphic one to
    one, and the same contractible kinds."""
    for p in (2, 3):
        for cat in _a1_a2(p):
            alg = SDH2Algebra(cat)
            tools = alg.tools
            projs = [cat.projective(i) for i in range(1, cat.quiver.n + 1)]
            sums = [direct_sum([contractible(cat, P, 0, 2), contractible(cat, Q, 1, 2)])
                    for P in projs for Q in projs]
            sums += [direct_sum([contractible(cat, P, 0), contractible(cat, Q, m)])
                     for P in projs for Q in projs for m in (-1, 0, 1)]
            for X in _with_middle_terms(tools, proj_complex_pool(alg, 3), 4) + sums:
                got, want = tools.decompose2(X), _idempotent_scan(tools, X)
                assert len(got) == len(want), (p, X)
                for Z in got:
                    match = next(W for W in want if tools.is_isomorphic(Z, W))
                    want.remove(match)
                    if Z.period == 2 and is_acyclic(tools, Z):
                        (k1, P1), (k2, P2) = (classify_acyclic_indec(Z),
                                              classify_acyclic_indec(match))
                        assert (k1, cat.intern(P1)) == (k2, cat.intern(P2)), (p, X)


def _fold(X):
    """The Z-graded two-term complex with the components and d^0 of the Z/2
    complex X in degrees 0, 1."""
    return CxB(X.cat, 0, X.comps, [X.diff(0)])


def _a1_a2(p):
    return [RepCategory(Quiver(1, []), p), RepCategory(a_n_quiver(2), p)]


def _ext_pairs(pool, max_total):
    return [(L, M) for L in pool for M in pool
            if L.total_dim() + M.total_dim() <= max_total]


def test_cx2_ext1_classes_match_full_enumeration():
    for p in PRIMES:
        for cat in _a1_a2(p):
            alg = SDH2Algebra(cat)
            tools = alg.tools
            pool = proj_complex_pool(alg, 3)

            for L, M in _ext_pairs(pool, _bound(p) + 1):
                SM = M.shift()
                basis = tools.hom_basis(L, SM)
                lines = Counter()
                for _f, E, w in tools.ext1_classes_proj(L, M):
                    lines[alg.normal_form(E)] += w
                # every chain map, so each class is met p^(homotopy dim) times
                full = Counter(
                    alg.normal_form(middle_term(L, M, tools.morphisms_from_coeffs(L, SM, basis, c)))
                    for c in product(range(p), repeat=len(basis)))
                mult = p ** tools.homotopy_dim(L, SM)
                assert full == Counter({k: n * mult for k, n in lines.items()}), (p, L, M)


def test_cxb_ext1_classes_match_full_enumeration():
    for p in PRIMES:
        for cat in _a1_a2(p):
            alg = SDHZAlgebra(cat)
            tools = alg.tools
            pool = []
            for X in proj_complex_pool(SDH2Algebra(cat), 3):
                if not X.is_zero():
                    Y = _fold(X)
                    pool += [Y, Y.shift(1)]
            for L, M in _ext_pairs(pool, _bound(p) + 1):
                SM = M.shift(1)
                basis = tools.hom_basis(L, SM)
                lines = Counter()
                for _f, E, w in tools.ext1_classes_proj(L, M):
                    lines[alg.normal_form(E)] += w
                full = Counter(
                    alg.normal_form(middle_term(L, M, tools.morphisms_from_coeffs(L, SM, basis, c)))
                    for c in product(range(p), repeat=len(basis)))
                mult = p ** tools.homotopy_dim(L, SM)
                assert full == Counter({k: n * mult for k, n in lines.items()}), (p, L, M)


def test_gradings_agree_on_two_term_complexes():
    """A two-term complex in degrees 0, 1 and its Z/2 fold (d1 = 0) have the
    same chain maps, homotopies and homology through the one engine."""
    for p in (2, 3):
        for cat in _a1_a2(p):
            tools = SDH2Algebra(cat).tools
            pairs = []
            for X in proj_complex_pool(SDH2Algebra(cat), 3):
                Y = _fold(X)
                Z = Cx2(cat, X.component(0), X.component(1), X.diff(0),
                        cat.zero_map(X.component(1), X.component(0)))
                pairs.append((Y, Z))
                hY, hZ = tools.homology(Y), tools.homology(Z)
                for b in (0, 1):
                    if b in hY:
                        assert cat.intern(hY[b]) == cat.intern(hZ[b]), (p, X, b)
                    else:
                        assert hZ[b].is_zero(), (p, X, b)
            for Y1, Z1 in pairs:
                for Y2, Z2 in pairs:
                    assert ([f.entries_flat() for f in tools.hom_basis(Y1, Y2)]
                            == [f.entries_flat() for f in tools.hom_basis(Z1, Z2)])
                    assert tools.homotopy_subspace(Y1, Y2) == tools.homotopy_subspace(Z1, Z2)


def _full_ext_walk(cat, C, P1, P0, incl, HB1) -> Counter:
    """The middle of every element of Hom(P1, C), interned and counted."""
    p = cat.p
    D = cat.direct_sum([C, P0])
    full = Counter()
    for c in product(range(p), repeat=len(HB1)):
        f = cat.morphisms_from_coeffs(P1, C, HB1, c)
        graph = RepMorphism(P1, D, [FpMatrix.vstack([f.mats[i], -incl.mats[i]])
                                    for i in range(cat.quiver.n)])
        full[cat.intern(cat.quotient(D, cat.image_subspaces(graph))[0])] += 1
    return full


def test_ext_class_counts_match_full_enumeration():
    for p in PRIMES:
        for cat in _a1_a2(p):
            hall = HallAlgebra(cat)
            keys = cat.iso_classes_up_to(3)
            for A in keys:
                P1, P0, incl, _ = cat.min_proj_resolution(A.rep)
                for B in keys:
                    C = B.rep
                    HB1 = cat.hom_basis(P1, C)
                    if not HB1 or sum(A.dim) + sum(B.dim) > _bound(p) + 1:
                        continue
                    full = _full_ext_walk(cat, C, P1, P0, incl, HB1)
                    # each class is met once per element of Hom(P0, C) o incl
                    restricted = [g.compose(incl).entries_flat()
                                  for g in cat.hom_basis(P0, C)]
                    mult = p ** (FpMatrix(p, restricted).rank() if restricted else 0)
                    counts = hall.ext_class_counts(A, B)
                    assert full == Counter({k: n * mult for k, n in counts.items()}), (p, A, B)
    # dim Ext^1(A, C) = hom(A, C) - <A, C>, the exponent ext_class_counts
    # reads before any resolution, against the resolution's count; where it
    # is 0 but Hom(P1, C) is not (the pairs ext_class_counts no longer
    # walks), the full walk over Hom(P1, C) meets the split class alone.
    for quiver in (a_n_quiver(3), D4, KRONECKER):
        cat = RepCategory(quiver, 2)
        keys = cat.iso_classes_up_to(3)
        skipped = 0
        for A in keys:
            P1, P0, incl, _ = cat.min_proj_resolution(A.rep)
            for B in keys:
                C = B.rep
                HB1 = cat.hom_basis(P1, C)
                hom = cat.hom_dim(A.rep, C)
                ext = hom - cat.euler_form_int(A.dim, B.dim)
                assert ext == len(HB1) - len(cat.hom_basis(P0, C)) + hom, (quiver, A, B)
                if not ext and HB1:
                    full = _full_ext_walk(cat, C, P1, P0, incl, HB1)
                    assert full == Counter({cat.sum_key([B, A]): 2 ** len(HB1)}), (quiver, A, B)
                    skipped += 1
        assert skipped, quiver


def test_torus_commutation_suite():
    checks = suite_torus_commutation(RepCategory(a_n_quiver(2), 2))
    assert checks and all(c[1] == "pass" for c in checks)


def test_quotient_relations_suite_q3():
    checks = suite_quotient_relations(RepCategory(a_n_quiver(2), 3), 10, 1)
    assert checks and all(c[1] == "pass" for c in checks)


def test_reduction_well_defined_across_lifts():
    """If two unreduced elements have equal reductions, their twisted
    products against any third element have equal reductions (30 samples)."""
    from quiverhall.scalars import q_power

    cat = RepCategory(a_n_quiver(2), 2)
    alg = SDH2Algebra(cat)
    rng = random.Random(12)
    reps = [cat.rep((0, 0)), cat.simple(1), cat.simple(2), cat.projective(1)]
    keys = [(cat.intern(a), cat.intern(b)) for a in reps for b in reps
            if a.total_dim() + b.total_dim() <= 2]
    lat = (-1, 0, 1)

    def shifted_copy(g, key):
        """A different lift of the same reduced class as term(g, key)."""
        s = tuple(rng.choice((0, 1)) for _ in range(2))
        g2 = (tuple(a + x for a, x in zip(g[0], s)),
              tuple(b + x for b, x in zip(g[1], s)))
        R = alg.rep_of_key(key)
        comps = tuple(u + v for u, v in zip(R.component(0).dim, R.component(1).dim))
        lam = q_power(2, cat.euler_form_int(alg.dim_of_coords(s), comps))
        return alg.term(g2, key, lam)

    for _ in range(30):
        key1, key2 = rng.choice(keys), rng.choice(keys)
        g1 = (tuple(rng.choice(lat) for _ in range(2)),
              tuple(rng.choice(lat) for _ in range(2)))
        g2 = (tuple(rng.choice(lat) for _ in range(2)),
              tuple(rng.choice(lat) for _ in range(2)))
        x = alg.term(g1, key1)
        xs = shifted_copy(g1, key1)
        z = alg.term(g2, key2)
        assert (alg.reduce(x) - alg.reduce(xs)).is_zero()
        lhs = alg.reduce(alg.twisted_product2(x, z))
        rhs = alg.reduce(alg.twisted_product2(xs, z))
        assert (lhs - rhs).is_zero()
        lhs = alg.reduce(alg.twisted_product2(z, x))
        rhs = alg.reduce(alg.twisted_product2(z, xs))
        assert (lhs - rhs).is_zero()


def test_hall_to_sdh2_unit_compat():
    cat = RepCategory(a_n_quiver(2), 3)
    hall = HallAlgebra(cat)
    alg = SDH2Algebra(cat)
    # [0] maps to the unit on both sides
    assert alg.E_class(cat.rep((0, 0))) == alg.unit()
    assert hall.cls(cat.rep((0, 0))) == hall.unit()


def _sdh2_product_oracle(alg, t1, t2):
    """T_g1[R1] . T_g2[R2] straight from the extension classes of R1, R2,
    with the torus twist of each class applied there, and no caching."""
    (g1, k1), (g2, k2) = t1, t2
    R1, R2 = alg.rep_of_key(k1), alg.rep_of_key(k2)
    base_exp = (alg.exp_g_Y(g2, R1) - exp_Y_g(alg, R1, g2) - alg.exp_g_h(g1, g2)
                - alg.tools.hom_dim(R1, R2))
    g12 = tuple(tuple(a + b for a, b in zip(x, y)) for x, y in zip(g1, g2))
    out = LinComb(alg.q)
    for _f, E, weight in alg.tools.ext1_classes_proj(R1, R2):
        nf = alg.normal_form(E)
        g = tuple(tuple(a + b for a, b in zip(x, y)) for x, y in zip(g12, nf.g))
        c = nf.coeff * q_power(alg.q, base_exp - alg.exp_g_h(g12, nf.g))
        out.add_term((g, nf.key), c.scale(weight))
    return out.terms


def _sdhz_product_oracle(alg, t1, t2):
    """The Z-graded counterpart of _sdh2_product_oracle."""
    (g1, k1), (g2, k2) = t1, t2
    R1, R2 = alg.rep_of_key(k1), alg.rep_of_key(k2)
    base_exp = (alg.exp_g_Y(g2, R1) - exp_Y_g(alg, R1, g2) - alg.exp_g_h(g1, g2)
                - alg.tools.hom_dim(R1, R2))
    g12 = alg.lattice_add(g1, g2)
    out = LinComb(alg.q)
    for _f, E, weight in alg.tools.ext1_classes_proj(R1, R2):
        coeff, ell, key = alg.normal_form(E)
        g = alg.lattice_add(g12, ell)
        c = coeff * q_power(alg.q, base_exp - alg.exp_g_h(g12, ell))
        out.add_term((g, key), c.scale(weight))
    return out.terms


def _decorations(n):
    """Torus exponent vectors: zero, a unit vector, a negative and a mixed one."""
    e1 = (1,) + (0,) * (n - 1)
    mixed = (-1,) + (1,) * (n - 1) if n > 1 else (-2,)
    return [(0,) * n, e1, tuple(-x for x in e1), mixed]


def test_product_terms_match_uncached_oracle():
    """The products cache [R1] . [R2] per homology-key pair and twist each
    term per call.  Each key pair is multiplied under several torus
    decorations, so all but the first call of a pair read a cache filled
    under another g."""
    for p in (2, 3):
        for cat in _a1_a2(p):
            n = cat.quiver.n
            dec = _decorations(n)
            classes = cat.iso_classes_up_to(2)
            nonzero = [k for k in classes if sum(k.dim)]
            small = [k for k in classes if sum(k.dim) <= 1]

            alg2 = SDH2Algebra(cat)
            keys2 = [(a, b) for a in classes for b in small
                     if sum(a.dim) + sum(b.dim) <= 2]
            gs2 = [(dec[0], dec[1]), (dec[2], dec[3]), (dec[3], dec[0])]
            for k1 in keys2:
                for k2 in keys2:
                    for g1, g2 in zip(gs2, gs2[1:] + gs2[:1]):
                        t1, t2 = (g1, k1), (g2, k2)
                        assert alg2.product(alg2.term(*t1), alg2.term(*t2)).terms == \
                            _sdh2_product_oracle(alg2, t1, t2), (p, n, t1, t2)

            algz = SDHZAlgebra(cat)
            simples = [k for k in nonzero if sum(k.dim) == 1]
            keysz = [()] + [((m, a),) for a in nonzero for m in (0, 1)]
            keysz += [((0, a), (1, b)) for a in simples for b in simples]
            gsz = [((0, dec[1]),), ((-1, dec[2]), (1, dec[3])), ((0, dec[3]),)]
            for k1 in keysz:
                for k2 in keysz:
                    for g1, g2 in zip(gsz, gsz[1:] + gsz[:1]):
                        t1, t2 = (g1, k1), (g2, k2)
                        assert algz.product(algz.term(*t1), algz.term(*t2)).terms == \
                            _sdhz_product_oracle(algz, t1, t2), (p, n, t1, t2)


def _ledger_walk_nf(alg, X):
    """The Z-graded normal form by a walk up the degrees: slot m is what
    dim X^m leaves after P0(H^m), P1(H^(m+1)) and slot m - 1, and the
    walk must end on a zero slot."""
    cat = alg.cat
    key = tuple(sorted((m, cat.intern(H)) for m, H in alg.tools.homology(X).items()
                       if not H.is_zero()))
    res = {m: cat.min_proj_resolution(k.rep) for m, k in key}
    zero = (0,) * cat.quiver.n
    lo, hi = (X.degrees()[0], X.degrees()[-1]) if not X.is_zero() else (0, -1)
    if key:
        lo = min(lo, key[0][0] - 1)
    ell = {}
    prev = zero
    for m in range(lo - 1, hi + 1):
        p0 = res[m][1].dim if m in res else zero
        p1 = res[m + 1][0].dim if m + 1 in res else zero
        delta = tuple(x - a - b for x, a, b in zip(X.component(m).dim, p0, p1))
        prev = ell[m] = tuple(d - v for d, v in zip(alg.coords(delta), prev))
    assert not any(prev), X
    g = tuple(sorted((m, c) for m, c in ell.items() if any(c)))
    R = alg.rep_of_key(key)
    exp = sum(cj * dj for m, c in g for cj, dj in zip(c, R.component(m).dim))
    return q_power(alg.q, exp), g, key


def _z2_rank_nf(alg, X):
    """The Z/2-graded normal form, alpha = [im d0] - [P1(H1)] and
    beta = [im d1] - [P1(H0)], with <K_(alpha,beta), R> read off R^0, R^1."""
    cat = alg.cat
    k0, k1 = (cat.intern(H) for H in alg.tools.homology(X).values())
    rank0 = tuple(m.rank() for m in X.diff(0).mats)
    rank1 = tuple(m.rank() for m in X.diff(1).mats)
    P1H0 = cat.min_proj_resolution(k0.rep)[0]
    P1H1 = cat.min_proj_resolution(k1.rep)[0]
    alpha = alg.coords(tuple(r - d for r, d in zip(rank0, P1H1.dim)))
    beta = alg.coords(tuple(r - d for r, d in zip(rank1, P1H0.dim)))
    R = alg.rep_of_key((k0, k1))
    exp = (sum(a * d for a, d in zip(alpha, R.component(0).dim))
           + sum(b * d for b, d in zip(beta, R.component(1).dim)))
    return q_power(alg.q, exp), (alpha, beta), (k0, k1)


def _with_middle_terms(tools, pool, max_total):
    """pool and the middle terms of every extension between two of its
    complexes of total dimension <= max_total, one per signature."""
    out = {X.signature(): X for X in pool}
    for L, M in _ext_pairs(pool, max_total):
        for _f, E, _w in tools.ext1_classes_proj(L, M):
            out.setdefault(E.signature(), E)
    return list(out.values())


def test_normal_forms_match_grading_specific_oracles():
    """One rank formula gives the normal forms of both gradings.  It is
    checked against the degree-by-degree ledger walk for Z-graded complexes
    and against the rank formula written out for Z/2, on the bound-3 pool
    of Z/2 complexes, its two-term Z-graded folds shifted by 0, 1 and -2,
    and the middle terms of the extensions among each of these sets."""
    for p in (2, 3):
        for n in (1, 2, 3):
            cat = RepCategory(a_n_quiver(n), p)
            alg2, algz = SDH2Algebra(cat), SDHZAlgebra(cat)
            pool2 = proj_complex_pool(alg2, 3)
            poolz = []
            for X in pool2:
                if not X.is_zero():
                    Y = _fold(X)
                    poolz += [Y, Y.shift(1), Y.shift(-2)]
            for X in _with_middle_terms(alg2.tools, pool2, 4):
                assert alg2.normal_form(X) == _z2_rank_nf(alg2, X), (p, n, X)
            for X in _with_middle_terms(algz.tools, poolz, 4):
                assert algz.normal_form(X) == _ledger_walk_nf(algz, X), (p, n, X)


# Sub-objects, quotients and their induced maps, computed one column at a time
# by solves and subspace tests: test-local oracles for the coordinate reads of
# the sub-object and quotient builders and for the one stability test.


def _sub_rep_oracle(cat, C, U):
    p = cat.p
    bases = [FpMatrix(p, u, cols=C.dim[i]) if u else FpMatrix.zero(p, 0, C.dim[i])
             for i, u in enumerate(U)]
    dims = tuple(b.rows for b in bases)
    mats = []
    for a, (s, t) in enumerate(cat.quiver.arrows):
        BtT = bases[t - 1].transpose()
        cols = [BtT.solve(C.maps[a].mul_vec(row)) for row in bases[s - 1].data]
        assert None not in cols
        mats.append(FpMatrix.from_columns(p, cols, dims[t - 1])
                    if cols else FpMatrix.zero(p, dims[t - 1], 0))
    sub = Rep(cat.quiver, p, dims, mats)
    return sub, RepMorphism(sub, C, [b.transpose() for b in bases])


def _quotient_oracle(cat, C, U):
    p = cat.p
    for a, (s, t) in enumerate(cat.quiver.arrows):
        for row in U[s - 1]:
            assert subspace_contains(p, list(U[t - 1]), C.maps[a].mul_vec(row))
    projs, sections, dims = [], [], []
    for i in range(cat.quiver.n):
        rows = list(U[i])
        pivots = {next(j for j, a in enumerate(row) if a) for row in rows}
        nonpiv = [j for j in range(C.dim[i]) if j not in pivots]
        dims.append(len(nonpiv))
        pm = [[reduce_against_rows(p, rows, [int(k == j) for k in range(C.dim[i])])[np]
               for np in nonpiv] for j in range(C.dim[i])]
        projs.append(FpMatrix(p, [[pm[j][r] for j in range(C.dim[i])]
                                  for r in range(len(nonpiv))], cols=C.dim[i]))
        sections.append(FpMatrix(p, [[1 if nonpiv[c] == j else 0 for c in range(len(nonpiv))]
                                     for j in range(C.dim[i])], cols=len(nonpiv)))
    quo = Rep(cat.quiver, p, tuple(dims),
              [projs[t - 1] @ C.maps[a] @ sections[s - 1]
               for a, (s, t) in enumerate(cat.quiver.arrows)])
    return quo, RepMorphism(C, quo, projs)


def _restrict_oracle(cat, d, Sdom, idom, Scod, icod):
    mats = []
    for i in range(cat.quiver.n):
        cols = []
        for c in range(Sdom.dim[i]):
            col = tuple(idom.mats[i].data[r][c] for r in range(idom.mats[i].rows))
            y = icod.mats[i].solve(d.mats[i].mul_vec(col))
            assert y is not None
            cols.append(y)
        mats.append(FpMatrix.from_columns(cat.p, cols, Scod.dim[i])
                    if cols else FpMatrix.zero(cat.p, Scod.dim[i], 0))
    return RepMorphism(Sdom, Scod, mats)


def _induce_quotient_oracle(cat, d, Qdom, pdom, Qcod, pcod):
    mats = []
    for i in range(cat.quiver.n):
        cols = []
        for c in range(Qdom.dim[i]):
            x = pdom.mats[i].solve([int(k == c) for k in range(Qdom.dim[i])])
            assert x is not None
            cols.append(pcod.mats[i].mul_vec(d.mats[i].mul_vec(x)))
        mats.append(FpMatrix.from_columns(cat.p, cols, Qcod.dim[i])
                    if cols else FpMatrix.zero(cat.p, Qcod.dim[i], 0))
    return RepMorphism(Qdom, Qcod, mats)


def _homology_at_oracle(cat, comp, d_out, d_in):
    K, incl = _sub_rep_oracle(cat, comp, cat.kernel_subspaces(d_out))
    rows_by_vertex = []
    for i in range(cat.quiver.n):
        img_rows = []
        for c in range(d_in.mats[i].cols):
            y = incl.mats[i].solve([d_in.mats[i].data[r][c] for r in range(d_in.mats[i].rows)])
            assert y is not None
            img_rows.append(y)
        R, piv = FpMatrix(cat.p, img_rows, cols=K.dim[i]).rref() if img_rows else (None, ())
        rows_by_vertex.append(tuple(R.data[k] for k in range(len(piv))))
    return _quotient_oracle(cat, K, tuple(rows_by_vertex))[0]


def test_sub_objects_quotients_and_homology_match_columnwise_oracles():
    """Sub-complexes and quotient complexes of the bridgeland-compare middles,
    homology of the pool complexes, of their middles and of their Z-graded
    two-term folds, and sub_rep and quotient on every submodule of the
    bound-3 iso classes: identical signatures to the one-column oracles."""
    counts = Counter()
    for p in (2, 3):
        for cat in _a1_a2(p):
            alg = SDH2Algebra(cat)
            tools = alg.tools
            pool = proj_complex_pool(alg, 3)
            middles = {}
            for L, M in _ext_pairs(pool, 4):
                for _f, X, _w in tools.ext1_classes_proj(L, M):
                    for U in tools.sub_complexes_with_dims(X, tools.sides(M)):
                        U0, U1 = U[:cat.quiver.n], U[cat.quiver.n:]
                        S = tools.sub_object(X, U)
                        (S0, i0), (S1, i1) = (_sub_rep_oracle(cat, X.component(0), U0),
                                              _sub_rep_oracle(cat, X.component(1), U1))
                        assert S.signature() == Cx2(
                            cat, S0, S1, _restrict_oracle(cat, X.diff(0), S0, i0, S1, i1),
                            _restrict_oracle(cat, X.diff(1), S1, i1, S0, i0)).signature()
                        Qc = tools.quotient_complex(X, U)
                        (Q0, p0), (Q1, p1) = (_quotient_oracle(cat, X.component(0), U0),
                                              _quotient_oracle(cat, X.component(1), U1))
                        assert Qc.signature() == Cx2(
                            cat, Q0, Q1, _induce_quotient_oracle(cat, X.diff(0), Q0, p0, Q1, p1),
                            _induce_quotient_oracle(cat, X.diff(1), Q1, p1, Q0, p0)).signature()
                        counts["sub-complexes"] += 1
                    middles[X.signature()] = X
            folds = [Y for X in pool if not X.is_zero()
                     for Y in (_fold(X), _fold(X).shift(1))]
            for X in pool + list(middles.values()) + folds:
                H = tools.homology(X)
                assert {m: H[m].signature() for m in X.degrees()} == {
                    m: _homology_at_oracle(cat, X.component(m), X.diff(m),
                                           X.diff(m - 1)).signature()
                    for m in X.degrees()}
                counts["homology"] += 1
            for key in cat.iso_classes_up_to(3):
                C = key.rep
                for d in product(*(range(c + 1) for c in C.dim)):
                    for U in cat.submodules_with_dim(C, d):
                        S, incl = cat.sub_rep(C, U)
                        S_o, incl_o = _sub_rep_oracle(cat, C, U)
                        assert (S.signature(), incl.entries_flat()) == \
                            (S_o.signature(), incl_o.entries_flat())
                        Qt, proj = cat.quotient(C, U)
                        Qt_o, proj_o = _quotient_oracle(cat, C, U)
                        assert (Qt.signature(), proj.entries_flat()) == \
                            (Qt_o.signature(), proj_o.entries_flat())
                        counts["submodules"] += 1
    assert counts["sub-complexes"] > 100 and counts["homology"] > 100 \
        and counts["submodules"] > 100, counts


# The module pools of the sub-object walk and Hall count cross-checks.
WALK_POOLS = ((a_n_quiver(2), 2), (a_n_quiver(2), 3), (Quiver(2, [(1, 2), (1, 2)]), 2))


def _walk_pools():
    """(engine, objects): for each of WALK_POOLS the representations of the
    bound-3 iso classes, then the middle terms of the extensions of the
    bridgeland-compare pool (bound 3, pairs of total dimension <= 4)."""
    for qv, p in WALK_POOLS:
        cat = RepCategory(qv, p)
        yield cat, [k.rep for k in cat.iso_classes_up_to(3)]
        alg = SDH2Algebra(cat)
        middles = {E.signature(): E for L, M in _ext_pairs(proj_complex_pool(alg, 3), 4)
                   for _f, E, _w in alg.tools.ext1_classes_proj(L, M)}
        yield alg.tools, list(middles.values())


def test_additive_hom_dim_matches_the_solve():
    """hom_dim, summed over the cached summand classes of both objects when
    they are known, equals the dimension of the solved Hom(X, Y): on the
    module keys and on the complexes of _walk_pools, every summand class
    cached, over every pair of the first 40 objects of each pool."""
    additive = 0
    for ks, objects in _walk_pools():
        objects = objects[:40]
        for X in objects:
            ks._groups(X)
        for X, Y in product(objects, repeat=2):
            solved = len(intertwiners(ks.p, *ks.hom_equations(X, Y)))
            assert ks.hom_dim(X, Y) == solved, (X, Y)
            additive += sum(m for _, m in ks._groups(X) + ks._groups(Y)) > 2
    assert additive > 1000, additive


def test_hom_bases_match_equations_written_per_category():
    """KrullSchmidt.hom_equations, one builder over the sides and structure
    maps of both objects over their span, solves to the flat hom bases of
    the equations written per category (oracles.module_hom_equations and
    chain_map_equations): both are read off the unique rref, so the flat
    layouts agree.  On every pair of the first 30 objects of each of
    _walk_pools, and for the complexes on every pair of Z-graded two-term
    folds of 12 of them, each also in degrees 1, 2 and in degrees 3, 4:
    the same, overlapping and disjoint degrees."""
    counts = Counter()
    for ks, objects in _walk_pools():
        objects = objects[:30]
        if isinstance(ks, RepCategory):
            oracle, groups = module_hom_equations, [("modules", objects)]
        else:
            folds = [_fold(X) for X in objects[:12] if not X.is_zero()]
            oracle = chain_map_equations
            groups = [("Z/2", objects),
                      ("Z", folds + [Y.shift(k) for Y in folds for k in (-1, -3)])]
        for name, group in groups:
            for X, Y in product(group, repeat=2):
                basis = [f.entries_flat() for f in ks.hom_basis(X, Y)]
                assert basis == intertwiners(ks.p, *oracle(ks, X, Y)), (X, Y)
                kind = name
                if name == "Z" and X.degrees() != Y.degrees():
                    kind = "overlapping" if set(X.degrees()) & set(Y.degrees()) else "disjoint"
                counts[kind, bool(basis)] += 1
    assert min(counts[name, True] for name in ("modules", "Z/2", "Z", "overlapping")) > 100 \
        and counts["disjoint", False] > 100, counts


def test_sub_object_walk_matches_filter_of_every_subspace_tuple():
    """The walk, which tests each structure map as soon as both its sides
    are chosen, gives the tuples, in order, that sub_object builds (its
    coordinate read refuses the rest) among all of
    itertools.product over echelon_subspaces, for every dimension per side."""
    counts = Counter()
    for ks, objects in _walk_pools():
        for X in objects:
            sides = ks.sides(X)
            for dims in product(*(range(c + 1) for c in sides)):
                built = []
                for U in product(*(echelon_subspaces(ks.p, c, d) for c, d in zip(sides, dims))):
                    try:
                        ks.sub_object(X, U)
                    except NotASubmodule:
                        counts["refused", type(ks).__name__] += 1
                        continue
                    built.append(U)
                assert ks.sub_objects(X, dims) == built, (X, dims)
                counts["found", type(ks).__name__] += len(built)
    assert min(counts.values()) > 40, counts


def test_module_hall_count_matches_interned_key_count():
    """The Hall count by is_isomorphic equals the count by interned keys of
    sub and quotient that it replaced, on every triple of the bound-3 pools,
    zero counts included."""
    nonzero = 0
    for qv, p in WALK_POOLS:
        cat = RepCategory(qv, p)
        keys = cat.iso_classes_up_to(3)
        for C in keys:
            by_keys = Counter()
            for d in product(*(range(c + 1) for c in C.dim)):
                for U in cat.submodules_with_dim(C.rep, d):
                    by_keys[cat.intern(cat.quotient(C.rep, U)[0]),
                            cat.intern(cat.sub_rep(C.rep, U)[0])] += 1
            for A, B in product(keys, keys):
                if tuple(a + b for a, b in zip(A.dim, B.dim)) == C.dim:
                    assert cat.hall_count(A.rep, C.rep, B.rep) == by_keys[A, B], (A, B, C)
                    nonzero += by_keys[A, B] > 0
    assert nonzero > 50, nonzero


# The pools of bridgeland-compare at the CLI's pool bound 3.
BRIDGELAND_POOLS = tuple((qv, p) for qv in (Quiver(1, []), a_n_quiver(2), a_n_quiver(3))
                         for p in (2, 3)) + ((Quiver(2, [(1, 2), (1, 2)]), 2),)


def _hall_count_triples():
    """(name, engine, triples): for each of BRIDGELAND_POOLS ("pool") every
    (L, X, M) of its pool pairs of total dimension <= 4 with X a middle term
    of the pool (one per normal form) of the sides of M (+) L, and ("folds")
    the Z-graded folds of those with X a middle term of L by M, M or L often
    spanning fewer degrees than X; for each of WALK_POOLS ("modules") every
    (A, C, B) of the bound-3 module classes with dim C = dim A + dim B."""
    for qv, p in BRIDGELAND_POOLS:
        alg = SDH2Algebra(RepCategory(qv, p))
        tools = alg.tools
        pairs = _ext_pairs(proj_complex_pool(alg, 3), 4)
        routes = []
        for L, M in pairs:
            found = {}
            for _f, E, _w in tools.ext1_classes_proj(L, M):
                found.setdefault(alg.normal_form(E)[1:], E)
            routes += [(L, X, M) for X in found.values()]
        middles = {X.signature(): X for _, X, _ in routes}
        yield "pool", tools, [(L, X, M) for L, M in pairs for X in middles.values()
                              if tools.sides(X) == tuple(a + b for a, b in
                                                         zip(tools.sides(M), tools.sides(L)))]
        yield "folds", tools, [tuple(map(_fold, triple)) for triple in routes]
    for qv, p in WALK_POOLS:
        cat = RepCategory(qv, p)
        reps_ = [k.rep for k in cat.iso_classes_up_to(3)]
        yield "modules", cat, [(A, C, B) for C in reps_ for A in reps_ for B in reps_
                               if tuple(a + b for a, b in zip(A.dim, B.dim)) == C.dim]


def _counting(counts, key, fn):
    def counted(*args):
        counts[key] += 1
        return fn(*args)
    return counted


def test_hall_count_matches_object_building_oracle(monkeypatch):
    """hall_count, which decides sub-objects and quotients from their flat
    data, equals the count that builds each of them and tests it with
    is_isomorphic (oracles.hall_count_by_objects) on every triple of
    _hall_count_triples, zero counts included.  On each of them it builds
    an object for at most 10% of the sub-objects and quotients that it tests
    (_restricted_rows and _quotient_rows calls), so the fast path cannot
    quietly stop being taken: on the folds too, whose sub or quotient often
    spans fewer degrees than X and is read over X's."""
    counts = Counter()
    for name, ks, triples in _hall_count_triples():
        with monkeypatch.context() as m:
            for fn in ("_restricted_rows", "_quotient_rows"):
                m.setattr(reps, fn, _counting(counts, ("tested", name), getattr(reps, fn)))
            m.setattr(ks, "from_structure",
                      _counting(counts, ("built", name), ks.from_structure))
            got = [ks.hall_count(*triple) for triple in triples]
        assert got == [hall_count_by_objects(ks, *triple) for triple in triples], name
        counts["nonzero", name] += sum(g > 0 for g in got)
        counts["zero", name] += got.count(0)
    assert min(counts["nonzero", name] for name in ("pool", "folds", "modules")) > 150 \
        and min(counts["zero", name] for name in ("pool", "modules")) > 150, counts
    for name in ("pool", "folds", "modules"):
        assert counts["built", name] <= counts["tested", name] // 10, counts


def test_from_structure_inverts_structure_maps():
    """from_structure(X, sides(X), the matrices of structure_maps(X)) gives X
    back: on the modules of the bound-3 iso classes of WALK_POOLS, on the
    bridgeland-compare pool complexes (bound 3), on their Z-graded two-term
    folds and on the zero Z complex."""
    counts = Counter()
    for qv, p in WALK_POOLS:
        cat = RepCategory(qv, p)
        alg = SDH2Algebra(cat)
        pool = proj_complex_pool(alg, 3)
        folds = [_fold(X) for X in pool if not X.is_zero()]
        for ks, objects in ((cat, [k.rep for k in cat.iso_classes_up_to(3)]),
                            (alg.tools, pool + folds + [zero_complex(cat)])):
            for X in objects:
                Y = ks.from_structure(X, ks.sides(X), [f for f, _, _ in ks.structure_maps(X)])
                assert Y.signature() == X.signature(), X
                counts[getattr(X, "period", "module")] += 1
    assert len(counts) == 3 and min(counts.values()) > 20, counts


def test_shifts_pass_the_public_checks():
    """shift, contractible, stalk_cxb, proj_complex_pool, the resolutions
    (cx2.resolution) of minimal_complex and of the Z key representatives,
    middle_term (direct sums, and the middles of ext1_classes_proj over
    chain maps from hom_basis) and from_structure (sub_object and
    quotient_object) build their complexes without the checks of the
    constructor.  On each of WALK_POOLS, in both gradings, the public
    constructor rebuilds every complex they build with an equal signature:
    the pool complexes (bound 3), the representatives of their homology
    and the stalks of its modules, the contractible complexes on the indecomposable projectives, and, from
    the pool complexes and from their Z-graded two-term folds and the
    shifts of these, the shifts once, twice and three times, the direct
    sums and extension middles of the pairs of total dimension at most 3,
    and the images and kernels of the basis endomorphisms of each distinct
    middle as sub-objects and quotients."""
    counts = Counter()

    def check(kind, Y):
        Z = Complex(Y.cat, Y.lo, Y.comps, Y.diffs, Y.period)
        assert Z.signature() == Y.signature(), (kind, Y)
        counts[kind, Y.period] += 1

    for qv, p in WALK_POOLS:
        cat = RepCategory(qv, p)
        alg, algz = SDH2Algebra(cat), SDHZAlgebra(cat)
        tools = alg.tools
        pool = proj_complex_pool(alg, 3)
        for X in pool:
            H = tools.homology(X)
            check("pool", X)
            check("minimal", minimal_complex(cat, H[0], H[1]))
            check("minimal", algz.rep_of_key(tuple(
                (m, cat.intern(Hm)) for m, Hm in H.items() if not Hm.is_zero())))
            for m, Hm in H.items():
                check("stalk", stalk_cxb(cat, Hm, m))
        for i, m in product(range(1, qv.n + 1), (-1, 0, 1)):
            for period in (2, None):
                check("contractible", contractible(cat, cat.projective(i), m, period))
        folds = [_fold(X) for X in pool if not X.is_zero()]
        for objects in (pool, folds + [Y.shift(1) for Y in folds]):
            for X, k in product(objects, (1, 2, 3)):
                check("shift", X.shift(k))
                assert X.period or X.shift(k).lo == X.lo - k
            middles = {}
            for L, M in _ext_pairs(objects, 3):
                check("direct sum", direct_sum([L, M]))
                for _f, E, _w in tools.ext1_classes_proj(L, M):
                    check("middle", E)
                    middles[E.signature()] = E
            for E in middles.values():
                for f in tools.hom_basis(E, E):
                    check("sub-object", tools.sub_object(E, tools.image_subspaces(f)))
                    check("quotient", tools.quotient_object(E, tools.kernel_subspaces(f)))
    assert len(counts) == 16 and min(counts.values()) > 15, counts


def test_key_representatives_are_their_own_normal_forms():
    """On each of WALK_POOLS, for both algebras and every key that the
    homology of the bound-3 pool reaches (for Z, of its two-term folds and
    their shifts by -1 and 1), normal_form(rep_of_key(key)) is (1, the zero
    lattice point, key), and component d of the representative has
    dimension dim P0(H^d) + dim P1(H^(d+1))."""
    counts = Counter()
    for qv, p in WALK_POOLS:
        cat = RepCategory(qv, p)
        alg, algz = SDH2Algebra(cat), SDHZAlgebra(cat)
        pool = proj_complex_pool(alg, 3)
        folds = [_fold(X) for X in pool if not X.is_zero()]
        sources = {alg: pool, algz: folds + [Y.shift(k) for Y in folds for k in (-1, 1)]}
        for a, objects in sources.items():
            keys = {a._from_slots({m: cat.intern(H) for m, H in a.tools.homology(X).items()
                                   if not H.is_zero()}, cat.zero_key()) for X in objects}
            zero = (0,) * qv.n
            for key in keys:
                R = a.rep_of_key(key)
                assert a.normal_form(R) == (q_power(p, 0), a._from_slots({}, a._zero), key)
                res = {m: cat.min_proj_resolution(k.rep) for m, k in a._homology_parts(key)}
                for d in set(R.degrees()) | {a.deg(m + e) for m in res for e in (-1, 0)}:
                    p0 = res[d][1].dim if d in res else zero
                    p1 = res[a.deg(d + 1)][0].dim if a.deg(d + 1) in res else zero
                    assert R.component(d).dim == tuple(map(sum, zip(p0, p1))), (key, d)
                counts[a.period] += 1
    assert counts[2] > 40 and counts[None] > 80, counts


# The pools of the stalk-pair cross-check: (quiver, q, bound of the iso classes).
STALK_POOLS = ((a_n_quiver(2), 2, 3), (a_n_quiver(2), 3, 2), (a_n_quiver(3), 2, 2),
               (KRONECKER, 2, 2))


def _key_pair_outcome(route, k1, k2):
    """(hom, {term: coefficient}, number of terms) of one key-pair route, or
    "WindowExceeded"."""
    try:
        hom, terms = route(k1, k2)
    except WindowExceeded:
        return "WindowExceeded"
    return hom, dict(terms), len(terms)


def test_stalk_key_pairs_match_resolution_route():
    """_key_pair reads zero-key and same-degree stalk pairs off the Hall
    numbers.  On every such pair of the pools (Z/2 in degrees 0 and 1, Z in
    degrees -1, 0 and 1) it gives the hom and the terms, with exact
    coefficients, of the resolution route it bypasses.  The stalk embedding
    of each degree is multiplicative, E_A . E_B = sum over C of
    |Ext^1(A, B)_C| / |Hom(A, B)| E_C, and injective on iso classes."""
    pairs = 0
    for qv, p, bound in STALK_POOLS:
        cat = RepCategory(qv, p)
        classes = cat.iso_classes_up_to(bound)
        nonzero = [k for k in classes if any(k.dim)]
        hall = HallAlgebra(cat, cross_check="sampled")
        zero = cat.zero_key()
        algz = SDHZAlgebra(cat)
        # one Z/2 algebra per degree, so that neither reads its pairs off
        # the shift partners of the other degree
        cases = [(SDH2Algebra(cat), m, lambda k, m=m: (zero, k) if m else (k, zero))
                 for m in (0, 1)]
        cases += [(algz, m, lambda k, m=m: ((m, k),) if any(k.dim) else ()) for m in (-1, 0, 1)]
        for alg, m, key in cases:
            for A, B in product(classes, classes):
                k1, k2 = key(A), key(B)
                assert _key_pair_outcome(alg._key_pair, k1, k2) == \
                    _key_pair_outcome(alg._resolution_pair, k1, k2), (p, m, A, B)
                pairs += 1
            for A, B in product(nonzero, nonzero):
                rhs = alg.zero()
                for C, c in hall.product_pair(A, B).terms.items():
                    rhs += alg.stalk_term(C.rep, m).scale_scalar(c)
                assert alg.product(alg.stalk_term(A.rep, m), alg.stalk_term(B.rep, m)) == rhs
            stalks = [alg.stalk_term(A.rep, m) for A in nonzero]
            assert len({frozenset(s.terms) for s in stalks}) == len(nonzero)
            if alg is algz:
                assert all(s == algz.u_gen(A.rep, m) for s, A in zip(stalks, nonzero))
    assert pairs > 2000, pairs
    # At the bottom of the window a stalk key's resolution reaches torus
    # slot WINDOW_LO - 1; both routes still agree on the key pair, and the
    # product refuses the terms there.
    cat = RepCategory(a_n_quiver(2), 2)
    alg = SDHZAlgebra(cat)
    S1, S2 = (((WINDOW_LO, cat.intern(cat.simple(i))),) for i in (1, 2))
    new = _key_pair_outcome(alg._key_pair, S1, S2)
    assert new == _key_pair_outcome(alg._resolution_pair, S1, S2)
    assert new != "WindowExceeded" and any(ell for ell, _key in new[1])
    with pytest.raises(WindowExceeded):
        alg.productZ(alg.term((), S1), alg.term((), S2))


def test_cone_key_pairs_match_resolution_route():
    """_key_pair reads a pair of stalk keys in different degrees off
    Hom(A, B).  On every such pair of nonzero classes of the pools, at bound
    at most 2 (Z/2 in degrees (0, 1) and (1, 0), Z from degree 0 to degrees
    -2, -1, 1 and 2), it gives the hom and the terms, with exact
    coefficients, of the resolution route it bypasses; so it does at the
    bottom of the Z window, where a term can reach torus slot WINDOW_LO - 1
    and the product refuses it."""
    pairs = 0
    for qv, p, bound in STALK_POOLS:
        cat = RepCategory(qv, p)
        nonzero = [k for k in cat.iso_classes_up_to(min(bound, 2)) if any(k.dim)]
        zero = cat.zero_key()
        algz = SDHZAlgebra(cat)

        def z2(k, m):
            return (zero, k) if m else (k, zero)

        # one Z/2 algebra per orientation, as in the stalk-pair test
        cases = [(SDH2Algebra(cat), z2, m, 1 - m) for m in (0, 1)]
        cases += [(algz, lambda k, m: ((m, k),), 0, m2) for m2 in (-2, -1, 1, 2)]
        for alg, key, m, m2 in cases:
            for A, B in product(nonzero, nonzero):
                k1, k2 = key(A, m), key(B, m2)
                assert _key_pair_outcome(alg._key_pair, k1, k2) == \
                    _key_pair_outcome(alg._resolution_pair, k1, k2), (p, m, m2, A, B)
                pairs += 1
    assert pairs > 1000, pairs
    cat = RepCategory(a_n_quiver(2), 2)
    alg = SDHZAlgebra(cat)
    nonzero = [k for k in cat.iso_classes_up_to(2) if any(k.dim)]
    for A, B in product(nonzero, nonzero):
        for m, m2 in ((WINDOW_LO, WINDOW_LO + 1), (WINDOW_LO + 1, WINDOW_LO)):
            k1, k2 = ((m, A),), ((m2, B),)
            assert _key_pair_outcome(alg._key_pair, k1, k2) == \
                _key_pair_outcome(alg._resolution_pair, k1, k2), (m, A, B)
    # id: S1 -> S1 has ker 0, so P1(S1) = P2 is left in torus slot WINDOW_LO - 1.
    S1 = cat.intern(cat.simple(1))
    k1, k2 = ((WINDOW_LO, S1),), ((WINDOW_LO + 1, S1),)
    assert any(any(m < WINDOW_LO for m, _c in ell) for (ell, _key), _c in alg._key_pair(k1, k2)[1])
    with pytest.raises(WindowExceeded):
        alg.productZ(alg.term((), k1), alg.term((), k2))


def test_single_stalk_pairs_skip_resolution_route(monkeypatch):
    """Every pair of single-stalk keys comes from module data: A3 q=3
    presentation-uv and A2 q=3 reflection pass without one call of
    _resolution_pair on such a pair, and take some pairs from the lines of
    Hom(A, B)."""
    stalk_pairs, hom_walks = [], []
    resolution_pair, lines = SemiDerivedAlgebra._resolution_pair, sdh.projective_points

    def counted_resolution_pair(self, k1, k2):
        if len(self._homology_parts(k1)) == len(self._homology_parts(k2)) == 1:
            stalk_pairs.append((k1, k2))
        return resolution_pair(self, k1, k2)

    def counted_lines(*args):
        hom_walks.append(args)
        return lines(*args)

    monkeypatch.setattr(SemiDerivedAlgebra, "_resolution_pair", counted_resolution_pair)
    monkeypatch.setattr(sdh, "projective_points", counted_lines)
    for rows in (suite_presentation_uv(RepCategory(a_n_quiver(3), 3)),
                 suite_reflection(RepCategory(a_n_quiver(2), 3), 2)):
        assert rows and all(row[1] == "pass" for row in rows)
    assert not stalk_pairs
    assert hom_walks


def test_cone_pair_scan_guard(monkeypatch):
    """The Hom(A, B) walk of a stalk pair in different degrees keeps the
    guard and count of the extension-class walk it replaces: on the
    Kronecker quiver Hom(S2, P1) has dimension 2, so S2 in degree 0 by P1
    in degree 1 runs within a budget of q^2 and trips the guard, named,
    below it."""
    cat = RepCategory(KRONECKER, 2)
    S2, P1 = cat.intern(cat.simple(2)), cat.intern(cat.projective(1))
    assert cat.hom_dim(S2.rep, P1.rep) == 2
    zero = cat.zero_key()
    k1, k2 = (S2, zero), (zero, P1)
    monkeypatch.setattr(reps, "SCAN_BUDGET", 3)
    with pytest.raises(BudgetExceeded, match=r"^extension-class enumeration: 2\^2 = 4 > "
                                             r"SCAN_BUDGET 3$"):
        SDH2Algebra(cat)._key_pair(k1, k2)
    monkeypatch.setattr(reps, "SCAN_BUDGET", 4)
    alg = SDH2Algebra(cat)
    assert _key_pair_outcome(alg._key_pair, k1, k2) == \
        _key_pair_outcome(alg._resolution_pair, k1, k2)


def test_ext_class_counts_scan_guard(monkeypatch):
    """The extension-class walk of HallAlgebra is budgeted by dim Ext^1: on
    the Kronecker quiver Ext^1(S1, S2) has dimension 2, so it runs within a
    budget of q^2 and trips the guard, named, below it."""
    cat = RepCategory(KRONECKER, 2)
    S1, S2 = cat.intern(cat.simple(1)), cat.intern(cat.simple(2))
    monkeypatch.setattr(reps, "SCAN_BUDGET", 3)
    with pytest.raises(BudgetExceeded, match=r"^extension-class enumeration: 2\^2 = 4 > "
                                             r"SCAN_BUDGET 3$"):
        HallAlgebra(cat).ext_class_counts(S1, S2)
    monkeypatch.setattr(reps, "SCAN_BUDGET", 4)
    assert sum(HallAlgebra(cat).ext_class_counts(S1, S2).values()) == 4


def test_ext1_classes_proj_scan_guard(monkeypatch):
    """The extension-class walk of complexes is budgeted by dim Ext^1, not by
    the chain maps: stalk(k, 0) + K_k by stalk(k, 1) over one vertex has two
    chain maps to the shift but one class dimension, so at q = 3 it runs
    within a budget of 3 and trips the guard, named, below it."""
    cat = RepCategory(Quiver(1, []), 3)
    k = cat.rep((1,))
    Z = cat.zero_rep
    stalk0 = Cx2(cat, k, Z, cat.zero_map(k, Z), cat.zero_map(Z, k))
    L = direct_sum([stalk0, contractible(cat, k, 0, 2)])
    M = Cx2(cat, Z, k, cat.zero_map(Z, k), cat.zero_map(k, Z))
    tools = SDH2Algebra(cat).tools
    assert tools.hom_dim(L, M.shift()) == 2 and tools.homotopy_dim(L, M.shift()) == 1
    monkeypatch.setattr(reps, "SCAN_BUDGET", 2)
    with pytest.raises(BudgetExceeded, match=r"^extension-class enumeration: 3\^1 = 3 > "
                                             r"SCAN_BUDGET 2$"):
        tools.ext1_classes_proj(L, M)
    monkeypatch.setattr(reps, "SCAN_BUDGET", 3)
    assert sum(w for _f, _E, w in tools.ext1_classes_proj(L, M)) == 3


def test_complex_pool_scan_guard(monkeypatch):
    """The complex pool is budgeted, before any complex is built, by the
    p^(hom(M0, M1) + hom(M1, M0)) differentials of its largest pair of
    components: over one vertex at bound 3 that is k + k^2 both ways,
    2^4 at q = 2, so it builds within a budget of 16 and trips the guard,
    named, below it."""
    alg = SDH2Algebra(RepCategory(Quiver(1, []), 2))
    want = [X.signature() for X in proj_complex_pool(alg, 3)]
    monkeypatch.setattr(reps, "SCAN_BUDGET", 15)
    with pytest.raises(BudgetExceeded, match=r"^complex pool enumeration: 2\^4 = 16 > "
                                             r"SCAN_BUDGET 15$"):
        proj_complex_pool(alg, 3)
    monkeypatch.setattr(reps, "SCAN_BUDGET", 16)
    assert [X.signature() for X in proj_complex_pool(alg, 3)] == want and len(want) == 16


# The pools on which normal forms are checked against is_isomorphic.
NORMAL_FORM_QUIVERS = (a_n_quiver(1), a_n_quiver(2), a_n_quiver(3),
                       Quiver(4, [(1, 4), (2, 4), (3, 4)]), KRONECKER)


def test_normal_form_is_the_isomorphism_class_on_complex_pools():
    """On the bound-3 complex pools at q = 2 and 3, and at q = 2 on the
    middle terms of the pool pairs of total dimension <= 4 (the
    bridgeland-compare middles), two complexes have equal (g, key) of
    normal_form exactly when is_isomorphic holds, and removing duplicates
    by is_isomorphic, the pool's former route, gives the same pool."""
    pairs = Counter()
    for qv in NORMAL_FORM_QUIVERS:
        for p in (2, 3):
            alg = SDH2Algebra(RepCategory(qv, p))
            tools = alg.tools
            pool = proj_complex_pool(alg, 3)
            assert [X.signature() for X in pool] == \
                [X.signature() for X in complex_pool_by_isomorphism(tools, 3)]
            objects = pool if p > 2 else _with_middle_terms(tools, pool, 4)
            classes = [alg.normal_form(X)[1:] for X in objects]
            for (X, a), (Y, b) in product(zip(objects, classes), repeat=2):
                iso = tools.is_isomorphic(X, Y)
                assert (a == b) == iso, (qv.n, p, X, Y)
                pairs[iso] += X is not Y
    assert pairs[True] > 2000 and pairs[False] > 100000, pairs


def test_morphisms_from_coeffs_empty_basis_is_the_zero_morphism():
    """Both categories give the zero morphism X -> Y for an empty basis:
    Hom(P_1, S_2) = 0 on A2 although both have vertex 2, and so are the
    chain maps K_P1 -> K_S2."""
    cat = RepCategory(a_n_quiver(2), 2)
    P1, S2 = cat.projective(1), cat.simple(2)
    assert cat.hom_basis(P1, S2) == []
    f = cat.morphisms_from_coeffs(P1, S2, [], ())
    assert (f.dom, f.cod) == (P1, S2) and f.mats == cat.zero_map(P1, S2).mats
    assert f.entries_flat() == (0,)
    tools = SDH2Algebra(cat).tools
    X, Y = contractible(cat, P1, 0, 2), contractible(cat, S2, 0, 2)
    assert tools.hom_basis(X, Y) == []
    g = tools.morphisms_from_coeffs(X, Y, [], ())
    assert (g.dom, g.cod) == (X, Y) and g.entries_flat() == (0, 0)
    assert all(g.maps[m].mats == cat.zero_map(P1, S2).mats for m in (0, 1))


def test_hom_basis_is_one_cached_list_per_signature_pair():
    """hom_basis gives the same list object on a repeat call and for copies
    of equal signature, for modules and for complexes."""
    for qv, p in WALK_POOLS:
        cat = RepCategory(qv, p)
        tools = SDH2Algebra(cat).tools
        copy = lambda M: cat.rep(M.dim, M.maps)
        for M, N in product([cat.projective(1), cat.simple(2)], repeat=2):
            basis = cat.hom_basis(M, N)
            assert cat.hom_basis(M, N) is basis and cat.hom_basis(copy(M), copy(N)) is basis
        for X in proj_complex_pool(SDH2Algebra(cat), 3):
            X2 = Cx2(cat, copy(X.component(0)), copy(X.component(1)), X.diff(0), X.diff(1))
            assert X2 is not X and tools.hom_basis(X, X) is tools.hom_basis(X2, X2)
            assert tools.hom_basis(X2, X.shift()) is tools.hom_basis(X, X.shift())


def test_morphisms_from_coeffs_match_matrices_flattened_afresh():
    """morphisms_from_coeffs reads the flat vector each basis morphism keeps;
    its combination equals the one of the basis matrices flattened afresh,
    and so does the flat vector the result keeps: on the first 12 objects
    of each pool of _walk_pools (modules and complexes), one random
    coefficient vector per pair with Hom(X, Y) != 0."""
    rng = random.Random(13)
    counts = Counter()
    for ks, objects in _walk_pools():
        for X, Y in product(objects[:12], repeat=2):
            basis = ks.hom_basis(X, Y)
            if not basis:
                continue
            c = [rng.randrange(ks.p) for _ in basis]
            f = ks.morphisms_from_coeffs(X, Y, basis, c)
            fresh = [tuple(x for m in b.blocks() for x in m.entries_flat()) for b in basis]
            want = tuple(sum(ci * v[k] for ci, v in zip(c, fresh)) % ks.p
                         for k in range(len(fresh[0])))
            assert [b.entries_flat() for b in basis] == fresh
            assert tuple(x for m in f.blocks() for x in m.entries_flat()) == want
            assert f.entries_flat() == want
            counts[type(ks).__name__] += 1
    assert min(counts.values()) > 100, counts


def test_chain_map_images_and_kernels_match_module_route():
    """KrullSchmidt.image_subspaces and kernel_subspaces of a chain map, read
    per block, equal the module results concatenated degree by degree (the
    route of complexes before modules and complexes shared one layer), and
    the image and kernel of each block add up to its source side: on each
    basis element and one random element of End X, X a complex of
    _walk_pools."""
    rng = random.Random(11)
    count = 0
    for ks, objects in _walk_pools():
        if not isinstance(ks, Cx2Tools):
            continue
        cat = ks.cat
        for X in objects:
            basis = ks.hom_basis(X, X)
            coeffs = [rng.randrange(ks.p) for _ in basis]
            for f in basis + [ks.morphisms_from_coeffs(X, X, basis, coeffs)]:
                img, ker = ks.image_subspaces(f), ks.kernel_subspaces(f)
                assert img == tuple(U for s in f.maps.values() for U in cat.image_subspaces(s))
                assert ker == tuple(U for s in f.maps.values() for U in cat.kernel_subspaces(s))
                assert tuple(len(a) + len(b) for a, b in zip(img, ker)) == ks.sides(X)
                count += 1
    assert count > 200, count


# ----------------------------------------------------------------------
# caches shared along the shift


D4 = Quiver(4, [(1, 4), (2, 4), (3, 4)])
ROUTES = ("stalk", "resolution")
# The pools of the shift-partner cross-check: (quiver, q).
PARTNER_POOLS = ((a_n_quiver(2), 2), (a_n_quiver(2), 3), (a_n_quiver(3), 2),
                 (KRONECKER, 2), (KRONECKER, 3), (D4, 2))


def _count_calls(monkeypatch, calls, cls, name, label):
    """Count in calls[label, grading period] the calls of cls.name that
    return a value (not None)."""
    method = getattr(cls, name)

    def counted(self, *args):
        out = method(self, *args)
        if out is not None:
            calls[label, self.period] += 1
        return out
    monkeypatch.setattr(cls, name, counted)


def _partner_keys(cat):
    """Z/2 keys whose pairs take every route: a simple or P1 in one degree
    (stalk pairs, in one degree and across) and two simples in both
    degrees (resolution pairs)."""
    zero = cat.zero_key()
    simples = [cat.intern(cat.simple(i)) for i in range(1, cat.quiver.n + 1)]
    mods = simples + [cat.intern(cat.projective(1))]
    return ([(A, zero) for A in mods] + [(zero, A) for A in mods]
            + [(simples[0], simples[-1]), (simples[-1], simples[0])])


def test_key_pairs_served_by_shift_partners_match_first_hand(monkeypatch):
    """A pair of nonzero Z/2 keys whose shift partner is cached is read off
    it (_partner_pair).  Every ordered pair of _partner_keys, with its pair
    cache emptied and its partner computed first, is served so, and equals
    the same pair computed first-hand (no partner lookups) on a fresh
    algebra; both orientations of each partner pair are served in turn."""
    calls = Counter()
    for route in ROUTES:
        _count_calls(monkeypatch, calls, SemiDerivedAlgebra, f"_{route}_pair", route)
    for qv, p in PARTNER_POOLS:
        cat = RepCategory(qv, p)
        keys = _partner_keys(cat)
        served, first = SDH2Algebra(cat), SDH2Algebra(cat)
        first._partner_pair = lambda k1, k2: None
        for k1, k2 in product(keys, keys):
            served._pair_cache.clear()
            served._key_pair((k1[1], k1[0]), (k2[1], k2[0]))
            assert served._partner_pair(k1, k2) is not None
            assert _key_pair_outcome(served._key_pair, k1, k2) == \
                _key_pair_outcome(first._key_pair, k1, k2), (qv.arrows, p, k1, k2)
    assert {route for route, _period in calls} == set(ROUTES)


def _euler_lemma_specs(cat, t):
    """The generator symbols of suite_euler_lemmas, translated by t."""
    n = cat.quiver.n
    mods = [cat.simple(i) for i in range(1, n + 1)] + ([cat.projective(1)] if n > 1 else [])
    classes = [M.dim for M in mods] + [tuple(-d for d in M.dim) for M in mods]
    return ([("v", al, m + t) for al in classes for m in (0, 1, 2)]
            + [("u", B, m + t) for B in mods for m in (0, 1, 2)])


def test_euler_exponents_shared_across_translates():
    """_exponent keys its cache by the triple (R, K, Y) translated to lowest
    nonzero degree 0.  On every triple that euler-lemmas reaches, and on
    each of them translated by -3..3, it equals _exponent_uncached at the
    triple's own degrees; the triples include zero K (v-symbols and the
    u-symbol of the projective P1) and nonzero K, and the translates add no
    cache entry to those of the untranslated triples."""
    for qv, p in ((a_n_quiver(2), 2), (a_n_quiver(3), 3)):
        cat = RepCategory(qv, p)
        alg = SDHZAlgebra(cat)
        for t in (0, -3, -2, -1, 1, 2, 3):
            specs = _euler_lemma_specs(cat, t)
            triples = {(R, K, Y) for s1, s2 in product(specs, specs)
                       for _s1, R, K, _X in alg._pieces(s1) for _s2, _R, _K, Y in alg._pieces(s2)}
            assert any(K.is_zero() for _R, K, _Y in triples)
            assert any(not K.is_zero() for _R, K, _Y in triples)
            for R, K, Y in triples:
                assert alg._exponent(R, K, Y) == alg._exponent_uncached(R, K, Y), (t, R, K, Y)
            if t == 0:
                entries = len(alg._euler_cache)
            assert len(alg._euler_cache) == entries < len(triples), t


def test_reflection_star_rows_read_no_shift_partners(monkeypatch):
    """The rows *t_i = t_i* of the reflection suite compute both sides, xi
    and the term images among them, with no key pair read off a shift
    partner, so the row stays an independent check of the shift."""
    def refuse(self, k1, k2):
        raise AssertionError("shift-partner lookup")

    monkeypatch.setattr(SDH2Algebra, "_partner_pair", refuse)
    for qv, sink in ((a_n_quiver(2), 2), (a_n_quiver(3), 3), (KRONECKER, 2)):
        refl = SinkReflection(RepCategory(qv, 3), sink)
        for name, x in refl.generator_elements():
            lhs = refl.t_hat(refl.alg.reduced_star(x))
            rhs = refl.alg2.reduced_star(refl.t_hat(x))
            assert (lhs - rhs).is_zero(), name


# The suites of one pass of the benchmark's "suites" workload (its negative
# controls aside), with its sample counts and seed 0.
SUITE_PASS = {"ringel": 0, "presentation-uv": 0, "euler-lemmas": 0, "assoc-z": 1,
              "assoc-z2": 1, "quantum-group": 0, "reflection": 0,
              "torus-commutation": 0, "quotient-relations": 2}


def test_shift_orbit_cache_counts(monkeypatch):
    """One pass of SUITE_PASS on A2 at q = 2, 3 and A3 at q = 3 computes 495
    Euler triples from scratch (891 when each triple had its own), and 142
    of its 272 pairs of nonzero Z/2 keys first-hand, reading the other 130
    off their shift partners; the Z key pairs are all first-hand."""
    calls = Counter()
    for route in ROUTES:
        _count_calls(monkeypatch, calls, SemiDerivedAlgebra, f"_{route}_pair", route)
    _count_calls(monkeypatch, calls, SDH2Algebra, "_partner_pair", "partner")
    _count_calls(monkeypatch, calls, SDHZAlgebra, "_exponent_uncached", "euler")
    for qv, p in ((a_n_quiver(2), 2), (a_n_quiver(2), 3), (a_n_quiver(3), 3)):
        for suite, samples in SUITE_PASS.items():
            rows = SUITES[suite](RepCategory(qv, p), samples, 0, qv.n, False)
            assert rows and all(row[1] == "pass" for row in rows), suite
    assert calls == {("euler", None): 495,
                     ("stalk", 2): 131, ("resolution", 2): 11,
                     ("partner", 2): 130,
                     ("stalk", None): 142, ("resolution", None): 2}
