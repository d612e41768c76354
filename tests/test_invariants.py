"""Cross-cutting property tests tying the layers together."""

import random
from collections import Counter
from itertools import product

from quiverhall.cx2 import Cx2, middle_term, zero_morphism
from quiverhall.hall import HallAlgebra
from quiverhall.linalg import FpMatrix
from quiverhall.quiver import Quiver, a_n_quiver
from quiverhall.reps import Rep, RepCategory, RepMorphism
from quiverhall.scalars import LinComb, q_power
from quiverhall.sdh2 import SDH2Algebra
from quiverhall.sdhz import SDHZAlgebra, two_term_cxb
from quiverhall.suites import (
    proj_complex_pool,
    suite_quotient_relations,
    suite_torus_commutation,
)

# The extension-class enumerators and the invertible scans walk one vector
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
                scan = sum(1 for f in cat.end_scan(M)
                           if f is not None and f.is_isomorphism())
                assert scan == cat.aut_count(M), (p, qv.n, M.dim)


def _scan_cx2_isos(tools, X, Y):
    """Brute force: the chain maps X -> Y, each built as a morphism, that
    are invertible."""
    basis = tools.chain_maps_basis(X, Y)
    return (c for c in product(range(tools.cat.p), repeat=len(basis))
            if tools._from_coeffs(basis, c, X, Y).is_isomorphism())


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
                    same_dims = X.M0.dim == Y.M0.dim and X.M1.dim == Y.M1.dim
                    brute = same_dims and any(True for _ in _scan_cx2_isos(tools, X, Y))
                    assert tools.is_isomorphic(X, Y) == brute, (p, X, Y)
                    hits += brute
                assert hits == 1, (p, X)


def _scan_rep_isos(cat, M, N):
    """Brute force: the morphisms M -> N, each built as an object, that are
    invertible."""
    basis = cat.hom_basis(M, N)
    return (f for f in (cat.morphisms_from_coeffs(basis, c)
                        for c in product(range(cat.p), repeat=len(basis)))
            if f is not None and f.is_isomorphism())


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
    # comes from the GL formula; the scan fallback needs a non-brick summand.
    def weighted_scan(cat, M):
        return sum(w for _, w in cat.invertible_coeffs(cat.hom_basis(M, M), M.dim, "test"))

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
        if p < 5:
            # aut_count first interns R, whose canonical form searches the
            # GL_2 x GL_2 orbit: 230400 base changes at q = 5.
            assert len(kron.decompose(R)) == 1 and kron.hom_dim(R, R) == 2
            assert kron.aut_count(R) == (p - 1) * p


def test_flat_combination_matches_scale_and_add():
    rng = random.Random(9)
    cat = RepCategory(a_n_quiver(2), 3)
    tools = SDH2Algebra(cat).tools
    for X in proj_complex_pool(SDH2Algebra(cat), 3)[1:]:
        basis = tools.chain_maps_basis(X, X)
        rbasis = cat.hom_basis(X.M0, X.M0) or cat.hom_basis(X.M1, X.M1)
        for _ in range(5):
            c = [rng.randrange(-3, 6) for _ in basis]
            f = tools._from_coeffs(basis, c, X, X)
            g0, g1 = basis[0].maps[0].scale(c[0]), basis[0].maps[1].scale(c[0])
            for b, ci in zip(basis[1:], c[1:]):
                g0, g1 = g0 + b.maps[0].scale(ci), g1 + b.maps[1].scale(ci)
            assert f.maps[0].mats == g0.mats and f.maps[1].mats == g1.mats
            c = [rng.randrange(-3, 6) for _ in rbasis]
            h = rbasis[0].scale(c[0])
            for b, ci in zip(rbasis[1:], c[1:]):
                h = h + b.scale(ci)
            assert cat.morphisms_from_coeffs(rbasis, c).mats == h.mats


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
                basis = tools.chain_maps_basis(L, SM)
                lines = Counter()
                for _f, E, w in tools.ext1_classes_proj(L, M):
                    lines[alg.normal_form(E)] += w
                # every chain map, so each class is met p^(homotopy dim) times
                full = Counter(
                    alg.normal_form(middle_term(L, M, tools._from_coeffs(basis, c, L, SM)))
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
                    Y = two_term_cxb(cat, 0, X.M0, X.M1, X.d0)
                    pool += [Y, Y.shift(1)]
            for L, M in _ext_pairs(pool, _bound(p) + 1):
                SM = M.shift(1)
                basis = tools.chain_maps_basis(L, SM)
                lines = Counter()
                for _f, E, w in tools.ext1_classes_proj(L, M):
                    lines[alg.normal_form(E)] += w
                full = Counter(
                    alg.normal_form(middle_term(L, M, tools._from_coeffs(basis, c, L, SM)))
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
                Y = two_term_cxb(cat, 0, X.M0, X.M1, X.d0)
                Z = Cx2(cat, X.M0, X.M1, X.d0, zero_morphism(cat, X.M1, X.M0))
                pairs.append((Y, Z))
                hY, hZ = tools.homology(Y), tools.homology(Z)
                for b in (0, 1):
                    if b in hY:
                        assert cat.intern(hY[b]) == cat.intern(hZ[b]), (p, X, b)
                    else:
                        assert hZ[b].is_zero(), (p, X, b)
            for Y1, Z1 in pairs:
                for Y2, Z2 in pairs:
                    assert ([f.entries_flat() for f in tools.chain_maps_basis(Y1, Y2)]
                            == [f.entries_flat() for f in tools.chain_maps_basis(Z1, Z2)])
                    assert tools.homotopy_subspace(Y1, Y2) == tools.homotopy_subspace(Z1, Z2)


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
                    D = cat.direct_sum([C, P0])
                    full = Counter()
                    for c in product(range(p), repeat=len(HB1)):
                        f = cat.morphisms_from_coeffs(HB1, c)
                        graph = RepMorphism(P1, D, [FpMatrix.vstack([f.mats[i], -incl.mats[i]])
                                                    for i in range(cat.quiver.n)])
                        full[cat.intern(cat.quotient(D, cat.image_subspaces(graph))[0])] += 1
                    # each class is met once per element of Hom(P0, C) o incl
                    restricted = [g.compose(incl).entries_flat()
                                  for g in cat.hom_basis(P0, C)]
                    mult = p ** (FpMatrix(p, restricted).rank() if restricted else 0)
                    counts = hall.ext_class_counts(A, B)
                    assert full == Counter({k: n * mult for k, n in counts.items()}), (p, A, B)


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
        comps = tuple(u + v for u, v in zip(R.M0.dim, R.M1.dim))
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
    base_exp = (alg.exp_g_Y(g2, R1) - alg.exp_Y_g(R1, g2) - alg.exp_g_h(g1, g2)
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
    base_exp = (alg.exp_g_Y(g2, R1) - alg.exp_Y_g(R1, g2) - alg.exp_g_h(g1, g2)
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
                        assert alg2._product_terms(t1, t2) == \
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
                        assert algz._product_terms(t1, t2) == \
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
    lo, hi = (X.lo, X.hi) if not X.is_zero() else (0, -1)
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
    rank0 = tuple(m.rank() for m in X.d0.mats)
    rank1 = tuple(m.rank() for m in X.d1.mats)
    P1H0 = cat.min_proj_resolution(k0.rep)[0]
    P1H1 = cat.min_proj_resolution(k1.rep)[0]
    alpha = alg.coords(tuple(r - d for r, d in zip(rank0, P1H1.dim)))
    beta = alg.coords(tuple(r - d for r, d in zip(rank1, P1H0.dim)))
    R = alg.rep_of_key((k0, k1))
    exp = (sum(a * d for a, d in zip(alpha, R.M0.dim))
           + sum(b * d for b, d in zip(beta, R.M1.dim)))
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
                    Y = two_term_cxb(cat, 0, X.M0, X.M1, X.d0)
                    poolz += [Y, Y.shift(1), Y.shift(-2)]
            for X in _with_middle_terms(alg2.tools, pool2, 4):
                assert alg2.normal_form(X) == _z2_rank_nf(alg2, X), (p, n, X)
            for X in _with_middle_terms(algz.tools, poolz, 4):
                assert algz.normal_form(X) == _ledger_walk_nf(algz, X), (p, n, X)
