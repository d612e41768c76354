"""Cross-cutting property tests tying the layers together."""

import random
from itertools import product

from quiverhall.hall import HallAlgebra
from quiverhall.linalg import FpMatrix
from quiverhall.quiver import Quiver, a_n_quiver
from quiverhall.reps import Rep, RepCategory
from quiverhall.sdh2 import SDH2Algebra
from quiverhall.suites import (
    proj_complex_pool,
    suite_quotient_relations,
    suite_torus_commutation,
)


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
            if tools._cx2_from_coeffs(basis, c, X, Y).is_isomorphism())


def test_cx2_aut_count_and_is_isomorphic_match_scan():
    for qv in (Quiver(1, []), a_n_quiver(2)):
        for p in (2, 3):
            cat = RepCategory(qv, p)
            alg = SDH2Algebra(cat)
            tools = alg.tools
            pool = proj_complex_pool(alg, 3)
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
        for p in (2, 3):
            cat = RepCategory(qv, p)
            # The zero rep has an empty hom basis, which the scan cannot walk.
            pool = [key.rep for key in cat.iso_classes_up_to(3) if not key.rep.is_zero()]
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
    for p in (2, 3):
        cat = RepCategory(Quiver(1, []), p)
        M = cat.rep((2,))
        assert cat.aut_count(M) == sum(1 for _ in _scan_rep_isos(cat, M, M)) \
            == (p * p - 1) * (p * p - p)
        # The Kronecker module with arrows 1 and a nilpotent Jordan block is
        # indecomposable with End = k[x]/(x^2): |Aut| = (p - 1) p.
        kron = RepCategory(Quiver(2, [(1, 2), (1, 2)]), p)
        R = kron.rep((2, 2), [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
        assert len(kron.decompose(R)) == 1 and kron.hom_dim(R, R) == 2
        assert kron.aut_count(R) == sum(1 for _ in _scan_rep_isos(kron, R, R)) == (p - 1) * p


def test_flat_combination_matches_scale_and_add():
    rng = random.Random(9)
    cat = RepCategory(a_n_quiver(2), 3)
    tools = SDH2Algebra(cat).tools
    for X in proj_complex_pool(SDH2Algebra(cat), 3)[1:]:
        basis = tools.chain_maps_basis(X, X)
        rbasis = cat.hom_basis(X.M0, X.M0) or cat.hom_basis(X.M1, X.M1)
        for _ in range(5):
            c = [rng.randrange(-3, 6) for _ in basis]
            f = tools._cx2_from_coeffs(basis, c, X, X)
            g0, g1 = basis[0].s0.scale(c[0]), basis[0].s1.scale(c[0])
            for b, ci in zip(basis[1:], c[1:]):
                g0, g1 = g0 + b.s0.scale(ci), g1 + b.s1.scale(ci)
            assert f.s0.mats == g0.mats and f.s1.mats == g1.mats
            c = [rng.randrange(-3, 6) for _ in rbasis]
            h = rbasis[0].scale(c[0])
            for b, ci in zip(rbasis[1:], c[1:]):
                h = h + b.scale(ci)
            assert cat.morphisms_from_coeffs(rbasis, c).mats == h.mats


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
