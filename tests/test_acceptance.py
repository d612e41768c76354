"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line (with its runtime) on success; any
failure surfaces as an ordinary assertion error.
"""

import random
import time
from fractions import Fraction

from oracles import classify_acyclic_indec, gl_elements
from quiverhall.cx2 import contractible, direct_sum
from quiverhall.hall import HallAlgebra, verify_ringel
from quiverhall.quiver import Quiver, a_n_quiver
from quiverhall.reps import Rep, RepCategory, RepMorphism
from quiverhall.scalars import CoeffScalar
from quiverhall.sdh2 import SDH2Algebra
from quiverhall.sdhz import SDHZAlgebra
from quiverhall.suites import (
    suite_assoc_z,
    suite_assoc_z2,
    suite_bridgeland_compare,
    suite_euler_lemmas,
    suite_presentation_uv,
    suite_quotient_relations,
    suite_reflection,
)


def _report(tag, t0, limit):
    dt = time.time() - t0
    assert dt <= limit, f"{tag} exceeded its runtime budget: {dt:.1f}s > {limit}s"
    print(f"ACCEPTANCE {tag}: PASS ({dt:.1f}s)")


def test_criterion_01_ringel_relations():
    t0 = time.time()
    for qv in (a_n_quiver(2), a_n_quiver(3)):
        for p in (2, 3):
            t1 = time.time()
            checks = verify_ringel(RepCategory(qv, p))
            assert checks and all(c[1] == "pass" for c in checks), (qv.n, p)
            assert time.time() - t1 <= 60
    _report("01 ringel-serre-relations (A2, A3; q=2,3)", t0, 240)


def test_criterion_02_quantum_group_realization():
    t0 = time.time()
    for qv in (Quiver(1, []), a_n_quiver(2)):
        for p in (2, 3):
            t1 = time.time()
            alg = SDH2Algebra(RepCategory(qv, p))
            checks = alg.verify_quantum_group()
            assert checks and all(c[1] == "pass" for c in checks), (qv.n, p)
            bad = [c for c in alg.verify_quantum_group(perturb=True)
                   if c[1] != "pass"]
            assert any(c[0].startswith("[E") for c in bad), "negative control"
            assert time.time() - t1 <= 300
    _report("02 quantum-group realization (A1, A2; q=2,3; negative control)",
            t0, 1200)


def test_criterion_03_presentation_suite():
    t0 = time.time()
    cat = RepCategory(a_n_quiver(2), 2)
    checks = suite_presentation_uv(cat)
    assert checks and all(c[1] == "pass" for c in checks)
    # the delta middle term of the (U) relation, computed by enumeration,
    # is the contractible complex supported in degrees m, m+1
    alg = SDHZAlgebra(cat)
    qm1 = CoeffScalar.of(2, 1)
    for i in (1, 2):
        A = cat.simple(i)
        for m in (0, 1):
            comm = alg.productZ(alg.u_gen(A, m), alg.u_gen(A, m + 1)) \
                - alg.productZ(alg.u_gen(A, m + 1), alg.u_gen(A, m))
            ((g, key), c), = comm.terms.items()
            assert key == ()
            slots = dict(g)
            assert set(slots) == {m}, "middle term sits in slots m, m+1"
            assert slots[m] == alg.coords(A.dim)
            assert c == qm1
    _report("03 presentation (U)/(V)/(UV), A2 q=2", t0, 120)


def test_criterion_04_euler_form_lemmas():
    t0 = time.time()
    checks = suite_euler_lemmas(RepCategory(a_n_quiver(2), 2))
    assert checks and all(c[1] == "pass" for c in checks)
    _report("04 euler-form lemmas (m,n in 0..2)", t0, 60)


def test_criterion_05_associativity():
    t0 = time.time()
    cat = RepCategory(a_n_quiver(2), 2)
    checks = suite_assoc_z(cat, 50, 0)
    assert len(checks) == 50 and all(c[1] == "pass" for c in checks)
    checks = suite_assoc_z2(cat, 50, 0)
    assert len(checks) == 100 and all(c[1] == "pass" for c in checks)
    _report("05 associativity (50 seeded triples, Z and Z/2)", t0, 300)


def test_criterion_06_dual_route_structure_constants():
    t0 = time.time()
    for qv in (a_n_quiver(2), Quiver(1, [])):
        for p in (2, 3):
            cat = RepCategory(qv, p)
            alg = HallAlgebra(cat, cross_check="always")
            keys = cat.iso_classes_up_to(4)
            by_dim = {}
            for k in keys:
                by_dim.setdefault(k.dim, []).append(k)
            for A in keys:
                for B in keys:
                    if sum(A.dim) + sum(B.dim) > 4:
                        continue
                    counts = alg.ext_class_counts(A, B)
                    hom = cat.hom_dim(A.rep, B.rep)
                    target_dim = tuple(a + b for a, b in zip(A.dim, B.dim))
                    for C in by_dim.get(target_dim, ()):
                        n = counts.get(C, 0)
                        conv = alg._riedtmann_value(A, B, C)
                        assert conv == Fraction(n, p ** hom), \
                            (p, A.label, B.label, C.label)
            if qv.n == 1:
                k = cat.intern(cat.rep((1,)))
                k2 = cat.intern(cat.rep((2,)))
                assert alg.hall_number(k, k2, k) == p + 1
                # |Ext^1(k,k)_{k^2}|/|Hom(k,k)| = 1/q exactly
                assert alg.product_pair(k, k).terms[k2] == CoeffScalar.of(p, Fraction(1, p))
    _report("06 dual-route structure constants (A2 and Vect; q=2,3)", t0, 120)


def test_criterion_07_quotient_relation_consistency():
    t0 = time.time()
    checks = suite_quotient_relations(RepCategory(a_n_quiver(2), 2), 40, 0)
    assert len(checks) == 40 and all(c[1] == "pass" for c in checks)
    _report("07 normal-form/relation consistency (20 conflations per grading)",
            t0, 300)


def test_criterion_08_acyclic_decomposition_uniqueness():
    t0 = time.time()
    cat = RepCategory(a_n_quiver(2), 2)
    from quiverhall.cx2 import Cx2, Cx2Tools
    tools = Cx2Tools(cat)
    rng = random.Random(8)
    P1, P2 = cat.projective(1), cat.projective(2)
    for trial in range(30):
        parts = []
        for _ in range(rng.randint(1, 2)):
            P = rng.choice((P1, P2))
            parts.append(contractible(cat, P, 0, 2) if rng.random() < 0.5
                         else contractible(cat, P, 1, 2))
        X = direct_sum(parts)
        g0 = [rng.choice(gl_elements(cat.p, d)) for d in X.component(0).dim]
        g1 = [rng.choice(gl_elements(cat.p, d)) for d in X.component(1).dim]
        M0c = Rep(cat.quiver, cat.p, X.component(0).dim,
                  [g0[1] @ X.component(0).maps[0] @ g0[0].inverse()])
        M1c = Rep(cat.quiver, cat.p, X.component(1).dim,
                  [g1[1] @ X.component(1).maps[0] @ g1[0].inverse()])
        Xc = Cx2(cat, M0c, M1c,
                 RepMorphism(M0c, M1c, [g1[i] @ X.diff(0).mats[i] @ g0[i].inverse()
                                        for i in range(2)]),
                 RepMorphism(M1c, M0c, [g0[i] @ X.diff(1).mats[i] @ g1[i].inverse()
                                        for i in range(2)]))
        want = sorted((("K" if all(m.is_zero() for m in pc.diff(1).mats) else "K*"),
                       cat.intern(pc.component(0))) for pc in parts)
        got = sorted((classify_acyclic_indec(Z)[0],
                      cat.intern(classify_acyclic_indec(Z)[1]))
                     for Z in tools.decompose2(Xc))
        assert got == want, f"trial {trial}"
    _report("08 acyclic decomposition uniqueness (30 base-changed samples)",
            t0, 120)


def test_criterion_09_reflection_isomorphism():
    t0 = time.time()
    checks = suite_reflection(RepCategory(a_n_quiver(2), 2), 2)
    assert checks and all(c[1] == "pass" for c in checks)
    assert any("q^{-1/2}" in c[0] for c in checks)
    assert sum(1 for c in checks if "multiplicative" in c[0]) >= 64
    _report("09 reflection isomorphism (A2, sink 2, q=2)", t0, 300)


def test_criterion_10_bridgeland_comparison():
    t0 = time.time()
    checks = suite_bridgeland_compare(RepCategory(a_n_quiver(2), 2), 4)
    assert checks and all(c[1] == "pass" for c in checks)
    _report("10 bridgeland comparison (projective pairs, total dim <= 4)",
            t0, 300)
