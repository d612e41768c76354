import random

import pytest

from oracles import (
    classify_acyclic_indec,
    gl_elements,
    hall_count_by_objects,
    is_acyclic,
    stalk_cx2,
)
from quiverhall.cx2 import (
    _HARD_HI,
    _HARD_LO,
    Cx2,
    Cx2Tools,
    contractible,
    direct_sum,
    minimal_complex,
    resolution,
)
from quiverhall.errors import NotASubmodule, ShapeError, SignConventionBroken, WindowExceeded
from quiverhall.linalg import FpMatrix
from quiverhall.quiver import Quiver, a_n_quiver
from quiverhall.reps import RepCategory, RepMorphism
from quiverhall.sdhz import CxB, stalk_cxb


def a2(p=2):
    return RepCategory(a_n_quiver(2), p)


def vect(p=2):
    return RepCategory(Quiver(1, []), p)


def test_chain_maps_contains_identity():
    cat = a2()
    tools = Cx2Tools(cat)
    X = minimal_complex(cat, cat.simple(1), cat.simple(2))
    basis = tools.hom_basis(X, X)
    found_id = False
    from itertools import product
    for coeffs in product(range(2), repeat=len(basis)):
        f = tools.morphisms_from_coeffs(X, X, basis, coeffs)
        if all(f.maps[0].mats[i] == FpMatrix.identity(2, X.component(0).dim[i])
               for i in range(2)) and \
           all(f.maps[1].mats[i] == FpMatrix.identity(2, X.component(1).dim[i])
               for i in range(2)):
            found_id = True
    assert found_id


def test_chain_maps_K_to_K_is_hom():
    cat = a2()
    tools = Cx2Tools(cat)
    for A in (cat.simple(2), cat.projective(1)):
        for B in (cat.simple(2), cat.projective(1)):
            KA, KB = contractible(cat, A, 0, 2), contractible(cat, B, 0, 2)
            assert tools.hom_dim(KA, KB) == cat.hom_dim(A, B)


def test_homotopy_dim_of_KP_endos():
    cat = a2()
    tools = Cx2Tools(cat)
    P = cat.projective(1)
    KP = contractible(cat, P, 0, 2)
    # all chain endomorphisms of a contractible complex are null-homotopic
    assert tools.homotopy_dim(KP, KP) == tools.hom_dim(KP, KP)
    assert tools.homotopy_dim(KP, KP) == cat.hom_dim(P, P)


def test_every_homotopy_is_a_chain_map():
    cat = a2()
    tools = Cx2Tools(cat)
    L = minimal_complex(cat, cat.simple(1), cat.simple(2))
    M = minimal_complex(cat, cat.simple(2), cat.simple(1))
    rows = tools.homotopy_subspace(L, M)
    flats = {b.entries_flat() for b in tools.hom_basis(L, M)}
    # homotopy rows lie in the span of the chain-map space
    B = [b.entries_flat() for b in tools.hom_basis(L, M)]
    if rows:
        Bm = FpMatrix.from_columns(cat.p, B, len(B[0]))
        for h in rows:
            assert Bm.solve(h) is not None


def test_homology_examples():
    cat = a2()
    tools = Cx2Tools(cat)
    P = cat.projective(1)
    H0, H1 = tools.homology(contractible(cat, P, 0, 2)).values()
    assert H0.is_zero() and H1.is_zero()
    A = cat.simple(1)
    H0, H1 = tools.homology(stalk_cx2(cat, A, 0)).values()
    assert cat.is_isomorphic(H0, A) and H1.is_zero()
    CS1 = minimal_complex(cat, cat.simple(1), cat.rep((0, 0)))
    H0, H1 = tools.homology(CS1).values()
    assert cat.is_isomorphic(H0, cat.simple(1)) and H1.is_zero()


def test_KP_shift_is_KPstar():
    cat = a2()
    tools = Cx2Tools(cat)
    P = cat.projective(1)
    assert tools.is_isomorphic(contractible(cat, P, 0, 2).shift(), contractible(cat, P, 1, 2))
    X = minimal_complex(cat, cat.simple(1), cat.simple(2))
    assert tools.is_isomorphic(X.shift().shift(), X)


def test_decompose_KP_sum():
    cat = a2()
    tools = Cx2Tools(cat)
    P1, P2 = cat.projective(1), cat.projective(2)
    X = contractible(cat, cat.direct_sum([P1, P2]), 0, 2)
    parts = tools.decompose2(X)
    labels = sorted(classify_acyclic_indec(Z)[0] + str(Z.component(0).dim)
                    for Z in parts)
    assert labels == ["K(0, 1)", "K(1, 1)"]
    Y = direct_sum([contractible(cat, P1, 0, 2), contractible(cat, P2, 1, 2)])
    kinds = sorted((classify_acyclic_indec(Z)[0],
                    cat.intern(classify_acyclic_indec(Z)[1]).dim)
                   for Z in tools.decompose2(Y))
    assert kinds == [("K", (1, 1)), ("K*", (0, 1))]


def test_minimal_complex_examples():
    cat = a2()
    tools = Cx2Tools(cat)
    Z = cat.rep((0, 0))
    assert minimal_complex(cat, Z, Z).is_zero()
    X = minimal_complex(cat, cat.simple(2), Z)
    assert X.component(0).dim == (0, 1) and X.component(1).dim == (0, 0)
    X = minimal_complex(cat, cat.simple(1), cat.simple(2))
    H0, H1 = tools.homology(X).values()
    assert cat.is_isomorphic(H0, cat.simple(1))
    assert cat.is_isomorphic(H1, cat.simple(2))


def test_ext1_classes_counts():
    v = vect()
    tools = Cx2Tools(v)
    k = v.rep((1,))
    L = stalk_cx2(v, k, 0)
    M = stalk_cx2(v, k, 1)
    classes = tools.ext1_classes_proj(L, M)
    assert len(classes) == 2  # q = 2: two lines, each of weight 1
    # the zero class is split
    split = [E for f, E, _w in classes if not any(f.entries_flat())]
    assert len(split) == 1
    assert tools.is_isomorphic(split[0], direct_sum([M, L]))
    # nonsplit middles are contractible of K-type on k
    nonsplit = [E for f, E, _w in classes if E not in split]
    for E in nonsplit:
        assert is_acyclic(tools, E)
        kind, P = classify_acyclic_indec(tools.decompose2(E)[0])
        assert kind == "K" and v.is_isomorphic(P, k)


def test_ext1_count_equals_q_power():
    # At q = 3 a line holds two nonzero classes, so the weights, not the
    # number of listed classes, must add up to |Ext^1|.
    cat = a2(3)
    tools = Cx2Tools(cat)
    L = minimal_complex(cat, cat.simple(1), cat.rep((0, 0)))
    M = minimal_complex(cat, cat.simple(2), cat.rep((0, 0)))
    classes = tools.ext1_classes_proj(L, M)
    k = tools.hom_dim(L, M.shift()) - tools.homotopy_dim(L, M.shift())
    assert k > 0
    assert sum(w for _f, _E, w in classes) == cat.p ** k
    assert len(classes) == 1 + (cat.p ** k - 1) // (cat.p - 1)


def test_middle_term_d_squared_validated():
    cat = a2()
    tools = Cx2Tools(cat)
    L = minimal_complex(cat, cat.simple(1), cat.simple(2))
    M = minimal_complex(cat, cat.simple(2), cat.simple(1))
    for f, E, _w in tools.ext1_classes_proj(L, M):
        assert E.component(0).dim == tuple(
            a + b for a, b in zip(M.component(0).dim, L.component(0).dim))


def test_long_exact_sequence_dimension_bounds():
    cat = a2()
    tools = Cx2Tools(cat)
    pool = [minimal_complex(cat, cat.simple(1), cat.rep((0, 0))),
            minimal_complex(cat, cat.rep((0, 0)), cat.simple(2)),
            stalk_cx2(cat, cat.simple(2), 0)]
    for L in pool:
        for M in pool:
            if L.total_dim() + M.total_dim() > 4:
                continue
            hL = tools.homology(L)
            hM = tools.homology(M)
            euler = tuple(hL[0].dim[i] - hL[1].dim[i] + hM[0].dim[i] - hM[1].dim[i]
                          for i in range(2))
            for _f, E, _w in tools.ext1_classes_proj(L, M):
                hE = tools.homology(E)
                for b in (0, 1):
                    for i in range(2):
                        assert hE[b].dim[i] <= hL[b].dim[i] + hM[b].dim[i]
                got = tuple(hE[0].dim[i] - hE[1].dim[i] for i in range(2))
                assert got == euler


def test_acyclic_decomposition_unique_seeded():
    """Base-changed sums of K_P and K_P* decompose with stable (P, Q)."""
    cat = a2()
    tools = Cx2Tools(cat)
    rng = random.Random(17)
    P1, P2 = cat.projective(1), cat.projective(2)
    for trial in range(30):
        parts = []
        for _ in range(rng.randint(1, 2)):
            P = rng.choice((P1, P2))
            parts.append(contractible(cat, P, 0, 2) if rng.random() < 0.5
                         else contractible(cat, P, 1, 2))
        X = direct_sum(parts)
        # conjugate the whole complex by a random per-vertex base change,
        # applied to both gradings and the representation structure
        g0 = [rng.choice(gl_elements(cat.p, d)) for d in X.component(0).dim]
        g1 = [rng.choice(gl_elements(cat.p, d)) for d in X.component(1).dim]
        from quiverhall.reps import Rep
        M0c = Rep(cat.quiver, cat.p, X.component(0).dim,
                  [g0[1] @ X.component(0).maps[0] @ g0[0].inverse()])
        M1c = Rep(cat.quiver, cat.p, X.component(1).dim,
                  [g1[1] @ X.component(1).maps[0] @ g1[0].inverse()])
        Xc = Cx2(cat, M0c, M1c,
                 RepMorphism(M0c, M1c,
                             [g1[i] @ X.diff(0).mats[i] @ g0[i].inverse()
                              for i in range(2)]),
                 RepMorphism(M1c, M0c,
                             [g0[i] @ X.diff(1).mats[i] @ g1[i].inverse()
                              for i in range(2)]))
        want = sorted(
            (("K" if all(m.is_zero() for m in p_.diff(1).mats) else "K*"),
             cat.intern(p_.component(0)))
            for p_ in parts)
        got = sorted((classify_acyclic_indec(Z)[0],
                      cat.intern(classify_acyclic_indec(Z)[1]))
                     for Z in tools.decompose2(Xc))
        assert got == want, f"trial {trial}"


def test_sub_and_quotient_complexes():
    cat = a2()
    tools = Cx2Tools(cat)
    P = cat.projective(1)
    X = contractible(cat, P, 0, 2)
    # its Z-graded fold, with U indexed by degree through the same engine
    Y = CxB(cat, 0, X.comps, [X.diff(0)])
    subs = tools.sub_complexes_with_dims(X, (0, 1, 0, 1))
    assert subs
    for U in subs:
        S = tools.sub_object(X, U)
        Q = tools.quotient_complex(X, U)
        assert S.total_dim() + Q.total_dim() == X.total_dim()
        for Z, Zy in ((S, tools.sub_object(Y, U)), (Q, tools.quotient_complex(Y, U))):
            assert [Zy.component(m).signature() for m in (0, 1)] == \
                [Z.component(m).signature() for m in (0, 1)]
            assert Zy.diff(0).mats == Z.diff(0).mats


def test_non_subcomplex_is_refused():
    """All of degree 0 and nothing of degree 1 is arrow-stable in K_k but not
    stable under d0 = id, so neither a sub- nor a quotient complex exists."""
    cat = vect()
    tools = Cx2Tools(cat)
    X = contractible(cat, cat.rep((1,)), 0, 2)
    U = (((1,),), ())
    for build in (tools.sub_object, tools.quotient_complex):
        with pytest.raises(NotASubmodule):
            build(X, U)
    assert tools.sub_complexes_with_dims(X, (1, 0)) == []
    assert tools.sub_complexes_with_dims(X, (0, 1)) == [((), ((1,),))]


def test_sub_object_dimensions_of_another_length_are_refused():
    """On A2 the resolution X of S1 spans two degrees, four sides, and the
    stalk of its degree-0 component one degree, two sides: the walk refuses
    the stalk's dimensions with a ShapeError naming both lengths.  The Hall
    count reads the stalks over X's degrees, and counts 0, since X^0 is not
    stable under the differential."""
    cat = a2()
    tools = Cx2Tools(cat)
    X = resolution(cat, cat.simple(1), 1)
    sub = stalk_cxb(cat, X.component(0), 0)
    with pytest.raises(ShapeError, match="2 sub-object dimensions .* 4 sides"):
        tools.sub_complexes_with_dims(X, tools.sides(sub))
    quot = stalk_cxb(cat, X.component(1), 1)
    assert tools.hall_count(quot, X, sub) == hall_count_by_objects(tools, quot, X, sub) == 0


def test_hall_count_of_stalks_in_fewer_degrees():
    """On A2 at q = 2, the contractible X = (P1 = P1) in degrees 0, 1 has
    exactly one sub-complex, its degree-1 component, isomorphic to the stalk
    of P1 in degree 1 with quotient the stalk of P1 in degree 0; both stalks
    occupy fewer degrees than X and are read over X's.  A stalk with a
    component outside X's degrees counts 0, though over X's degrees it reads
    as the zero sub-object or quotient of X."""
    cat = a2()
    tools = Cx2Tools(cat)
    P1 = cat.projective(1)
    X = contractible(cat, P1, 0)
    for quot, sub, count in ((stalk_cxb(cat, P1, 0), stalk_cxb(cat, P1, 1), 1),
                             (stalk_cxb(cat, P1, 1), stalk_cxb(cat, P1, 0), 0),
                             (X, stalk_cxb(cat, P1, 2), 0),
                             (stalk_cxb(cat, P1, -1), X, 0)):
        assert tools.hall_count(quot, X, sub) == hall_count_by_objects(tools, quot, X, sub) \
            == count, (quot, sub)


def test_sign_convention_guard():
    """The one checked constructor, in both gradings (Cx2 for Z/2, CxB for
    Z): a differential that is no morphism or has the wrong endpoints raises
    ShapeError, d o d != 0 raises SignConventionBroken, and a Z complex
    outside the hard degree window raises WindowExceeded, on the checked
    path and on the trusted one of shift.  Each flawed case has a valid
    neighbour that builds."""
    cat = a2()
    S1, S2, P1 = cat.simple(1), cat.simple(2), cat.projective(1)
    zero = cat.zero_map
    ident = RepMorphism(P1, P1, [FpMatrix.identity(2, 1)] * 2)
    no_morphism = RepMorphism(P1, P1, [FpMatrix.identity(2, 1), FpMatrix.zero(2, 1, 1)])
    assert not no_morphism.check_intertwining()
    cases = [
        (ShapeError, Cx2, (cat, P1, P1, no_morphism, zero(P1, P1))),
        (ShapeError, CxB, (cat, 0, [P1, P1], [no_morphism])),
        (ShapeError, Cx2, (cat, S1, S2, zero(S1, S1), zero(S2, S1))),
        (ShapeError, CxB, (cat, 0, [S1, S2], [zero(S1, S1)])),
        (ShapeError, CxB, (cat, 0, [P1, P1], [])),
        (SignConventionBroken, Cx2, (cat, P1, P1, ident, ident)),
        (SignConventionBroken, CxB, (cat, 0, [P1, P1, P1], [ident, ident])),
        (WindowExceeded, CxB, (cat, _HARD_HI, [S1, S1], [zero(S1, S1)])),
        (WindowExceeded, CxB, (cat, _HARD_LO - 1, [S1], [])),
    ]
    for error, build, args in cases:
        with pytest.raises(error):
            build(*args)
    with pytest.raises(WindowExceeded):
        CxB(cat, _HARD_HI, [S1], []).shift(-1)
    valid = [Cx2(cat, P1, P1, ident, zero(P1, P1)), CxB(cat, 0, [P1, P1], [ident]),
             Cx2(cat, S1, S2, zero(S1, S2), zero(S2, S1)), CxB(cat, 0, [S1, S2], [zero(S1, S2)]),
             CxB(cat, 0, [P1, P1, P1], [ident, zero(P1, P1)]),
             CxB(cat, _HARD_HI, [S1], []), CxB(cat, _HARD_LO, [S1], [])]
    assert [X.period for X in valid] == [2, None, 2, None, None, None, None]


def test_decompose2_indecomposable_is_itself():
    cat = a2()
    tools = Cx2Tools(cat)
    X = minimal_complex(cat, cat.simple(1), cat.rep((0, 0)))
    parts = tools.decompose2(X)
    assert len(parts) == 1
    assert tools.is_isomorphic(parts[0], X)
