import random
from itertools import product

import pytest

from oracles import base_change_orbit, block_direct_sum, ext1_dim, gl_elements, stalk_cx2
from quiverhall.errors import (
    BudgetExceeded,
    CategoryMismatch,
    NotASubmodule,
    NotInSubcategory,
    PreconditionError,
    ShapeError,
)
from quiverhall.hall import HallAlgebra
from quiverhall.linalg import FpMatrix
from quiverhall.quiver import Quiver, a_n_quiver
from quiverhall.reps import Rep, RepCategory, RepMorphism
from quiverhall.suites import table_rows


def a2(p=2):
    return RepCategory(a_n_quiver(2), p)


def vect(p=2):
    return RepCategory(Quiver(1, []), p)


def brute_force_hom_count(cat, M, N):
    """Enumerate every per-vertex matrix tuple and count the intertwiners."""
    Q = cat.quiver
    p = cat.p
    spaces = []
    for i in range(Q.n):
        entries = N.dim[i] * M.dim[i]
        mats = [FpMatrix(p, [e[r * M.dim[i]:(r + 1) * M.dim[i]]
                             for r in range(N.dim[i])], cols=M.dim[i])
                for e in product(range(p), repeat=entries)]
        spaces.append(mats)
    count = 0
    for combo in product(*spaces):
        f = RepMorphism(M, N, list(combo))
        if f.check_intertwining():
            count += 1
    return count


def test_hom_basis_a2_simples_empty():
    cat = a2()
    S1, S2 = cat.simple(1), cat.simple(2)
    assert cat.hom_basis(S1, S2) == []
    # oracle: the full enumeration finds only the zero morphism
    assert brute_force_hom_count(cat, S1, S2) == 1


def test_hom_basis_end_of_simple():
    cat = a2()
    S1 = cat.simple(1)
    assert len(cat.hom_basis(S1, S1)) == 1


def test_hom_basis_p1_to_s1():
    cat = a2()
    B = cat.hom_basis(cat.projective(1), cat.simple(1))
    assert len(B) == 1
    assert brute_force_hom_count(cat, cat.projective(1), cat.simple(1)) == 2


def test_hom_dimension_matches_brute_force_pool():
    cat = a2()
    pool = [cat.simple(1), cat.simple(2), cat.projective(1)]
    for M in pool:
        for N in pool:
            assert cat.p ** cat.hom_dim(M, N) == brute_force_hom_count(cat, M, N)


def test_euler_form_examples():
    cat = a2()
    assert cat.euler_form_int((1, 0), (0, 1)) == -1
    assert cat.euler_form_int((2, 1), (0, 0)) == 0
    assert cat.euler_form_int((1, 1), (1, 1)) == 1


def test_ext1_examples():
    cat = a2()
    assert ext1_dim(cat, cat.simple(1), cat.simple(2)) == 1
    assert ext1_dim(cat, cat.simple(2), cat.simple(1)) == 0
    assert ext1_dim(cat, cat.projective(1), cat.simple(1)) == 0
    assert ext1_dim(cat, cat.projective(1), cat.simple(2)) == 0


def test_is_isomorphic_examples():
    cat = a2()
    P1 = cat.projective(1)
    assert cat.is_isomorphic(P1, P1)
    assert not cat.is_isomorphic(cat.simple(1), cat.simple(2))
    sum_rep = cat.rep((1, 1))  # zero map: S1 + S2
    assert not cat.is_isomorphic(P1, sum_rep)


def test_decompose_examples():
    cat = a2()
    S1 = cat.simple(1)
    keys = lambda M: sorted(cat.intern(S) for S in cat.decompose_reps(M))
    assert keys(S1) == [cat.intern(S1)]
    two = cat.direct_sum([S1, S1])
    assert keys(two) == [cat.intern(S1), cat.intern(S1)]
    mixed = cat.direct_sum([cat.projective(1), cat.simple(2)])
    assert sorted(k.dim for k in keys(mixed)) == [(0, 1), (1, 1)]


def test_submodules_examples():
    cat = a2()
    P1 = cat.projective(1)
    assert len(cat.submodules_with_dim(P1, P1.dim)) == 1
    assert len(cat.submodules_with_dim(P1, (0, 0))) == 1
    # lines in F_2^2 for the one-vertex quiver
    v = vect()
    k2 = v.rep((2,))
    assert len(v.submodules_with_dim(k2, (1,))) == 3
    # P_1 over A2 has a unique submodule of dimension (0,1)
    assert len(cat.submodules_with_dim(P1, (0, 1))) == 1
    # and no submodule of dimension (1,0): the arrow is injective
    assert len(cat.submodules_with_dim(P1, (1, 0))) == 0


def test_quotient_examples():
    cat = a2()
    P1 = cat.projective(1)
    Q0, _ = cat.quotient(P1, ((), ()))
    assert cat.is_isomorphic(Q0, P1)
    Uall = cat.submodules_with_dim(P1, P1.dim)[0]
    Qall, _ = cat.quotient(P1, Uall)
    assert Qall.is_zero()
    Usub = cat.submodules_with_dim(P1, (0, 1))[0]
    Qsub, _ = cat.quotient(P1, Usub)
    assert cat.is_isomorphic(Qsub, cat.simple(1))


def test_quotient_rejects_unstable_subspaces():
    cat = a2()
    P1 = cat.projective(1)
    with pytest.raises(NotASubmodule):
        cat.quotient(P1, (((1,),), ()))


def test_projective_dimensions():
    cat = a2()
    assert cat.projective(1).dim == (1, 1)
    assert cat.projective(2).dim == (0, 1)
    v = vect()
    assert v.projective(1).dim == v.simple(1).dim
    cat3 = RepCategory(a_n_quiver(3), 2)
    assert cat3.projective(1).dim == (1, 1, 1)


def test_projective_coords_expand_to_the_dimension_vector():
    """sum_j coords_j(d) dim P_j = d for every d in [-2, 3]^n."""
    from quiverhall.reps import ProjectiveCoords

    quivers = [a_n_quiver(1), a_n_quiver(2), a_n_quiver(3), Quiver(3, [(1, 2), (3, 2)]),
               Quiver(2, [(1, 2), (1, 2)]), Quiver(4, [(1, 2), (1, 3), (2, 4), (3, 4)]),
               Quiver(3, [(2, 1), (3, 1), (2, 3)])]
    for qv in quivers:
        pc = ProjectiveCoords(RepCategory(qv, 2))
        for d in product(range(-2, 4), repeat=qv.n):
            a = pc.coords(d)
            assert all(type(x) is int for x in a)
            assert pc.dim_of_coords(a) == d, (qv.arrows, d)


def test_min_proj_resolution():
    cat = a2()
    S1 = cat.simple(1)
    P1r, P0r, incl, proj = cat.min_proj_resolution(S1)
    assert P0r.dim == (1, 1)
    assert P1r.dim == (0, 1)
    # exactness: inclusion injective, projection surjective, composite zero
    assert all(m.rank() == P1r.dim[i] for i, m in enumerate(incl.mats))
    assert all(m.rank() == S1.dim[i] for i, m in enumerate(proj.mats))
    comp = proj.compose(incl)
    assert comp.is_zero()
    # a projective resolves trivially
    P1r, P0r, _, _ = cat.min_proj_resolution(cat.simple(2))
    assert P1r.is_zero() and P0r.dim == (0, 1)
    P1r, P0r, _, _ = cat.min_proj_resolution(cat.projective(1))
    assert P1r.is_zero() and P0r.dim == (1, 1)


def test_reflect_sink_examples():
    cat3 = RepCategory(a_n_quiver(3), 2)
    tgt3 = RepCategory(cat3.quiver.reflect_at_sink(3), 2)
    # a simple away from the sink is fixed
    img = cat3.reflect_sink(3, cat3.simple(1), tgt3)
    assert img.dim == (1, 0, 0)
    cat = a2()
    tgt = RepCategory(cat.quiver.reflect_at_sink(2), 2)
    img = cat.reflect_sink(2, cat.projective(1), tgt)
    assert img.dim == (1, 0)
    with pytest.raises(NotInSubcategory):
        cat.reflect_sink(2, cat.simple(2), tgt)
    with pytest.raises(PreconditionError):
        cat.reflect_sink(1, cat.simple(2), tgt)


def test_reflect_sink_is_weyl_reflection_on_indecomposables():
    for qv in (a_n_quiver(2), a_n_quiver(3)):
        cat = RepCategory(qv, 2)
        n = qv.n
        sink = n  # the linear orientation has its sink at the last vertex
        tgt = RepCategory(qv.reflect_at_sink(sink), 2)
        pool = []
        for d in product(range(3), repeat=n):
            if 0 < sum(d) <= 3:
                for R in cat.all_reps_of_dim(d):
                    if len(cat.decompose_reps(R)) == 1:
                        pool.append(R)
        seen = set()
        for M in pool:
            key = cat.intern(M)
            if key in seen:
                continue
            seen.add(key)
            if key == cat.intern(cat.simple(sink)):
                continue
            img = cat.reflect_sink(sink, M, tgt)
            assert img.dim == qv.simple_reflection(sink, M.dim)


def test_decompose_iso_invariant_under_base_change():
    cat = a2()
    rng = random.Random(5)
    P1 = cat.projective(1)
    M = cat.direct_sum([P1, cat.simple(1)])
    keys = lambda M: sorted(cat.intern(S) for S in cat.decompose_reps(M))
    base = keys(M)
    for _ in range(50):
        g1 = rng.choice(gl_elements(cat.p, M.dim[0]))
        g2 = rng.choice(gl_elements(cat.p, M.dim[1]))
        conj = Rep(cat.quiver, cat.p, M.dim,
                   [g2 @ M.maps[0] @ g1.inverse()])
        assert keys(conj) == base


def test_submodule_quotient_duality():
    cat = a2()
    C = cat.direct_sum([cat.projective(1), cat.simple(2)])
    for d in product(range(3), repeat=2):
        if any(di > ci for di, ci in zip(d, C.dim)):
            continue
        for U in cat.submodules_with_dim(C, d):
            S, incl = cat.sub_rep(C, U)
            Qt, _ = cat.quotient(C, U)
            assert Qt.dim == tuple(c - x for c, x in zip(C.dim, d))
            assert incl.check_intertwining()


def test_is_isomorphic_equivalence_relation():
    cat = a2()
    rng = random.Random(9)
    pool = []
    for _ in range(30):
        d = (rng.randint(0, 2), rng.randint(0, 2))
        m = FpMatrix(2, [[rng.randrange(2) for _ in range(d[0])]
                         for _ in range(d[1])], cols=d[0])
        pool.append(cat.rep(d, [m]))
    for M in pool:
        assert cat.is_isomorphic(M, M)
    for M in pool:
        for N in pool:
            assert cat.is_isomorphic(M, N) == cat.is_isomorphic(N, M)
            # registry agreement
            assert cat.is_isomorphic(M, N) == (cat.intern(M) == cat.intern(N))
    for M in pool[:10]:
        for N in pool[:10]:
            for P in pool[:10]:
                if cat.is_isomorphic(M, N) and cat.is_isomorphic(N, P):
                    assert cat.is_isomorphic(M, P)


def test_hereditary_euler_identity_small_pool():
    cat = a2()
    keys = cat.iso_classes_up_to(4)
    for A in keys:
        for B in keys:
            if sum(A.dim) + sum(B.dim) > 4:
                continue
            h = cat.hom_dim(A.rep, B.rep)
            e = ext1_dim(cat, A.rep, B.rep)
            assert h - e == cat.euler_form_int(A.dim, B.dim)


def test_budget_guardrails():
    cat = a2()
    big = cat.rep((4, 4))
    with pytest.raises(BudgetExceeded):
        cat.submodules_with_dim(big, (2, 2))
    # Eight simples in two classes: |GL_4(F_2)|^2, with no scan.
    assert cat.aut_count(big) == 406425600


def test_budget_message_names_guard_and_size():
    from quiverhall.cx2 import Cx2Tools, contractible

    cat = RepCategory(Quiver(1, []), 3)
    tools = Cx2Tools(cat)
    K = contractible(cat, cat.rep((4,)), 0, 2)
    # Four copies of K_k, each with End = k: |GL_4(F_3)|, with no scan.
    assert tools.aut_count(K) == 24261120
    with pytest.raises(BudgetExceeded, match=r"^complex endomorphism scan: 3\^16 = 43046721 "
                                             r"> SCAN_BUDGET 1048576$"):
        next(tools._lines(K, tools.hom_basis(K, K)))
    with pytest.raises(BudgetExceeded, match=r"^decompose guardrail: total dimension 13 "
                                             r"> DECOMPOSE_DIM_GUARD 12$"):
        a2().aut_count(a2().rep((7, 6)))


def test_isomorphism_and_aut_refuse_another_category():
    """Objects of another category are refused before any comparison, even
    when their signatures agree: S1 over 1 -> 2 and over 2 -> 1."""
    from quiverhall.cx2 import Cx2Tools, contractible

    cat, other = a2(), RepCategory(Quiver(2, [(2, 1)]), 2)
    S, T = cat.simple(1), other.simple(1)
    X, Y = contractible(cat, S, 0, 2), contractible(other, T, 0, 2)
    assert S.signature() == T.signature() and X.signature() == Y.signature()
    tools = Cx2Tools(cat)
    for call in (lambda: cat.is_isomorphic(S, T), lambda: cat.aut_count(T),
                 lambda: tools.is_isomorphic(X, Y), lambda: tools.aut_count(Y)):
        with pytest.raises(CategoryMismatch):
            call()


def test_equal_quiver_objects_share_a_category():
    """A Rep over an equal but distinct Quiver object belongs to the
    category; one over another quiver or another field does not."""
    cat = a2()
    same = Rep(a_n_quiver(2), 2, (1, 1), [FpMatrix(2, [[1]])])
    assert same.quiver is not cat.quiver and same.quiver == cat.quiver
    P1 = cat.projective(1)
    assert cat.is_isomorphic(same, P1) and cat.hom_dim(same, P1) == 1
    for other in (Rep(Quiver(2, [(2, 1)]), 2, (1, 1), [FpMatrix(2, [[1]])]),
                  Rep(a_n_quiver(2), 3, (1, 1), [FpMatrix(3, [[1]])])):
        for call in (lambda: cat.hom_dim(other, P1), lambda: cat.hom_dim(P1, other)):
            with pytest.raises(CategoryMismatch):
                call()


def test_rep_construction_errors():
    """Rep refuses a dimension vector of the wrong length, a wrong number of
    maps and a map of the wrong shape (ShapeError), and a map over another
    field (CategoryMismatch, naming the arrow and both fields): over F_2 the
    F_5 matrix [[3]] would give signature entry 3, unequal to the same
    representation built from [[1]].  RepMorphism refuses a matrix over
    another field in the same way, naming the vertex."""
    cat = a2()
    Q = cat.quiver
    for build in (lambda: Rep(Q, 2, (1,), [FpMatrix(2, [[1]])]),
                  lambda: Rep(Q, 2, (1, 1), []),
                  lambda: cat.rep((1, 1), [FpMatrix(2, [[1, 0]])])):
        with pytest.raises(ShapeError):
            build()
    with pytest.raises(CategoryMismatch, match=r"^map for arrow 0 is over F_5, expected F_2$"):
        cat.rep((1, 1), [FpMatrix(5, [[3]])])
    assert cat.rep((1, 1), [FpMatrix(2, [[1]])]) == cat.rep((1, 1), [[[3]]]) == cat.projective(1)
    S1 = cat.simple(1)
    with pytest.raises(CategoryMismatch,
                       match=r"^morphism component at vertex 1 is over F_5, expected F_2$"):
        RepMorphism(S1, S1, [FpMatrix(5, [[3]]), FpMatrix(2, [], cols=0)])


def test_enumeration_budget_messages_name_guard_size_and_limit():
    from quiverhall.cx2 import Cx2Tools

    cat = RepCategory(a_n_quiver(2), 3)
    big = RepCategory(a_n_quiver(2), 97)
    cases = [
        (lambda: gl_elements(3, 4), r"GL enumeration: 3\^16 = 43046721 > SCAN_BUDGET 1048576"),
        (lambda: next(cat.all_reps_of_dim((4, 4))),
         r"representation enumeration: 43046721 representations > SCAN_BUDGET 1048576"),
        (lambda: cat.submodules_with_dim(cat.rep((4, 4)), (2, 2)),
         r"submodule enumeration guardrail: total dimension 8 > ENUM_DIM_GUARD 6"),
        # [3 choose 1]_97 = 9507 lines at each vertex, 9507^2 pairs
        (lambda: big.submodules_with_dim(big.rep((3, 3)), (1, 1)),
         r"submodule enumeration: 90383049 subspace tuples > SCAN_BUDGET 1048576"),
        (lambda: Cx2Tools(cat).sub_complexes_with_dims(
            stalk_cx2(cat, cat.rep((7, 7)), 0), (1, 1, 0, 0)),
         r"subcomplex enumeration guardrail: total dimension 14 > DECOMPOSE_DIM_GUARD 12"),
    ]
    for call, message in cases:
        with pytest.raises(BudgetExceeded, match="^" + message + "$"):
            call()


D4 = Quiver(4, [(1, 4), (2, 4), (3, 4)])


@pytest.mark.parametrize("quiver, q, bound", [
    (Quiver(1, []), 2, 5),
    (a_n_quiver(2), 2, 5),
    (a_n_quiver(2), 3, 4),
    (a_n_quiver(2), 5, 4),
    (Quiver(3, [(1, 2), (3, 2)]), 2, 4),
    (Quiver(3, [(2, 1), (2, 3)]), 3, 4),
    (a_n_quiver(4), 2, 4),
    (D4, 2, 4),
    (Quiver(4, [(4, 1), (2, 4), (3, 4)]), 3, 4),
    (Quiver(2, []), 3, 5),
])
def test_root_classes_match_enumeration(quiver, q, bound):
    """The Dynkin route builds the classes the enumeration of every
    representation finds, with the same labels in the same order."""
    assert quiver.is_dynkin()
    roots = RepCategory(quiver, q).iso_classes_up_to(bound)
    enumerated = RepCategory(quiver, q)._classes_by_enumeration(bound)
    assert [k.label for k in roots] == [k.label for k in enumerated]


@pytest.mark.parametrize("quiver, q", [(Quiver(3, [(2, 1), (2, 3)]), 3), (D4, 2)])
def test_root_keys_seed_summand_groups(quiver, q, monkeypatch):
    """Keys built from roots carry their summand classes, so aut_count needs
    no decomposition, and it agrees with a category that decomposes."""
    cat, fresh = RepCategory(quiver, q), RepCategory(quiver, q)
    keys = cat.iso_classes_up_to(4)

    def refuse(X):
        raise AssertionError("root-built key decomposed again")
    monkeypatch.setattr(cat, "_summands", refuse)
    for key in keys:
        assert cat.aut_count(key.rep) == fresh.aut_count(key.rep)


KRONECKER = Quiver(2, [(1, 2), (1, 2)])


def _dims(n, bound, top=2):
    """Nonzero dimension vectors with entries at most top, total at most bound."""
    return [d for d in product(range(top + 1), repeat=n) if 0 < sum(d) <= bound]


@pytest.mark.parametrize("quiver, bound", [
    (a_n_quiver(2), 4), (a_n_quiver(3), 4), (D4, 5), (KRONECKER, 4)])
@pytest.mark.parametrize("q", [2, 3])
def test_canonical_forms_match_orbit_oracle(quiver, q, bound):
    """_canonical_indec gives the lex-least member of the whole base-change
    orbit on every indecomposable up to the bound with entries at most 2:
    every root of A2, A3 and D4 has them, and Kronecker is taken up to
    (2, 2).  Representations come in reverse walk order, so each class is
    first met at its lex-greatest member."""
    cat = RepCategory(quiver, q)
    oracle = {}
    checked = 0
    for d in _dims(quiver.n, bound):
        for R in reversed(list(cat.all_reps_of_dim(d))):
            if R.signature() not in oracle:
                orbit = base_change_orbit(cat, R)
                indecomposable = len(cat.decompose_reps(R)) == 1
                oracle.update(dict.fromkeys(orbit, min(orbit) if indecomposable else None))
            if oracle[R.signature()] is not None:
                assert cat._canonical_indec(R).signature() == oracle[R.signature()], R
                checked += 1
    assert checked


def _count_walks(cat, monkeypatch) -> list:
    """The dimension vectors of the canonical-form walks cat runs from now on."""
    walks = []
    reps_of_dim = cat._reps_of_dim

    def counting(d, ranks):
        if ranks is not None:
            walks.append(d)
        return reps_of_dim(d, ranks)
    monkeypatch.setattr(cat, "_reps_of_dim", counting)
    return walks


@pytest.mark.parametrize("q", [2, 3])
def test_kronecker_classes_one_walk_each(q, monkeypatch):
    """Interning every Kronecker representation up to total dimension 4
    walks once per class of indecomposables, and a second pass not at all.
    Up to dimension (2, 2) the classes are those of Kronecker's
    classification of pencils: one each of (1,0), (0,1), (1,2) and (2,1),
    one per point of P^1(F_q) of dimension (1,1), and one per point of P^1
    of degree 1 or 2 of dimension (2,2)."""
    cat = RepCategory(KRONECKER, q)
    walks = _count_walks(cat, monkeypatch)
    keys = cat.iso_classes_up_to(4)
    indecomposables = [k for k in keys if len(cat.decompose_reps(k.rep)) == 1]
    assert sorted(walks) == sorted(k.dim for k in indecomposables)
    assert cat.iso_classes_up_to(4) == keys and len(walks) == len(indecomposables)
    found = {d: 0 for d in product(range(3), repeat=2)}
    for k in indecomposables:
        if k.dim in found:
            found[k.dim] += 1
    expected = dict.fromkeys(found, 0)
    expected.update({(1, 0): 1, (0, 1): 1, (1, 2): 1, (2, 1): 1,
                     (1, 1): q + 1, (2, 2): q + 1 + (q * q - q) // 2})
    assert found == expected


@pytest.mark.parametrize("quiver, q", [(a_n_quiver(3), 3), (D4, 2)])
def test_root_bricks_need_no_walk(quiver, q, monkeypatch):
    """The Dynkin route registers each root brick as its own canonical form,
    so neither it nor interning any representation afterwards walks."""
    cat = RepCategory(quiver, q)
    walks = _count_walks(cat, monkeypatch)
    keys = cat.iso_classes_up_to(3)
    for d in _dims(quiver.n, 3, top=3):
        for R in cat.all_reps_of_dim(d):
            assert cat.intern(R) in keys
    assert walks == []


A1_A2 = Quiver(3, [(2, 3)])


@pytest.mark.parametrize("quiver, bound", [
    (Quiver(1, []), 4), (a_n_quiver(2), 4), (a_n_quiver(3), 4), (D4, 4), (A1_A2, 4)])
@pytest.mark.parametrize("q", [2, 3])
def test_hom_vector_parts_match_fitting_parts(quiver, q, bound):
    """Once iso_classes_up_to has registered the root bricks, the hom-vector
    route classifies every representation up to the bound, with the parts
    of the Fitting route (the canonical forms of decompose_reps' summands),
    and intern gives the key that a category without root bricks, which
    decomposes, gives."""
    cat, fresh = RepCategory(quiver, q), RepCategory(quiver, q)
    cat.iso_classes_up_to(bound)
    count = 0
    for d in _dims(quiver.n, bound, top=bound):
        for R in cat.all_reps_of_dim(d):
            parts = cat._parts_by_hom_vector(R)
            fitting = [cat._canonical_indec(S) for S in cat.decompose_reps(R)]
            assert sorted(map(Rep.signature, parts)) == sorted(map(Rep.signature, fitting)), R
            key, oracle = cat.intern(R), fresh.intern(R)
            assert (key.sig, key.label) == (oracle.sig, oracle.label), R
            count += 1
    assert count >= bound, count


def test_hom_vector_route_needs_every_root_below_the_dimension():
    """Past the bound of iso_classes_up_to, and on a category that never ran
    it, _parts_by_hom_vector declines and intern decomposes."""
    cat = RepCategory(a_n_quiver(3), 2)
    M = cat.direct_sum([cat.projective(1), cat.projective(1)])
    assert cat._parts_by_hom_vector(M) is None
    cat.iso_classes_up_to(5)
    assert cat._parts_by_hom_vector(M) is None
    cat.iso_classes_up_to(6)
    assert cat._parts_by_hom_vector(M) == [cat.intern(cat.projective(1)).rep] * 2


@pytest.mark.parametrize("quiver", [a_n_quiver(3), D4, KRONECKER])
@pytest.mark.parametrize("q", [2, 3])
def test_sum_key_is_the_key_of_the_direct_sum(quiver, q):
    """sum_key gives, from the parts of the keys alone, the key that
    interning the built direct sum gives: in the same category and in a
    fresh one that decomposes it."""
    cat, fresh = RepCategory(quiver, q), RepCategory(quiver, q)
    keys = cat.iso_classes_up_to(2)
    assert cat.sum_key([]) is cat.zero_key()
    for A, B in product(keys, repeat=2):
        key = cat.sum_key([A, B])
        D = cat.direct_sum([A.rep, B.rep])
        oracle = fresh.intern(D)
        assert (key.sig, key.label) == (oracle.sig, oracle.label), (A, B)
        assert cat.intern(D) is key and cat.sum_key([B, A]) is key


@pytest.mark.parametrize("quiver, q", [(a_n_quiver(3), 2), (D4, 3), (KRONECKER, 2)])
def test_seeded_groups_match_a_fresh_decomposition(quiver, q):
    """Every key registered by a table (its rows, split middles from
    sum_key and the other middles from intern) seeds its summand classes,
    and they are those of a fresh decomposition of its representative."""
    cat, fresh = RepCategory(quiver, q), RepCategory(quiver, q)
    table_rows(cat, 3)
    keys = list(cat._registry.values())
    for key in keys:
        seeded = cat._groups_cache[key.sig]
        assert [S for S, m in seeded for _ in range(m)] == list(key.parts), key
        assert sorted((fresh.intern(S).sig, m) for S, m in seeded) == \
            sorted((fresh.intern(S).sig, m) for S, m in fresh._groups(key.rep)), key
    assert len(keys) > 20, len(keys)


@pytest.mark.parametrize("quiver, q", [(a_n_quiver(2), 3), (a_n_quiver(3), 2), (D4, 2)])
def test_dynkin_table_interns_without_fitting_decomposition(quiver, q, monkeypatch):
    """A Dynkin table classifies every middle by its hom vector or by
    sum_key: intern never runs a Fitting decomposition."""
    cat = RepCategory(quiver, q)

    def refuse(M):
        raise AssertionError("Fitting decomposition inside intern")
    monkeypatch.setattr(cat, "decompose_reps", refuse)
    assert table_rows(cat, 4)


@pytest.mark.parametrize("quiver", [a_n_quiver(3), KRONECKER])
def test_split_only_extensions_solve_no_hom_from_the_cover(quiver, monkeypatch):
    """When dim Ext^1(A, C) = hom(A, C) - <A, C> is 0 the only extension is
    the split one: its middle comes from sum_key, no resolution of A is
    built, and the only Hom solved is Hom(A, C) or one between summands of
    A and C, so neither Hom(P1, C) nor Hom(P0, C) from the cover."""
    cat = RepCategory(quiver, 2)
    keys = cat.iso_classes_up_to(3)
    alg = HallAlgebra(cat)
    solved = []
    hom_basis = cat.hom_basis

    def recording(X, Y):
        solved.append((X.signature(), Y.signature()))
        return hom_basis(X, Y)

    def refuse(A):
        raise AssertionError("projective resolution of an Ext-free pair")
    monkeypatch.setattr(cat, "hom_basis", recording)
    monkeypatch.setattr(cat, "min_proj_resolution", refuse)
    ext_free = 0
    for A, B in product(keys, repeat=2):
        if cat.hom_dim(A.rep, B.rep) != cat.euler_form_int(A.dim, B.dim):
            continue
        solved.clear()
        assert alg.ext_class_counts(A, B) == {cat.sum_key([B, A]): 1}
        assert set(solved) <= {(X.signature(), Y.signature())
                               for X in (A.rep, *A.parts) for Y in (B.rep, *B.parts)}, (A, B)
        ext_free += 1
    assert ext_free > 10, ext_free


@pytest.mark.parametrize("quiver", [a_n_quiver(3), D4, KRONECKER])
def test_direct_sum_matches_block_construction(quiver):
    """direct_sum, built row by row, gives the matrices that FpMatrix.block
    gives, on the empty list and on every pair and triple (repeats
    included) of the bound-2 keys, with the zero key among them."""
    cat = RepCategory(quiver, 2)
    reps_ = [k.rep for k in cat.iso_classes_up_to(2)]
    assert cat.direct_sum([]) == block_direct_sum(cat, []) == cat.zero_rep
    for n in (1, 2, 3):
        for summands in product(reps_, repeat=n):
            D, oracle = cat.direct_sum(summands), block_direct_sum(cat, list(summands))
            assert D.dim == oracle.dim and D.maps == oracle.maps, summands


def test_canonical_walk_budget():
    """The canonical walk never advances arrow 0, so it is bounded by the
    representations over the other arrows and by the matrices it builds.  A
    4-arrow Kronecker brick of dimension (2, 2) at q = 5 is refused with
    5^12 representations of arrows 1-3; the preprojective Kronecker module
    of dimension (4, 5) at q = 2 (arrow maps [I; 0] and [0; I]) with 2 * 2^20
    matrices, its 2^20 representations being within the budget."""
    cat = RepCategory(Quiver(2, [(1, 2)] * 4), 5)
    M = cat.rep((2, 2), [[[1, 0], [0, 1]], [[0, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [0, 1]]])
    assert cat.hom_dim(M, M) == 1
    with pytest.raises(BudgetExceeded, match=r"^representation enumeration: 244140625 "
                                             r"representations > SCAN_BUDGET 1048576$"):
        cat.intern(M)
    cat = RepCategory(Quiver(2, [(1, 2)] * 2), 2)
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    P = cat.rep((4, 5), [ident + [[0] * 4], [[0] * 4] + ident])
    assert cat.hom_dim(P, P) == 1
    with pytest.raises(BudgetExceeded, match=r"^representation enumeration: 2097152 "
                                             r"matrices > SCAN_BUDGET 1048576$"):
        cat.intern(P)


@pytest.mark.parametrize("quiver, dynkin", [
    *((a_n_quiver(n), True) for n in range(1, 7)),
    (D4, True),
    (Quiver(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]), True),   # E6
    (Quiver(2, []), True),                                          # A1 + A1
    (Quiver(2, [(1, 2), (1, 2)]), False),                           # Kronecker
    (Quiver(3, [(1, 2), (2, 3), (1, 3)]), False),                   # affine A2
    (Quiver(5, [(1, 5), (2, 5), (3, 5), (4, 5)]), False),           # affine D4
])
def test_dynkin_detection(quiver, dynkin):
    assert quiver.is_dynkin() == dynkin


def test_quiver_rejects_cycles_and_bad_arrows():
    with pytest.raises(PreconditionError):
        Quiver(2, [(1, 2), (2, 1)])
    with pytest.raises(PreconditionError):
        Quiver(2, [(1, 3)])


def test_simple_and_projective_refuse_vertices_out_of_range():
    """A vertex outside 1..n is a typed precondition error, as in
    Quiver.is_sink, not a bare IndexError."""
    cat = a2()
    for i in (0, 3):
        for build in (cat.simple, cat.projective):
            with pytest.raises(PreconditionError, match=rf"^vertex {i} out of range 1\.\.2$"):
                build(i)


def test_quiver_json_roundtrip():
    qv = a_n_quiver(3)
    assert Quiver.from_json(qv.to_json()) == qv
