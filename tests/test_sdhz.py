import random

import pytest

from oracles import lattice_neg
from quiverhall.errors import WindowExceeded
from quiverhall.hall import HallAlgebra
from quiverhall.quiver import Quiver, a_n_quiver
from quiverhall.reps import RepCategory
from quiverhall.scalars import CoeffScalar, q_power
from quiverhall.cx2 import direct_sum
from quiverhall.sdhz import WINDOW_HI, CxB, SDHZAlgebra, stalk_cxb
from quiverhall.suites import suite_euler_lemmas, suite_presentation_uv


def a2(p=2):
    return RepCategory(a_n_quiver(2), p)


def class_of_stalk_sum(alg, stalks):
    """Independent route to [u_{A1,m1} + u_{A2,m2} + ...]: deflate each stalk
    from its shifted two-term resolution, whose kernel is a v-complex."""
    cat = alg.cat
    parts_R = []
    ell = ()
    total = alg.cat.rep((0,) * cat.quiver.n)
    W_parts = []
    exp_pair = 0
    for A, m in stalks:
        W_parts.append(stalk_cxb(cat, A, m))
    W = direct_sum(W_parts)
    for A, m in stalks:
        P1A, P0A, incl, _ = cat.min_proj_resolution(A)
        parts_R.append(CxB(cat, m - 1, [P1A, P0A], [incl]))
        if not P1A.is_zero():
            ell = alg.lattice_add(ell, ((m - 1, alg.coords(P1A.dim)),))
    R = direct_sum(parts_R)
    # <K_ell, W> with W arbitrary: product over slots of q^(dim W^slot at j)
    expKW = alg.exp_g_Y(ell, W)
    coeffR, gR, keyR = alg.normal_form(R)
    base = alg.term(gR, keyR, coeffR)
    neg = lattice_neg(ell)
    inv_coeff = q_power(alg.q, -alg.exp_g_h(ell, ell))
    out = alg.productZ(alg.term(neg, (), inv_coeff), base)
    return out.scale_scalar(q_power(alg.q, -expKW))


def test_u_gen_examples():
    cat = a2()
    alg = SDHZAlgebra(cat)
    assert alg.u_gen(cat.rep((0, 0)), 0) == alg.unit()
    assert alg.v_gen((0, 0), 0) == alg.unit()
    u = alg.u_gen(cat.simple(2), 3)
    ((g, key), c), = u.terms.items()
    assert g == () and c == CoeffScalar.one(2)
    assert key == ((3, cat.intern(cat.simple(2))),)


def test_u_gen_matches_stalk_class():
    cat = a2()
    alg = SDHZAlgebra(cat)
    for A in (cat.simple(1), cat.simple(2), cat.projective(1)):
        for m in (-1, 0, 2):
            assert alg.u_gen(A, m) == class_of_stalk_sum(alg, [(A, m)])


def test_v_gen_additivity_up_to_twist():
    """v(alpha+beta, m) agrees with the torus product of v(alpha, m) and
    v(beta, m) up to the inverse Euler twist."""
    cat = a2()
    alg = SDHZAlgebra(cat)
    import itertools
    classes = [cat.simple(1).dim, cat.simple(2).dim, (1, 1),
               (-1, 0), (0, -1), (1, -1)]
    for al, be in itertools.product(classes, repeat=2):
        m = 0
        s = tuple(a + b for a, b in zip(al, be))
        lhs = alg.productZ(alg.v_gen(al, m), alg.v_gen(be, m))
        # product of torus basis elements: T_a T_b = (1/<a,b>) T_{a+b}
        ca = alg.coords(al)
        cb = alg.coords(be)
        tw = alg.proj.hom_form(ca, cb)
        rhs = alg.v_gen(s, m).scale_scalar(q_power(2, -tw))
        assert (lhs - rhs).is_zero()


def test_productZ_unit():
    cat = a2()
    alg = SDHZAlgebra(cat)
    x = alg.u_gen(cat.simple(1), 0) + alg.v_gen((1, 0), 1)
    assert alg.productZ(alg.unit(), x) == x
    assert alg.productZ(x, alg.unit()) == x


def test_lemma_u_a_u_b_disjoint_degrees():
    """Hom(A, B) = 0 and m != n: the product is the class of the direct sum."""
    cat = a2()
    alg = SDHZAlgebra(cat)
    S1, S2 = cat.simple(1), cat.simple(2)
    assert cat.hom_dim(S1, S2) == 0
    for (m, n) in ((0, 2), (2, 0), (1, 3), (0, 3)):
        lhs = alg.productZ(alg.u_gen(S1, m), alg.u_gen(S2, n))
        rhs = class_of_stalk_sum(alg, [(S1, m), (S2, n)])
        assert (lhs - rhs).is_zero(), (m, n)


def test_lemma_u_a_u_a_adjacent_degrees():
    """End(A) one-dimensional: the commutator picks up (q-1) times the class
    of the contractible two-term complex on A, supported in degrees m, m+1."""
    for p in (2, 3):
        cat = a2(p)
        alg = SDHZAlgebra(cat)
        qm1 = CoeffScalar.of(p, p - 1)
        for A in (cat.simple(1), cat.simple(2), cat.projective(1)):
            assert cat.hom_dim(A, A) == 1
            for m in (0, 1):
                split = class_of_stalk_sum(alg, [(A, m), (A, m + 1)])
                prod = alg.productZ(alg.u_gen(A, m), alg.u_gen(A, m + 1))
                extra = prod - split
                # the extra term is (q-1) times the v-class at slot m
                want = alg.v_gen(A.dim, m).scale_scalar(qm1)
                assert (extra - want).is_zero(), (A.dim, m, p)
                # far-apart degrees only produce the split class
                far = alg.productZ(alg.u_gen(A, m), alg.u_gen(A, m + 2))
                farsplit = class_of_stalk_sum(alg, [(A, m), (A, m + 2)])
                assert (far - farsplit).is_zero()


def test_euler_pair_examples():
    cat = a2()
    alg = SDHZAlgebra(cat)
    S1, S2 = cat.simple(1), cat.simple(2)
    assert alg.euler_pairZ(("v", S1.dim, 0), ("u", S2, 1)) == CoeffScalar.one(2)
    assert alg.euler_pairZ(("u", S2, 1), ("u", S1, 0)) == CoeffScalar.one(2)
    assert alg.euler_pairZ(("v", S1.dim, 0), ("u", S2, 0)) == \
        q_power(2, cat.euler_form_int(S1.dim, S2.dim))


def test_euler_lemmas_suite():
    checks = suite_euler_lemmas(a2())
    assert checks and all(c[1] == "pass" for c in checks)


@pytest.mark.parametrize("quiver, q", [
    (a_n_quiver(2), 2), (a_n_quiver(3), 3), (Quiver(2, [(1, 2), (1, 2)]), 2)])
def test_euler_pieces_replace_their_symbols(quiver, q):
    """For every u- and v-symbol of the euler-lemmas suite at degrees 0-2,
    each piece (sign, R, K, X) has an acyclic K, dim R^d = dim X^d + dim K^d
    in every degree, and R and X have the same interned homology; the signs
    of a v-symbol's pieces reassemble alpha's coordinates."""
    cat = RepCategory(quiver, q)
    alg = SDHZAlgebra(cat)
    tools = alg.tools

    def homology(X):
        return {m: cat.intern(H) for m, H in tools.homology(X).items() if not H.is_zero()}

    mods = [cat.simple(i) for i in range(1, quiver.n + 1)] + [cat.projective(1)]
    symbols = [(kind, x, m) for m in (0, 1, 2) for M in mods
               for kind, x in (("u", M), ("v", M.dim), ("v", tuple(-d for d in M.dim)))]
    for spec in symbols:
        pieces = alg._pieces(spec)
        for _sign, R, K, X in pieces:
            assert homology(K) == {}, spec
            for d in set(R.degrees()) | set(X.degrees()) | set(K.degrees()):
                assert R.component(d).dim == tuple(
                    map(sum, zip(X.component(d).dim, K.component(d).dim))), (spec, d)
            assert homology(R) == homology(X), spec
        if spec[0] == "u":
            assert [s for s, *_ in pieces] == [1]
        else:
            total = (0,) * quiver.n
            for s, _R, _K, X in pieces:
                coords = alg.coords(X.component(spec[2]).dim)
                total = tuple(t + s * c for t, c in zip(total, coords))
            assert total == alg.coords(spec[1]), spec


def test_presentation_suite_full():
    checks = suite_presentation_uv(a2())
    assert checks and all(c[1] == "pass" for c in checks)


def test_embed_Im_multiplicative():
    cat = a2()
    hall = HallAlgebra(cat)
    alg = SDHZAlgebra(cat)
    keys = cat.iso_classes_up_to(4)
    for m in (0, 1):
        for A in keys:
            for B in keys:
                if sum(A.dim) + sum(B.dim) > 4:
                    continue
                lhs = alg.productZ(alg.u_gen(A.rep, m), alg.u_gen(B.rep, m))
                img = alg.zero()
                for C, c in hall.product_pair(A, B).terms.items():
                    img = img + alg.u_gen(C.rep, m).scale_scalar(c)
                assert (lhs - img).is_zero(), (m, A.label, B.label)
        # injectivity witness: distinct iso classes get distinct basis keys
        seen = {}
        for A in keys:
            term_keys = frozenset(alg.u_gen(A.rep, m).terms)
            assert term_keys not in seen.values()
            seen[A] = term_keys


def test_generation_descending_products():
    """Every basis key is an ordered (descending-degree) product of u
    generators times a torus element, with explicit nonzero coefficient."""
    cat = a2()
    alg = SDHZAlgebra(cat)
    rng = random.Random(31)
    reps = [cat.simple(1), cat.simple(2), cat.projective(1)]
    for _ in range(20):
        degs = sorted(rng.sample(range(-2, 4), rng.randint(1, 2)))
        pairs = [(rng.choice(reps), m) for m in degs]
        if sum(A.total_dim() for A, _ in pairs) > 4:
            continue
        prod = alg.unit()
        for A, m in sorted(pairs, key=lambda t: -t[1]):
            prod = alg.productZ(prod, alg.u_gen(A, m))
        assert len(prod.terms) == 1
        (g, key), c = next(iter(prod.terms.items()))
        assert key == tuple(sorted((m, cat.intern(A)) for A, m in pairs))
        assert not c.is_zero()
        # multiplying by any torus element reaches the general basis term
        t = ((degs[0], alg.coords((1, 0))),)
        shifted = alg.productZ(alg.term(t, ()), prod)
        assert len(shifted.terms) == 1


def test_homology_additivity_disjoint_supports():
    cat = a2()
    alg = SDHZAlgebra(cat)
    x = alg.u_gen(cat.simple(1), 0)
    y = alg.u_gen(cat.projective(1), 2)
    prod = alg.productZ(x, y)
    for (_g, key) in prod.terms:
        assert {m for m, _k in key} <= {0, 2}


def test_window_guards():
    cat = a2()
    alg = SDHZAlgebra(cat)
    # Each generator's one term goes through window_check.
    with pytest.raises(WindowExceeded, match="homology degree 9 outside \\[-8, 8\\]"):
        alg.u_gen(cat.simple(1), 9)
    with pytest.raises(WindowExceeded, match="torus slot -9 outside \\[-8, 7\\]"):
        alg.u_gen(cat.simple(1), -8)  # P1(S1) sits in degree -9
    for alpha in ((1, 0), (0, 0)):   # the zero class too
        with pytest.raises(WindowExceeded, match="torus slot 8 outside \\[-8, 7\\]"):
            alg.v_gen(alpha, 8)
    assert alg.u_gen(cat.simple(2), -8) is not None  # projective: no slot below
    # Products check the homology key, then the torus lattice, of every
    # term, on every call: a cached key pair must not skip the checks.
    S1 = cat.intern(cat.simple(1))
    torus = alg.term(((9, (1, 0)),), ())
    homology = alg.term((), ((9, S1),))
    both = alg.term(((9, (1, 0)),), ((9, S1),))
    cases = ((torus, "torus slot 9 outside \\[-8, 7\\]"),
             (homology, "homology degree 9 outside \\[-8, 8\\]"),
             (both, "homology degree 9 outside \\[-8, 8\\]"))
    for x, message in cases:
        for _ in range(2):
            for lhs, rhs in ((x, alg.unit()), (alg.unit(), x)):
                with pytest.raises(WindowExceeded, match=message):
                    alg.productZ(lhs, rhs)


def test_torus_slot_window_matches_v_gen():
    """Torus slot m lives in degrees m and m + 1, so a product refuses a
    term at slot WINDOW_HI, as v_gen refuses that slot, and keeps one at
    slot WINDOW_HI - 1, whose degrees are both inside the window."""
    cat = a2()
    alg = SDHZAlgebra(cat)
    with pytest.raises(WindowExceeded):
        alg.v_gen((1, 0), WINDOW_HI)
    top = alg.term(((WINDOW_HI, (1, 0)),), ())
    for lhs, rhs in ((top, alg.unit()), (alg.unit(), top)):
        with pytest.raises(WindowExceeded, match="torus slot 8 outside \\[-8, 7\\]"):
            alg.productZ(lhs, rhs)
    below = alg.v_gen((1, 0), WINDOW_HI - 1)
    assert alg.productZ(below, alg.unit()) == below == alg.productZ(alg.unit(), below)


def test_assoc_seeded_z():
    cat = a2()
    alg = SDHZAlgebra(cat)
    rng = random.Random(5)
    gens = []
    for i in (1, 2):
        for m in (0, 1):
            gens.append(alg.u_gen(cat.simple(i), m))
            gens.append(alg.v_gen(cat.simple(i).dim, m))
    gens.append(alg.u_gen(cat.projective(1), 0))
    for _ in range(25):
        x, y, z = (rng.choice(gens) for _ in range(3))
        assert (alg.productZ(alg.productZ(x, y), z)
                - alg.productZ(x, alg.productZ(y, z))).is_zero()



def test_end_maps_are_shared_zero_maps():
    """Past either end a bounded complex reads the zero map of its category
    between those components, one object per pair of signatures, shared by
    complexes with equal end components."""
    cat = a2()
    S1, P1 = cat.simple(1), cat.projective(1)
    X, Y = stalk_cxb(cat, S1, 0), stalk_cxb(cat, cat.simple(1), 2)
    into, out_of, between = X.diff(-1), X.diff(0), X.diff(5)
    assert (into.dom.dim, into.cod.dim) == ((0, 0), (1, 0))
    assert (out_of.dom.dim, out_of.cod.dim) == ((1, 0), (0, 0))
    assert between.dom.is_zero() and between.cod.is_zero()
    assert all(f.is_zero() for f in (into, out_of, between))
    assert Y.diff(1) is into and Y.diff(2) is out_of and Y.diff(-7) is between
    assert stalk_cxb(cat, P1, 0).diff(0) is not out_of
