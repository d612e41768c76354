"""LinComb, the one element type of every Hall-type algebra, and bilinear."""

import random
from fractions import Fraction

from quiverhall import HallAlgebra, RepCategory, SDH2Algebra, SDHZAlgebra, a_n_quiver
from quiverhall.scalars import CoeffScalar, LinComb, bilinear, v_binomial, v_power


def _rand_scalar(rng, q):
    return CoeffScalar(q, Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                       Fraction(rng.randint(-2, 2), rng.randint(1, 2)))


def _rand_comb(rng, q, keys, size):
    return LinComb(q, {k: _rand_scalar(rng, q) for k in rng.sample(keys, size)})


def _free_product(x, y):
    """The free algebra on letters: basis words (tuples), product concatenation."""
    return bilinear(x, y, lambda a, b: [(a + b, CoeffScalar.one(x.q))])


def _word(q, *letters):
    return LinComb(q, {tuple(letters): CoeffScalar.one(q)}, _free_product)


def test_zero_coefficients_are_dropped():
    q = 3
    one = CoeffScalar.one(q)
    x = LinComb(q, {"a": one, "b": CoeffScalar.zero(q)})
    assert list(x.terms) == ["a"]
    x.add_term("a", -one)
    assert x.is_zero() and x.terms == {}
    y = LinComb(q, {"a": one, "b": CoeffScalar(q, 2, 1)})
    assert (y - y).is_zero()
    assert (y - y).terms == {}
    assert (y + y.scale_scalar(CoeffScalar.of(q, -1))).terms == {}
    assert y.scale_scalar(CoeffScalar.zero(q)).terms == {}
    assert y == LinComb(q, {"b": CoeffScalar(q, 2, 1), "a": one})


def test_add_sub_leave_operands_alone():
    q = 2
    one = CoeffScalar.one(q)
    x = LinComb(q, {"a": one})
    y = LinComb(q, {"a": one, "b": one})
    s = x + y
    d = x - y
    assert x.terms == {"a": one} and y.terms == {"a": one, "b": one}
    assert s.terms == {"a": CoeffScalar.of(q, 2), "b": one}
    assert d.terms == {"b": CoeffScalar.of(q, -1)}
    s += y
    assert y.terms == {"a": one, "b": one}


def test_bilinear_matches_naive_double_loop_seeded():
    rng = random.Random(5)
    keys = list(range(6))
    for _ in range(40):
        q = rng.choice((2, 3, 5))
        table = {(a, b): _rand_comb(rng, q, keys, rng.randint(0, 3)).terms
                 for a in keys for b in keys}
        x = _rand_comb(rng, q, keys, rng.randint(0, 4))
        y = _rand_comb(rng, q, keys, rng.randint(0, 4))
        naive = LinComb(q)
        for kx, cx in x.terms.items():
            for ky, cy in y.terms.items():
                naive = naive + LinComb(q, table[kx, ky]).scale_scalar(cx * cy)
        got = bilinear(x, y, lambda a, b: table[a, b].items())
        assert got == naive
        assert all(not c.is_zero() for c in got.terms.values())


def test_v_binomial_is_bar_invariant_quantum_binomial():
    q = 3
    v = v_power(q, 1)
    vi = v_power(q, -1)
    assert v_binomial(q, 2, 1) == v + vi
    assert v_binomial(q, 3, 1) == v * v + CoeffScalar.one(q) + vi * vi
    assert v_binomial(q, 3, 2) == v_binomial(q, 3, 1)
    assert v_binomial(q, 3, 0) == v_binomial(q, 3, 3) == CoeffScalar.one(q)


def test_serre_matches_simply_laced_formula_in_free_algebra():
    q = 2
    x = _word(q, "x") + _word(q, "z")
    y = _word(q, "y")
    v2 = v_power(q, 1) + v_power(q, -1)
    assert x.serre(y, 0) == x * y - y * x
    assert x.serre(y, -1) == (x * x) * y - (x * y * x).scale_scalar(v2) + y * (x * x)
    cube = x.serre(y, -2)
    b = v_binomial(q, 3, 1)
    x2 = x * x
    want = (x2 * x) * y - (x2 * y * x).scale_scalar(b) \
        + (x * y * x2).scale_scalar(b) - y * (x2 * x)
    assert cube == want


def test_in_place_add_leaves_cached_products_alone():
    """+= on a product result never reaches a cached pair product."""
    def algebras():
        cat = RepCategory(a_n_quiver(2), 2)
        return cat, HallAlgebra(cat), SDH2Algebra(cat), SDHZAlgebra(cat)

    def products(cat, hall, alg2, algz):
        S1, S2 = cat.simple(1), cat.simple(2)
        return (lambda: hall.product_pair(cat.intern(S1), cat.intern(S2)),
                lambda: alg2.product2(alg2.E_class(S1), alg2.E_class(S2)),
                lambda: alg2.twisted_product2(alg2.F_class(S2), alg2.E_class(S2)),
                lambda: algz.productZ(algz.u_gen(S1, 0), algz.u_gen(S2, 1)))

    fresh = [f() for f in products(*algebras())]
    for f, want in zip(products(*algebras()), fresh):
        first = f()
        assert first == want and not first.is_zero()
        first += first
        first.add_term(next(iter(first.terms)), CoeffScalar.of(2, 7))
        assert f() == want
