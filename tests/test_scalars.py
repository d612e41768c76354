import random
from fractions import Fraction
from math import gcd

import pytest

from oracles import FractionScalar
from quiverhall.errors import PreconditionError
from quiverhall.scalars import CoeffScalar, check_prime, q_power, v_power

# Every prime size class the engine meets, up to the largest check_prime takes.
PRIMES = (2, 3, 5, 7, 11, 13, 97)


def test_sqrt2_difference_of_squares():
    x = CoeffScalar(2, 1, 1)   # 1 + sqrt(2)
    y = CoeffScalar(2, 1, -1)  # 1 - sqrt(2)
    assert x * y == CoeffScalar.of(2, -1)


def test_q_power_half_is_v():
    assert q_power(3, Fraction(1, 2)) == CoeffScalar(3, 0, 1)


def test_q_power_negative_one():
    assert q_power(2, -1) == CoeffScalar.of(2, Fraction(1, 2))


def test_v_power_roundtrip():
    for e in range(-4, 5):
        assert v_power(5, e) * v_power(5, -e) == CoeffScalar.one(5)


def test_mul_commutative_associative_seeded():
    rng = random.Random(7)
    for _ in range(100):
        q = rng.choice((2, 3, 5))
        xs = [CoeffScalar(q, Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                          Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
              for _ in range(3)]
        a, b, c = xs
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_inverse_formula():
    rng = random.Random(11)
    for _ in range(50):
        q = rng.choice((2, 3, 5))
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        if a == 0 and b == 0:
            continue
        x = CoeffScalar(q, a, b)
        norm = a * a - q * b * b
        expected = CoeffScalar(q, a / norm, -b / norm)
        assert x.inverse() == expected
        assert x * x.inverse() == CoeffScalar.one(q)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        CoeffScalar.zero(2).inverse()


def test_prime_guardrail():
    check_prime(97)
    with pytest.raises(PreconditionError):
        check_prime(4)
    with pytest.raises(PreconditionError):
        check_prime(101)


def test_formatting_is_compact():
    assert str(CoeffScalar.one(2)) == "1"
    assert str(CoeffScalar(2, 0, 1)) == "v"
    assert str(CoeffScalar(2, Fraction(1, 2), -1)) == "1/2-v"


def _pair(x):
    """(q, a, b) of x = a + b*sqrt(q), whose parts must be Fractions."""
    assert type(x.a) is Fraction and type(x.b) is Fraction
    return (x.q, x.a, x.b)


def test_ops_match_naive_fraction_formulas_seeded():
    rng = random.Random(13)

    def component():
        # zero about a third of the time, so zero a, zero b and zero
        # operands all occur
        if rng.random() < 0.35:
            return 0
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    for _ in range(400):
        q = rng.choice((2, 3, 5, 7))
        a, b, c, d = (component() for _ in range(4))
        x, y = CoeffScalar(q, a, b), CoeffScalar(q, c, d)
        A, B, C, D = (Fraction(t) for t in (a, b, c, d))
        assert _pair(x + y) == (q, A + C, B + D)
        assert _pair(x - y) == (q, A - C, B - D)
        assert _pair(-x) == (q, -A, -B)
        assert _pair(x * y) == (q, A * C + q * B * D, A * D + B * C)
        for r in (0, 3, -2, Fraction(2, 7), "1/3"):
            R = Fraction(r)
            assert _pair(x.scale(r)) == (q, A * R, B * R)
        assert x.is_zero() == (A == 0 and B == 0)
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            n = A * A - q * B * B
            assert _pair(x.inverse()) == (q, A / n, -B / n)
        assert x * y == y * x and hash(x + y) == hash(y + x)


def test_public_constructor_coerces():
    x = CoeffScalar(3, 2, "1/3")
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert (x.a, x.b) == (Fraction(2), Fraction(1, 3))
    assert x == CoeffScalar(3, Fraction(2), Fraction(1, 3))


def test_q_power_memo_matches_unmemoised_value():
    for q in (2, 3, 5, 11):
        for twice_m in range(-9, 10):
            m = Fraction(twice_m, 2)
            if m.denominator == 1:
                expected = (q, Fraction(q) ** m.numerator, Fraction(0))
            else:
                expected = (q, Fraction(0), Fraction(q) ** int(m - Fraction(1, 2)))
            for arg in (m, m.numerator) if m.denominator == 1 else (m,):
                assert _pair(q_power(q, arg)) == expected
                assert _pair(q_power(q, arg)) == expected   # from the memo


def test_q_power_rejects_non_half_integer_every_call():
    for _ in range(3):
        with pytest.raises(PreconditionError, match="half-integer"):
            q_power(3, Fraction(1, 3))


def test_mixing_q_raises():
    x, y = CoeffScalar(2, 1, 1), CoeffScalar(3, 1, 1)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
        with pytest.raises(PreconditionError, match="mixing scalars"):
            op()


def _canonical(x):
    """x after asserting the stored invariant: (A + B*v) / D in ints, with
    D > 0 and gcd(A, B, D) = 1."""
    assert all(type(t) is int for t in (x.A, x.B, x.D))
    assert x.D > 0 and gcd(x.A, x.B, x.D) == 1
    return x


def _v_oracle(q, e):
    """v^e as a FractionScalar, from the exponent alone."""
    k, odd = divmod(e, 2)
    qk = Fraction(q) ** k
    return FractionScalar(q, 0, qk) if odd else FractionScalar(q, qk, 0)


def _draw(rng, q):
    """A random scalar and the same value as a FractionScalar, built apart:
    (a + b*v) times, half the time, v to a large power."""
    def part():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    a, b = part(), part()
    x, ox = CoeffScalar(q, a, b), FractionScalar(q, a, b)
    if rng.random() < 0.5:
        e = rng.randint(-40, 40)
        x, ox = x * v_power(q, e), ox * _v_oracle(q, e)
    return _canonical(x), ox


def _agrees(x, ox) -> bool:
    return (x.q, x.a, x.b) == (ox.q, ox.a, ox.b) and str(x) == str(ox)


def test_v_power_matches_fraction_oracle():
    for q in PRIMES:
        for e in range(-60, 61):
            assert _agrees(_canonical(v_power(q, e)), _v_oracle(q, e))
            if e % 2 == 0:
                assert q_power(q, e // 2) is v_power(q, e)
            assert q_power(q, Fraction(e, 2)) is v_power(q, e)


def test_ring_ops_match_fraction_oracle_seeded():
    rng = random.Random(24)
    for _ in range(600):
        q = rng.choice(PRIMES)
        (x, ox), (y, oy) = _draw(rng, q), _draw(rng, q)
        r = rng.choice((0, 1, -3, q ** 9, Fraction(-2, 9), Fraction(5, q ** 7), "7/6"))
        cases = [(x + y, ox + oy), (x - y, ox - oy), (-x, -ox), (x * y, ox * oy),
                 (x.scale(r), ox.scale(r))]
        if not x.is_zero():
            cases += [(x.inverse(), ox.inverse()), (y / x, oy * ox.inverse()),
                      (x ** -3, ox.inverse() * ox.inverse() * ox.inverse())]
        for got, want in cases:
            assert _agrees(_canonical(got), want)
        assert x.is_zero() == (not ox.a and not ox.b)
        assert (x == y) == (ox == oy)
        assert (x + y == y + x) and hash(x + y) == hash(y + x)


def test_format_matches_fraction_oracle():
    for q in (2, 97):
        for a in (0, 1, -1, 2, Fraction(1, 2), Fraction(-7, 3), Fraction(4, 6)):
            for b in (0, 1, -1, 3, Fraction(-1, 2), Fraction(5, 9), Fraction(-9, 6)):
                x = CoeffScalar(q, a, b)
                assert str(x) == str(FractionScalar(q, a, b))
                assert str(x * v_power(q, 31)) == str(FractionScalar(q, a, b) * _v_oracle(q, 31))


def test_equal_values_by_different_routes_hash_equal():
    rng = random.Random(31)
    for _ in range(300):
        q = rng.choice(PRIMES)
        (x, ox), (y, _oy) = _draw(rng, q), _draw(rng, q)
        if x.is_zero() or y.is_zero():
            continue
        r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        e = rng.randint(-30, 30)
        routes = [
            CoeffScalar(q, ox.a, ox.b),
            CoeffScalar(q, str(ox.a), str(ox.b)),
            x.scale(r).scale(1 / r),
            x.inverse().inverse(),
            x * y * y.inverse(),
            (x + x).scale(Fraction(1, 2)),
            x * v_power(q, e) * v_power(q, -e),
            -(-x),
            x + y - y,
        ]
        for z in routes:
            assert z == x and hash(z) == hash(x)
            _canonical(z)
    assert hash(CoeffScalar.of(5, Fraction(6, 4))) == hash(CoeffScalar(5, 3).scale(Fraction(1, 2)))


def test_ring_ops_build_no_fraction(monkeypatch):
    q = 7
    x, y = CoeffScalar(q, Fraction(1, 3), -2), CoeffScalar(q, 5, Fraction(2, 21))
    r = Fraction(3, 7)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: -x, lambda: x.inverse(),
               lambda: x.scale(4), lambda: x.scale(r), lambda: x / y, lambda: x == y,
               lambda: hash(x), lambda: str(x), lambda: CoeffScalar.of(q, r),
               lambda: v_power(q, 77), lambda: q_power(q, -5)):
        op()
    monkeypatch.undo()
    assert built == []


@pytest.mark.parametrize("build", [
    lambda: CoeffScalar(2, 0.1),
    lambda: CoeffScalar(2, 1, 0.5),
    lambda: CoeffScalar.of(2, 0.25),
    lambda: CoeffScalar.one(2).scale(0.1),
])
def test_floats_are_rejected(build):
    """A float is rarely the rational meant (0.1 is 3602879701896397/2^55)."""
    with pytest.raises(PreconditionError, match="exact"):
        build()
