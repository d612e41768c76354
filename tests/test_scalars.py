import random
from fractions import Fraction

import pytest

from quiverhall.errors import PreconditionError
from quiverhall.scalars import CoeffScalar, check_prime, q_power, v_power


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
