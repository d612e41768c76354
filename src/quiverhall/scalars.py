"""Exact arithmetic in Q(sqrt(q)) for a prime q.

Every coefficient in the engine is an element a + b*v with v = sqrt(q) and
a, b rational.  Since q is prime, v is irrational and the pair (a, b) is
unique, so equality of scalars is equality of the pairs.  No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


def check_prime(p: int) -> int:
    """Validate the field order guardrail: p prime, 2 <= p <= 97."""
    if p not in _SMALL_PRIMES:
        raise PreconditionError(f"field order must be a prime in [2, 97], got {p}")
    return p


_ZERO = Fraction(0)


class CoeffScalar:
    """An element a + b*sqrt(q) of Q(sqrt(q)), stored exactly."""

    __slots__ = ("q", "a", "b")

    def __init__(self, q: int, a=0, b=0):
        self.q = q
        self.a = Fraction(a)
        self.b = Fraction(b)

    @staticmethod
    def _trusted(q: int, a: Fraction, b: Fraction) -> "CoeffScalar":
        """A scalar from components that are already Fractions, without the
        coercion of the public constructor; the ring operations build their
        results this way."""
        x = object.__new__(CoeffScalar)
        x.q = q
        x.a = a
        x.b = b
        return x

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(q: int) -> "CoeffScalar":
        return CoeffScalar(q, 0, 0)

    @staticmethod
    def one(q: int) -> "CoeffScalar":
        return CoeffScalar(q, 1, 0)

    @staticmethod
    def of(q: int, value) -> "CoeffScalar":
        """Rational value as a scalar."""
        return CoeffScalar(q, Fraction(value), 0)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    # -- ring operations ----------------------------------------------

    def _check(self, other: "CoeffScalar") -> None:
        if self.q != other.q:
            raise PreconditionError(f"mixing scalars over q={self.q} and q={other.q}")

    def __add__(self, other: "CoeffScalar") -> "CoeffScalar":
        self._check(other)
        return CoeffScalar._trusted(self.q, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "CoeffScalar") -> "CoeffScalar":
        self._check(other)
        return CoeffScalar._trusted(self.q, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "CoeffScalar":
        return CoeffScalar._trusted(self.q, -self.a, -self.b)

    def __mul__(self, other: "CoeffScalar") -> "CoeffScalar":
        self._check(other)
        a, b, c, d, q = self.a, self.b, other.a, other.b, self.q
        # Most engine scalars are pure rationals or pure multiples of v, so
        # the products with a zero component are skipped.
        if not b:
            return CoeffScalar._trusted(q, a * c, a * d)
        if not d:
            return CoeffScalar._trusted(q, a * c, b * c)
        if not a:
            return CoeffScalar._trusted(q, q * b * d, b * c)
        if not c:
            return CoeffScalar._trusted(q, q * b * d, a * d)
        return CoeffScalar._trusted(q, a * c + q * b * d, a * d + b * c)

    def scale(self, r) -> "CoeffScalar":
        if not isinstance(r, (int, Fraction)):
            r = Fraction(r)
        return CoeffScalar._trusted(self.q, self.a * r, self.b * r)

    def inverse(self) -> "CoeffScalar":
        # (a + b v)^(-1) = (a - b v) / (a^2 - q b^2); the norm is nonzero
        # for (a, b) != (0, 0) because sqrt(q) is irrational.
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        norm = self.a * self.a - self.q * self.b * self.b
        return CoeffScalar._trusted(self.q, self.a / norm, -self.b / norm)

    def __truediv__(self, other: "CoeffScalar") -> "CoeffScalar":
        return self * other.inverse()

    def __pow__(self, n: int) -> "CoeffScalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = CoeffScalar.one(self.q)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoeffScalar)
            and self.q == other.q
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.q, self.a, self.b))

    def __repr__(self) -> str:
        return f"CoeffScalar(q={self.q}, {self})"

    def __str__(self) -> str:
        return format_scalar(self)


_q_powers = {}


def q_power(q: int, m) -> CoeffScalar:
    """q**m for m in (1/2)Z, exactly.  q_power(1/2) is v = sqrt(q).

    Results are memoised per (q, m); scalars are immutable, so callers may
    share them.  A rejected exponent is never stored."""
    x = _q_powers.get((q, m))
    if x is not None:
        return x
    e = Fraction(m)
    if e.denominator == 1:
        x = CoeffScalar._trusted(q, Fraction(q) ** e.numerator, _ZERO)
    elif e.denominator == 2:
        x = CoeffScalar._trusted(q, _ZERO, Fraction(q) ** int(e - Fraction(1, 2)))
    else:
        raise PreconditionError(f"q_power exponent must be a half-integer, got {e}")
    _q_powers[(q, m)] = x
    return x


def v_power(q: int, e: int) -> CoeffScalar:
    """v**e with v = sqrt(q), for integer e (possibly negative)."""
    return q_power(q, Fraction(e, 2))


def v_binomial(q: int, n: int, k: int) -> CoeffScalar:
    """Symmetric quantum binomial [n choose k]_v = v^(-k(n-k)) [n choose k]_q,
    the Gaussian binomial at q = v^2 carried to the bar-invariant form."""
    g = 1
    for i in range(k):
        g = g * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return v_power(q, -k * (n - k)).scale(g)


class LinComb:
    """Finitely supported map from basis keys to CoeffScalar coefficients.

    Every Hall-type algebra of the engine is free on a basis, so its elements
    are all of this one type.  Zero coefficients are dropped on construction
    and on every accumulation, so equality is equality of the term dicts.  The
    algebra binds how two elements multiply (``mul``, behind ``*``) and how an
    element prints (``fmt``, given the nonempty term dict).
    """

    __slots__ = ("q", "terms", "mul", "fmt")

    def __init__(self, q: int, terms=None, mul=None, fmt=None):
        self.q = q
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()} if terms else {}
        self.mul = mul
        self.fmt = fmt

    def like(self, terms) -> "LinComb":
        """A new element of the same algebra with the given terms."""
        return LinComb(self.q, terms, self.mul, self.fmt)

    def add_term(self, key, c: CoeffScalar) -> None:
        """terms[key] += c in place; the key is dropped when the sum is 0."""
        cur = self.terms.get(key)
        if cur is not None:
            c = cur + c
        if c.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = c

    def __iadd__(self, other: "LinComb") -> "LinComb":
        for k, c in other.terms.items():
            self.add_term(k, c)
        return self

    def __add__(self, other: "LinComb") -> "LinComb":
        out = self.like(self.terms)
        out += other
        return out

    def __sub__(self, other: "LinComb") -> "LinComb":
        out = self.like(self.terms)
        for k, c in other.terms.items():
            out.add_term(k, -c)
        return out

    def scale_scalar(self, c: CoeffScalar) -> "LinComb":
        return self.like({k: v * c for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self.terms == other.terms

    def __mul__(self, other: "LinComb") -> "LinComb":
        return self.mul(self, other)

    def serre(self, other: "LinComb", a: int) -> "LinComb":
        """The quantum Serre expression for x = self, y = other and the Cartan
        entry a = a_ij <= 0:

            sum_k (-1)^k [1-a choose k]_v x^(1-a-k) y x^k,

        which vanishes in the algebra when x, y are the generators E_i, E_j.
        For a = 0 it is the commutator xy - yx.
        """
        n = 1 - a
        powers = [None, self]
        for _ in range(n - 1):
            powers.append(powers[-1] * self)
        out = self.like({})
        for k in range(n + 1):
            t = powers[n - k] * other if k < n else other
            if k:
                t = t * powers[k]
            coeff = v_binomial(self.q, n, k)
            out += t.scale_scalar(-coeff if k % 2 else coeff)
        return out

    def __str__(self) -> str:
        return self.fmt(self.terms) if self.terms else "0"


def bilinear(x: LinComb, y: LinComb, pair) -> LinComb:
    """sum over terms of x and y of cx * cy * pair(kx, ky), accumulated in
    place into one new element of x's algebra.  pair returns an iterable of
    (key, coefficient) items; it is only read, so it may be a cached dict's
    items()."""
    out = x.like({})
    for kx, cx in x.terms.items():
        for ky, cy in y.terms.items():
            c = cx * cy
            for k, ck in pair(kx, ky):
                out.add_term(k, c * ck)
    return out


def format_scalar(x: CoeffScalar) -> str:
    """Deterministic compact rendering, e.g. '1', '-1/2', 'v', '1/2+3*v'."""
    if x.is_zero():
        return "0"
    parts = []
    if x.a != 0:
        parts.append(str(x.a))
    if x.b != 0:
        if x.b == 1:
            bs = "v"
        elif x.b == -1:
            bs = "-v"
        else:
            bs = f"{x.b}*v"
        if parts and not bs.startswith("-"):
            parts.append("+" + bs)
        else:
            parts.append(bs)
    return "".join(parts)
