"""Exact arithmetic in Q(sqrt(q)) for a prime q.

Every coefficient in the engine is an element a + b*v with v = sqrt(q) and
a, b rational.  Since q is prime, v is irrational and the pair (a, b) is
unique, so equality of scalars is equality of the pairs.  No floats anywhere.

A scalar is stored as three ints, x = (A + B*v) / D, kept in lowest terms:
D > 0 and gcd(A, B, D) = 1 after every operation (zero is (0, 0, 1)).  The
triple is then unique too, so == and hash compare the ints, and a ring
operation is integer arithmetic and one gcd.  The rational parts a = A/D
and b = B/D are read as Fractions on demand.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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


def _rational(value) -> tuple:
    """(numerator, denominator > 0) of an exact rational: an int, a Fraction
    or anything Fraction() reads exactly, such as "1/3".  A float is
    rejected: its binary value is rarely the rational that was meant."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float):
        raise PreconditionError(f"scalars are exact; got the float {value!r}")
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator, value.denominator


def _ratio_str(n: int, d: int) -> str:
    """n/d in lowest terms, as str(Fraction(n, d)) prints it (d > 0)."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


class CoeffScalar:
    """An element (A + B*sqrt(q)) / D of Q(sqrt(q)), stored exactly in
    lowest terms (module docstring)."""

    __slots__ = ("q", "A", "B", "D")

    def __init__(self, q: int, a=0, b=0):
        (na, da), (nb, db) = _rational(a), _rational(b)
        CoeffScalar._set(self, q, na * db, nb * da, da * db)

    @staticmethod
    def _set(x: "CoeffScalar", q: int, A: int, B: int, D: int) -> "CoeffScalar":
        """Store (A + B*v) / D into x in lowest terms; D must be > 0."""
        if D != 1:
            g = gcd(A, B, D)
            if g != 1:
                A //= g
                B //= g
                D //= g
        x.q = q
        x.A = A
        x.B = B
        x.D = D
        return x

    @staticmethod
    def _new(q: int, A: int, B: int, D: int) -> "CoeffScalar":
        """The scalar (A + B*v) / D, for ints with D > 0, without the
        coercion of the public constructor; the ring operations build their
        results this way."""
        return CoeffScalar._set(object.__new__(CoeffScalar), q, A, B, D)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(q: int) -> "CoeffScalar":
        return CoeffScalar._new(q, 0, 0, 1)

    @staticmethod
    def one(q: int) -> "CoeffScalar":
        return CoeffScalar._new(q, 1, 0, 1)

    @staticmethod
    def of(q: int, value) -> "CoeffScalar":
        """Rational value as a scalar."""
        n, d = _rational(value)
        return CoeffScalar._new(q, n, 0, d)

    # -- parts ----------------------------------------------------------

    @property
    def a(self) -> Fraction:
        """The rational part a of a + b*v."""
        return Fraction(self.A, self.D)

    @property
    def b(self) -> Fraction:
        """The coefficient b of v in a + b*v."""
        return Fraction(self.B, self.D)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.A and not self.B

    # -- ring operations ----------------------------------------------

    def _check(self, other: "CoeffScalar") -> None:
        if self.q != other.q:
            raise PreconditionError(f"mixing scalars over q={self.q} and q={other.q}")

    def __add__(self, other: "CoeffScalar") -> "CoeffScalar":
        self._check(other)
        D, F = self.D, other.D
        if D == F:
            return CoeffScalar._new(self.q, self.A + other.A, self.B + other.B, D)
        return CoeffScalar._new(self.q, self.A * F + other.A * D,
                                self.B * F + other.B * D, D * F)

    def __sub__(self, other: "CoeffScalar") -> "CoeffScalar":
        self._check(other)
        D, F = self.D, other.D
        if D == F:
            return CoeffScalar._new(self.q, self.A - other.A, self.B - other.B, D)
        return CoeffScalar._new(self.q, self.A * F - other.A * D,
                                self.B * F - other.B * D, D * F)

    def __neg__(self) -> "CoeffScalar":
        x = object.__new__(CoeffScalar)
        x.q, x.A, x.B, x.D = self.q, -self.A, -self.B, self.D
        return x

    def __mul__(self, other: "CoeffScalar") -> "CoeffScalar":
        self._check(other)
        A, B, C, E, q = self.A, self.B, other.A, other.B, self.q
        # Most engine scalars are pure rationals or pure multiples of v, so
        # the products with a zero part are skipped.
        if not B:
            return CoeffScalar._new(q, A * C, A * E, self.D * other.D)
        if not E:
            return CoeffScalar._new(q, A * C, B * C, self.D * other.D)
        return CoeffScalar._new(q, A * C + q * B * E, A * E + B * C, self.D * other.D)

    def scale(self, r) -> "CoeffScalar":
        n, d = _rational(r)
        return CoeffScalar._new(self.q, self.A * n, self.B * n, self.D * d)

    def inverse(self) -> "CoeffScalar":
        # ((A + B v) / D)^(-1) = D (A - B v) / (A^2 - q B^2); the norm is
        # nonzero for (A, B) != (0, 0) because sqrt(q) is irrational.
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        A, B, D = self.A, self.B, self.D
        norm = A * A - self.q * B * B
        if norm < 0:
            norm, D = -norm, -D
        return CoeffScalar._new(self.q, D * A, -D * B, norm)

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
            and self.A == other.A
            and self.B == other.B
            and self.D == other.D
        )

    def __hash__(self):
        return hash((self.q, self.A, self.B, self.D))

    def __repr__(self) -> str:
        return f"CoeffScalar(q={self.q}, {self})"

    def __str__(self) -> str:
        return format_scalar(self)


_v_powers = {}


def v_power(q: int, e: int) -> CoeffScalar:
    """v**e with v = sqrt(q), for integer e (possibly negative).

    Results are memoised per (q, e); scalars are immutable, so callers may
    share them."""
    x = _v_powers.get((q, e))
    if x is None:
        k, odd = divmod(e, 2)         # v^e = v^odd * q^k
        num, den = (q ** k, 1) if k >= 0 else (1, q ** -k)
        x = _v_powers[(q, e)] = (CoeffScalar._new(q, 0, num, den) if odd
                                 else CoeffScalar._new(q, num, 0, den))
    return x


def q_power(q: int, m) -> CoeffScalar:
    """q**m for m in (1/2)Z, exactly.  q_power(1/2) is v = sqrt(q).

    Results are shared with v_power's memo; a rejected exponent is never
    stored."""
    if isinstance(m, int):
        return v_power(q, 2 * m)
    if not isinstance(m, Fraction):
        m = Fraction(m)
    if m.denominator > 2:
        raise PreconditionError(f"q_power exponent must be a half-integer, got {m}")
    return v_power(q, m.numerator * (2 // m.denominator))


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
    if x.A:
        parts.append(_ratio_str(x.A, x.D))
    if x.B:
        if x.B == x.D:
            bs = "v"
        elif x.B == -x.D:
            bs = "-v"
        else:
            bs = f"{_ratio_str(x.B, x.D)}*v"
        if parts and not bs.startswith("-"):
            parts.append("+" + bs)
        else:
            parts.append(bs)
    return "".join(parts)
