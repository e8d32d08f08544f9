"""Exact scalar backends: arbitrary-precision rationals and odd prime fields.

The default field is the rationals, represented by ``fractions.Fraction``
(always in lowest terms with positive denominator).  A prime field F_p is
selected by passing ``char=p`` to the constructors that accept it; its
elements are ``Fp`` instances that support the same arithmetic operators,
so the polynomial and matrix code is field-agnostic.  A computation never
mixes the two backends: ``Fp`` refuses to combine with ``Fraction`` or with
elements of a different characteristic.
"""

from __future__ import annotations

from fractions import Fraction


# Miller-Rabin with the bases 2, 3, 5, 7 has no strong pseudoprime below
# this bound (Pomerance-Selfridge-Wagstaff 1980), which lies above every
# allowed characteristic.
_MILLER_RABIN_BOUND = 3_215_031_751


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2, 3, 5, 7, exact for
    n < 3,215,031,751; larger n raise ValueError."""
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(f"primality is only decided below {_MILLER_RABIN_BOUND}, got {n}")
    if n < 2:
        return False
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def validate_characteristic(p: int) -> int:
    if not (2 < p <= 2**31 and p % 2 == 1 and is_prime(p)):
        raise ValueError(f"characteristic must be an odd prime <= 2^31, got {p}")
    return p


class Fp:
    """Element of the prime field F_p."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _coerce(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise TypeError("mixed characteristics")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        if isinstance(other, Fraction):
            if other.denominator % self.p == 0:
                raise ZeroDivisionError("denominator vanishes mod p")
            return Fp(other.numerator * pow(other.denominator, -1, self.p), self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Fp(self.val + o.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Fp(self.val - o.val, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Fp(o.val - self.val, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Fp(self.val * o.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Fp(self.val * pow(o.val, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __pow__(self, exponent: int):
        return Fp(pow(self.val, exponent, self.p), self.p)

    def __neg__(self):
        return Fp(-self.val, self.p)

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __repr__(self):
        return f"Fp({self.val}, p={self.p})"


def as_scalar(x, char: int | None = None):
    """Coerce an int/Fraction/Fp into the field with the given characteristic."""
    if char is None:
        if isinstance(x, Fp):
            raise TypeError("prime-field element in a rational context")
        return x if isinstance(x, Fraction) else Fraction(x)
    if isinstance(x, Fp):
        if x.p != char:
            raise TypeError("mixed characteristics")
        return x
    if isinstance(x, Fraction):
        if x.denominator % char == 0:
            raise ZeroDivisionError("denominator vanishes mod p")
        return Fp(x.numerator * pow(x.denominator, -1, char), char)
    return Fp(x, char)


def scalar_zero(char: int | None = None):
    return Fraction(0) if char is None else Fp(0, char)
