"""Sparse homogeneous polynomials over an exact field.

A ``GradedPoly`` is a homogeneous form of fixed degree in ``nvars``
variables x0, ..., x_{nvars-1}, stored as a dict mapping exponent tuples to
nonzero scalars (Fraction by default, ``Fp`` when a characteristic is set).

Monomials of a fixed degree carry one global order, descending graded
reverse-lexicographic with x0 > x1 > ... > x_{nvars-1}: exponent a precedes
exponent b when the rightmost nonzero entry of a - b is negative.  In code
this is an ascending sort on the reversed exponent tuple, e.g. for degree 2
in three variables: x0^2, x0*x1, x1^2, x0*x2, x1*x2, x2^2.  Every matrix of
coefficients in the package indexes its columns by this order, which makes
serialized artifacts reproducible byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .macaulay import binomial
from .scalars import Fp, as_scalar, scalar_zero


@lru_cache(maxsize=None)
def monomial_basis(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree, in the fixed order."""
    if nvars < 1:
        raise ValueError("nvars must be positive")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    out = []
    # stars and bars: bar positions in a row of degree + nvars - 1 slots
    for bars in combinations(range(degree + nvars - 1), nvars - 1):
        prev = -1
        exp = []
        for b in bars:
            exp.append(b - prev - 1)
            prev = b
        exp.append(degree + nvars - 1 - prev - 1)
        out.append(tuple(exp))
    out.sort(key=lambda e: tuple(reversed(e)))
    assert len(out) == binomial(degree + nvars - 1, nvars - 1)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(nvars: int, degree: int) -> dict[tuple[int, ...], int]:
    return {e: i for i, e in enumerate(monomial_basis(nvars, degree))}


class GradedPoly:
    """Homogeneous polynomial with exact coefficients."""

    __slots__ = ("nvars", "degree", "coeffs", "char")

    def __init__(self, nvars: int, degree: int, coeffs=None, char: int | None = None):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.nvars = nvars
        self.degree = degree
        self.char = char
        clean = {}
        for exp, c in (coeffs or {}).items():
            exp = tuple(exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent tuple {exp}")
            if sum(exp) != degree:
                raise ValueError(f"monomial {exp} is not of degree {degree}")
            c = as_scalar(c, char)
            if c:
                clean[exp] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, degree: int, char: int | None = None) -> "GradedPoly":
        return cls(nvars, degree, {}, char)

    @classmethod
    def variable(cls, nvars: int, i: int, char: int | None = None) -> "GradedPoly":
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, 1, {tuple(exp): 1}, char)

    @classmethod
    def monomial(cls, nvars: int, exp, coeff=1, char: int | None = None) -> "GradedPoly":
        exp = tuple(exp)
        return cls(nvars, sum(exp), {exp: coeff}, char)

    @classmethod
    def linear_form(cls, coeffs, char: int | None = None) -> "GradedPoly":
        """sum_i coeffs[i] * x_i"""
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            exp = [0] * n
            exp[i] = 1
            terms[tuple(exp)] = c
        return cls(n, 1, terms, char)

    # -- ring structure ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_compatible(self, other: "GradedPoly") -> None:
        if self.nvars != other.nvars or self.char != other.char:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_compatible(other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            cur = out.get(exp)
            s = c if cur is None else cur + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return GradedPoly(self.nvars, self.degree, out, self.char)

    def __neg__(self) -> "GradedPoly":
        return GradedPoly(
            self.nvars, self.degree, {e: -c for e, c in self.coeffs.items()}, self.char
        )

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + (-other)

    def scale(self, s) -> "GradedPoly":
        s = as_scalar(s, self.char)
        if not s:
            return GradedPoly.zero(self.nvars, self.degree, self.char)
        return GradedPoly(
            self.nvars, self.degree, {e: c * s for e, c in self.coeffs.items()}, self.char
        )

    def __mul__(self, other):
        if not isinstance(other, GradedPoly):
            return self.scale(other)
        self._check_compatible(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                cur = out.get(exp)
                s = prod if cur is None else cur + prod
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        return GradedPoly(self.nvars, self.degree + other.degree, out, self.char)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return (
            isinstance(other, GradedPoly)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.char == other.char
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.nvars, self.degree, self.char, frozenset(self.coeffs.items())))

    # -- calculus and substitution --------------------------------------

    def partial_derivative(self, i: int) -> "GradedPoly":
        if self.degree < 1:
            raise ValueError("cannot differentiate a degree-0 form")
        out = {}
        for exp, c in self.coeffs.items():
            if exp[i] == 0:
                continue
            nxt = list(exp)
            nxt[i] -= 1
            out[tuple(nxt)] = c * exp[i]
        return GradedPoly(self.nvars, self.degree - 1, out, self.char)

    def substitute_zero(self, i: int) -> "GradedPoly":
        """Set x_i = 0 and drop the variable, landing in nvars - 1 variables."""
        if self.nvars < 2:
            raise ValueError("cannot drop the only variable")
        out = {}
        for exp, c in self.coeffs.items():
            if exp[i] != 0:
                continue
            out[exp[:i] + exp[i + 1 :]] = c
        return GradedPoly(self.nvars - 1, self.degree, out, self.char)

    def linear_change(self, matrix) -> "GradedPoly":
        """f(M y): substitute x_i -> sum_j M[i][j] y_j.  M must be invertible."""
        from .linalg import det

        n = self.nvars
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("matrix shape must match nvars")
        if not det(matrix, self.char):
            raise ValueError("matrix is singular")
        forms = [GradedPoly.linear_form(row, self.char) for row in matrix]
        powers: list[list[GradedPoly]] = [[] for _ in range(n)]
        result = GradedPoly.zero(n, self.degree, self.char)
        one = GradedPoly(n, 0, {(0,) * n: 1}, self.char)
        for exp, c in self.coeffs.items():
            term = one
            for i, e in enumerate(exp):
                while len(powers[i]) <= e:
                    if not powers[i]:
                        powers[i].append(one)
                    else:
                        powers[i].append(powers[i][-1] * forms[i])
                term = term * powers[i][e]
            result = result + term.scale(c)
        return result

    def evaluate(self, point):
        """Exact value at a point given by a coordinate tuple."""
        if len(point) != self.nvars:
            raise ValueError("point has the wrong number of coordinates")
        if not any(point):
            raise ValueError("zero coordinate vector is not a projective point")
        acc = scalar_zero(self.char)
        for exp, c in self.coeffs.items():
            term = c
            for coord, e in zip(point, exp):
                if e:
                    term = term * coord**e
            acc = acc + term
        return acc

    # -- serialization ---------------------------------------------------

    def terms(self):
        """(exponent, coefficient) pairs in the fixed monomial order."""
        return sorted(self.coeffs.items(), key=lambda t: tuple(reversed(t[0])))

    def to_json_dict(self) -> dict:
        terms = []
        for exp, c in self.terms():
            if isinstance(c, Fp):
                terms.append([list(exp), c.val, 1])
            else:
                terms.append([list(exp), c.numerator, c.denominator])
        return {"nvars": self.nvars, "degree": self.degree, "terms": terms}

    @classmethod
    def from_json_dict(cls, data: dict, char: int | None = None) -> "GradedPoly":
        coeffs = {
            tuple(exp): Fraction(num, den) for exp, num, den in data["terms"]
        }
        return cls(data["nvars"], data["degree"], coeffs, char)

    def reduce_mod(self, p: int) -> "GradedPoly":
        if self.char is not None:
            raise ValueError("already over a prime field")
        return GradedPoly(self.nvars, self.degree, dict(self.coeffs), p)

    def __repr__(self):
        if self.is_zero:
            return f"GradedPoly(0; nvars={self.nvars}, degree={self.degree})"
        bits = []
        for exp, c in self.terms()[:6]:
            mono = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exp) if e
            )
            bits.append(f"{c}*{mono}" if mono else str(c))
        tail = " + ..." if len(self.coeffs) > 6 else ""
        return " + ".join(bits) + tail


def product(polys) -> GradedPoly:
    """Product of a nonempty sequence of forms."""
    it = iter(polys)
    acc = next(it)
    for f in it:
        acc = acc * f
    return acc
