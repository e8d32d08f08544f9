"""Sparse homogeneous polynomials over the rationals.

A ``GradedPoly`` is a homogeneous form of fixed degree in ``nvars``
variables x0, ..., x_{nvars-1}, stored as a dict mapping exponent tuples to
nonzero coefficients, each an ``int`` or a ``Fraction``: ints for integer
input, so ring operations on integer forms run on machine-size ints.

Monomials of a fixed degree carry one global order, descending graded
reverse-lexicographic with x0 > x1 > ... > x_{nvars-1}: exponent a precedes
exponent b when the rightmost nonzero entry of a - b is negative.  In code
this is an ascending sort on the reversed exponent tuple, e.g. for degree 2
in three variables: x0^2, x0*x1, x1^2, x0*x2, x1*x2, x2^2.  Every matrix of
coefficients in the package indexes its columns by this order, which makes
serialized artifacts reproducible byte for byte.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations


def json_number(x):
    """x, unless it is a bool: JSON's true and false, which Python takes for 1 and 0."""
    if isinstance(x, bool):
        raise TypeError(f"{str(x).lower()} is not a number")
    return x


@lru_cache(maxsize=None)
def monomial_basis(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree in the fixed order, none
    below degree 0: bar positions in lexicographic order, whose gaps read from
    the right are the exponents of x_{nvars-1} down to x0 (stars and bars)."""
    if nvars < 1:
        raise ValueError("nvars must be positive")
    if degree < 0:
        return ()
    slots = degree + nvars - 1
    return tuple(tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))[::-1]
                 for bars in combinations(range(slots), nvars - 1))


@lru_cache(maxsize=None)
def monomial_index(nvars: int, degree: int) -> dict[tuple[int, ...], int]:
    return {e: i for i, e in enumerate(monomial_basis(nvars, degree))}


def _coefficient(c):
    """c as an int or a Fraction.  A float is refused: its binary expansion
    is rarely the rational meant."""
    if type(c) is int or type(c) is Fraction:
        return c
    if isinstance(c, float):
        raise ValueError(f"coefficient {c!r} is a float; give an int or a Fraction")
    return int(c) if isinstance(c, int) else Fraction(c)


class GradedPoly:
    """Homogeneous polynomial with rational coefficients, each a nonzero int
    or Fraction: an int stays an int, so integer forms hold only ints."""

    __slots__ = ("nvars", "degree", "coeffs")

    def __init__(self, nvars: int, degree: int, coeffs=None):
        try:
            nvars, degree = operator.index(nvars), operator.index(degree)
        except TypeError:
            raise ValueError(f"nvars and degree must be integers: {nvars!r}, {degree!r}") from None
        if nvars < 1:
            raise ValueError("nvars must be positive")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.nvars = nvars
        self.degree = degree
        clean = {}
        for exp, c in (coeffs or {}).items():
            try:
                exp = tuple(map(operator.index, exp))
            except TypeError:
                raise ValueError(f"exponents must be integers, got {exp!r}") from None
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent tuple {exp}")
            if sum(exp) != degree:
                raise ValueError(f"monomial {exp} is not of degree {degree}")
            c = _coefficient(c)
            if c:
                clean[exp] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def _unchecked(cls, nvars: int, degree: int, coeffs: dict) -> "GradedPoly":
        """A ring result of valid forms, built without the checks of
        ``__init__``: the caller guarantees that coeffs maps exponent tuples
        of length nvars and sum degree to nonzero ints or ``Fraction``s."""
        poly = object.__new__(cls)
        poly.nvars, poly.degree, poly.coeffs = nvars, degree, coeffs
        return poly

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "GradedPoly":
        return cls(nvars, degree, {})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "GradedPoly":
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, 1, {tuple(exp): 1})

    @classmethod
    def monomial(cls, nvars: int, exp, coeff=1) -> "GradedPoly":
        exp = tuple(exp)
        return cls(nvars, sum(exp), {exp: coeff})

    @classmethod
    def linear_form(cls, coeffs) -> "GradedPoly":
        """sum_i coeffs[i] * x_i"""
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            exp = [0] * n
            exp[i] = 1
            terms[tuple(exp)] = c
        return cls(n, 1, terms)

    # -- ring structure ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_compatible(self, other: "GradedPoly") -> None:
        if self.nvars != other.nvars:
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
        return GradedPoly._unchecked(self.nvars, self.degree, out)

    def __neg__(self) -> "GradedPoly":
        return GradedPoly._unchecked(self.nvars, self.degree,
                                     {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + (-other)

    def scale(self, s) -> "GradedPoly":
        s = _coefficient(s)
        if not s:
            return GradedPoly.zero(self.nvars, self.degree)
        return GradedPoly._unchecked(self.nvars, self.degree,
                                     {e: c * s for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, GradedPoly):
            return self.scale(other)
        self._check_compatible(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                exp = tuple(map(operator.add, e1, e2))
                prod = c1 * c2
                cur = out.get(exp)
                s = prod if cur is None else cur + prod
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        return GradedPoly._unchecked(self.nvars, self.degree + other.degree, out)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return (
            isinstance(other, GradedPoly)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset(self.coeffs.items())))

    # -- calculus and evaluation ----------------------------------------

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
        return GradedPoly._unchecked(self.nvars, self.degree - 1, out)

    def evaluate(self, point):
        """Exact value at a point of ints or Fractions: the terms are summed
        as ints, with point and coefficients scaled to integers."""
        if len(point) != self.nvars:
            raise ValueError("point has the wrong number of coordinates")
        if not any(point):
            raise ValueError("zero coordinate vector is not a projective point")
        den = math.lcm(*(c.denominator for c in point))
        ints = [c.numerator * (den // c.denominator) for c in point]
        scale = math.lcm(*(c.denominator for c in self.coeffs.values()))
        total = 0
        for exp, c in self.coeffs.items():
            term = c.numerator * (scale // c.denominator)
            for coord, e in zip(ints, exp):
                if e:
                    term *= coord**e
            total += term
        return Fraction(total, scale * den**self.degree)

    # -- serialization ---------------------------------------------------

    def terms(self):
        """(exponent, coefficient) pairs in the fixed monomial order."""
        return sorted(self.coeffs.items(), key=lambda t: tuple(reversed(t[0])))

    def to_json_dict(self) -> dict:
        terms = [[list(exp), c.numerator, c.denominator] for exp, c in self.terms()]
        return {"nvars": self.nvars, "degree": self.degree, "terms": terms}

    @classmethod
    def from_json_dict(cls, data: dict) -> "GradedPoly":
        """Inverse of ``to_json_dict``; malformed data raises ValueError."""
        try:
            coeffs = {}
            for exp, num, den in data["terms"]:
                exp = tuple(map(json_number, exp))
                if exp in coeffs:
                    raise ValueError(f"the exponents {list(exp)} occur in two terms")
                c = Fraction(json_number(num), json_number(den))
                coeffs[exp] = c.numerator if c.denominator == 1 else c
            nvars, degree = json_number(data["nvars"]), json_number(data["degree"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(
                "a form must be a dict of nvars, degree and terms "
                f"[exponents, numerator, denominator]: {exc}"
            ) from exc
        return cls(nvars, degree, coeffs)

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


# Points per block of ``values_at``: its columns live for one block only.
VALUES_BLOCK = 128


def values_at(forms, reps) -> list[list[int]]:
    """``out[i][j]`` is forms[i] at the integer point reps[j], times the lcm
    of the coefficient denominators of forms[i], 1 for a form of int
    coefficients.  Per block of points each
    monomial is one column shared by all forms: x_v^e is x_v^(e//2) times
    x_v^(e - e//2), any other monomial its prefix times a power.  A column of
    ones is shared, one of zeros dropped with its terms; each other term is
    one multiply-add into its form's column.

    The one evaluator of forms at integer points beside ``evaluate``; its
    callers are ``defect.audit_nodes`` (every first and second partial at
    the nodes), ``defect.sweep_singular_points`` (one first partial at a
    time, at the points of F_p), the hyperplane checks of
    ``ideals.draw_missing_hyperplane`` and ``ideals.difference_profile``,
    and ``oracles.evaluation_columns`` (the monomials of a degree)."""
    scales = [math.lcm(*(c.denominator for c in g.coeffs.values())) for g in forms]
    terms = [[(c.numerator * (s // c.denominator), exp) for exp, c in g.coeffs.items()]
             for g, s in zip(forms, scales)]
    out = [[] for _ in forms]
    for start in range(0, len(reps), VALUES_BLOCK):
        block = reps[start:start + VALUES_BLOCK]
        nvars = len(block[0])
        ones = [1] * len(block)
        monos = {(0,) * nvars: ones}
        for v in range(nvars):
            col = [rep[v] for rep in block]
            col = ones if col == ones else col if any(col) else None
            monos[(0,) * v + (1,) + (0,) * (nvars - v - 1)] = col

        def monomial(exp):
            if exp not in monos:
                v = max(v for v, e in enumerate(exp) if e)
                a = exp[:v] + ((0,) if any(exp[:v]) else (exp[v] // 2,)) + exp[v + 1:]
                x, y = monomial(a), monomial(tuple(map(operator.sub, exp, a)))
                col = x and y and (y if x is ones else x if y is ones else
                                   [p * q for p, q in zip(x, y)])
                monos[exp] = col if col and any(col) else None
            return monos[exp]

        for form_terms, values in zip(terms, out):
            acc = [0] * len(block)
            for c, exp in form_terms:
                col = monomial(exp)
                if col:
                    acc = [a + c * x for a, x in zip(acc, col)]
            values.extend(acc)
    return out
