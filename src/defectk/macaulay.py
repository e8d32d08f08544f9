"""Integer combinatorics of Macaulay base-d expansions.

Every nonnegative integer c has a unique representation in "base d"

    c = sum_{i=1}^{d} binom(i + eps_i, i),    eps_d >= ... >= eps_1 >= -1,

where a term with eps_i = -1 contributes nothing.  ``expand(c, d)`` returns
the expansion as its exponent tuple (eps_d, ..., eps_1), which drives the
codimension-growth bounds used everywhere else in the package:

* ``upper_growth(c, d)``     largest codimension reachable in degree d+1,
* ``hyperplane_bound(c, d)`` largest codimension after a general hyperplane cut,
* ``lower_shift(c, d)``      smallest codimension in degree d-1,
* ``low_degree_floor``       the small-c floors obtained by iterating the above.

The module also evaluates complete-intersection Hilbert series exactly.

All arithmetic is on Python ints, so values never overflow; no floating
point appears anywhere in this module.
"""

from __future__ import annotations

import math


def binomial(a: int, b: int) -> int:
    """binom(a, b) with the zero-extension binom(a, b) = 0 for b < 0 or a < b."""
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


def expand(c: int, d: int) -> tuple[int, ...]:
    """Base-d expansion of c as its exponents (eps_d, ..., eps_1), built
    greedily from the top position down."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    if d < 1:
        raise ValueError("d must be positive")
    eps = []
    rem = c
    for i in range(d, 0, -1):
        # the largest e >= -1 with binom(i + e, i) <= rem, by doubling and then
        # bisection (binom(i + e, i) rises from 0 at e = -1): O(log rem) steps
        lo, hi = -1, 0
        while binomial(i + hi, i) <= rem:
            lo, hi = hi, 2 * hi + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if binomial(i + mid, i) <= rem else (lo, mid)
        eps.append(lo)
        rem -= binomial(i + lo, i)
    assert rem == 0
    return tuple(eps)


def upper_growth(c: int, d: int) -> int:
    """c^<d>: the Macaulay bound on the codimension in degree d+1."""
    return sum(binomial(i + e + 1, i + 1) for i, e in zip(range(d, 0, -1), expand(c, d)))


def hyperplane_bound(c: int, d: int) -> int:
    """c_<d>: the bound on the codimension of a general hyperplane restriction."""
    return sum(binomial(i + e - 1, i) for i, e in zip(range(d, 0, -1), expand(c, d)))


def lower_shift(c: int, d: int) -> tuple[int, bool]:
    """c_{*d} and whether the degree-(d-1) inequality is strict (eps_1 >= 0)."""
    if d < 2:
        raise ValueError("lower_shift needs d >= 2")
    eps = expand(c, d)
    value = sum(binomial(i + e - 1, i - 1) for i, e in zip(range(d, 0, -1), eps) if i >= 2)
    return value, eps[-1] >= 0


def low_degree_floor(c: int, d: int, k: int) -> int:
    """Floor for h(k), 0 <= k <= d, valid for c = h(d) <= 2d+1.

    Three cases: min(c, k+1) for c <= d; min(k + (c-d), 2k+1) for
    d+1 <= c <= 2d; and 2k+1 at c = 2d+1.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if not 0 <= k <= d:
        raise ValueError("need 0 <= k <= d")
    if not 0 <= c <= 2 * d + 1:
        raise ValueError("floor is only defined for 0 <= c <= 2d+1")
    if c <= d:
        return min(c, k + 1)
    if c <= 2 * d:
        return min(k + (c - d), 2 * k + 1)
    return 2 * k + 1


def ci_hilbert(multidegree: tuple[int, ...], nvars: int, k: int) -> int:
    """Hilbert function of a complete intersection, coefficient of t^k in

        prod_i (1 - t^{d_i}) / (1 - t)^{nvars},

    computed with exact truncated power series: the closed-form oracle
    that the tests and the benchmark check the grid profiles against.
    """
    multidegree = tuple(multidegree)
    if nvars < 1:
        raise ValueError("nvars must be positive")
    if len(multidegree) > nvars:
        raise ValueError("more forms than variables is not a complete intersection")
    if any(di < 1 for di in multidegree):
        raise ValueError("multidegree entries must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    num = [0] * (k + 1)
    num[0] = 1
    for di in multidegree:
        nxt = num[:]
        for j in range(k + 1 - di):
            nxt[j + di] -= num[j]
        num = nxt
    value = sum(num[j] * binomial(k - j + nvars - 1, nvars - 1) for j in range(k + 1))
    assert value >= 0
    return value


def ci_pnd(n: int, d: int) -> int:
    """binom(d+n+1, n+1) - (n+1)(n+2), the codimension target for the
    degree-d grid family in even-dimensional ambient space."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if d <= 2:
        raise ValueError("d must be > 2")
    return binomial(d + n + 1, n + 1) - (n + 1) * (n + 2)


def c0_expansion_identity(n: int, d: int) -> bool:
    """Check the closed-form base-d expansion of

        c0 = binom(d+n+1, n+1) - binom(d+n-1, n+1) - (3n^2 + 9n + 4)/2

    for n >= 16: exponents (n, n-1 repeated for positions d-1..4, n-4, n-7, n-16).
    """
    if n < 16:
        raise ValueError("closed form requires n >= 16")
    if d < 5:
        raise ValueError("closed form requires d >= 5")
    tail = 3 * n * n + 9 * n + 4
    assert tail % 2 == 0
    c0 = binomial(d + n + 1, n + 1) - binomial(d + n - 1, n + 1) - tail // 2
    expected = (n,) + (n - 1,) * (d - 4) + (n - 4, n - 7, n - 16)
    return expand(c0, d) == expected
