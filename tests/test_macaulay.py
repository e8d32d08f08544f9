"""Expansion combinatorics against brute-force and series oracles."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from defectk.macaulay import (
    binomial,
    c0_expansion_identity,
    ci_hilbert,
    ci_pnd,
    expand,
    hyperplane_bound,
    low_degree_floor,
    lower_shift,
    upper_growth,
)


def all_expansions(c, d):
    """Every weakly decreasing exponent list reconstructing c (oracle)."""
    results = []

    def rec(i, cap, rem, acc):
        if i == 0:
            if rem == 0:
                results.append(tuple(acc))
            return
        # largest total the remaining positions can reach with exponents <= cap
        best = binomial(i + cap + 1, i) - 1 if cap >= 0 else 0
        if rem > best:
            return
        e = -1
        while e <= cap and binomial(i + e, i) <= rem:
            rec(i - 1, e, rem - binomial(i + e, i), acc + [e])
            e += 1

    top = -1
    while binomial(d + top + 1, d) <= c:
        top += 1
    rec(d, top, c, [])
    return results


def lex_restriction_codim(c, d, nvars):
    """Restriction oracle for the hyperplane bound: the span of the top
    dim - c monomials in lexicographic order (a lex ideal piece of
    codimension c) is restricted to the last coordinate hyperplane, and
    the codimension of the image is the bound, attained exactly."""
    from defectk.polynomials import monomial_basis

    monos = sorted(monomial_basis(nvars, d), reverse=True)
    segment = monos[: len(monos) - c]
    image = {m for m in segment if m[-1] == 0}
    total = sum(1 for m in monos if m[-1] == 0)
    return total - len(image)


def expansion_value(eps):
    """The integer whose base-len(eps) expansion is eps."""
    return sum(binomial(i + e, i) for i, e in zip(range(len(eps), 0, -1), eps))


def test_expand_known_values():
    assert expand(3, 5) == (0, 0, 0, -1, -1)
    assert expand(0, 3) == (-1, -1, -1)
    assert expand(5, 2) == (1, 1)  # 5 = binom(3,2) + binom(2,1)
    # found by doubling and bisection; a linear scan would not finish
    assert expand(10**12, 1) == (10**12 - 1,)
    assert expansion_value(expand(10**30, 3)) == 10**30


def test_expand_matches_bruteforce_uniqueness():
    for d in range(1, 7):
        for c in range(0, 120):
            found = all_expansions(c, d)
            assert len(found) == 1, (c, d, found)
            assert expand(c, d) == found[0]


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=40))
def test_expand_reconstructs_and_decreases(c, d):
    eps = expand(c, d)
    assert len(eps) == d and expansion_value(eps) == c
    assert all(eps[i] >= eps[i + 1] for i in range(d - 1))
    assert eps[-1] >= -1


def test_upper_growth_known_values():
    assert upper_growth(7, 7) == 7
    assert upper_growth(10, 7) == 11
    assert upper_growth(15, 7) == 17
    assert upper_growth(0, 4) == 0


def test_upper_growth_piecewise_bullets():
    for d in range(2, 51):
        for c in range(0, 2 * d + 2):
            expected = c if c <= d else (c + 1 if c <= 2 * d else c + 2)
            assert upper_growth(c, d) == expected


def test_hyperplane_bound_known_values():
    assert hyperplane_bound(5, 2) == 2  # binom(2,2) + binom(1,1)
    assert hyperplane_bound(3, 5) == 0
    assert hyperplane_bound(0, 3) == 0


@pytest.mark.parametrize("nvars", [3, 4, 5])
def test_hyperplane_bound_against_lex_restriction(nvars):
    from defectk.polynomials import monomial_basis

    for d in range(1, 6):
        for c in range(0, len(monomial_basis(nvars, d)) + 1):
            assert hyperplane_bound(c, d) == lex_restriction_codim(c, d, nvars)


def test_lower_shift_known_values():
    assert lower_shift(5, 2) == (2, True)
    assert lower_shift(1, 3) == (1, False)
    assert lower_shift(0, 2) == (0, False)
    with pytest.raises(ValueError):
        lower_shift(3, 1)


def test_monotonicity_in_c():
    for d in (2, 3, 5, 8):
        for c in range(0, 80):
            assert upper_growth(c, d) <= upper_growth(c + 1, d)
            assert hyperplane_bound(c, d) <= hyperplane_bound(c + 1, d)
            assert lower_shift(c, d)[0] <= lower_shift(c + 1, d)[0]


def test_low_degree_floor_known_values():
    assert low_degree_floor(4, 6, 2) == 3
    assert low_degree_floor(8, 6, 3) == 5
    assert low_degree_floor(13, 6, 4) == 9
    with pytest.raises(ValueError):
        low_degree_floor(14, 6, 2)  # c > 2d+1
    with pytest.raises(ValueError):
        low_degree_floor(4, 6, 7)  # k > d


def test_ci_hilbert_known_values():
    assert ci_hilbert((), 5, 3) == 35
    assert ci_hilbert((1, 1, 1, 4, 4, 4), 7, 5) == 44
    assert ci_hilbert((1, 1, 1, 4, 4, 4), 7, 5) == ci_pnd(2, 5)
    assert ci_hilbert((1, 2, 5, 6), 4, 4) == 9  # 2k+1 at k=4
    with pytest.raises(ValueError):
        ci_hilbert((2, 2, 2), 2, 3)


def test_ci_hilbert_quadric_pair_values():
    # cross-check values for the piece tests: CI(2,2) in 4 variables
    assert ci_hilbert((2, 2), 4, 3) == 12
    assert ci_hilbert((2, 2), 4, 4) == 16


def test_ci_hilbert_artinian_symmetry():
    for multidegree, nvars in [((1, 2, 5, 6), 4), ((1, 1, 1, 3, 3), 5), ((2, 2), 2)]:
        socle = sum(di - 1 for di in multidegree)
        for k in range(socle + 1):
            assert ci_hilbert(multidegree, nvars, k) == ci_hilbert(
                multidegree, nvars, socle - k
            )


def test_ci_pnd_values_and_grid_consistency():
    assert ci_pnd(2, 5) == 44
    assert ci_pnd(2, 3) == binomial(6, 3) - 12 == 8
    assert ci_pnd(3, 4) == binomial(8, 4) - 20 == 50
    for n in (1, 2, 3):
        for d in range(3, 11):
            multidegree = (1,) * (n + 1) + (d - 1,) * (n + 1)
            assert ci_hilbert(multidegree, 2 * n + 3, d) == ci_pnd(n, d)


def test_c0_identity_known_values():
    assert c0_expansion_identity(16, 10)
    assert c0_expansion_identity(20, 12)
    assert c0_expansion_identity(16, 5)
    with pytest.raises(ValueError):
        c0_expansion_identity(15, 10)
    with pytest.raises(ValueError):
        c0_expansion_identity(16, 4)
