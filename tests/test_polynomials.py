"""Graded polynomial arithmetic, the monomial order, and serialization."""

import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectk.macaulay import binomial
from defectk.oracles import substitute
from defectk.polynomials import (VALUES_BLOCK, GradedPoly, monomial_basis, monomial_index, product,
                                 values_at)


def random_form(rng, nvars, degree, terms=6):
    basis = monomial_basis(nvars, degree)
    coeffs = {}
    for _ in range(terms):
        coeffs[rng.choice(basis)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return GradedPoly(nvars, degree, coeffs)


def test_monomial_basis_lengths():
    """Against every tuple of the degree sorted on the reversed tuple, with
    none below degree 0."""
    assert len(monomial_basis(5, 3)) == 35 == binomial(7, 4)
    assert monomial_basis(1, 7) == ((7,),)
    assert len(monomial_basis(4, 2)) == 10
    for nvars in range(1, 7):
        for degree in range(-2, 11):
            heads = itertools.product(range(degree + 1), repeat=nvars - 1)
            reference = [h + (degree - sum(h),) for h in heads if sum(h) <= degree]
            basis = monomial_basis(nvars, degree)
            assert basis == tuple(sorted(reference, key=lambda t: t[::-1])), (nvars, degree)
            assert len(basis) == binomial(degree + nvars - 1, nvars - 1)
    assert monomial_index(3, -1) == {}


def test_monomial_order_is_documented_grevlex():
    assert monomial_basis(3, 2) == (
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2),
    )
    idx = monomial_index(3, 2)
    assert idx[(2, 0, 0)] == 0 and idx[(0, 0, 2)] == 5


def test_multiply_examples():
    x = [GradedPoly.variable(5, i) for i in range(5)]
    assert (x[0] * x[1]).coeffs == {(1, 1, 0, 0, 0): Fraction(1)}
    sq = (x[0] + x[1]) * (x[0] - x[1])
    assert sq == x[0] * x[0] - x[1] * x[1]
    zero = GradedPoly.zero(5, 2)
    assert (x[0] * x[0] * zero).is_zero


def test_partial_derivative_examples():
    x = [GradedPoly.variable(5, i) for i in range(5)]
    f = x[0] * x[0] * x[1]
    assert f.partial_derivative(0) == (x[0] * x[1]).scale(2)
    assert (x[1] * x[1] * x[1]).partial_derivative(0).is_zero
    with pytest.raises(ValueError):
        GradedPoly(5, 0, {(0, 0, 0, 0, 0): 1}).partial_derivative(0)


def test_euler_identity_on_random_forms():
    rng = random.Random(0)
    for _ in range(25):
        nvars = rng.randint(2, 5)
        degree = rng.randint(1, 8)
        f = random_form(rng, nvars, degree)
        if f.is_zero:
            continue
        acc = GradedPoly.zero(nvars, degree)
        for i in range(nvars):
            acc = acc + GradedPoly.variable(nvars, i) * f.partial_derivative(i)
        assert acc == f.scale(degree)


def test_substitute_zero_examples():
    # a zero form in place of x4 drops it: the image lives in x0..x3
    x = [GradedPoly.variable(5, i) for i in range(5)]
    y = [GradedPoly.variable(4, i) for i in range(4)]
    images = [*y, GradedPoly.zero(4, 1)]
    f = x[0] * x[4] + x[1] * x[1]
    g = substitute(f, images)
    assert g.nvars == 4 and g.coeffs == {(0, 2, 0, 0): Fraction(1)}
    assert substitute(x[4] * x[4], images).is_zero


def test_substitute_examples():
    x = [GradedPoly.variable(3, i) for i in range(3)]
    f = x[0] * x[0] + x[1] * x[2]
    assert substitute(f, x) == f
    assert substitute(x[0], [x[1], x[0], x[2]]) == x[1]
    assert substitute(f, [x[1], x[0], x[2]]) == x[1] * x[1] + x[0] * x[2]
    with pytest.raises(ValueError):
        substitute(f, x[:2])
    with pytest.raises(ValueError):
        substitute(f, [x[0], x[1], f])


def test_substitute_preserves_degree_and_composes():
    rng = random.Random(4)
    f = random_form(rng, 3, 4)
    m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
    g = substitute(f, [GradedPoly.linear_form(row) for row in m])
    assert g.degree == f.degree
    # substitution commutes with evaluation: g(y) = f(M y)
    y = (Fraction(2), Fraction(-1), Fraction(3))
    my = tuple(sum(Fraction(m[i][j]) * y[j] for j in range(3)) for i in range(3))
    if any(my):
        assert g.evaluate(y) == f.evaluate(my)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_substitute_matches_evaluate(seed):
    """f(L)(p) = f(L_0(p), ..., L_{n-1}(p)) at integer points p where that
    vector is nonzero, for 2-5 variables, degrees 0-4 and zero forms among
    the L_i, which may map into a ring of another size."""
    rng = random.Random(seed)
    nvars, small, degree = rng.randint(2, 5), rng.randint(2, 5), rng.randint(0, 4)
    f = random_form(rng, nvars, degree)
    forms = [GradedPoly.zero(small, 1) if rng.random() < 0.25 else
             GradedPoly.linear_form([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                     for _ in range(small)])
             for _ in range(nvars)]
    g = substitute(f, forms)
    assert (g.nvars, g.degree) == (small, degree)
    for _ in range(4):
        p = tuple(Fraction(rng.randint(-4, 4)) for _ in range(small))
        if not any(p):
            continue
        image = tuple(L.evaluate(p) for L in forms)
        if any(image):
            assert g.evaluate(p) == f.evaluate(image)


def test_evaluate_examples():
    x = [GradedPoly.variable(5, i) for i in range(5)]
    p = (1, 2, 0, 0, 0)
    assert (x[0] * x[1]).evaluate(p) == 2
    assert x[4].evaluate(p) == 0
    with pytest.raises(ValueError):
        x[0].evaluate((0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="wrong number of coordinates"):
        x[0].evaluate((1, 2, 0, 0))
    # homogeneity: scaling coordinates preserves vanishing
    f = x[0] * x[1] - x[2] * x[4]
    q = (1, 3, 1, 3, 1)
    scaled = tuple(Fraction(7) * c for c in q)
    assert (f.evaluate(q) == 0) == (f.evaluate(scaled) == 0)


def test_addition_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        GradedPoly.variable(3, 0) + GradedPoly.zero(3, 2)
    with pytest.raises(ValueError):
        GradedPoly(3, 2, {(1, 0, 0): 1})


def test_serialization_roundtrip_is_identity():
    rng = random.Random(9)
    for _ in range(10):
        f = random_form(rng, rng.randint(2, 5), rng.randint(0, 6))
        blob = json.dumps(f.to_json_dict(), sort_keys=True)
        g = GradedPoly.from_json_dict(json.loads(blob))
        assert g == f
        assert json.dumps(g.to_json_dict(), sort_keys=True) == blob


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=4), st.data())
def test_product_degree_additivity(nvars, degree, data):
    basis = monomial_basis(nvars, degree)
    exps = data.draw(st.lists(st.sampled_from(basis), min_size=1, max_size=4))
    coeffs = data.draw(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=len(exps), max_size=len(exps))
    )
    f = GradedPoly(nvars, degree, dict(zip(exps, coeffs)))
    g = GradedPoly.variable(nvars, 0)
    assert (f * g).degree == degree + 1
    assert product([g, g, g]).degree == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=2**32))
def test_ring_results_equal_validated_forms(nvars, degree, seed):
    """Sums, differences, products, scalings and partials are built without
    the checks of ``__init__``; each equals the form that ``GradedPoly``
    validates from its coefficients, and every coefficient is a nonzero
    int or Fraction: a Fraction here, since the inputs are Fraction forms."""
    rng = random.Random(seed)
    f, g = (random_form(rng, nvars, degree, terms=rng.randint(0, 8)) for _ in range(2))
    h = random_form(rng, nvars, rng.randint(0, 3), terms=rng.randint(1, 5))
    results = [f + g, f - g, f - f, -f, f * g, f * h, f * 0,
               f.scale(rng.randint(-5, 5)), f.scale(Fraction(rng.randint(-5, 5), 3)), 3 * f]
    if degree:
        results += [f.partial_derivative(i) for i in range(nvars)]
    for r in results:
        assert r == GradedPoly(r.nvars, r.degree, r.coeffs)
        assert all(type(c) is Fraction and c for c in r.coeffs.values())
        assert all(len(e) == r.nvars and sum(e) == r.degree for e in r.coeffs)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=2**32))
def test_int_forms_match_their_fraction_copies(nvars, degree, seed):
    """Forms of int coefficients hold ints through sums, differences,
    products, int scalings and partials, and each result equals, prints and
    serializes as the result on Fraction copies of the same forms."""
    rng = random.Random(seed)

    def int_form(degree, terms):
        basis = monomial_basis(nvars, degree)
        return GradedPoly(nvars, degree, {rng.choice(basis): rng.randint(-9, 9)
                                          for _ in range(terms)})

    f, g = (int_form(degree, rng.randint(0, 8)) for _ in range(2))
    h = int_form(rng.randint(0, 3), rng.randint(1, 5))
    s = rng.randint(-5, 5)

    def results(f, g, h):
        out = [f + g, f - g, -f, f * g, f * h, f.scale(s), s * f, f * 0]
        return out + ([f.partial_derivative(i) for i in range(nvars)] if degree else [])

    copies = (GradedPoly(p.nvars, p.degree, {e: Fraction(c) for e, c in p.coeffs.items()})
              for p in (f, g, h))
    for r, q in zip(results(f, g, h), results(*copies), strict=True):
        assert all(type(c) is int and c for c in r.coeffs.values())
        assert all(type(c) is Fraction for c in q.coeffs.values())
        assert r == q and hash(r) == hash(q)
        assert r.to_json_dict() == q.to_json_dict()
        assert repr(r) == repr(q)


def test_float_coefficients_rejected():
    """A float is refused as a coefficient or a scale, not read as its
    binary expansion; a JSON term of denominator 1 is read as an int."""
    with pytest.raises(ValueError, match="is a float"):
        GradedPoly(3, 1, {(1, 0, 0): 0.5})
    f = GradedPoly.variable(3, 0)
    with pytest.raises(ValueError, match="is a float"):
        f.scale(0.5)
    with pytest.raises(ValueError, match="is a float"):
        f * 0.0
    g = GradedPoly.from_json_dict({"nvars": 2, "degree": 1, "terms": [[[1, 0], 6, 3], [[0, 1], 1, 2]]})
    assert g.coeffs == {(1, 0): 2, (0, 1): Fraction(1, 2)}
    assert type(g.coeffs[1, 0]) is int


def test_non_integer_exponents_rejected():
    """(1.5, 1.5, 0) sums to the degree 3 but names no monomial; a float
    nvars or degree names no ring."""
    with pytest.raises(ValueError, match="exponents must be integers"):
        GradedPoly(3, 3, {(1.5, 1.5, 0): 1})
    with pytest.raises(ValueError, match="exponents must be integers"):
        GradedPoly.from_json_dict({"nvars": 3, "degree": 3, "terms": [[[1.5, 1.5, 0], 1, 1]]})
    for nvars, degree in ((3.0, 1), (3, 1.0)):
        with pytest.raises(ValueError, match="nvars and degree must be integers"):
            GradedPoly(nvars, degree, {(1, 0, 0): 1})


def test_terms_that_repeat_exponents_or_are_not_triples_rejected():
    """x0 - x0 given as two terms with one exponent list is refused, not read
    as its last term, and so is a term without a denominator."""
    prefix = ("a form must be a dict of nvars, degree and terms "
              "[exponents, numerator, denominator]: ")
    for terms, detail in (([[[1, 0], 1, 1], [[1, 0], -1, 1]], "the exponents [1, 0] occur in two terms"),
                          ([[[1, 0], 1]], "not enough values to unpack (expected 3, got 2)")):
        with pytest.raises(ValueError, match="^" + re.escape(prefix + detail) + "$"):
            GradedPoly.from_json_dict({"nvars": 2, "degree": 1, "terms": terms})


def _per_term_fraction_value(f, point):
    """The value of f at a point as one Fraction product per term."""
    acc = Fraction(0)
    for exp, c in f.coeffs.items():
        term = c
        for coord, e in zip(point, exp):
            if e:
                term = term * Fraction(coord) ** e
        acc = acc + term
    return acc


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=2**32))
def test_evaluate_at_rational_points_matches_per_term_fractions(nvars, degree, seed):
    rng = random.Random(seed)
    f = random_form(rng, nvars, degree)
    for _ in range(5):
        point = [Fraction(rng.choice((0, 0, -3, 1, 2, 5)), rng.randint(1, 7)) for _ in range(nvars)]
        if not any(point):
            point[0] = Fraction(-1, 3)
        if rng.random() < 0.5:  # int coordinates take the same path
            point = [int(c * math.lcm(*(c.denominator for c in point))) for c in point]
        value = f.evaluate(tuple(point))
        assert isinstance(value, Fraction)
        assert value == _per_term_fraction_value(f, point)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=5),
       st.sampled_from((1, VALUES_BLOCK - 1, VALUES_BLOCK, VALUES_BLOCK + 1, 300)),
       st.integers(min_value=0, max_value=2**32))
def test_values_at_matches_evaluate_times_the_lcm(nvars, degree, count, seed):
    """Across block edges, with a zero form and with coordinates that vanish
    at some points, or are 0 or 1 at every point (a dropped or a shared
    column)."""
    rng = random.Random(seed)
    forms = [random_form(rng, nvars, degree, terms=rng.randint(1, 8)) for _ in range(3)]
    forms.append(GradedPoly.zero(nvars, degree))
    fixed = {v: rng.choice((0, 1)) for v in range(nvars) if rng.random() < 0.4}
    reps = []
    for _ in range(count):
        rep = [fixed.get(v, rng.choice((0, 0, -2, -1, 1, 3, 7))) for v in range(nvars)]
        if not any(rep):
            rep[rng.randrange(nvars)] = 1
        reps.append(tuple(rep))
    values = values_at(forms, reps)
    assert [len(col) for col in values] == [count] * len(forms)
    for g, col in zip(forms, values):
        scale = math.lcm(*(c.denominator for c in g.coeffs.values()))
        assert all(type(v) is int for v in col)
        assert col == [g.evaluate(rep) * scale for rep in reps]
