"""Ideal pieces, point Hilbert functions, restriction, apolarity, and the
persistence-based base-locus reader."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from defectk import ideals
from defectk.ideals import (
    BadReductionError,
    BaseLocus,
    Functional,
    HilbertProfile,
    IdealPiece,
    NonGenericHyperplaneError,
    PointSet,
    ancestor_profile,
    base_locus_dimension,
    check_reduction,
    corgreen_check,
    difference_profile,
    draw_missing_hyperplane,
    functional_kills_products,
    generated_piece,
    gorenstein_ancestor,
    lemdims_check,
    macaulay_growth_audit,
    point_ideal_piece,
    primitive_point,
    points_hilbert,
    points_profile,
    restrict_to_hyperplane,
    restricted_point_pieces,
    socle_functional,
)
from defectk.ideals import CERTIFY_PRIME, _chart, _kills_at_points
from defectk.linalg import rank
from defectk.macaulay import ci_hilbert
from defectk.polynomials import GradedPoly, monomial_basis

X5 = [GradedPoly.variable(5, i) for i in range(5)]
X4 = [GradedPoly.variable(4, i) for i in range(4)]
X3 = [GradedPoly.variable(3, i) for i in range(3)]


def grid9():
    return PointSet([(0, 0, a, b, 1) for a in (1, 2, 3) for b in (1, 2, 3)])


def quadric_pair():
    q1 = X4[0] * X4[1] - X4[2] * X4[3]
    q2 = X4[0] * X4[0] + X4[1] * X4[1] + X4[2] * X4[2] + X4[3] * X4[3]
    return [q1, q2]


# ---------------------------------------------------------------------------
# pieces


def test_generated_piece_examples():
    p = generated_piece([X5[0], X5[1]], 1)
    assert (p.dim, p.codim) == (2, 3)
    p = generated_piece([X3[0] * X3[0]], 3)
    assert p.dim == 3
    for k in (3, 4):
        assert generated_piece(quadric_pair(), k).codim == ci_hilbert((2, 2), 4, k)
    with pytest.raises(ValueError):
        generated_piece([X5[0] * X5[0]], 1)


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet([])
    with pytest.raises(ValueError):
        PointSet([(0, 0, 0, 0, 0)])
    with pytest.raises(ValueError):
        PointSet([(1, 2, 0, 0, 0), (2, 4, 0, 0, 0)])  # same point twice
    ps = PointSet([(0, 0, 2, 4, 2)])
    assert ps.points[0] == (0, 0, 1, 2, 1)
    assert ps.int_reps()[0] == (0, 0, 1, 2, 1)


def test_point_set_serialization_roundtrip():
    ps = PointSet([(0, 0, Fraction(1, 3), 1, 1), (1, 0, 0, 0, 0)])
    assert PointSet.from_json_list(ps.to_json_list()) == ps


def reference_normalization(coords) -> list:
    """[num, den] of each c / lead, lead the first nonzero coordinate, in
    Fractions: the rational form point files are written in."""
    coords = [Fraction(c) for c in coords]
    lead = next(c for c in coords if c)
    return [[(c / lead).numerator, (c / lead).denominator] for c in coords]


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
           lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n).filter(any),
                              min_size=1, max_size=6)),
       rationals.filter(bool))
def test_point_set_is_scale_invariant(coords_list, lam):
    """Any nonzero multiple of a point, given as numbers or as [num, den]
    pairs with a denominator of either sign, is the same point, and the
    written form is the normalization at the first nonzero coordinate."""
    distinct = list({str(reference_normalization(c)): c for c in coords_list}.values())
    ps = PointSet(distinct)
    scaled = [[lam * c for c in p] for p in distinct]
    assert PointSet(scaled) == ps
    pairs = [[[c.numerator, c.denominator] if i % 2 else [-c.numerator, -c.denominator]
              for i, c in enumerate(p)] for p in scaled]
    assert PointSet.from_json_list(pairs) == ps
    assert ps.to_json_list() == [reference_normalization(c) for c in distinct]
    assert all(math.gcd(*p) == 1 and next(c for c in p if c) > 0 for p in ps.points)


def test_point_set_json_form():
    ps = PointSet([(0, -3, 2, Fraction(1, 2)), (-2, 4, 0, 7), (0, 0, 5, -10)])
    assert ps.points == ((0, 6, -4, -1), (2, -4, 0, -7), (0, 0, 1, -2))
    assert ps.to_json_list() == [
        [[0, 1], [1, 1], [-2, 3], [-1, 6]],
        [[1, 1], [-2, 1], [0, 1], [-7, 2]],
        [[0, 1], [0, 1], [1, 1], [-2, 1]],
    ]


def test_integer_points_build_no_fractions(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(ideals, "Fraction", no_fraction)
    ps = PointSet.from_json_list([[[2, 1], [-4, 1], [6, 1]], [[0, 1], [3, 1], [-1, 1]]])
    assert ps.points == ((1, -2, 3), (0, 3, -1))
    assert PointSet([(4, 2, 0)]).points == ((2, 1, 0),)


def test_points_hilbert_examples():
    single = PointSet([(1, 2, 3, 4, 5)])
    for k in range(4):
        assert points_hilbert(single, k) == 1
    g = grid9()
    assert points_hilbert(g, 3) == 8  # = 1 + 2 + 3 + 2 from the slice decomposition
    assert points_hilbert(g, 4) == 9


def test_points_hilbert_monotone_and_saturates():
    rng = random.Random(2)
    pts = PointSet([tuple(rng.randint(-5, 5) for _ in range(4)) or (1, 0, 0, 0) for _ in range(6)])
    prof = points_profile(pts, len(pts) + 1)
    assert all(prof[k] <= prof[k + 1] for k in range(len(prof) - 1))
    for k in range(len(pts) - 1, len(pts) + 2):
        assert points_hilbert(pts, k) == len(pts)


def full_evaluation_ranks(pts, up_to, char):
    """Ranks of the evaluation matrices at every monomial, by linalg.rank."""
    return tuple(
        rank([[math.prod(c**e for c, e in zip(p, m)) for m in monomial_basis(pts.nvars, k)]
              for p in pts.points], char)
        for k in range(up_to + 1)
    )


@st.composite
def point_sets(draw):
    """Small point sets in P^2 or P^3: generic, on a line, on a plane, or
    congruent mod 3 (so that they collide over F_3)."""
    nvars = draw(st.sampled_from((3, 4)))
    kind = draw(st.sampled_from(("generic", "collinear", "coplanar", "mod3")))
    small = st.integers(min_value=-3, max_value=3)
    vector = st.lists(small, min_size=nvars, max_size=nvars)
    count = draw(st.integers(min_value=1, max_value=9))
    if kind == "generic":
        coords = [draw(vector) for _ in range(count)]
    elif kind == "mod3":
        base = draw(vector)
        coords = [[b + 3 * s for b, s in zip(base, draw(vector))] for _ in range(count)]
    else:
        span = [draw(vector) for _ in range(2 if kind == "collinear" else 3)]
        coords = []
        for _ in range(count):
            weights = [draw(small) for _ in span]
            coords.append([sum(w * v[i] for w, v in zip(weights, span)) for i in range(nvars)])
    e0 = [1] + [0] * (nvars - 1)
    distinct = {primitive_point(c): c for c in coords if any(c)} or {primitive_point(e0): e0}
    return PointSet(list(distinct.values()))


@settings(max_examples=60, deadline=None)
@given(point_sets(), st.sampled_from((None, 3, 7)))
def test_profile_matches_full_evaluation_rank(pts, char):
    """The order-ideal pass ranks the same space as the full evaluation matrix."""
    want = full_evaluation_ranks(pts, 5, char)
    assert points_profile(pts, 5, char).values == want
    assert tuple(points_hilbert(pts, k, char) for k in range(6)) == want


@st.composite
def lifted_point_sets(draw):
    """Point sets shifted by multiples of CERTIFY_PRIME in each coordinate:
    mod that prime they reduce to a smaller or degenerate set, so the
    modular rank can fall short and points_hilbert must rank over Z."""
    pts = draw(point_sets())
    shift = st.lists(st.sampled_from((-1, 1)), min_size=pts.nvars, max_size=pts.nvars)
    coords = [[c + CERTIFY_PRIME * s for c, s in zip(rep, draw(shift))] for rep in pts.points]
    return PointSet(list({primitive_point(c): c for c in coords}.values()))


@settings(max_examples=60, deadline=None)
@given(point_sets(), st.sampled_from((None, 3, 7, CERTIFY_PRIME)),
       st.integers(min_value=0, max_value=10))
def test_points_hilbert_matches_rank(pts, char, k):
    """The certified modular rank over Q and the F_p ranks equal linalg.rank
    of the full evaluation matrix, also past degree #points - 1, where the
    profile is read at that degree."""
    assert points_hilbert(pts, k, char) == full_evaluation_ranks(pts, k, char)[k]


@settings(max_examples=60, deadline=None)
@given(lifted_point_sets(), st.integers(min_value=1, max_value=4))
def test_points_hilbert_over_q_when_the_modular_rank_falls_short(pts, k):
    """Sets that collapse mod CERTIFY_PRIME: the exact fallback over Z."""
    assert points_hilbert(pts, k) == full_evaluation_ranks(pts, k, None)[k]


def test_points_colliding_mod_the_certify_prime_take_the_exact_pass():
    p = CERTIFY_PRIME
    sets = (
        PointSet([(1, 0, 0), (1, p, 0), (1, 0, p), (1, 1, 1)]),
        PointSet([(1, 0, 0, 0), (1, p, 0, 0), (1, 0, p, 0), (1, 0, 0, p), (1, 1, 1, 1),
                  (1, 2, 3, 5 + p)]),
    )
    for pts in sets:
        want = full_evaluation_ranks(pts, 5, None)
        assert tuple(points_hilbert(pts, k) for k in range(6)) == want
        for k in range(1, 6):
            # the modular rank is short of the full rank, so it certifies nothing
            assert points_profile(pts, k, p)[k] < min(len(pts), len(monomial_basis(pts.nvars, k)))


def test_grid_profiles_match_complete_intersections():
    """The grid node sets are complete intersections in their linear span."""
    for d in range(3, 17):
        nodes = PointSet([(0, 0, a, b, 1) for a in range(1, d) for b in range(1, d)])
        socle = 2 * d - 4
        want = tuple(ci_hilbert((d - 1, d - 1), 3, k) for k in range(socle + 1))
        assert points_profile(nodes, socle).values == want, d
    for d in range(2, 11):
        nodes = PointSet([(1, a, b, 0) for a in range(1, d + 1) for b in range(1, 2 * d)])
        socle = 3 * d - 3
        want = tuple(ci_hilbert((d, 2 * d - 1), 3, k) for k in range(socle + 1))
        assert points_profile(nodes, socle).values == want, d
    d = 5
    axis = range(1, d)
    nodes = PointSet([(0, 0, 0, a, b, c, 1) for a in axis for b in axis for c in axis])
    top = 3 * (d - 2) + 1
    want = tuple(ci_hilbert((d - 1,) * 3, 4, k) for k in range(top + 1))
    assert points_profile(nodes, top).values == want


def test_profile_without_a_chart_matches_rank():
    """Sets with no coordinate nonzero at every point restart the echelon in
    each degree; a set in a chart whose points collide mod 7 stops offering
    in that chart once a degree adds nothing, short of #points."""
    no_chart = PointSet([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    # x_0 is the only coordinate nonzero at every point, and it is 3 at one
    chart_vanishes_mod_3 = PointSet([(1, 0, 0), (3, 1, 0), (1, 1, 1), (2, 0, 1)])
    # chart x_0 everywhere; mod 7 three points coincide, so the rank stalls at 2
    stalls_mod_7 = PointSet([(1, 0, 0), (1, 7, 0), (1, 0, 7), (1, 1, 1)])
    assert [_chart(no_chart.points, c) for c in (None, 3, 7)] == [None, None, None]
    assert [_chart(chart_vanishes_mod_3.points, c) for c in (None, 3, 7)] == [0, None, 0]
    assert [_chart(stalls_mod_7.points, c) for c in (None, 3, 7)] == [0, 0, 0]
    assert points_profile(stalls_mod_7, 5, 7).values == (1, 2, 2, 2, 2, 2)
    for pts in (no_chart, chart_vanishes_mod_3, stalls_mod_7):
        for char in (None, 3, 7):
            assert points_profile(pts, 5, char).values == full_evaluation_ranks(pts, 5, char)


def test_affine_profile_mod_p_matches_rank():
    """Mod p the chart pass runs on the residues rep * rep[j]^-1, at x_j = 1:
    its profile equals linalg.rank of the evaluation matrices at the
    integer points, in a chart whose coordinate is no unit over Z, without
    a chart, and on sets that collide mod p."""
    rng = random.Random(31)
    for char in (3, 7, CERTIFY_PRIME):
        units = [v for v in range(2, 40) if v % char]
        for kind in ("chart", "no chart", "collide") * 10:
            nvars = rng.choice((3, 4))
            coords = [[rng.choice(units)] + [rng.randint(-9, 9) for _ in range(nvars - 1)]
                      for _ in range(rng.randint(2, 8))]
            if kind == "no chart":  # every coordinate vanishes at a unit vector
                coords += [[int(u == v) for u in range(nvars)] for v in range(nvars)]
            elif kind == "collide":  # points congruent to the first one mod p
                coords += [[c + char * rng.choice((-1, 1)) for c in coords[0]] for _ in range(2)]
            pts = PointSet(list({primitive_point(c): c for c in coords}.values()))
            assert (_chart(pts.points, char) is None) == (kind == "no chart")
            if kind == "collide":
                with pytest.raises(BadReductionError):
                    check_reduction(pts, char)
            assert points_profile(pts, 5, char).values == full_evaluation_ranks(pts, 5, char)


def test_chart_has_the_smallest_entries():
    pts = PointSet([(0, 5, 3, 4), (0, 1, 3, -1), (0, 7, 1, 2)])
    assert _chart(pts.points, None) == 2  # max |x_j| = 7, 3, 4
    assert _chart(pts.points, 7) == 2
    assert _chart(pts.points, 3) == 3  # x_2 vanishes mod 3
    assert _chart(PointSet([(1, 2, 1), (1, 1, 1)]).points, None) == 0  # lowest index on ties


def test_point_ideal_piece_is_evaluation_kernel():
    g = grid9()
    piece = point_ideal_piece(g, 2)
    assert piece.codim == points_hilbert(g, 2)
    for f in piece.basis_polys():
        assert all(f.evaluate(p) == 0 for p in g)


# ---------------------------------------------------------------------------
# hyperplane restriction


def test_difference_profile_examples():
    g = grid9()
    h_I = points_profile(g, 4)
    ell = GradedPoly.linear_form((1, 1, 1, 7, 13))
    h_IH = difference_profile(h_I, g, ell)
    assert h_IH.values == (1, 2, 3, 2, 1)
    assert all(v >= 0 for v in h_IH)

    single = PointSet([(1, 2, 3, 4, 5)])
    prof = difference_profile(points_profile(single, 3), single, ell)
    assert prof.values == (1, 0, 0, 0)

    bad = GradedPoly.linear_form((0, 0, 1, 0, -1))  # x2 - x4 hits (0:0:1:b:1) at b rows
    with pytest.raises(NonGenericHyperplaneError) as exc:
        difference_profile(h_I, g, bad)
    assert str(exc.value) == "hyperplane contains the point (0:0:1:1:1)"


def test_difference_profile_telescopes():
    g = grid9()
    h_I = points_profile(g, 4)
    ell = draw_missing_hyperplane(g, seed=1)
    h_IH = difference_profile(h_I, g, ell)
    for K in range(len(h_I)):
        assert sum(h_IH[j] for j in range(K + 1)) == h_I[K]


def test_draw_missing_hyperplane_deterministic():
    g = grid9()
    assert draw_missing_hyperplane(g, seed=5) == draw_missing_hyperplane(g, seed=5)
    assert all(draw_missing_hyperplane(g, seed=9).evaluate(p) != 0 for p in g)


def test_draw_missing_hyperplane_mod_p():
    # the first draw for seed 1 vanishes mod 101 at a node of the plane d=8 grid
    nodes = PointSet([(0, 0, a, b, 1) for a in range(1, 8) for b in range(1, 8)])
    over_q, mod_101 = draw_missing_hyperplane(nodes, 1), draw_missing_hyperplane(nodes, 1, 101)
    assert over_q != mod_101
    assert not all(over_q.reduce_mod(101).evaluate(p) for p in nodes)
    assert all(mod_101.reduce_mod(101).evaluate(p) for p in nodes)
    # every linear form vanishes at some point of P^1(F_3)
    with pytest.raises(BadReductionError, match="bad reduction mod 3: none of 32"):
        draw_missing_hyperplane(PointSet([(1, 0), (0, 1), (1, 1), (1, 2)]), 1, 3)


def test_check_reduction():
    check_reduction(grid9(), 5)
    with pytest.raises(BadReductionError, match=r"\(0:0:1:1:1\) and \(0:0:1:4:1\) coincide mod 3"):
        check_reduction(PointSet([(0, 0, 1, 1, 1), (0, 0, 1, 4, 1)]), 3)
    # (3:6:4) is 3 * (1:2:5) mod 11
    with pytest.raises(BadReductionError):
        check_reduction(PointSet([(1, 2, 5), (3, 6, 4)]), 11)


def test_restrict_to_hyperplane_examples():
    piece = generated_piece([X5[0]], 2)
    restricted = restrict_to_hyperplane([piece], X5[4])[0]
    assert restricted.nvars == 4
    assert restricted == generated_piece([X4[0]], 2)

    piece = generated_piece([X5[4]], 2)
    assert restrict_to_hyperplane([piece], X5[4])[0].dim == 0


def test_restriction_exact_sequence_cross_check():
    """Three independent computations of the restricted pieces agree:
    explicit substitution, evaluation functionals, and profile differences."""
    g = grid9()
    ell = draw_missing_hyperplane(g, seed=1)
    N = 4
    fast = restricted_point_pieces(g, ell, N)
    explicit = restrict_to_hyperplane([point_ideal_piece(g, k) for k in range(N + 1)], ell)
    h_IH = difference_profile(points_profile(g, N), g, ell)
    for k in range(N + 1):
        assert fast[k] == explicit[k]
        assert fast[k].codim == h_IH[k]


# ---------------------------------------------------------------------------
# Gorenstein ancestor ideals


def test_gorenstein_ancestor_rank_two_quadric():
    phi = Functional(2, 2, {(1, 1): 1})
    prof = ancestor_profile(phi)
    assert prof.values == (1, 2, 1)
    assert gorenstein_ancestor(phi, 1).dim == 0
    assert gorenstein_ancestor(phi, 0).dim == 0  # h(0) = 1
    assert gorenstein_ancestor(phi, 3).dim == len(monomial_basis(2, 3))  # all of S_e past N
    with pytest.raises(ValueError):
        gorenstein_ancestor(Functional(2, 2, {}), 1)


def test_gorenstein_ancestor_symmetry_random_functionals():
    rng = random.Random(13)
    basis = monomial_basis(4, 6)
    for _ in range(50):
        coeffs = {e: rng.randint(-5, 5) for e in rng.sample(basis, 12)}
        phi = Functional(4, 6, coeffs)
        if phi.is_zero:
            continue
        prof = ancestor_profile(phi)
        assert all(prof[e] == prof[6 - e] for e in range(7))


def test_ancestor_pieces_match_functional_kill():
    phi = Functional(3, 4, {(2, 2, 0): 1, (0, 2, 2): -2, (1, 1, 2): 3})
    for e in range(5):
        piece = gorenstein_ancestor(phi, e)
        assert functional_kills_products(phi, piece)
        assert piece.codim == ancestor_profile(phi)[e]


def test_socle_functional_vanishes_on_piece():
    g = grid9()
    ell = draw_missing_hyperplane(g, seed=1)
    pieces = restricted_point_pieces(g, ell, 4)
    phi = socle_functional(pieces[4])
    assert not phi.is_zero
    for f in pieces[4].basis_polys():
        assert phi.of(f) == 0
    with pytest.raises(ValueError):
        socle_functional(IdealPiece.full(4, 2))


def test_ancestor_contains_restriction_small():
    g = grid9()
    ell = draw_missing_hyperplane(g, seed=1)
    pieces = restricted_point_pieces(g, ell, 4)
    phi = socle_functional(pieces[4])
    for e in range(5):
        assert gorenstein_ancestor(phi, e).contains(pieces[e])
        assert functional_kills_products(phi, pieces[e])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((None, 3, 7)), st.integers(min_value=0, max_value=2**32))
def test_ancestor_profile_matches_rank_of_catalecticants(char, seed):
    """The monomial path ranks each catalecticant as linalg.rank does."""
    rng = random.Random(seed)
    nvars, degree = rng.choice(((2, 4), (3, 3), (3, 4), (4, 3)))
    basis = monomial_basis(nvars, degree)
    coeffs = {m: Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4)))
              for m in rng.sample(basis, rng.randint(1, len(basis)))}
    phi = Functional(nvars, degree, coeffs, char)
    if phi.is_zero:
        return
    want = []
    for e in range(degree + 1):
        rows = [[phi.coeffs.get(tuple(a + b for a, b in zip(g, m)), 0)
                 for g in monomial_basis(nvars, e)] for m in monomial_basis(nvars, degree - e)]
        want.append(rank(rows, char))
    assert ancestor_profile(phi).values == tuple(want)


@st.composite
def restrictions(draw):
    """A point set in P^2..P^4 (generic, on a line or on a plane), a
    hyperplane missing it (drawn by draw_missing_hyperplane, or with a zero
    last coefficient, so that it is not the last variable after the change),
    and a degree N <= the socle degree, where the codim may exceed 1."""
    nvars = draw(st.sampled_from((3, 4, 5)))
    kind = draw(st.sampled_from(("generic", "collinear", "coplanar")))
    small = st.integers(min_value=-3, max_value=3)
    vector = st.lists(small, min_size=nvars, max_size=nvars)
    count = draw(st.integers(min_value=2, max_value=7))
    if kind == "generic":
        coords = [draw(vector) for _ in range(count)]
    else:
        span = [draw(vector) for _ in range(2 if kind == "collinear" else 3)]
        coords = [[sum(draw(small) * v[i] for v in span) for i in range(nvars)]
                  for _ in range(count)]
    distinct = list({primitive_point(c): c for c in coords if any(c)}.values())
    assume(len(distinct) >= 2)
    pts = PointSet(distinct)
    if draw(st.booleans()):
        ell = draw_missing_hyperplane(pts, draw(st.integers(min_value=0, max_value=99)))
    else:
        ell = GradedPoly.linear_form(draw(st.lists(small, min_size=nvars - 1,
                                                   max_size=nvars - 1)) + [0])
        assume(not ell.is_zero and all(ell.evaluate(rep) for rep in pts.points))
    h = points_profile(pts, len(pts))
    socle = next(k for k in range(len(pts) + 1) if h[k] == len(pts))
    N = draw(st.integers(min_value=1, max_value=min(socle, 4)))
    weights = draw(st.lists(small, min_size=len(pts), max_size=len(pts)))
    return pts, ell, N, weights


@settings(max_examples=50, deadline=None)
@given(restrictions())
def test_point_form_chain_matches_monomial_oracles(data):
    """Restricted pieces, socle functional, ancestor profile and kill checks
    at the points against the monomial-indexed oracles."""
    pts, ell, N, weights = data
    pieces = restricted_point_pieces(pts, ell, N)
    h_IH = difference_profile(points_profile(pts, N), pts, ell)
    assert tuple(piece.codim for piece in pieces) == h_IH.values
    explicit = restrict_to_hyperplane([point_ideal_piece(pts, k) for k in range(N + 1)], ell)
    for piece, oracle in zip(pieces, explicit):
        assert piece.dim == oracle.dim
        assert piece == oracle
    phi = socle_functional(pieces[N])
    assert phi.coeffs == socle_functional(explicit[N]).coeffs
    if pieces[N].codim == 1:
        # the socle functional at the points never needs the monomial kill check
        assert phi.points == pieces[0].restriction.small
        assert all(_kills_at_points(phi, piece) for piece in pieces)
    # weights that need not be orthogonal to the degree-(N-1) columns
    other = Functional.at_points(phi.nvars, N, pieces[0].restriction.small, weights)
    for psi in (phi, other):
        if psi.is_zero:
            continue
        rebuilt = Functional(psi.nvars, N, psi.coeffs)
        assert ancestor_profile(psi) == ancestor_profile(rebuilt)
        for piece, oracle in zip(pieces, explicit):
            assert functional_kills_products(psi, piece) == functional_kills_products(rebuilt, oracle)


def test_degree_n_kill_check_matches_ancestor_containment():
    """The one degree-N test at the points against containment in the
    monomial ancestor piece, on socle functionals (which pass it at every
    degree) and on socle functionals with one weight perturbed (which fail
    it, so the catalecticant pairing decides), and on a functional whose
    degree N - 1 lies above the restriction's top degree."""
    grids = (
        (grid9(), 4),
        (PointSet([(0, 0, a, b, 1) for a in range(1, 5) for b in range(1, 5)]), 6),
        (PointSet([(1, a, b, 0) for a in range(1, 4) for b in range(1, 6)]), 6),
    )
    for pts, N in grids:
        pieces = restricted_point_pieces(pts, draw_missing_hyperplane(pts, 1), N)
        oracles = [IdealPiece(piece.nvars, e, piece.echelon) for e, piece in enumerate(pieces)]
        phi = socle_functional(pieces[N])
        perturbed = Functional.at_points(phi.nvars, N, phi.points,
                                         [phi.weights[0] + 1, *phi.weights[1:]])
        assert all(_kills_at_points(phi, piece) for piece in pieces)
        assert not any(_kills_at_points(perturbed, piece) for piece in pieces[1:])
        for psi in (phi, perturbed):
            rebuilt = Functional(psi.nvars, N, psi.coeffs)
            want = [gorenstein_ancestor(rebuilt, e).contains(oracle)
                    for e, oracle in enumerate(oracles)]
            assert [functional_kills_products(psi, piece) for piece in pieces] == want
            assert [functional_kills_products(rebuilt, oracle) for oracle in oracles] == want
        assert not all(functional_kills_products(perturbed, piece) for piece in pieces)
        # degree N + 2: no degree-(N + 1) columns, so the monomial path decides
        high = Functional.at_points(phi.nvars, N + 2, phi.points, phi.weights)
        rebuilt = Functional(high.nvars, N + 2, high.coeffs)
        assert not any(_kills_at_points(high, piece) for piece in pieces[1:])
        assert [functional_kills_products(high, piece) for piece in pieces] == [
            gorenstein_ancestor(rebuilt, e).contains(oracle) for e, oracle in enumerate(oracles)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((None, 7)), st.integers(min_value=0, max_value=2**32))
def test_monomial_kill_check_matches_products(char, seed):
    """The catalecticant pairing of the monomial path against phi(f * m)
    for every basis form f of the piece and every monomial m of degree
    N - e, on sparse functionals and pieces of one to three sparse forms."""
    rng = random.Random(seed)
    nvars, N = rng.choice(((2, 4), (3, 3), (3, 4)))
    phi = Functional(nvars, N, {m: rng.randint(-2, 2)
                                for m in rng.sample(monomial_basis(nvars, N), rng.randint(0, 4))},
                     char)
    e = rng.randint(0, N)
    basis = monomial_basis(nvars, e)
    forms = [GradedPoly(nvars, e, {m: rng.randint(-2, 2) for m in
                                   rng.sample(basis, min(len(basis), rng.randint(1, 2)))}, char)
             for _ in range(rng.randint(1, 3))]
    piece = IdealPiece.from_polys(nvars, e, [f for f in forms if not f.is_zero], char)
    want = all(not phi.of(f * GradedPoly.monomial(nvars, m, 1, char))
               for f in piece.basis_polys() for m in monomial_basis(nvars, N - e))
    assert functional_kills_products(phi, piece) == want


def test_kill_check_at_points_can_fail():
    """The evaluation at one point kills no nonzero piece's products."""
    g = grid9()
    ell = draw_missing_hyperplane(g, seed=1)
    pieces = restricted_point_pieces(g, ell, 4)
    small = pieces[0].restriction.small
    single = Functional.at_points(4, 4, small, [1] + [0] * (len(small) - 1))
    rebuilt = Functional(4, 4, single.coeffs)
    verdicts = [functional_kills_products(single, piece) for piece in pieces]
    assert verdicts == [functional_kills_products(rebuilt, IdealPiece(4, e, piece.echelon))
                        for e, piece in enumerate(pieces)]
    assert verdicts[0] and not all(verdicts)
    assert ancestor_profile(single).values == (1, 1, 1, 1, 1)


# ---------------------------------------------------------------------------
# growth audit, base locus, generator-degree bound


def test_macaulay_growth_audit_examples():
    g = grid9()
    ell = draw_missing_hyperplane(g, seed=1)
    real = difference_profile(points_profile(g, 4), g, ell)
    assert macaulay_growth_audit(real) == []
    assert macaulay_growth_audit(points_profile(g, 4)) == []

    violations = macaulay_growth_audit(HilbertProfile((1, 2, 4)))
    assert len(violations) == 1 and violations[0].degree == 1 and violations[0].bound == 3
    violations = macaulay_growth_audit(HilbertProfile((1, 3, 7)))
    assert len(violations) == 1 and violations[0].bound == 6
    assert macaulay_growth_audit(HilbertProfile((1,) * 8)) == []


def test_base_locus_dimension_known_cases():
    assert base_locus_dimension(generated_piece([X5[0], X5[1]], 1)) == BaseLocus.of_dim(2)
    assert base_locus_dimension(IdealPiece.full(5, 2)).is_empty
    assert base_locus_dimension(generated_piece(quadric_pair(), 2)) == BaseLocus.of_dim(1)
    with pytest.raises(ValueError):
        base_locus_dimension(IdealPiece.zero_piece(5, 2))


def test_base_locus_dimension_linear_subspaces():
    # degree-e piece of the ideal of an m-plane in P^4 reads off dimension m
    for m in (0, 1, 2):
        gens = [X5[i] for i in range(4 - m)]
        for e in (1, 2, 3):
            piece = generated_piece(gens, e)
            assert base_locus_dimension(piece) == BaseLocus.of_dim(m), (m, e)


def test_base_locus_inconclusive_at_tiny_cap():
    piece = generated_piece(quadric_pair(), 2)
    verdict = base_locus_dimension(piece, degree_cap=3)
    assert verdict.is_inconclusive


def test_corgreen_check_cases():
    g = grid9()
    ell = draw_missing_hyperplane(g, seed=1)
    pieces = restricted_point_pieces(g, ell, 4)
    prof = ancestor_profile(socle_functional(pieces[4]))
    assert prof.values == (1, 2, 3, 2, 1)
    assert corgreen_check(prof, 2, 3)  # strict decrease from d-2 = 2
    assert corgreen_check(HilbertProfile((1, 1, 0, 0)), 2, 3)
    assert not corgreen_check(HilbertProfile((1, 2, 3, 3, 1)), 2, 3)  # flat step
    with pytest.raises(ValueError):
        corgreen_check(prof, 2, 9)


def _monomial_ci_pieces(nvars, exps, socle):
    gens = [GradedPoly.monomial(nvars, e) for e in exps]
    out = []
    for k in range(socle + 1):
        usable = [g for g in gens if g.degree <= k]
        out.append(
            generated_piece(usable, k) if usable else IdealPiece.zero_piece(nvars, k)
        )
    return out


def test_lemdims_equality_cases():
    pieces = _monomial_ci_pieces(
        5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 3, 0), (0, 0, 0, 0, 3)], 4
    )
    d_values, ok = lemdims_check(pieces, 4, 4)
    assert d_values == (1, 1, 1, 3, 3) and ok
    assert sum(d_values) == 4 + 4 + 1

    pieces = _monomial_ci_pieces(4, [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 5, 0), (0, 0, 0, 6)], 10)
    d_values, ok = lemdims_check(pieces, 10, 3, degree_cap=40)
    assert d_values == (1, 2, 5, 6) and ok
    assert sum(d_values) == 10 + 3 + 1


def test_lemdims_small_binary_case():
    pieces = _monomial_ci_pieces(2, [(1, 0), (0, 3)], 2)
    d_values, ok = lemdims_check(pieces, 2, 1)
    assert d_values == (1, 3) and ok and sum(d_values) >= 4


def test_lemdims_rejects_asymmetric_input():
    # the zero ideal truncated at degree 1 has profile (1, 2), not symmetric
    pieces = [IdealPiece.zero_piece(2, 0), IdealPiece.zero_piece(2, 1)]
    with pytest.raises(ValueError):
        lemdims_check(pieces, 1, 1)


def test_lower_shift_bounds_real_profiles():
    # h(k-1) >= value(h(k), k) on an actual point ideal, strictly when flagged
    from defectk.macaulay import lower_shift

    prof = points_profile(grid9(), 4)
    for k in range(2, len(prof)):
        value, strict = lower_shift(prof[k], k)
        assert prof[k - 1] >= value
        if strict:
            assert prof[k - 1] > value


def test_restrict_to_hyperplane_nonlast_variable():
    # the eliminated variable need not be the last one
    piece_x1 = generated_piece([X5[1]], 2)
    assert restrict_to_hyperplane([piece_x1], X5[1])[0].dim == 0
    # x4 becomes the second coordinate of the small ring; its x1-multiple dies
    piece_x4 = generated_piece([X5[4]], 2)
    restricted = restrict_to_hyperplane([piece_x4], X5[1])[0]
    assert restricted == generated_piece([X4[1]], 2)
    piece_x0 = generated_piece([X5[0]], 1)
    assert restrict_to_hyperplane([piece_x0], X5[1])[0] == generated_piece([X4[0]], 1)


def test_restricted_point_pieces_nonlast_hyperplane():
    pts = PointSet([(1, 1, 0, 0, 0), (1, 2, 0, 1, 0), (1, 3, 1, 0, 0), (1, 5, 1, 1, 0)])
    ell = GradedPoly.linear_form((0, 1, 0, 0, 0))  # x1; misses all four points
    fast = restricted_point_pieces(pts, ell, 3)
    explicit = restrict_to_hyperplane([point_ideal_piece(pts, k) for k in range(4)], ell)
    for k in range(4):
        assert fast[k] == explicit[k]
    h_IH = difference_profile(points_profile(pts, 3), pts, ell)
    assert tuple(p.codim for p in fast) == h_IH.values


def test_base_locus_of_two_points_in_plane():
    pts = PointSet([(1, 0, 0), (0, 1, 0)])
    piece = point_ideal_piece(pts, 2)
    assert base_locus_dimension(piece) == BaseLocus.of_dim(0)


def test_persistence_values_follow_pinned_polynomial():
    # once growth is maximal, the computed values follow the Hilbert
    # polynomial read off from the expansion (two quadrics in P^3: p(t)=4t)
    from defectk.macaulay import gotzmann_polynomial

    piece = generated_piece(quadric_pair(), 2)
    ech, k = piece.echelon, 2
    values = {}
    from defectk.ideals import _multiply_by_variables
    from defectk.macaulay import binomial

    for step in range(8):
        values[k + step] = binomial(k + step + 3, 3) - ech.dim
        ech = _multiply_by_variables(ech, 4, k + step)
    p = gotzmann_polynomial(values[6], 6)  # persistence triggers at degree 6
    assert p.dimension == 1
    for t in range(6, 10):
        assert p(t) == values[t] == 4 * t
