"""Ideal pieces, point Hilbert functions, restriction, apolarity, and the
persistence-based base-locus reader."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from defectk import ideals
from defectk.ideals import (
    BadReductionError,
    Functional,
    HilbertProfile,
    IdealPiece,
    InconclusiveProbeError,
    NonGenericHyperplaneError,
    PointSet,
    ancestor_profile,
    base_locus_dimension,
    check_reduction,
    difference_profile,
    draw_missing_hyperplane,
    functional_kills_products,
    generated_piece,
    lemdims_check,
    macaulay_growth_audit,
    primitive_point,
    points_hilbert,
    points_profile,
    restricted_point_pieces,
    socle_functional,
)
from defectk.ideals import CERTIFY_PRIME, _chart, _ColumnBases, _profile_pass
from defectk.linalg import IntForwardEchelon, rank
from defectk.macaulay import ci_hilbert
from defectk.oracles import (functional_value, gorenstein_ancestor, monomial_ancestor_profile,
                              monomial_kills_products, monomial_socle_functional,
                              point_ideal_piece, point_sum, restrict_to_hyperplane, substitute)
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
    with pytest.raises(ValueError, match="different rings"):
        generated_piece([X5[0], X4[0]], 1)
    with pytest.raises(ValueError, match="different graded components"):
        generated_piece(quadric_pair(), 3).contains(generated_piece(quadric_pair(), 4))


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet([])
    with pytest.raises(ValueError):
        PointSet([(0, 0, 0, 0, 0)])
    with pytest.raises(ValueError):
        PointSet([(1, 2, 0, 0, 0), (2, 4, 0, 0, 0)])  # same point twice
    with pytest.raises(ValueError, match="inconsistent coordinate counts"):
        PointSet([(1, 2, 0), (1, 2, 0, 0, 0)])
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


def no_fraction(*args):
    raise AssertionError("a Fraction was built")


def test_integer_points_build_no_fractions(monkeypatch):
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
    # an empty range of degrees has an empty profile, over Q and mod p
    assert points_profile(g, -1).values == points_profile(g, -1, 7).values == ()
    with pytest.raises(ValueError, match="nonnegative"):
        points_hilbert(g, -1)


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
    """Small point sets in P^2 or P^3: generic, on a line, on a plane,
    congruent mod 3 (so that they collide over F_3), or up to 12 points on
    a conic or a twisted cubic, where the standard monomials stop growing
    with the degree and most offers are dependent."""
    kind = draw(st.sampled_from(("generic", "collinear", "coplanar", "mod3", "conic",
                                 "twisted cubic")))
    nvars = 4 if kind == "twisted cubic" else draw(st.sampled_from((3, 4)))
    small = st.integers(min_value=-3, max_value=3)
    vector = st.lists(small, min_size=nvars, max_size=nvars)
    curve = kind in ("conic", "twisted cubic")
    count = draw(st.integers(min_value=1, max_value=12 if curve else 9))
    if kind == "generic":
        coords = [draw(vector) for _ in range(count)]
    elif kind == "mod3":
        base = draw(vector)
        coords = [[b + 3 * s for b, s in zip(base, draw(vector))] for _ in range(count)]
    elif curve:
        params = [(draw(small), draw(small)) for _ in range(count)]
        if kind == "conic":
            coords = [[s * s, s * t, t * t] + [s * s - 2 * t * t] * (nvars - 3) for s, t in params]
        else:
            coords = [[s**3, s * s * t, s * t * t, t**3] for s, t in params]
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


def test_chart_rescale_only_when_the_chart_coordinate_is_not_one(monkeypatch):
    """The chart pass over Z rescales its echelon by x_j(p) in each degree
    only when x_j is not 1 at every point; the profile is the rank of the
    evaluation matrices either way."""
    calls = []
    original = IntForwardEchelon.scale_columns

    def spy(self, scales):
        calls.append(scales)
        return original(self, scales)

    monkeypatch.setattr(IntForwardEchelon, "scale_columns", spy)
    plane_d6 = PointSet([(0, 0, a, b, 1) for a in range(1, 6) for b in range(1, 6)])
    assert _chart(plane_d6.points, None) == 4
    assert points_profile(plane_d6, 8).values == full_evaluation_ranks(plane_d6, 8, None)
    assert calls == []
    # x_0 = 3 at every point, and the only coordinate nonzero at all of them
    weighted = PointSet([(3, a, b) for a in range(3) for b in range(3) if a or b])
    assert _chart(weighted.points, None) == 0
    assert points_profile(weighted, 5).values == full_evaluation_ranks(weighted, 5, None)
    assert calls and all(scales == [3] * len(weighted) for scales in calls)


def reference_pass(reps, j, up_to, char):
    """The profile pass by the rule of offering raw columns, as the pass's
    own reference: each degree inserts the evaluation column of every
    monomial into a fresh IntForwardEchelon, in the order that the pass
    visits them (in the chart of x_j, higher powers of x_j first, then the
    fixed order; a product x_j * m then stands for m of the degree before).
    Returns h, the picks new in each degree, as {monomial: column}, and the
    echelon of each degree.  Without a chart nothing is new once the rank
    reaches #points."""
    n, nvars = len(reps), len(reps[0])
    vanishing = [v for v in range(nvars) if not any(rep[v] for rep in reps)]
    h, new, echelons = [], [], []
    for k in range(up_to + 1):
        ech = IntForwardEchelon(n, char)
        picks = {}
        order = sorted(monomial_basis(nvars, k),
                       key=lambda m: (-m[j] if j is not None else 0, m[::-1]))
        for m in order:
            if ech.dim == n or any(m[v] for v in vanishing):
                continue  # nothing is picked once the rank is full, nor a zero column
            col = [math.prod(c**e for c, e in zip(rep, m)) for rep in reps]
            if char is not None:
                col = [x % char for x in col]
            if ech.add(col) and (j is None or not m[j]):
                picks[m] = col
        full = j is None and h[-1:] == [n]
        h.append(ech.dim)
        new.append({} if full else picks)
        echelons.append(ech)
    return h, new, echelons


def reference_sets():
    """Grid node sets of the three families, a rational set whose chart
    coordinate is not 1, points on a conic and on a twisted cubic, and a
    set without a chart; each with the degree its reference pass goes to."""
    for d in range(3, 10):
        yield PointSet([(0, 0, a, b, 1) for a in range(1, d) for b in range(1, d)]), 2 * d - 4
    for d in range(2, 7):
        yield PointSet([(1, a, b, 0) for a in range(1, d + 1) for b in range(1, 2 * d)]), 3 * d - 3
    for d in range(3, 6):
        axis = range(1, d)
        cube = [(0, 0, 0, a, b, c, 1) for a in axis for b in axis for c in axis]
        yield PointSet(cube), 3 * d - 5
    rational = [(1, Fraction(a, 3), Fraction(b, 2)) for a in range(-2, 3) for b in range(3)]
    yield PointSet(rational), 6
    params = [(s, t) for s in (1, 2, 3) for t in range(-3, 4) if math.gcd(s, t) == 1]
    yield PointSet([(s * s, s * t, t * t) for s, t in params]), len(params) - 1
    yield PointSet([(s**3, s * s * t, s * t * t, t**3) for s, t in params]), 6
    yield PointSet([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1),
                    (1, 2, 3, 4), (2, -1, 1, 3), (5, 1, -2, 1)]), 5


def test_profile_pass_matches_the_raw_column_reference():
    """Offering x_v times b's stored vector picks what offering x_v * b's
    raw column picks: over Q, mod 7 and mod CERTIFY_PRIME the pass picks the
    same monomials as the reference at the integer points, points_profile
    is its h, and each degree's _ColumnBases basis is h(k) independent
    vectors in pivot order that, with the factor rep[j]^k of a modular
    chart undone, lie in the span of the reference's columns.  Over Q the
    pass's own echelon has the reference's kernel (at top - 1 on the grids,
    where the restriction reads it, else at the last degree short of
    #points, where it is not empty).
    The sets reach the rescale path, the pass without a chart and, mod 7,
    points that collide."""
    charts = set()
    for pts, top in reference_sets():
        reps = pts.points
        for char in (None, 7, CERTIFY_PRIME):
            j = _chart(reps, char)
            charts.add((j is None, j is not None and any(rep[j] != 1 for rep in reps)))
            h, new, echelons = reference_pass(reps, j, top, char)
            assert points_profile(pts, top, char).values == tuple(h), (reps, char)
            at = max(k for k in range(top) if h[k] < len(reps))
            picks, kernel = [], None
            for k, (ech, columns) in enumerate(_profile_pass(reps, top, char)):
                picks.append(list(columns))
                if k == at and char is None:
                    kernel = ech.kernel()
            assert picks == [list(columns) for columns in new], (reps, char)
            if char is None:
                assert kernel == echelons[at].kernel()
            bases = _ColumnBases(reps, top, char)
            for k in range(top + 1):
                basis = list(bases.degree(k))
                pivots = [next(i for i, x in enumerate(u) if x) for u in basis]
                assert len(basis) == h[k] and pivots == sorted(set(pivots)), (reps, char, k)
                if char is not None and j is not None:
                    basis = [[x * pow(rep[j], k, char) for x, rep in zip(u, reps)] for u in basis]
                assert not any(echelons[k].add(u) for u in basis), (reps, char, k)
    assert charts == {(True, False), (False, False), (False, True)}


def test_offers_are_parent_vectors_times_a_variable(monkeypatch):
    """After degree 0, every tail the pass inserts is x_v times the tail the
    echelon stored for its parent, and starts at that tail's pivot, which is
    where the reduction starts."""
    calls = []
    original = IntForwardEchelon.add

    def spy(self, tail, start=0):
        stored = original(self, tail, start)
        calls.append((tail, start, stored))
        return stored

    monkeypatch.setattr(IntForwardEchelon, "add", spy)
    plane_d6 = PointSet([(0, 0, a, b, 1) for a in range(1, 6) for b in range(1, 6)])
    no_chart = PointSet([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1),
                         (1, 2, 3, 4), (2, -1, 1, 3)])
    for pts, char in ((plane_d6, None), (plane_d6, 101), (no_chart, None), (no_chart, 101)):
        calls.clear()
        assert points_profile(pts, 8, char).values == full_evaluation_ranks(pts, 8, char)
        assert calls[0][:2] == ([1] * len(pts), 0)
        # the chart of plane_d6 is x_4 = 1, so the pass sees the points themselves
        stored = [u for _, _, u in calls if u]
        for tail, start, _ in calls[1:]:
            assert len(tail) == len(pts) - start
            assert any(pivot == start
                       and tail == [x * rep[v] for x, rep in zip(u, pts.points[pivot:])]
                       for pivot, u in stored for v in range(pts.nvars)), (tail, start)
        assert len(calls) > len(stored) > 1


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
    assert difference_profile(HilbertProfile(()), g, ell).values == ()
    assert restricted_point_pieces(g, ell, -1) == []

    bad = GradedPoly.linear_form((0, 0, 1, 0, -1))  # x2 - x4 hits (0:0:1:b:1) at b rows
    with pytest.raises(NonGenericHyperplaneError) as exc:
        difference_profile(h_I, g, bad)
    assert str(exc.value) == "hyperplane contains the point (0:0:1:1:1)"
    with pytest.raises(ValueError, match="different spaces"):
        difference_profile(h_I, g, GradedPoly.linear_form((1, 1, 1, 7)))
    for form in (GradedPoly.zero(5, 1), X5[0] * X5[1]):
        with pytest.raises(ValueError, match="nonzero linear form"):
            difference_profile(h_I, g, form)
    with pytest.raises(ValueError, match="not nondecreasing"):
        difference_profile(HilbertProfile((1, 3, 2)), g, ell)
    with pytest.raises(ValueError, match="nonnegative"):
        HilbertProfile((1, -1))
    # a rational form: its values are taken times the lcm of its denominators
    halves = GradedPoly.linear_form((Fraction(1, 2), 0, Fraction(1, 2), 0, Fraction(-1, 2)))
    with pytest.raises(NonGenericHyperplaneError):
        difference_profile(h_I, g, halves)


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
    assert not all(over_q.evaluate(p) % 101 for p in nodes)
    assert all(mod_101.evaluate(p) % 101 for p in nodes)
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
    with pytest.raises(ValueError, match="nonzero linear form"):
        restrict_to_hyperplane([piece], GradedPoly.zero(5, 1))
    with pytest.raises(ValueError, match="different rings"):
        restrict_to_hyperplane([generated_piece([X4[0]], 2)], X5[4])


def test_restrict_to_hyperplane_solves_int_coefficients_exactly():
    """ell = 3 x0 + 7 x2 has int coefficients, and 7 does not divide 3: x2
    maps to -3/7 x0 exactly, so x1 + x2 restricts to x1 - 3/7 x0, stored
    monic at x0 as x0 - 7/3 x1."""
    ell = GradedPoly.linear_form([3, 0, 7])
    assert all(type(c) is int for c in ell.coeffs.values())
    restricted = restrict_to_hyperplane([generated_piece([X3[1] + X3[2]], 1)], ell)[0]
    y = [GradedPoly.variable(2, i) for i in range(2)]
    assert restricted == generated_piece([y[1] - y[0].scale(Fraction(3, 7))], 1)
    (form,) = restricted.basis_polys()
    assert form.coeffs == {(1, 0): 1, (0, 1): Fraction(-7, 3)}
    assert all(type(c) is Fraction for c in form.coeffs.values())


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
    phi = {(1, 1): 1}
    prof = monomial_ancestor_profile(2, 2, phi)
    assert prof.values == (1, 2, 1)
    assert gorenstein_ancestor(2, 2, phi, 1).dim == 0
    assert gorenstein_ancestor(2, 2, phi, 0).dim == 0  # h(0) = 1
    for e in (3, 4):  # all of S_e past N, whose products phi kills
        full = generated_piece([GradedPoly.monomial(2, (0, 0))], e)
        assert gorenstein_ancestor(2, 2, phi, e) == full and monomial_kills_products(2, 2, phi, full)
    with pytest.raises(ValueError):
        gorenstein_ancestor(2, 2, {}, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        gorenstein_ancestor(2, 2, phi, -1)


def test_functional_rejects_exponents_that_are_not_monomials():
    """The oracles check a functional's coefficients as a form's, and drop
    its zero coefficients."""
    for coeffs in ({(-1, 3): 1}, {(1.5, 0.5): 1}, {(1, 1, 0): 1}):
        with pytest.raises(ValueError):
            monomial_ancestor_profile(2, 2, coeffs)
    assert (monomial_ancestor_profile(2, 2, {(1, 1): 0, (2, 0): 3})
            == monomial_ancestor_profile(2, 2, {(2, 0): 3}))
    with pytest.raises(ValueError, match="nonzero"):
        gorenstein_ancestor(2, 2, {(1, 1): 0}, 1)


def test_gorenstein_ancestor_symmetry_random_functionals():
    rng = random.Random(13)
    basis = monomial_basis(4, 6)
    for _ in range(50):
        coeffs = {e: rng.randint(-5, 5) for e in rng.sample(basis, 12)}
        if not any(coeffs.values()):
            continue
        prof = monomial_ancestor_profile(4, 6, coeffs)
        assert all(prof[e] == prof[6 - e] for e in range(7))


def test_ancestor_pieces_match_functional_kill():
    """Each ancestor piece passes the kill check, and its codim is the rank
    of the catalecticant, by linalg.rank."""
    phi = {(2, 2, 0): 1, (0, 2, 2): -2, (1, 1, 2): 3}
    for e in range(5):
        piece = gorenstein_ancestor(3, 4, phi, e)
        assert monomial_kills_products(3, 4, phi, piece)
        rows = [[phi.get(tuple(a + b for a, b in zip(g, m)), 0)
                 for g in monomial_basis(3, e)] for m in monomial_basis(3, 4 - e)]
        assert piece.codim == rank(rows)


def test_socle_functional_vanishes_on_piece():
    g = grid9()
    ell = draw_missing_hyperplane(g, seed=1)
    pieces = restricted_point_pieces(g, ell, 4)
    coeffs = coefficients(socle_functional(pieces[4]))
    assert coeffs
    for f in pieces[4].basis_polys():
        assert functional_value(4, 4, coeffs, f) == 0
    with pytest.raises(ValueError, match="outside its graded piece"):
        functional_value(4, 4, coeffs, GradedPoly.monomial(4, (1, 0, 0, 0)))
    full = generated_piece([GradedPoly.monomial(4, (0,) * 4)], 2)
    with pytest.raises(ValueError, match="codim 1"):
        socle_functional(full)
    with pytest.raises(ValueError, match="spans everything"):
        monomial_socle_functional(full)


def test_ancestor_contains_restriction_small():
    g = grid9()
    ell = draw_missing_hyperplane(g, seed=1)
    pieces = restricted_point_pieces(g, ell, 4)
    phi = socle_functional(pieces[4])
    coeffs = coefficients(phi)
    assert ancestor_profile(phi).values == (1, 2, 3, 2, 1)
    for e in range(5):
        assert gorenstein_ancestor(4, 4, coeffs, e).contains(pieces[e])
        assert functional_kills_products(phi, pieces[e])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_ancestor_profile_matches_rank_of_catalecticants(seed):
    """The monomial oracle ranks each catalecticant as linalg.rank does."""
    rng = random.Random(seed)
    nvars, degree = rng.choice(((2, 4), (3, 3), (3, 4), (4, 3)))
    basis = monomial_basis(nvars, degree)
    coeffs = {m: Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4)))
              for m in rng.sample(basis, rng.randint(1, len(basis)))}
    if not any(coeffs.values()):
        return
    want = []
    for e in range(degree + 1):
        rows = [[coeffs.get(tuple(a + b for a, b in zip(g, m)), 0)
                 for g in monomial_basis(nvars, e)] for m in monomial_basis(nvars, degree - e)]
        want.append(rank(rows))
    assert monomial_ancestor_profile(nvars, degree, coeffs).values == tuple(want)


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
    restriction = pieces[0].restriction
    assert restriction.dual_weights(N) == reeliminated_dual_weights(restriction, N)
    nvars, want = restriction.nvars, monomial_socle_functional(explicit[N])
    # a socle functional at the points carries its restriction, which
    # settles its kill checks; a piece of codim >= 2 is refused, and the
    # oracle gives the first kernel vector of its echelon
    if pieces[N].codim == 1:
        phi = socle_functional(pieces[N])
        assert coefficients(phi) == want
        assert phi.points == restriction.small and phi.restriction is restriction
        assert_codims_within_column_ranks(phi)
        assert ancestor_profile(phi) == monomial_ancestor_profile(nvars, N, want)
        assert [functional_kills_products(phi, piece) for piece in pieces] == [
            monomial_kills_products(nvars, N, want, oracle) for oracle in explicit]
    else:
        with pytest.raises(ValueError, match="codim 1"):
            socle_functional(pieces[N])
        assert monomial_socle_functional(pieces[N]) == want
    # degree 0 has codim 1, so its socle functional carries the restriction too
    unit = socle_functional(pieces[0])
    assert unit.restriction is restriction and coefficients(unit) == {(0,) * nvars: 1}
    assert ancestor_profile(unit).values == (1,)
    # weights that need not be orthogonal to the degree-(N-1) columns
    other = point_sum(nvars, N, restriction.small, weights)
    for coeffs in (want, other):
        if coeffs:
            for piece, oracle in zip(pieces, explicit):
                assert (monomial_kills_products(nvars, N, coeffs, piece)
                        == monomial_kills_products(nvars, N, coeffs, oracle))


def test_degree_n_kill_check_matches_ancestor_containment():
    """Kill checks against containment in the monomial ancestor piece, on
    socle functionals (which settle them by their restriction), and in the
    oracle on socle functionals with one weight perturbed (which the
    catalecticant pairing decides) and on a functional whose degree N + 2
    lies above the restriction's top degree."""
    grids = (
        (grid9(), 4),
        (PointSet([(0, 0, a, b, 1) for a in range(1, 5) for b in range(1, 5)]), 6),
        (PointSet([(1, a, b, 0) for a in range(1, 4) for b in range(1, 6)]), 6),
    )
    for pts, N in grids:
        pieces = restricted_point_pieces(pts, draw_missing_hyperplane(pts, 1), N)
        oracles = [IdealPiece(piece.nvars, e, piece.echelon) for e, piece in enumerate(pieces)]
        phi = socle_functional(pieces[N])
        nvars, weights = phi.nvars, exact_weights(phi)
        perturbed = point_sum(nvars, N, phi.points, [weights[0] + 1, *weights[1:]])
        assert phi.restriction is pieces[0].restriction
        coeffs = coefficients(phi)
        assert [functional_kills_products(phi, piece) for piece in pieces] == [
            gorenstein_ancestor(nvars, N, coeffs, e).contains(oracle)
            for e, oracle in enumerate(oracles)]
        for psi in (coeffs, perturbed):
            want = [gorenstein_ancestor(nvars, N, psi, e).contains(oracle)
                    for e, oracle in enumerate(oracles)]
            assert [monomial_kills_products(nvars, N, psi, piece) for piece in pieces] == want
            assert [monomial_kills_products(nvars, N, psi, oracle) for oracle in oracles] == want
        assert not all(monomial_kills_products(nvars, N, perturbed, piece) for piece in pieces)
        # degree N + 2, past the restriction's top
        high = point_sum(nvars, N + 2, phi.points, weights)
        assert [monomial_kills_products(nvars, N + 2, high, piece) for piece in pieces] == [
            gorenstein_ancestor(nvars, N + 2, high, e).contains(oracle)
            for e, oracle in enumerate(oracles)]


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_monomial_kill_check_matches_products(seed):
    """The catalecticant pairing of the monomial oracle against phi(f * m)
    for every basis form f of the piece and every monomial m of degree
    N - e, on sparse functionals and pieces of one to three sparse forms;
    past N there is no such monomial, and every piece's products are
    killed."""
    rng = random.Random(seed)
    nvars, N = rng.choice(((2, 4), (3, 3), (3, 4)))
    phi = {m: rng.randint(-2, 2) for m in rng.sample(monomial_basis(nvars, N), rng.randint(0, 4))}
    e = rng.randint(0, N + 2)
    basis = monomial_basis(nvars, e)
    forms = [GradedPoly(nvars, e, {m: rng.randint(-2, 2) for m in
                                   rng.sample(basis, min(len(basis), rng.randint(1, 2)))})
             for _ in range(rng.randint(1, 3))]
    piece = generated_piece(forms, e)
    want = all(not functional_value(nvars, N, phi, f * GradedPoly.monomial(nvars, m))
               for f in piece.basis_polys() for m in monomial_basis(nvars, N - e))
    assert monomial_kills_products(nvars, N, phi, piece) == want


def test_kill_check_refuses_a_piece_of_another_ring():
    """A piece in more variables than the functional is refused, as
    ``contains`` refuses it, whichever variable spans it."""
    for v in (0, 2):
        piece = generated_piece([GradedPoly.variable(4, v)], 1)
        with pytest.raises(ValueError, match="different rings"):
            monomial_kills_products(3, 2, {(1, 1, 0): 1}, piece)


def test_kill_check_at_points_can_fail():
    """The evaluation at one point kills no nonzero piece's products."""
    g = grid9()
    ell = draw_missing_hyperplane(g, seed=1)
    pieces = restricted_point_pieces(g, ell, 4)
    small = pieces[0].restriction.small
    single = point_sum(4, 4, small, [1] + [0] * (len(small) - 1))
    verdicts = [monomial_kills_products(4, 4, single, piece) for piece in pieces]
    assert verdicts == [monomial_kills_products(4, 4, single, IdealPiece(4, e, piece.echelon))
                        for e, piece in enumerate(pieces)]
    assert verdicts[0] and not all(verdicts)
    assert monomial_ancestor_profile(4, 4, single).values == (1, 1, 1, 1, 1)


def test_socle_functional_refuses_all_but_a_restricted_piece_of_codim_one():
    """A piece that is not restricted, of codim 1 or not, and a restricted
    piece of codim 2 are refused; the oracle gives each the functional that
    ``socle_functional`` returned for it before it refused them."""
    g = grid9()
    pieces = restricted_point_pieces(g, draw_missing_hyperplane(g, seed=1), 4)
    copy = IdealPiece(4, 4, pieces[4].echelon)
    generated = generated_piece([X4[0], X4[1]], 2)
    assert (copy.codim, generated.codim, pieces[1].codim) == (1, 3, 2)
    for piece in (copy, generated, pieces[1]):
        with pytest.raises(ValueError, match="^a socle functional needs a restricted piece "
                                             "of codim 1$"):
            socle_functional(piece)
    assert monomial_socle_functional(copy) == coefficients(socle_functional(pieces[4]))
    assert monomial_socle_functional(generated) == {(0, 0, 2, 0): 1}
    assert monomial_socle_functional(pieces[1]) == {(0, 0, 1, 0): 1}


def test_a_functional_is_built_only_by_socle_functional():
    """The chain trusts a Functional to be its restriction's socle
    functional, so a hand-built one, with one weight raised (which the
    oracle shows kills no degree-3 product), or an edited copy, is refused."""
    g = grid9()
    pieces = restricted_point_pieces(g, draw_missing_hyperplane(g, seed=1), 4)
    phi = socle_functional(pieces[4])
    raised = (phi.weights[0] + 1, *phi.weights[1:])
    for build in (lambda: Functional(phi.restriction, 4, raised, phi.denominator),
                  lambda: Functional(),
                  lambda: dataclasses.replace(phi, weights=raised)):
        with pytest.raises(TypeError, match="^a Functional is built only by socle_functional$"):
            build()
    with pytest.raises(dataclasses.FrozenInstanceError):
        phi.weights = raised
    perturbed = point_sum(4, 4, phi.points, [Fraction(w, phi.denominator) for w in raised])
    assert [monomial_kills_products(4, 4, perturbed, piece) for piece in pieces] == [
        True, True, True, False, False]


def test_kill_check_refuses_every_piece_but_one_of_its_own_restriction():
    """Pieces equal to the functional's own but of a second restriction of
    the same points and ell, pieces of other points, and a piece of another
    ring are refused; the oracle gives the verdicts, or the refusal, that
    ``functional_kills_products`` gave them before."""
    g = grid9()
    ell = draw_missing_hyperplane(g, seed=1)
    pieces = restricted_point_pieces(g, ell, 4)
    phi = socle_functional(pieces[4])
    again = restricted_point_pieces(g, ell, 4)
    h = PointSet([(0, 0, a, b, 1) for a in (1, 2, 4) for b in (1, 3, 5)])
    others = restricted_point_pieces(h, draw_missing_hyperplane(h, seed=1), 4)
    wider = generated_piece([GradedPoly.variable(5, 0)], 1)
    assert again == pieces and all(functional_kills_products(phi, piece) for piece in pieces)
    for piece in [*again, *others, wider]:
        with pytest.raises(ValueError, match="^a kill check needs a piece of the functional's "
                                             "own restriction$"):
            functional_kills_products(phi, piece)
    coeffs = coefficients(phi)
    assert [monomial_kills_products(4, 4, coeffs, piece) for piece in again] == [True] * 5
    assert [monomial_kills_products(4, 4, coeffs, piece) for piece in others] == [
        True, True, True, False, False]
    with pytest.raises(ValueError, match="different rings"):
        monomial_kills_products(4, 4, coeffs, wider)


def grid_points(name, d):
    """A family's default grid nodes and its socle degree N."""
    if name == "plane":
        return PointSet([(0, 0, a, b, 1) for a in range(1, d) for b in range(1, d)]), 2 * d - 4
    return PointSet([(1, a, b, 0) for a in range(1, d + 1) for b in range(1, 2 * d)]), 3 * d - 3


def socle_chain(name, d, seed=1):
    """Restricted pieces 0..N and socle functional of a family's grid nodes,
    as the benchmark's gorenstein-chain builds them."""
    pts, N = grid_points(name, d)
    pieces = restricted_point_pieces(pts, draw_missing_hyperplane(pts, seed), N)
    return pieces, socle_functional(pieces[N])


SMALL_CHAINS = [("plane", d) for d in range(3, 9)] + [("double-solid", d) for d in range(2, 6)]


def assert_codims_within_column_ranks(phi):
    """codim (I_H)_e is at most the rank of the evaluation matrix at the
    small points, so the restriction's codims cap every ancestor rank
    within the matrix size."""
    columns = _ColumnBases(phi.points, phi.degree, None)
    for e in range(phi.degree + 1):
        assert phi.restriction.codims[e] <= len(list(columns.degree(e))), e


def spy_catalecticant_ranks(monkeypatch):
    """Record the field (None for Z) of every catalecticant rank taken."""
    fields = []
    original = ideals._catalecticant_rank

    def spy(rows, ncols, cap, char):
        fields.append(char)
        return original(rows, ncols, cap, char)

    monkeypatch.setattr(ideals, "_catalecticant_rank", spy)
    return fields


def spy_column_bases(monkeypatch):
    """Record the field (None for Z) of every _ColumnBases built."""
    fields = []

    class Spy(_ColumnBases):
        def __init__(self, reps, up_to, char):
            fields.append(char)
            super().__init__(reps, up_to, char)

    monkeypatch.setattr(ideals, "_ColumnBases", Spy)
    return fields


def test_functional_at_points_refuses_rational_coordinates():
    with pytest.raises(ValueError, match="integer coordinates"):
        point_sum(2, 1, [(Fraction(1, 2), 1)], [1])
    assert point_sum(2, 1, [(Fraction(2, 1), 1)], [1]) == {(1, 0): 2, (0, 1): 1}
    with pytest.raises(ValueError, match="one weight per point"):
        point_sum(2, 1, [(2, 1), (1, 1)], [1])
    assert point_sum(2, 1, [(2, 1), (1, 1)], [Fraction(1, 2), Fraction(-1, 3)]) == {
        (1, 0): Fraction(2, 3), (0, 1): Fraction(1, 6)}


def exact_weights(phi):
    """phi's weights over its denominator: the point sum of these at phi's
    points is phi itself, not phi scaled by its denominator."""
    return [Fraction(w, phi.denominator) for w in phi.weights]


def coefficients(phi):
    """The dual coefficients of a socle functional, from its point form."""
    return point_sum(phi.nvars, phi.degree, phi.points, exact_weights(phi))


def test_certified_ancestor_profile_matches_monomial_oracle():
    """Socle functionals, whose restriction caps every rank by its codims,
    against the monomial catalecticant ranks; the same functionals with one
    weight perturbed are no socle functional, and only the oracle ranks
    them: symmetric profiles, as of every nonzero functional."""
    for name, d in SMALL_CHAINS:
        _, phi = socle_chain(name, d)
        assert_codims_within_column_ranks(phi)
        N, weights = phi.degree, exact_weights(phi)
        oracle = monomial_ancestor_profile(phi.nvars, N, coefficients(phi))
        assert ancestor_profile(phi) == oracle, (name, d)
        perturbed = point_sum(phi.nvars, N, phi.points, [weights[0] + 1, *weights[1:]])
        profile = monomial_ancestor_profile(phi.nvars, N, perturbed)
        assert all(profile[e] == profile[N - e] for e in range(N + 1)), (name, d)


def test_ancestor_ranks_fall_back_over_z_when_the_prime_collapses_the_grid(monkeypatch):
    """Mod 3 the grids' coordinates collide, so modular ranks fall short of
    their caps and the reruns over Z decide, with the same profiles."""
    want = {chain: ancestor_profile(socle_chain(*chain)[1]) for chain in SMALL_CHAINS}
    monkeypatch.setattr(ideals, "CERTIFY_PRIME", 3)
    fields, bases = spy_catalecticant_ranks(monkeypatch), spy_column_bases(monkeypatch)
    for chain in SMALL_CHAINS:
        assert ancestor_profile(socle_chain(*chain)[1]) == want[chain], chain
    assert None in fields and 3 in fields
    assert None in bases and 3 in bases


def test_benchmark_chains_take_no_rank_over_z(monkeypatch):
    """On the benchmark's gorenstein-chain instances every ancestor rank is a
    modular rank that meets its certified cap, so no column bases over Z
    are built."""
    fields, bases = spy_catalecticant_ranks(monkeypatch), spy_column_bases(monkeypatch)
    for name, d in (("plane", 8), ("double-solid", 5), ("double-solid", 6)):
        _, phi = socle_chain(name, d)
        degrees = (d - 1, d - 1) if name == "plane" else (d, 2 * d - 1)
        want = tuple(ci_hilbert(degrees, 2, e) for e in range(phi.degree + 1))
        assert ancestor_profile(phi).values == want
    assert set(fields) == {CERTIFY_PRIME}
    assert bases == [CERTIFY_PRIME] * 3


def test_point_chain_builds_no_fractions(monkeypatch):
    """Restricted pieces, socle functional, ancestor profile, kill checks and
    growth audit, on the small chains and the benchmark's gorenstein-chain
    grids, run on ints: the socle functional keeps its dual weight and its
    value as the point form's weights and denominator."""
    monkeypatch.setattr(ideals, "Fraction", no_fraction)
    for name, d in SMALL_CHAINS + [("plane", 8), ("double-solid", 5), ("double-solid", 6)]:
        pieces, phi = socle_chain(name, d)
        profile = ancestor_profile(phi)
        degrees = (d - 1, d - 1) if name == "plane" else (d, 2 * d - 1)
        assert profile.values == tuple(ci_hilbert(degrees, 2, e) for e in range(phi.degree + 1))
        assert all(functional_kills_products(phi, piece) for piece in pieces), (name, d)
        assert macaulay_growth_audit(profile) == [], (name, d)


def test_ancestor_ranks_need_no_cap(monkeypatch):
    """With the cap lifted, every rank of a socle functional is still its
    catalecticant's: the bases mod CERTIFY_PRIME, with each weight times
    rep[j]^N in a chart, give the catalecticant itself, not only some
    matrix whose rank meets the cap.  Seeded small point sets in P^2..P^4,
    generic or on a line; the grid chains cannot tell, since their chart
    values are 1 or their profiles are those of generic weights."""
    original = ideals._catalecticant_rank

    def uncapped(rows, ncols, cap, char):
        return original(rows, ncols, math.inf, char)

    monkeypatch.setattr(ideals, "_catalecticant_rank", uncapped)
    rng = random.Random(5)
    checked = 0
    for seed in range(150):
        nvars = rng.randint(3, 5)
        coords = [[rng.randint(-4, 4) for _ in range(nvars)] for _ in range(rng.randint(2, 12))]
        if rng.random() < 0.3:
            coords = [c[:2] + [0] * (nvars - 2) for c in coords]
        distinct = sorted({primitive_point(c) for c in coords if any(c)})
        N = rng.randint(1, 5)
        if len(distinct) < 2:
            continue
        pts = PointSet(distinct)
        try:
            piece = restricted_point_pieces(pts, draw_missing_hyperplane(pts, seed), N)[N]
        except NonGenericHyperplaneError:
            continue
        if piece.codim != 1:
            continue
        phi = socle_functional(piece)
        oracle = monomial_ancestor_profile(phi.nvars, N, coefficients(phi))
        assert ancestor_profile(phi) == oracle, pts.points
        checked += 1
    assert checked >= 20


def spy_column_base_points(monkeypatch):
    """Record the points of every _ColumnBases built."""
    points = []

    class Spy(_ColumnBases):
        def __init__(self, reps, up_to, char):
            points.append(tuple(map(tuple, reps)))
            super().__init__(reps, up_to, char)

    monkeypatch.setattr(ideals, "_ColumnBases", Spy)
    return points


def socle_of(pts, ell):
    """The socle functional of the last degree where the restriction has
    codim 1 and the next degree has codim 0, or None if there is none."""
    h = points_profile(pts, len(pts))
    codims = difference_profile(h, pts, ell)
    N = max((e for e in range(len(codims) - 1) if codims[e] == 1 and not codims[e + 1]),
            default=None)
    if N is None:
        return None
    return socle_functional(restricted_point_pieces(pts, ell, N)[N])


def dropped(pts, k):
    return tuple(rep[:k] + rep[k + 1:] for rep in pts.points)


def test_ancestor_ranks_read_in_the_chart_coordinates_lift(monkeypatch):
    """Seeded small point sets in P^2..P^4 whose chart coordinate is not the
    variable ell is solved for: the ranks are read at the nodes with the
    chart coordinate dropped, and equal the monomial oracle's.  Some sets
    hold the chart's coordinate point, which drops to 0, so the points
    there have no chart of their own."""
    seen = spy_column_base_points(monkeypatch)
    rng = random.Random(11)
    checked = zeros = 0
    for seed in range(300):
        nvars = rng.randint(3, 5)
        k = rng.randrange(nvars - 1)
        coords = [[rng.randint(-3, 3) for _ in range(nvars)] for _ in range(rng.randint(2, 9))]
        for c in coords:
            c[k] = c[k] or 1
        if rng.random() < 0.3:
            coords.append([int(i == k) for i in range(nvars)])
        pts = PointSet(list({primitive_point(c): c for c in coords}.values()))
        if len(pts) < 2 or _chart(pts.points, None) != k:
            continue
        try:
            ell = draw_missing_hyperplane(pts, seed)
        except NonGenericHyperplaneError:
            continue
        phi = socle_of(pts, ell)
        if phi is None or phi.degree < 2:
            continue
        assert ideals._solved_variable(ell) == nvars - 1 != k
        seen.clear()
        oracle = monomial_ancestor_profile(phi.nvars, phi.degree, coefficients(phi))
        assert not seen
        assert ancestor_profile(phi) == oracle, pts.points
        assert seen and set(seen) == {dropped(pts, k)}, pts.points
        checked += 1
        zeros += not all(map(any, seen[0]))
    assert checked >= 40 and zeros >= 5, (checked, zeros)


def test_ancestor_ranks_fall_back_to_the_small_points_when_ell_misses_the_chart(monkeypatch):
    """A hand-made ell whose coefficient at the nodes' chart coordinate is 0
    gives no lift there: the ranks are read at the small points q'_i, and
    equal the monomial oracle's."""
    seen = spy_column_base_points(monkeypatch)
    cases = (
        (grid_points("double-solid", 3)[0], GradedPoly.linear_form((0, 1, 3, 5)), 0),
        (grid_points("plane", 5)[0], GradedPoly.linear_form((1, 1, 1, 2, 0)), 4),
    )
    for pts, ell, chart in cases:
        assert _chart(pts.points, None) == chart
        phi = socle_of(pts, ell)
        seen.clear()
        assert ancestor_profile(phi) == monomial_ancestor_profile(phi.nvars, phi.degree,
                                                                  coefficients(phi))
        assert phi.points == phi.restriction.small and set(seen) == {phi.points}


def test_ancestor_ranks_in_the_lift_weigh_chart_values_that_are_not_one(monkeypatch):
    """Nodes (7:a:b:0) of the double solid's grid: in the chart
    coordinate's lift the points' own chart values mod CERTIFY_PRIME are
    not all 1, so each weight is multiplied by rep[j]^N there.  With the
    caps lifted, so that a wrong factor cannot hide behind them, every rank
    still equals the monomial oracle's."""
    original = ideals._catalecticant_rank
    monkeypatch.setattr(ideals, "_catalecticant_rank",
                        lambda rows, ncols, cap, char: original(rows, ncols, math.inf, char))
    seen = spy_column_base_points(monkeypatch)
    for d in (3, 4):
        pts = PointSet([(7, a, b, 0) for a in range(1, d + 1) for b in range(1, 2 * d)])
        phi = socle_of(pts, draw_missing_hyperplane(pts, 1))
        k = _chart(pts.points, None)
        lifted = dropped(pts, k)
        j = _chart(lifted, CERTIFY_PRIME)
        assert j is not None and any(rep[j] != 1 for rep in lifted)
        seen.clear()
        want = tuple(ci_hilbert((d, 2 * d - 1), 2, e) for e in range(phi.degree + 1))
        assert ancestor_profile(phi).values == want
        assert set(seen) == {lifted}
        assert monomial_ancestor_profile(phi.nvars, phi.degree, coefficients(phi)).values == want


def test_packed_products_at_the_slot_bound():
    """Weights p - 1, right entries 1 and left entries p - 1 put
    #points (p - 1)^2 in every slot of a packed product row, the bound that
    sets the slot width; point counts at and just past the capacity of each
    slot size, for small p and CERTIFY_PRIME.  The packed rows equal the
    dot-product rows mod p, also with every entry p - 1."""
    sizes = (1, 2, 4, 8, 9, 10)
    for p in (3, 7, CERTIFY_PRIME):
        counts = set()
        for size in sizes:
            full = (2 ** (8 * size) - 1) // (p - 1) ** 2
            counts.update(n for n in (full, full + 1) if 1 <= n <= 2000)
        assert counts
        for n in sorted(counts):
            weights = [p - 1] * n
            right = [[1] * n, [p - 1] * n, [p - 2] * n]
            left = [[p - 1] * n, [1] * n, [p - 1] * (n - 1) + [0]]
            packing, columns = ideals._packed_columns(right, weights, p)
            want = [[sum(w * x * y for w, x, y in zip(weights, a, b)) % p for b in right]
                    for a in left]
            assert list(ideals._packed_products(left, packing, columns)) == want, (p, n)


def test_packed_degrees_cut_each_degree_basis():
    """Each degree's packed columns hold the weighted entries of exactly
    that degree's basis, in a chart, without one, and at points that
    collide mod 7."""
    for pts, top in reference_sets():
        reps = pts.points
        weights = [3 * i + 1 for i in range(len(reps))]
        for char in (7, CERTIFY_PRIME):
            bases = _ColumnBases(reps, top, char)
            for k, (packing, columns) in enumerate(bases.packed(top, weights)):
                slots = [packing.unpack(x) for x in columns]
                got = sorted(map(list, zip(*slots))) if slots else []
                want = sorted([w * x % char for w, x in zip(weights, u)]
                              for u in bases.degree(k))
                assert got == want, (reps, char, k)


def reeliminated_dual_weights(restriction, e):
    """Dual weights of degree e >= 1 from a fresh echelon of the degree-(e-1)
    evaluation columns of every monomial."""
    reps = restriction.reps
    ech = ideals.IntForwardEchelon(len(reps))
    for col in ideals._evaluation_columns(reps, len(reps[0]), e - 1):
        ech.add(col)
    return [primitive_point(x * y for x, y in zip(chi, restriction.inverse_ells))
            for chi in ech.kernel()]


def test_top_dual_weights_reuse_the_profile_pass(monkeypatch):
    """dual_weights(top) reads the kernel that the profile pass kept, which
    equals the re-eliminated one at every top, and builds no echelon."""
    for name, d in (("plane", 6), ("double-solid", 3)):
        pts, N = grid_points(name, d)
        ell = draw_missing_hyperplane(pts, 1)
        for top in range(1, N + 1):
            restriction = restricted_point_pieces(pts, ell, top)[0].restriction
            want = reeliminated_dual_weights(restriction, top)
            with monkeypatch.context() as patch:
                patch.setattr(ideals, "IntForwardEchelon", None)
                assert restriction.dual_weights(top) == want, (name, d, top)


def test_lower_dual_weights_rerun_the_profile_pass():
    """Below top the dual weights come from the kernel of a rerun profile
    pass's echelon; they equal the re-eliminated ones, and at e = 0 every
    point's weight is free."""
    for name, d in (("plane", 6), ("double-solid", 3)):
        pts, N = grid_points(name, d)
        ell = draw_missing_hyperplane(pts, 1)
        restriction = restricted_point_pieces(pts, ell, N)[0].restriction
        assert len(restriction.dual_weights(0)) == len(pts)
        for e in range(1, N):
            want = reeliminated_dual_weights(restriction, e)
            assert restriction.dual_weights(e) == want, (name, e)


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
    assert base_locus_dimension(generated_piece([X5[0], X5[1]], 1)) == 2
    assert base_locus_dimension(generated_piece([GradedPoly.monomial(5, (0,) * 5)], 2)) == -1
    assert base_locus_dimension(generated_piece(quadric_pair(), 2)) == 1
    # the zero piece cuts out all of P^4
    assert base_locus_dimension(generated_piece([GradedPoly.zero(5, 2)], 2)) == 4


def test_base_locus_dimension_linear_subspaces():
    # degree-e piece of the ideal of an m-plane in P^4 reads off dimension m
    for m in (0, 1, 2):
        gens = [X5[i] for i in range(4 - m)]
        for e in (1, 2, 3):
            piece = generated_piece(gens, e)
            assert base_locus_dimension(piece) == m, (m, e)


def test_coordinate_changed_monomial_cis_match_closed_form():
    """Closed-form oracle of the Macaulay path: x_i^{a_i} for i < r, sent
    through a unimodular upper-triangular change of coordinates, is a
    complete intersection, so its generated pieces have the codims of
    ``ci_hilbert`` and its base locus has dimension n - 1 - r.  The locus is
    asserted for linear forms and single quadrics, which settle within the
    default cap."""
    rng = random.Random(7)
    for _ in range(30):
        nvars = rng.randint(3, 5)
        degrees = [rng.randint(1, 3) for _ in range(rng.randint(1, nvars))]
        images = [GradedPoly.linear_form([int(i == j) if j <= i else rng.randint(-2, 2)
                                          for j in range(nvars)]) for i in range(nvars)]
        gens = [substitute(GradedPoly.monomial(nvars, [a * (v == i) for v in range(nvars)]), images)
                for i, a in enumerate(degrees)]
        top = max(degrees)
        for k in range(top, top + 3):
            assert generated_piece(gens, k).codim == ci_hilbert(degrees, nvars, k), (degrees, k)
        if set(degrees) == {1} or degrees == [2]:
            expected = nvars - 1 - len(degrees)
            assert base_locus_dimension(generated_piece(gens, top)) == expected, degrees


def test_two_cubics_in_p3_settle_a_curve_at_the_default_cap():
    # x0^3+x1^3+x2^3+x3^3 and x0*x1*x2 - x3^3 meet in a curve of degree 9:
    # Hilbert polynomial 9t - 9, Gotzmann number 27, settled at degree 28,
    # under the default cap 29
    cube = [GradedPoly.monomial(4, [3 * (i == j) for j in range(4)]) for i in range(4)]
    cubics = [cube[0] + cube[1] + cube[2] + cube[3],
              GradedPoly.monomial(4, (1, 1, 1, 0)) - cube[3]]
    assert base_locus_dimension(generated_piece(cubics, 3)) == 1


def test_base_locus_inconclusive_at_tiny_cap():
    piece = generated_piece(quadric_pair(), 2)
    with pytest.raises(InconclusiveProbeError, match="by degree 3"):
        base_locus_dimension(piece, degree_cap=3)


def _monomial_ci_pieces(nvars, exps, socle):
    gens = [GradedPoly.monomial(nvars, e) for e in exps]
    out = []
    for k in range(socle + 1):
        usable = [g for g in gens if g.degree <= k]
        out.append(generated_piece(usable or [GradedPoly.zero(nvars, k)], k))
    return out


def test_lemdims_equality_cases():
    pieces = _monomial_ci_pieces(
        5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 3, 0), (0, 0, 0, 0, 3)], 4
    )
    d_values, ok = lemdims_check(pieces, 4, 4)
    assert d_values == (1, 1, 1, 3, 3) and ok
    assert sum(d_values) == 4 + 4 + 1

    pieces = _monomial_ci_pieces(4, [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 5, 0), (0, 0, 0, 6)], 10)
    d_values, ok = lemdims_check(pieces, 10, 3)
    assert d_values == (1, 2, 5, 6) and ok
    assert sum(d_values) == 10 + 3 + 1


def test_lemdims_small_binary_case():
    pieces = _monomial_ci_pieces(2, [(1, 0), (0, 3)], 2)
    d_values, ok = lemdims_check(pieces, 2, 1)
    assert d_values == (1, 3) and ok and sum(d_values) >= 4
    # only degree-2 generators: the zero piece of degree 1 cuts out all of P^1
    pieces = _monomial_ci_pieces(2, [(2, 0), (0, 2)], 2)
    assert lemdims_check(pieces, 2, 1) == ((2, 2), True)


def test_lemdims_rejects_asymmetric_input():
    # the zero ideal truncated at degree 1 has profile (1, 2), not symmetric
    pieces = [generated_piece([GradedPoly.zero(2, k)], k) for k in (0, 1)]
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
    # the other variables keep their order: x4 becomes the last coordinate
    # of the small ring, and its x1-multiple dies
    piece_x4 = generated_piece([X5[4]], 2)
    restricted = restrict_to_hyperplane([piece_x4], X5[1])[0]
    assert restricted == generated_piece([X4[3]], 2)
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


def test_one_rule_solves_ell_for_the_oracle_and_the_restriction(monkeypatch):
    """restrict_to_hyperplane and the restricted pieces read the solved
    variable from one function: solving for the first variable in place of
    the last moves both, and the pieces still agree."""
    g = grid9()
    ell = draw_missing_hyperplane(g, seed=1)
    assert ideals._solved_variable(ell) == 4
    monkeypatch.setattr(ideals, "_solved_variable", lambda ell: 0)
    fast = restricted_point_pieces(g, ell, 4)
    assert fast[0].restriction.small[0] == g.points[0][1:]
    explicit = restrict_to_hyperplane([point_ideal_piece(g, k) for k in range(5)], ell)
    assert all(fast[k] == explicit[k] for k in range(5))
    # x_4 is no longer solved for: it stays the last variable of the small ring
    x4_image = restrict_to_hyperplane([generated_piece([X5[4]], 1)], ell)[0]
    assert x4_image == generated_piece([X4[3]], 1)


def test_base_locus_of_two_points_in_plane():
    pts = PointSet([(1, 0, 0), (0, 1, 0)])
    piece = point_ideal_piece(pts, 2)
    assert base_locus_dimension(piece) == 0


def test_persistence_values_follow_pinned_polynomial():
    # once growth is maximal it stays maximal, and the computed values follow
    # the Hilbert polynomial of the top exponent's degree (two quadrics in
    # P^3: h(t) = 4t, a curve)
    from defectk.macaulay import expand, upper_growth

    piece = generated_piece(quadric_pair(), 2)
    values = {}
    for k in range(2, 10):
        values[k] = piece.codim
        piece = generated_piece(piece.basis_polys(), k + 1)
    assert expand(values[6], 6)[0] == 1  # persistence triggers at degree 6
    assert all(values[t] == 4 * t for t in range(6, 10))
    assert all(values[t + 1] == upper_growth(values[t], t) for t in range(6, 9))
