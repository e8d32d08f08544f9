"""Node verification, defect values, and bound certification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectk.defect import (
    AuditError,
    DefectReport,
    NodeAudit,
    audit_nodes,
    certify_min_nodes_double_solid,
    certify_min_nodes_p4,
    critical_degree_double_solid,
    critical_degree_highdim,
    defect,
    sweep_singular_points,
    tangent_codim,
    verify_node,
    verify_singular,
)
from defectk.families import plane_family, probe_undeclared_singular_points, random_points_control
from defectk.ideals import HilbertProfile, PointSet, format_point, primitive_point
from defectk.macaulay import ci_pnd
from defectk.polynomials import GradedPoly, monomial_basis, product
from defectk.scenarios import run_plane

X5 = [GradedPoly.variable(5, i) for i in range(5)]


def standard_node_quadric():
    return X5[0] * X5[1] + X5[2] * X5[3]


def test_verify_singular_examples():
    f = standard_node_quadric()
    assert verify_singular(f, (0, 0, 0, 0, 1))
    assert not verify_singular(f, (1, 0, 0, 0, 0))
    inst = plane_family(4)
    assert verify_singular(inst.f, (0, 0, 1, 1, 1))


def test_verify_node_examples():
    f = standard_node_quadric()
    assert verify_node(f, (0, 0, 0, 0, 1))

    g = (
        X5[0] * X5[0] * X5[4]
        + X5[1] * X5[1] * X5[1]
        + X5[2] * X5[2] * X5[2]
        + X5[3] * X5[3] * X5[3]
    )
    assert verify_singular(g, (0, 0, 0, 0, 1))
    assert not verify_node(g, (0, 0, 0, 0, 1))  # Hessian rank 1 there

    with pytest.raises(ValueError):
        verify_node(f, (1, 0, 0, 0, 0))  # not singular: precondition violation


def test_plane_family_nodes_all_verify():
    inst = plane_family(4)
    for p in inst.nodes:
        assert verify_node(inst.f, p)
    records = audit_nodes(inst.f, inst.nodes)
    assert all(r.is_node for r in records) and len(records) == 9


def test_audit_error_on_non_node():
    g = (
        X5[0] * X5[0] * X5[4]
        + X5[1] * X5[1] * X5[1]
        + X5[2] * X5[2] * X5[2]
        + X5[3] * X5[3] * X5[3]
    )
    with pytest.raises(AuditError):
        audit_nodes(g, PointSet([(0, 0, 0, 0, 1)]))


def test_audit_matches_pointwise_checks():
    """audit_nodes reads the partials of f once, at integer representatives;
    each record is the one the pointwise checks give at the stored point."""
    f = (X5[0] * product([X5[2] - a * X5[4] for a in (2, 3, 5)])
         + X5[1] * product([X5[3] - b * X5[4] for b in (7, 11, 13)]))
    cases = (
        ((0, 0, 3, 11, 1), True, True, None),  # a node, at (0:0:1:11/3:1/3)
        # on the singular line x2 = x3 = x4 = 0
        ((-2, -3, 0, 0, 0), True, False,
         "1 declared node(s) failed the audit, first: (2:3:0:0:0) has a degenerate Hessian"),
        # a smooth point of the hypersurface
        ((0, 0, Fraction(7, 3), Fraction(2, 3), 1), False, False,
         "1 declared node(s) failed the audit, first: (0:0:7:2:3) is not singular"),
    )
    for coords, singular, hessian_nonzero, message in cases:
        (p,) = PointSet([coords])
        assert verify_singular(f, p) == singular
        if singular:
            assert verify_node(f, p) == hessian_nonzero
        record = NodeAudit(p, singular, hessian_nonzero)
        if record.is_node:
            assert audit_nodes(f, PointSet([coords])) == (record,)
        else:
            with pytest.raises(AuditError) as exc:
                audit_nodes(f, PointSet([coords]))
            assert str(exc.value) == message


def _form_singular_at(rng, point, degree, kind):
    """A form of the given degree with a node, a degenerate singular point
    or a smooth point at ``point`` (kind "node", "degenerate" or "smooth").
    It is written in the forms l_i = p_c x_i - p_i x_c, which vanish at the
    point (c its chart), and has rational coefficients."""
    n = len(point)
    c = next(i for i, x in enumerate(point) if x)
    x = [GradedPoly.variable(n, i) for i in range(n)]
    ells = [x[i].scale(point[c]) - x[c].scale(point[i]) for i in range(n) if i != c]
    # unitriangular combinations, so that the Hessian is not diagonal
    zero = GradedPoly.zero(n, 1)
    mixed = [ell + sum((e.scale(rng.randint(-2, 2)) for e in ells[k + 1:]), zero)
             for k, ell in enumerate(ells)]
    lead = GradedPoly.monomial(n, [degree - 2 if i == c else 0 for i in range(n)])
    f = GradedPoly.zero(n, degree)
    # the quadratic part; a degenerate one leaves out one direction
    for ell in mixed[:-1] if kind == "degenerate" else mixed:
        f = f + lead * ell * ell * Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
    if kind == "smooth":
        f = f + lead * x[c] * ells[0]
    if degree >= 3:  # order 3 at the point: moves neither gradient nor Hessian
        for _ in range(2):
            a, b, e = (rng.choice(ells) for _ in range(3))
            tail = GradedPoly.monomial(n, rng.choice(monomial_basis(n, degree - 3)))
            f = f + tail * a * b * e * Fraction(1, rng.randint(1, 5))
    return f


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=4),
       st.sampled_from(("node", "degenerate", "smooth")), st.integers(min_value=0, max_value=2**32))
def test_audit_records_match_verify_singular_and_verify_node(nvars, degree, kind, seed):
    """``audit_nodes`` against the pointwise oracle, at the constructed point
    and at a few other points, with the text of the first failure."""
    rng = random.Random(seed)
    point = [rng.choice((0, 0, 1, -2, 3)) for _ in range(nvars)]
    if not any(point):
        point[-1] = 1
    f = _form_singular_at(rng, point, degree, kind)
    others = [[rng.randint(-3, 3) for _ in range(nvars)] for _ in range(rng.randint(0, 3))]
    pts = PointSet(list(dict.fromkeys(primitive_point(q) for q in [point] + others if any(q))))
    expected = []
    for rep in pts:
        singular = verify_singular(f, rep)
        expected.append(NodeAudit(rep, singular, singular and verify_node(f, rep)))
    assert expected[0].singular == (kind != "smooth")
    assert expected[0].is_node == (kind == "node")
    bad = [r for r in expected if not r.is_node]
    if not bad:
        assert audit_nodes(f, pts) == tuple(expected)
        return
    why = "has a degenerate Hessian" if bad[0].singular else "is not singular"
    with pytest.raises(AuditError) as exc:
        audit_nodes(f, pts)
    assert str(exc.value) == (f"{len(bad)} declared node(s) failed the audit, "
                              f"first: {format_point(bad[0].point)} {why}")


def test_defect_examples():
    inst = plane_family(4)
    rep = defect(inst.nodes, critical_degree_highdim(1, 4))
    assert (rep.node_count, rep.eval_rank, rep.defect) == (9, 8, 1)

    rnd = random_points_control(8, 5, seed=1)
    rep = defect(rnd, 3)
    assert rep.defect == 0

    rep_fp = defect(inst.nodes, 3, char=1_000_003)
    assert rep_fp.defect == 1


def test_defect_report_invariants():
    with pytest.raises(ValueError):
        DefectReport(node_count=5, critical_degree=2, eval_rank=3, defect=1)
    with pytest.raises(ValueError):
        DefectReport(node_count=3, critical_degree=2, eval_rank=4, defect=-1)


def test_critical_degrees():
    assert critical_degree_double_solid(2) == 2
    assert critical_degree_highdim(2, 4) == 5
    with pytest.raises(ValueError):
        critical_degree_highdim(1, 2)


def test_grid_at_n1_gives_the_plane_closed_forms():
    """The plane family's critical degree 2d - 5 and tangent codimension
    (d^2 + 3d - 10) / 2 are the grid family's at n = 1."""
    for d in range(3, 41):
        assert critical_degree_highdim(1, d) == 2 * d - 5
        assert 2 * ci_pnd(1, d) == d * d + 3 * d - 10


def test_certify_p4_examples():
    for d in (4, 5):
        run = run_plane(d)
        cert = run["certify_report"]
        assert cert.bound_value == (d - 1) ** 2
        assert cert.certified and cert.meets_bound_with_equality
        assert cert.defect == 1
        rules = {s.rule for s in cert.trace}
        assert rules == {"duality", "strict-decrease"}
    # bound value at d=3 is 4
    assert certify_min_nodes_p4(3, HilbertProfile((1, 1, 1)), 3).bound_value == 4


def test_certify_rejects_no_defect():
    with pytest.raises(ValueError):
        certify_min_nodes_p4(4, HilbertProfile((1, 2, 3, 2, 0)), 8)
    with pytest.raises(ValueError):
        certify_min_nodes_double_solid(2, HilbertProfile((1, 2, 2, 0)), 5)


def test_certify_double_solid_floors():
    cert = certify_min_nodes_double_solid(2, HilbertProfile((1, 2, 2, 1)), 6)
    assert cert.bound_value == 6
    assert [s.floor for s in cert.trace] == [1, 2, 2, 1]
    assert cert.certified and cert.meets_bound_with_equality


def test_certify_flags_profile_below_floor():
    cert = certify_min_nodes_p4(4, HilbertProfile((1, 1, 1, 1, 1)), 5)
    assert not cert.certified
    assert cert.node_count == 5 < cert.bound_value


def test_certify_fails_when_profile_sum_differs_from_node_count():
    profile = HilbertProfile((1, 2, 3, 2, 1))
    assert certify_min_nodes_p4(4, profile, 9).certified
    cert = certify_min_nodes_p4(4, profile, 10)
    assert not cert.certified
    assert cert.node_count == 9
    profile = HilbertProfile((1, 2, 2, 1))
    assert certify_min_nodes_double_solid(2, profile, 6).certified
    assert not certify_min_nodes_double_solid(2, profile, 7).certified


def test_tangent_codim_examples():
    for d in (4, 5):
        inst = plane_family(d)
        assert tangent_codim(inst.nodes, d) == (d * d + 3 * d - 10) // 2
    single = PointSet([(1, 2, 3, 4, 5)])
    for d in (1, 2, 5):
        assert tangent_codim(single, d) == 1


def _sweep_at_field_elements(f, p):
    """Every F_p-point of P^{n-1}, normalised at its first nonzero coordinate,
    where each first partial of f, evaluated over Q at the integer
    coordinates, has a rational value that vanishes mod p."""
    partials = [f.partial_derivative(i) for i in range(f.nvars)]

    def vanishes_mod_p(value):
        return value.numerator * pow(value.denominator, -1, p) % p == 0

    found = []
    for pivot in range(f.nvars):
        tail = f.nvars - pivot - 1
        for code in range(p**tail):
            coords = [0] * pivot + [1] + [code // p**i % p for i in range(tail)]
            if all(vanishes_mod_p(g.evaluate(coords)) for g in partials):
                found.append(tuple(coords))
    return found


def cuspidal_cubic():
    """A cuspidal cubic with a rational coefficient, singular at (0:0:1)."""
    x3 = [GradedPoly.variable(3, i) for i in range(3)]
    return x3[1] * x3[1] * x3[2] - x3[0] * x3[0] * x3[0] + (x3[0] * x3[0] * x3[1]).scale(Fraction(2, 3))


def test_sweep_matches_evaluation_at_field_elements():
    cusp = cuspidal_cubic()
    plane = plane_family(3).f
    for f, p in ((plane, 5), (plane, 7), (cusp, 5), (cusp, 7)):
        assert sweep_singular_points(f, p) == _sweep_at_field_elements(f, p)
    assert sweep_singular_points(cusp, 7) == [(0, 0, 1)]


def test_sweep_refuses_a_denominator_divisible_by_p():
    """The cusp's coefficient 2/3 has no residue mod 3."""
    with pytest.raises(ValueError, match="divisible by 3"):
        sweep_singular_points(cuspidal_cubic(), 3)


def test_sweep_refuses_a_modulus_that_is_not_an_odd_prime():
    """Z/4 and Z/9 are not fields, and 1 is no modulus at all."""
    plane = plane_family(3)
    for p in (1, 4, 9):
        with pytest.raises(ValueError, match="characteristic must be an odd prime"):
            sweep_singular_points(plane.f, p)
        with pytest.raises(ValueError, match="characteristic must be an odd prime"):
            probe_undeclared_singular_points(plane.f, plane.nodes, p)
