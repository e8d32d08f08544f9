"""Node verification, defect values, and bound certification."""

from fractions import Fraction

import pytest

from defectk.defect import (
    AuditError,
    DefectReport,
    NodeAudit,
    audit_nodes,
    certify_min_nodes_double_solid,
    certify_min_nodes_p4,
    critical_degree_double_solid,
    critical_degree_highdim,
    critical_degree_p4,
    defect,
    sweep_singular_points,
    tangent_codim,
    verify_node,
    verify_singular,
)
from defectk.families import GridParams, plane_family, random_points_control
from defectk.ideals import HilbertProfile, PointSet
from defectk.polynomials import GradedPoly
from defectk.scalars import Fp
from defectk.scenarios import run_plane

X5 = [GradedPoly.variable(5, i) for i in range(5)]


def standard_node_quadric():
    return X5[0] * X5[1] + X5[2] * X5[3]


def test_verify_singular_examples():
    f = standard_node_quadric()
    assert verify_singular(f, (0, 0, 0, 0, 1))
    assert not verify_singular(f, (1, 0, 0, 0, 0))
    inst = plane_family(GridParams.plane_defaults(4))
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
    inst = plane_family(GridParams.plane_defaults(4))
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
    inst = plane_family(GridParams(4, (2, 3, 5), (7, 11, 13)))
    f = inst.f
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
    # the same integer path over F_p, against the pointwise checks there
    f101 = f.reduce_mod(101)
    assert audit_nodes(f101, inst.nodes) == tuple(
        NodeAudit(p, verify_singular(f101, p), verify_node(f101, p)) for p in inst.nodes
    )


def test_verify_node_prime_field_fallback():
    # Hessian determinant divisible by p: the mod-p check defers to the rationals
    f = standard_node_quadric().scale(7)
    fp = f.reduce_mod(7)
    from defectk.scalars import Fp

    p = tuple(Fp(c, 7) for c in (0, 0, 0, 0, 1))
    assert verify_node(fp, p, rational_shadow=f)


def test_defect_examples():
    inst = plane_family(GridParams.plane_defaults(4))
    rep = defect(inst.nodes, critical_degree_p4(4))
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
    assert critical_degree_p4(4) == 3
    assert critical_degree_double_solid(2) == 2
    assert critical_degree_highdim(2, 4) == 5
    assert critical_degree_highdim(1, 4) == critical_degree_p4(4)
    with pytest.raises(ValueError):
        critical_degree_p4(2)


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
        inst = plane_family(GridParams.plane_defaults(d))
        assert tangent_codim(inst.nodes, d) == (d * d + 3 * d - 10) // 2
    single = PointSet([(1, 2, 3, 4, 5)])
    for d in (1, 2, 5):
        assert tangent_codim(single, d) == 1


def _sweep_at_field_elements(f, p):
    """Every F_p-point of P^{n-1}, normalised at its first nonzero coordinate,
    where each first partial of f mod p evaluates to zero as an Fp element."""
    fp = f.reduce_mod(p)
    partials = [fp.partial_derivative(i) for i in range(f.nvars)]
    found = []
    for pivot in range(f.nvars):
        tail = f.nvars - pivot - 1
        for code in range(p**tail):
            coords = [0] * pivot + [1] + [code // p**i % p for i in range(tail)]
            point = tuple(Fp(c, p) for c in coords)
            if all(not g.evaluate(point) for g in partials):
                found.append(tuple(coords))
    return found


def test_sweep_matches_evaluation_at_field_elements():
    x3 = [GradedPoly.variable(3, i) for i in range(3)]
    # a cuspidal cubic with a rational coefficient, singular at (0:0:1)
    cusp = x3[1] * x3[1] * x3[2] - x3[0] * x3[0] * x3[0] + (x3[0] * x3[0] * x3[1]).scale(Fraction(2, 3))
    plane = plane_family(GridParams.plane_defaults(3)).f
    for f, p in ((plane, 5), (plane, 7), (cusp, 5), (cusp, 7)):
        assert sweep_singular_points(f, p) == _sweep_at_field_elements(f, p)
    assert sweep_singular_points(cusp, 7) == [(0, 0, 1)]
