"""Family constructors: audited nodes, determinism, and the mod-p probe."""

import hashlib
import json
import math

import pytest

from defectk import ideals, polynomials, scenarios
from defectk.defect import defect, tangent_codim
from defectk.families import (
    P1_BOX_POINTS,
    ci_family_highdim,
    double_solid_family,
    plane_family,
    probe_undeclared_singular_points,
    random_points_control,
)
from defectk.macaulay import ci_pnd
from defectk.polynomials import GradedPoly, product
from defectk.scenarios import FAMILIES, NODE_BUDGET
from test_ideals import no_fraction


def test_plane_family_examples():
    inst = plane_family(4)
    assert len(inst.nodes) == 9
    inst = plane_family(3)
    assert len(inst.nodes) == 4
    with pytest.raises(ValueError, match="plane family needs d >= 3"):
        plane_family(2)


def test_double_solid_family_examples():
    inst = double_solid_family(2)
    assert len(inst.nodes) == 6
    assert inst.f.degree == 4 and inst.f.nvars == 4
    inst = double_solid_family(3)
    assert len(inst.nodes) == 15
    with pytest.raises(ValueError, match="double solid family needs d >= 2"):
        double_solid_family(1)


def test_ci_family_highdim_examples():
    inst = ci_family_highdim(2, 3)
    assert inst.f.nvars == 7 and len(inst.nodes) == 8
    assert tangent_codim(inst.nodes, 3) == ci_pnd(2, 3) == 8

    inst = ci_family_highdim(2, 4)
    assert len(inst.nodes) == 27
    assert defect(inst.nodes, 3 * 4 - 7).defect == 1

    # 1,331 nodes, well under the node budget
    run = FAMILIES["ci-highdim"].run(2, 12)
    assert run["defect_report"].defect == 1
    assert run["tangent_codim"] == ci_pnd(2, 12)


def test_grid_families_build_no_fractions(monkeypatch):
    """The grid forms, their nodes and the node audit run on ints: every
    family form has int coefficients and every node int coordinates."""
    monkeypatch.setattr(polynomials, "Fraction", no_fraction)
    monkeypatch.setattr(ideals, "Fraction", no_fraction)
    for inst in (plane_family(9), double_solid_family(6), ci_family_highdim(2, 5)):
        assert inst.f.coeffs and all(type(c) is int for c in inst.f.coeffs.values())


class Constructed(Exception):
    pass


def _no_construction(*args):
    raise Constructed(args)


@pytest.mark.parametrize("name, constructor, args", [
    ("plane", "plane_family", (1000,)),
    ("double-solid", "double_solid_family", (1000,)),
    ("ci-highdim", "ci_family_highdim", (2, 26)),
])
def test_family_run_refuses_over_the_node_budget_before_construction(
        monkeypatch, name, constructor, args):
    monkeypatch.setattr(scenarios, constructor, _no_construction)
    spec = FAMILIES[name]
    count = spec.node_count(*args)
    assert count > NODE_BUDGET
    with pytest.raises(ValueError, match=f"instance has {count} nodes, over the budget"):
        spec.run(*args)


def test_node_budget_admits_a_run_at_the_budget(monkeypatch):
    monkeypatch.setattr(scenarios, "plane_family", _no_construction)
    monkeypatch.setattr(scenarios, "NODE_BUDGET", 9)
    with pytest.raises(Constructed):
        FAMILIES["plane"].run(4)  # 9 nodes
    with pytest.raises(ValueError, match="instance has 16 nodes, over the budget 9"):
        FAMILIES["plane"].run(5)


def test_family_minimums_come_before_the_node_budget():
    # closed forms of huge or undefined value below each family's minimum
    for name, args, message in (("plane", (-1000,), "plane family needs d >= 3"),
                                ("double-solid", (-1000,), "double solid family needs d >= 2"),
                                ("ci-highdim", (-2, 1), "need n >= 1 and d >= 3"),
                                ("ci-highdim", (3, -1000), "need n >= 1 and d >= 3")):
        with pytest.raises(ValueError, match=message):
            FAMILIES[name].run(*args)


def test_ci_family_matches_plane_shape_at_n1():
    """The grid family at n = 1 is the plane family's threefold
    x0 * prod(x2 - a x4) + x1 * prod(x3 - b x4), built here from its factors."""
    x = [GradedPoly.variable(5, i) for i in range(5)]
    for d in (3, 4, 6):
        grid = range(1, d)
        f = (x[0] * product([x[2] - a * x[4] for a in grid])
             + x[1] * product([x[3] - b * x[4] for b in grid]))
        inst = ci_family_highdim(1, d)
        assert inst.f == f
        assert list(inst.nodes) == [(0, 0, a, b, 1) for a in grid for b in grid]


def test_constructors_deterministic_serialization():
    for build in (lambda: plane_family(5), lambda: double_solid_family(3),
                  lambda: ci_family_highdim(2, 3)):
        a, b = build(), build()
        assert (json.dumps(a.f.to_json_dict(), sort_keys=True)
                == json.dumps(b.f.to_json_dict(), sort_keys=True))
        assert a.nodes.to_json_list() == b.nodes.to_json_list()


def test_random_points_control():
    pts = random_points_control(8, 5, seed=1)
    assert len(pts) == 8 and pts.nvars == 5
    assert random_points_control(8, 5, seed=1) == pts
    assert random_points_control(8, 5, seed=2) != pts
    with pytest.raises(ValueError):
        random_points_control(0, 5, seed=1)
    # the draws would never stop: P^1 has only P1_BOX_POINTS points to draw,
    # the classes of the primitive (a, b) with 0 < a or (a, b) = (0, 1)
    assert P1_BOX_POINTS == 1 + sum(math.gcd(a, b) == 1
                                    for a in range(1, 998) for b in range(-997, 998))
    with pytest.raises(ValueError, match="P\\^1 has only 1210584 points"):
        random_points_control(P1_BOX_POINTS + 1, 2, seed=1)
    # smaller counts in P^1, and counts in more variables, draw as before
    assert list(random_points_control(3, 2, seed=1)) == [(361, -84), (369, 323), (81, -124)]
    assert list(random_points_control(3, 3, seed=1)) == [
        (361, -84, -369), (646, 567, -868), (475, 756, -17)]


def test_random_points_control_files_are_stable():
    """The written sets of 20 points in P^4, as sha256 of their JSON."""
    want = {
        1: "b6ce3bab9270822be2332d078a411c7ad874128e12cba140ea2c015ca4f4e553",
        2: "3670254e902544179976725ae4d34d134460bcadf2e1a07f3659d798890524db",
        3: "7fe94a151aee89fea808348251b38a6be371657dabecc2ab2cc121dfc5554752",
    }
    for seed, digest in want.items():
        text = json.dumps(random_points_control(20, 5, seed).to_json_list())
        assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert random_points_control(20, 5, 1).to_json_list()[:2] == [
        [[1, 1], [-84, 361], [-369, 361], [-17, 19], [-567, 722]],
        [[1, 1], [475, 868], [27, 31], [-17, 868], [-561, 868]],
    ]


def test_random_nine_points_have_no_defect():
    # unlike the grid, generic 9 points in P^4 impose independent cubic conditions
    for seed in range(20):
        pts = random_points_control(9, 5, seed)
        assert defect(pts, 3).defect == 0


def test_probe_reports_undeclared_singular_line():
    # the product construction leaves the line x2=x3=x4=0 singular; the
    # mod-11 sweep must find exactly its 12 rational points and nothing else
    inst = plane_family(4)
    findings = probe_undeclared_singular_points(inst.f, inst.nodes, 11)
    assert len(findings) == 12
    assert all(pt[2] == pt[3] == pt[4] == 0 for pt in findings)


def test_probe_double_solid_small():
    inst = double_solid_family(2)
    findings = probe_undeclared_singular_points(inst.f, inst.nodes, 11)
    assert findings == [(0, 0, 0, 1)]
