"""Family constructors: audited nodes, determinism, and the mod-p probe."""

import hashlib
import json
import math

import pytest

from defectk import scenarios
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
from defectk.scenarios import run_highdim


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


def test_ci_family_highdim_examples(monkeypatch):
    inst = ci_family_highdim(2, 3)
    assert inst.f.nvars == 7 and len(inst.nodes) == 8
    assert tangent_codim(inst.nodes, 3) == ci_pnd(2, 3) == 8

    inst = ci_family_highdim(2, 4)
    assert len(inst.nodes) == 27
    assert defect(inst.nodes, 3 * 4 - 7).defect == 1

    # the run refuses 24,708,684 evaluation cells before it builds anything
    def no_construction(n, d):
        raise AssertionError("constructed an instance over the cell budget")

    monkeypatch.setattr(scenarios, "ci_family_highdim", no_construction)
    with pytest.raises(ValueError, match="24708684 evaluation cells"):
        run_highdim(2, 12)


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
