"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a single PASS line on success (run with -s or look at the
captured output); family data is computed once in module fixtures with the
construction time recorded, so the stated wall-clock budgets are asserted
against the actual pipeline runs.
"""

import time

import pytest

from defectk.families import random_points_control
from defectk.ideals import (
    IdealPiece,
    functional_kills_products,
    ancestor_profile,
    base_locus_dimension,
    generated_piece,
    lemdims_check,
    macaulay_growth_audit,
    points_profile,
    restricted_point_pieces,
    socle_functional,
)
from defectk.macaulay import c0_expansion_identity, ci_pnd, expand, upper_growth
from defectk.defect import critical_degree_highdim, defect
from defectk.polynomials import GradedPoly
from defectk.scenarios import FAMILIES
from test_macaulay import all_expansions


def _ok(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE PASS criterion {criterion}: {detail}")


def _family_runs(name):
    """The family's suite cases, keyed by d, each with its wall time."""
    spec = FAMILIES[name]
    out = {}
    for case in spec.cases:
        t0 = time.perf_counter()
        run = spec.run(*case)
        run["elapsed"] = time.perf_counter() - t0
        out[case[-1]] = run
    return out


@pytest.fixture(scope="module")
def plane_data():
    return _family_runs("plane")


@pytest.fixture(scope="module")
def double_solid_data():
    return _family_runs("double-solid")


@pytest.fixture(scope="module")
def highdim_data():
    return _family_runs("ci-highdim")


@pytest.fixture(scope="module")
def gorenstein_data(plane_data, double_solid_data):
    """Restricted pieces, socle functional, and ancestor profile for every
    defective instance from criteria 5 and 7."""
    out = []
    for d, run in plane_data.items():
        socle = 2 * d - 4
        pieces = restricted_point_pieces(run["instance"].nodes, run["ell"], socle)
        phi = socle_functional(pieces[socle])
        out.append({
            "label": f"plane d={d}", "socle": socle, "pieces": pieces,
            "phi": phi, "ancestor": ancestor_profile(phi), "run": run,
        })
    for d, run in double_solid_data.items():
        socle = 3 * d - 3
        pieces = restricted_point_pieces(run["instance"].nodes, run["ell"], socle)
        phi = socle_functional(pieces[socle])
        out.append({
            "label": f"double-solid d={d}", "socle": socle, "pieces": pieces,
            "phi": phi, "ancestor": ancestor_profile(phi), "run": run,
        })
    return out


def _monomial_ci_pieces(nvars, exps, socle):
    gens = [GradedPoly.monomial(nvars, e) for e in exps]
    out = []
    for k in range(socle + 1):
        usable = [g for g in gens if g.degree <= k]
        out.append(generated_piece(usable, k) if usable else IdealPiece.zero_piece(nvars, k))
    return out


def test_criterion_01_macaulay_expansion_sweep():
    t0 = time.perf_counter()
    for d in range(1, 13):
        for c in range(0, 3001):
            exp = expand(c, d)  # reconstruction checked by the type invariant
            found = all_expansions(c, d)
            assert len(found) == 1, (c, d)
            assert found[0] == exp.eps, (c, d)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
    _ok(1, f"36012 expansions reconstruct and are unique in {elapsed:.1f}s")


def test_criterion_02_growth_operator_bullets():
    for d in range(2, 51):
        for c in range(0, 2 * d + 2):
            expected = c if c <= d else (c + 1 if c <= 2 * d else c + 2)
            assert upper_growth(c, d) == expected, (c, d)
    _ok(2, "piecewise growth values exact for all c <= 2d+1, d in [2,50]")


def test_criterion_03_c0_expansion_identity():
    t0 = time.perf_counter()
    for n in range(16, 25):
        for d in range(5, 31):
            assert c0_expansion_identity(n, d), (n, d)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _ok(3, f"identity holds for n in [16,24], d in [5,30] in {elapsed:.1f}s")


def test_criterion_04_gotzmann_dimension_reads():
    x5 = [GradedPoly.variable(5, i) for i in range(5)]
    v = base_locus_dimension(generated_piece([x5[0], x5[1]], 1))
    assert (v.kind, v.dimension) == ("dim", 2)

    x4 = [GradedPoly.variable(4, i) for i in range(4)]
    q1 = x4[0] * x4[1] - x4[2] * x4[3]
    q2 = x4[0] * x4[0] + x4[1] * x4[1] + x4[2] * x4[2] + x4[3] * x4[3]
    v = base_locus_dimension(generated_piece([q1, q2], 2))
    assert (v.kind, v.dimension) == ("dim", 1)

    assert base_locus_dimension(IdealPiece.full(5, 2)).is_empty
    _ok(4, "verdicts Dim(2), Dim(1), Empty on the three test pieces")


def test_criterion_05_p4_min_nodes(plane_data):
    for d, run in plane_data.items():
        assert len(run["instance"].nodes) == (d - 1) ** 2
        assert all(r.is_node for r in run["instance"].audit)
        rep = run["defect_report"]
        assert rep.critical_degree == 2 * d - 5 and rep.defect == 1
        assert len(run["h_IH"]) == rep.critical_degree + 2  # up to the socle 2d - 4
        cert = run["certify_report"]
        assert cert.bound_value == (d - 1) ** 2
        assert cert.certified and cert.meets_bound_with_equality
    assert plane_data[8]["elapsed"] < 120.0
    _ok(5, f"d in [3,8]: (d-1)^2 verified nodes, defect 1, bound met with equality "
           f"(d=8 in {plane_data[8]['elapsed']:.1f}s)")


def test_criterion_06_equisingular_tangent_codimension(plane_data):
    for d, run in plane_data.items():
        assert run["tangent_codim"] == (d * d + 3 * d - 10) // 2, d
    _ok(6, "tangent codimension equals (d^2+3d-10)/2 for d in [3,8]")


def test_criterion_07_double_solid_min_nodes(double_solid_data):
    total = 0.0
    for d, run in double_solid_data.items():
        assert len(run["instance"].nodes) == d * (2 * d - 1)
        assert all(r.is_node for r in run["instance"].audit)
        rep = run["defect_report"]
        assert rep.critical_degree == 3 * d - 4 and rep.defect == 1
        assert len(run["h_IH"]) == rep.critical_degree + 2  # up to the socle 3d - 3
        cert = run["certify_report"]
        assert cert.bound_value == d * (2 * d - 1)
        assert cert.certified and cert.meets_bound_with_equality
        total += run["elapsed"]
    assert total < 60.0
    _ok(7, f"d in [2,5]: d(2d-1) verified nodes, defect 1, bound met with equality "
           f"({total:.1f}s total)")


def test_criterion_08_highdim_grid_check(highdim_data):
    total = 0.0
    for d, run in highdim_data.items():
        assert len(run["instance"].nodes) == (d - 1) ** 3
        assert all(r.is_node for r in run["instance"].audit)
        assert run["tangent_codim"] == ci_pnd(2, d)
        rep = run["defect_report"]
        assert rep.critical_degree == 3 * d - 7 and rep.defect == 1
        total += run["elapsed"]
    assert total < 180.0
    _ok(8, f"n=2, d in {{3,4}}: (d-1)^3 nodes, tangent codim p_2d, defect 1 "
           f"({total:.1f}s total)")


def test_criterion_09_random_negative_control():
    for d in (4, 5):
        size = (d - 1) ** 2 - 1
        degree = 2 * d - 5
        hits = 0
        for seed in range(100):
            pts = random_points_control(size, 5, seed)
            hits += defect(pts, degree).defect == 0
        assert hits == 100, f"d={d}: only {hits}/100 seeds defect-free"
    _ok(9, "200/200 seeded random controls of size (d-1)^2-1 have defect 0")


def test_criterion_10_gorenstein_machinery(gorenstein_data):
    for item in gorenstein_data:
        prof, socle = item["ancestor"], item["socle"]
        assert all(prof[e] == prof[socle - e] for e in range(socle + 1)), item["label"]
        for e in range(socle + 1):
            piece = item["pieces"][e]
            assert piece.codim == item["run"]["h_IH"][e], (item["label"], e)
            assert functional_kills_products(item["phi"], piece), (item["label"], e)
    _ok(10, "ancestor symmetry and restriction containment exact on all 10 instances")


def test_criterion_11_growth_audit_everywhere(plane_data, double_solid_data,
                                              highdim_data, gorenstein_data):
    profiles = []
    for run in plane_data.values():
        profiles += [run["h_I"], run["h_IH"]]
    for run in double_solid_data.values():
        profiles += [run["h_I"], run["h_IH"]]
    for d, run in highdim_data.items():
        profiles.append(points_profile(run["instance"].nodes, critical_degree_highdim(2, d) + 1))
    for item in gorenstein_data:
        profiles.append(item["ancestor"])
    for seed in range(5):
        profiles.append(points_profile(random_points_control(8, 5, seed), 4))
    assert profiles
    for prof in profiles:
        assert macaulay_growth_audit(prof) == [], prof
    _ok(11, f"zero growth violations across {len(profiles)} computed profiles")


def test_criterion_12_generator_degree_bound_equality():
    pieces = _monomial_ci_pieces(
        5,
        [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 3, 0), (0, 0, 0, 0, 3)],
        4,
    )
    d_values, ok = lemdims_check(pieces, 4, 4, degree_cap=40)
    assert d_values == (1, 1, 1, 3, 3) and ok
    assert sum(d_values) == 4 + 4 + 1

    pieces = _monomial_ci_pieces(4, [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 5, 0), (0, 0, 0, 6)], 10)
    d_values, ok = lemdims_check(pieces, 10, 3, degree_cap=40)
    assert d_values == (1, 2, 5, 6) and ok
    assert sum(d_values) == 10 + 3 + 1
    _ok(12, "sum of generator degrees meets N+n+1 with equality on both CI shapes")
