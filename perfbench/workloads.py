"""The benchmark's workloads: instance lists, inputs made from the seed, and
the checks applied to every report an instance produces.

Every instance runs through a public entry point of ``defectk`` and returns
its canonical report as bytes.  A report passes when its sha256, after the
instance's seed is rewritten to 0, matches the golden hash recorded in
``golden.json``, and when its numbers agree with an oracle that does not
share the program's rank code: complete-intersection closed forms for the
grids, and an independent rank of the evaluation matrix for random points.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

P31 = 2147483647  # prime field of the random-control instances

# grid-certify: (family name, d); ci-highdim uses n = 2
GRID = (("plane", 9), ("plane", 10), ("double-solid", 6), ("double-solid", 7),
        ("ci-highdim", 5), ("ci-highdim", 6))
# random-control: (points, degree, characteristic or None for exact).  200
# points at degree 6 mod p (about 10 s a call) would leave room for only two
# passes in a run, too few for a steady median; 50 points at degree 4 in the
# exact field repeat the path of the 60-point instance and would cost a pass.
RANDOM = ((60, 4, None), (126, 5, P31))
# gorenstein-chain: (family name, d)
GORENSTEIN = (("plane", 8), ("double-solid", 5), ("double-solid", 6))

WORKLOADS = ("grid-certify", "random-control", "gorenstein-chain")


class ReportError(RuntimeError):
    """The program did not produce a report."""


@dataclass
class Instance:
    label: str
    run: Callable[[SimpleNamespace], bytes]  # program -> canonical report
    check: Callable[[SimpleNamespace, bytes], list[str]]  # problems in a report
    normalize: Callable[[bytes], bytes] = lambda report: report  # before hashing


def import_program(src: Path) -> SimpleNamespace:
    """Import a fresh copy of ``defectk`` from ``src``, as a new process would."""
    for name in [n for n in sys.modules if n == "defectk" or n.startswith("defectk.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("defectk")
    if src.resolve() not in Path(package.__file__).resolve().parents:
        raise ImportError(f"defectk was imported from {package.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"defectk.{m}")
                              for m in ("cli", "ideals", "linalg", "macaulay")})


def build(workload: str, seed: int, workdir: Path) -> list[Instance]:
    """The instances of a workload, with their inputs made from the seed."""
    if workload == "grid-certify":
        return [_grid_instance(name, d, seed) for name, d in GRID]
    if workload == "random-control":
        workdir.mkdir(parents=True, exist_ok=True)
        return [_random_instance(n, k, char, seed, workdir) for n, k, char in RANDOM]
    if workload == "gorenstein-chain":
        return [_gorenstein_instance(name, d, seed) for name, d in GORENSTEIN]
    raise ValueError(f"unknown workload {workload!r}")


def canonical_json(data) -> bytes:
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got}, want {want}")


def _run_cli(argv: list[str], dk: SimpleNamespace) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dk.cli.main(argv)
    if code != 0:
        raise ReportError(f"defectk {' '.join(argv)} exited with {code}")
    return out.getvalue().encode()


# ---------------------------------------------------------------------------
# grid-certify: the paper's pipeline, through `defectk family`


def _grid_instance(name: str, d: int, seed: int) -> Instance:
    argv = ["family", "--name", name, "--d", str(d), "--seed", str(seed)]
    if name == "ci-highdim":
        argv += ["--n", "2"]
    return Instance(f"{name}-d{d}", partial(_run_cli, argv), partial(_check_family, name, d),
                    partial(_strip_seed, seed))


def _strip_seed(seed: int, report: bytes) -> bytes:
    """The report with its one scenario seed set to 0: the golden hash is
    then the same for every seed, which enters nothing else."""
    field = b'"seed": %d\n' % seed
    if report.count(field) != 1:
        return report  # fails the golden check
    return report.replace(field, b'"seed": 0\n')


def _check_family(name: str, d: int, dk: SimpleNamespace, report: bytes) -> list[str]:
    """Closed forms: the plane and double-solid node sets are complete
    intersections in a P^2, the ci-highdim grid one in a P^3."""
    rep = json.loads(report)
    ci = dk.macaulay.ci_hilbert
    problems: list[str] = []
    _expect(problems, "defect", rep["defect"]["defect"], 1)
    if name == "ci-highdim":
        _expect(problems, "node_count", rep["node_count"], (d - 1) ** 3)
        _expect(problems, "eval_rank", rep["defect"]["eval_rank"], ci((d - 1,) * 3, 4, 3 * d - 7))
        _expect(problems, "tangent_codim", rep["tangent_codim"], dk.macaulay.ci_pnd(2, d))
        return problems
    if name == "plane":
        degrees, nodes, critical, socle = (d - 1, d - 1), (d - 1) ** 2, 2 * d - 5, 2 * d - 4
        _expect(problems, "tangent_codim", rep["tangent_codim"], (d * d + 3 * d - 10) // 2)
    else:
        degrees, nodes, critical, socle = (d, 2 * d - 1), d * (2 * d - 1), 3 * d - 4, 3 * d - 3
    h_I = list(itertools.accumulate(rep["restricted_profile"]))
    _expect(problems, "h_I", h_I, [ci(degrees, 3, k) for k in range(socle + 1)])
    _expect(problems, "node_count", rep["node_count"], nodes)
    _expect(problems, "eval_rank", rep["defect"]["eval_rank"], ci(degrees, 3, critical))
    cert = rep["certification"]
    _expect(problems, "certified", cert["certified"], True)
    _expect(problems, "bound_value", cert["bound_value"], nodes)
    _expect(problems, "certified node_count", cert["node_count"], nodes)
    return problems


# ---------------------------------------------------------------------------
# random-control: seeded points in P^4, through `defectk defect --points`


def random_points(seed: int, count: int) -> list[tuple[int, ...]]:
    """Pairwise distinct projective points with coordinates in [-997, 997]."""
    rng = random.Random(f"random-control/{seed}/{count}")
    seen, points = set(), []
    while len(points) < count:
        coords = tuple(rng.randint(-997, 997) for _ in range(5))
        lead = next((c for c in coords if c), None)
        if lead is None:
            continue
        key = tuple(Fraction(c, lead) for c in coords)
        if key not in seen:
            seen.add(key)
            points.append(coords)
    return points


def _random_instance(n: int, k: int, char: int | None, seed: int, workdir: Path) -> Instance:
    points = random_points(seed, n)
    path = workdir / f"random-{n}-{k}.json"
    path.write_text(json.dumps([[[c, 1] for c in p] for p in points]), encoding="utf-8")
    argv = ["defect", "--points", path.as_posix(), "--degree", str(k),
            "--field", "qp" if char is None else f"fp={char}"]
    label = f"random-{n}-k{k}-{'qq' if char is None else 'fp'}"
    oracle = partial(_oracle_rank, points, k, char, {})
    return Instance(label, partial(_run_cli, argv), partial(_check_random, n, k, oracle))


def _oracle_rank(points, k: int, char: int | None, memo: dict, dk: SimpleNamespace) -> int:
    """Rank of the degree-k evaluation matrix by ``linalg.rank`` (Bareiss
    over the rationals, plain elimination mod p), with the matrix built here
    from the points, without the program's monomial code."""
    if "rank" not in memo:
        monomials = list(itertools.combinations_with_replacement(range(5), k))
        rows = [[math.prod(p[i] for i in m) for m in monomials] for p in points]
        memo["rank"] = dk.linalg.rank(rows, char)
    return memo["rank"]


def _check_random(n: int, k: int, oracle, dk: SimpleNamespace, report: bytes) -> list[str]:
    rep = json.loads(report)
    rank = oracle(dk)
    problems: list[str] = []
    _expect(problems, "oracle rank (general position)", rank, min(n, math.comb(k + 4, 4)))
    _expect(problems, "node_count", rep["node_count"], n)
    _expect(problems, "critical_degree", rep["critical_degree"], k)
    _expect(problems, "eval_rank", rep["eval_rank"], rank)
    _expect(problems, "defect", rep["defect"], n - rank)
    _expect(problems, "tangent_codim_at_degree", rep["tangent_codim_at_degree"], rank)
    return problems


# ---------------------------------------------------------------------------
# gorenstein-chain: library calls from the restricted ideal to its ancestor


def grid_nodes(name: str, d: int) -> list[tuple[int, ...]]:
    """The default grid nodes of the plane (P^4) and double-solid (P^3) families."""
    if name == "plane":
        return [(0, 0, a, b, 1) for a in range(1, d) for b in range(1, d)]
    return [(1, a, b, 0) for a in range(1, d + 1) for b in range(1, 2 * d)]


def _gorenstein_instance(name: str, d: int, seed: int) -> Instance:
    socle = 2 * d - 4 if name == "plane" else 3 * d - 3
    degrees = (d - 1, d - 1) if name == "plane" else (d, 2 * d - 1)
    run = partial(_gorenstein_chain, grid_nodes(name, d), socle, seed)
    return Instance(f"{name}-d{d}", run, partial(_check_gorenstein, degrees, socle))


def _gorenstein_chain(coords, socle: int, seed: int, dk: SimpleNamespace) -> bytes:
    ideals = dk.ideals
    points = ideals.PointSet(coords)
    ell = ideals.draw_missing_hyperplane(points, seed)
    pieces = ideals.restricted_point_pieces(points, ell, socle)
    phi = ideals.socle_functional(pieces[socle])
    profile = ideals.ancestor_profile(phi)
    return canonical_json({
        "restricted_profile": [piece.codim for piece in pieces],
        "ancestor_profile": profile.to_json_list(),
        "kills_products": [ideals.functional_kills_products(phi, piece) for piece in pieces],
        "growth_violations": [dataclasses.asdict(v)
                              for v in ideals.macaulay_growth_audit(profile)],
    })


def _check_gorenstein(degrees, socle: int, dk: SimpleNamespace, report: bytes) -> list[str]:
    """The restricted and ancestor profiles are those of a complete
    intersection of the same multidegree in two variables."""
    rep = json.loads(report)
    want = [dk.macaulay.ci_hilbert(degrees, 2, e) for e in range(socle + 1)]
    problems: list[str] = []
    _expect(problems, "restricted_profile", rep["restricted_profile"], want)
    _expect(problems, "ancestor_profile", rep["ancestor_profile"], want)
    _expect(problems, "kills_products", all(rep["kills_products"]), True)
    _expect(problems, "growth_violations", rep["growth_violations"], [])
    return problems
