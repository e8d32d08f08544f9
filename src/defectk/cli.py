"""Command-line front end.

Subcommands: expand, bounds, family, defect, base-locus, verify.
Reports are emitted as JSON (canonical), CSV, or markdown; every report
embeds the scenario that produced it, so a run can be replayed exactly.
Exit codes: 0 success, 1 usage error, 2 audit or verification failure.
The DEFECTK_SEED environment variable overrides the default seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import cache, partial

from . import macaulay
from .defect import AuditError, check_sweep_budget, defect as compute_defect
from .families import probe_undeclared_singular_points, random_points_control
from .ideals import (
    BaseLocus,
    IdealPiece,
    PointSet,
    base_locus_dimension,
    check_reduction,
    generated_piece,
)
from .polynomials import GradedPoly
from .scalars import validate_characteristic
from .scenarios import DEFAULT_SEED, FAMILIES, Scenario

USAGE_EXIT = 1
FAILURE_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _parse_field(text: str) -> int | None:
    if text in ("qp", "qq"):
        return None
    if text.startswith("fp="):
        p = int(text[3:])
        try:
            return validate_characteristic(p)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    raise argparse.ArgumentTypeError("expected qp or fp=<prime>")


def _default_seed() -> int:
    env = os.environ.get("DEFECTK_SEED")
    if not env:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"DEFECTK_SEED must be an integer, got {env!r}") from None


# ---------------------------------------------------------------------------
# output formatting


def _emit(report: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        flat = _flatten(report)
        keys = sorted(flat)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(keys)
        writer.writerow([flat[k] for k in keys])
        text = buf.getvalue()
    else:  # markdown
        flat = _flatten(report)
        lines = ["| field | value |", "| --- | --- |"]
        lines += [f"| {k} | {flat[k]} |" for k in sorted(flat)]
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(data, prefix: str = "") -> dict:
    out = {}
    if isinstance(data, dict):
        for k, v in data.items():
            out.update(_flatten(v, f"{prefix}{k}." if prefix or isinstance(v, (dict, list)) else k))
            if not isinstance(v, (dict, list)):
                out[f"{prefix}{k}"] = v
    elif isinstance(data, list):
        out[prefix.rstrip(".")] = json.dumps(data)
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_expand(args) -> int:
    exp = macaulay.expand(args.c, args.d)
    growth = macaulay.upper_growth(args.c, args.d)
    green = macaulay.hyperplane_bound(args.c, args.d)
    rows = [
        ("expansion exponents", ",".join(str(e) for e in exp.eps)),
        ("growth bound c^<d>", growth),
        ("hyperplane bound c_<d>", green),
    ]
    if args.d >= 2:
        shift, strict = macaulay.lower_shift(args.c, args.d)
        rows.append(("downward shift c_{*d}", f"{shift} (strict)" if strict else shift))
    width = max(len(name) for name, _ in rows)
    print(f"c={args.c} in base d={args.d}")
    for name, value in rows:
        print(f"  {name:<{width}}  {value}")
    return 0


def _cmd_bounds(args) -> int:
    # every value is computed before the first line is printed, so invalid
    # arguments leave stdout empty
    lines = [
        f"c={args.c}, d={args.d}",
        f"  upper_growth     {macaulay.upper_growth(args.c, args.d)}",
        f"  hyperplane_bound {macaulay.hyperplane_bound(args.c, args.d)}",
    ]
    if args.d >= 2:
        val, strict = macaulay.lower_shift(args.c, args.d)
        lines.append(f"  lower_shift      {val} strict={strict}")
    # a given --k asks for its floor, which raises when c > 2d+1
    if args.k is not None or args.c <= 2 * args.d + 1:
        ks = [args.k] if args.k is not None else range(args.d + 1)
        lines += [f"  floor h({k}) >= {macaulay.low_degree_floor(args.c, args.d, k)}" for k in ks]
    print(*lines, sep="\n")
    return 0


def _cmd_family(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    spec = FAMILIES[args.name]
    family_args = [getattr(args, a) for a in spec.args]
    if args.probe_prime:
        validate_characteristic(args.probe_prime)
        check_sweep_budget(spec.nvars(*family_args), args.probe_prime)
    run = spec.run(*family_args, seed=seed, char=args.field)
    instance = run["instance"]
    report = {
        "scenario": run["scenario"].to_dict(),
        "node_count": len(instance.nodes),
        "defect": run["defect_report"].to_dict(),
    }
    if "certify_report" in run:
        report["certification"] = run["certify_report"].to_dict()
        report["restricted_profile"] = run["h_IH"].to_json_list()
    if "tangent_codim" in run:
        report["tangent_codim"] = run["tangent_codim"]
    if args.probe_prime:
        findings = probe_undeclared_singular_points(
            instance.f, instance.nodes, args.probe_prime
        )
        report["undeclared_singular_mod_p"] = {
            "p": args.probe_prime,
            "count": len(findings),
            "points": [list(pt) for pt in findings[:50]],
        }
        if findings:
            print(
                f"warning: {len(findings)} singular point(s) mod {args.probe_prime} "
                "not among the declared nodes",
                file=sys.stderr,
            )
    _emit(report, args.format, args.out)
    return 0


def _cmd_defect(args) -> int:
    if args.points:
        with open(args.points, encoding="utf-8") as fh:
            points = PointSet.from_json_list(json.load(fh))
        source = {"points": args.points}
    else:
        seed = args.seed if args.seed is not None else _default_seed()
        points = random_points_control(args.random, args.nvars, seed)
        source = {"random": args.random, "nvars": args.nvars, "seed": seed}
    if args.field:
        check_reduction(points, args.field)
    rep = compute_defect(points, args.degree, args.field)
    report = {
        "scenario": Scenario("defect", {**source, "degree": args.degree}).to_dict(),
        **rep.to_dict(),
        "tangent_codim_at_degree": rep.eval_rank,
    }
    _emit(report, args.format, args.out)
    return 0


def _cmd_base_locus(args) -> int:
    with open(args.generators, encoding="utf-8") as fh:
        data = json.load(fh)
    gens = [GradedPoly.from_json_dict(g) for g in data]
    # with no generators, generated_piece reports the error
    degree = args.degree if args.degree is not None else max((g.degree for g in gens), default=0)
    piece = generated_piece(gens, degree)
    verdict = base_locus_dimension(piece, args.degree_cap)
    if verdict.is_inconclusive:
        print("inconclusive (degree cap reached)")
        return FAILURE_EXIT
    print("empty" if verdict.is_empty else f"dimension {verdict.dimension}")
    return 0


def _cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    checks = suite()
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
        failed += 0 if ok else 1
    print(f"{args.suite}: {len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else FAILURE_EXIT


# ---------------------------------------------------------------------------
# verification suites


def suite_macaulay():
    checks = []
    ok = True
    for d in range(1, 13):
        for c in range(0, 3001):
            exp = macaulay.expand(c, d)  # validates reconstruction on build
            if exp.c != c:
                ok = False
    checks.append(("expansion reconstructs c for c<=3000, d<=12", ok, "exact"))
    ok = True
    for d in range(2, 51):
        for c in range(0, 2 * d + 2):
            got = macaulay.upper_growth(c, d)
            want = c if c <= d else (c + 1 if c <= 2 * d else c + 2)
            if got != want:
                ok = False
    checks.append(("piecewise growth values for c<=2d+1, d<=50", ok, "exact"))
    return checks


def suite_gotzmann():
    checks = []
    x5 = [GradedPoly.variable(5, i) for i in range(5)]
    piece = generated_piece([x5[0], x5[1]], 1)
    v = base_locus_dimension(piece)
    checks.append(("two hyperplanes in P^4 cut a plane", v == BaseLocus.of_dim(2), f"{v}"))
    full = IdealPiece.full(5, 2)
    v = base_locus_dimension(full)
    checks.append(("full degree piece has empty locus", v.is_empty, f"{v}"))
    x4 = [GradedPoly.variable(4, i) for i in range(4)]
    q1 = x4[0] * x4[1] - x4[2] * x4[3]
    q2 = x4[0] * x4[0] + x4[1] * x4[1] + x4[2] * x4[2] + x4[3] * x4[3]
    v = base_locus_dimension(generated_piece([q1, q2], 2))
    checks.append(("two quadrics in P^3 cut a curve", v == BaseLocus.of_dim(1), f"{v}"))
    return checks


def suite_family(spec):
    """Each suite case of a family against the family's closed forms."""
    checks = []
    for case in spec.cases:
        run = spec.run(*case)
        nodes, defect = len(run["instance"].nodes), run["defect_report"].defect
        ok = nodes == spec.node_count(*case) and defect == 1
        detail = f"nodes={nodes} defect={defect}"
        if "certify_report" in run:
            cert = run["certify_report"]
            ok = (ok and cert.certified and cert.bound_value == nodes
                  and cert.meets_bound_with_equality)
            detail += f" bound={cert.bound_value}"
        if spec.tangent_codim is not None:
            ok = ok and run["tangent_codim"] == spec.tangent_codim(*case)
            detail += f" tangent_codim={run['tangent_codim']}"
        checks.append((spec.label.format(**dict(zip(spec.args, case))), ok, detail))
    return checks


def suite_c0():
    ok = all(
        macaulay.c0_expansion_identity(n, d)
        for n in range(16, 25)
        for d in range(5, 31)
    )
    return [("closed-form expansion of the quadric-locus codimension", ok, "exact")]


SUITES = {
    "macaulay": suite_macaulay,
    "gotzmann": suite_gotzmann,
    **{spec.suite: partial(suite_family, spec) for spec in FAMILIES.values()},
    "c0": suite_c0,
}


# ---------------------------------------------------------------------------
# parser


@cache
def build_parser() -> _Parser:
    """The parser, built once per process: parsing does not change it."""
    parser = _Parser(prog="defectk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="Macaulay expansion and derived operators")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("bounds", help="growth bounds and low-degree floors")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("family", help="construct a nodal family instance and certify it")
    p.add_argument("--name", choices=list(FAMILIES), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=2, help="only for ci-highdim")
    p.add_argument("--seed", type=int)
    p.add_argument("--field", type=_parse_field, default=None)
    p.add_argument("--format", choices=["json", "csv", "markdown"], default="json")
    p.add_argument("--out")
    p.add_argument("--probe-prime", type=int, default=0,
                   help="sweep P^n(F_p) for undeclared singular points")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("defect", help="defect of a point set at a degree")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--points", help="JSON file with point coordinates")
    src.add_argument("--random", type=int, help="number of seeded random points")
    p.add_argument("--nvars", type=int, default=5)
    p.add_argument("--seed", type=int)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--field", type=_parse_field, default=None)
    p.add_argument("--format", choices=["json", "csv", "markdown"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_defect)

    p = sub.add_parser("base-locus", help="base locus dimension of generated ideal")
    p.add_argument("--generators", required=True, help="JSON list of forms")
    p.add_argument("--degree", type=int)
    p.add_argument("--degree-cap", type=int, dest="degree_cap")
    p.set_defaults(func=_cmd_base_locus)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except AuditError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return FAILURE_EXIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
