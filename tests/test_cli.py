"""CLI surface: subcommands, exit codes, formats, and replayability."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from defectk import macaulay, scenarios
import defectk
from defectk.cli import SUITES, build_parser, main
from defectk.defect import NodalHypersurface
from defectk.families import plane_family
from defectk.ideals import PointSet
from defectk.polynomials import GradedPoly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_prints_growth_table(capsys):
    code, out, _ = run_cli(capsys, "expand", "--c", "10", "--d", "7")
    assert code == 0
    assert "11" in out  # growth column
    code, out, _ = run_cli(capsys, "expand", "--c", "0", "--d", "3")
    assert code == 0 and "-1,-1,-1" in out
    code, out, _ = run_cli(capsys, "expand", "--c", "5", "--d", "2")
    assert code == 0 and "1,1" in out


def test_one_parser_serves_every_run_in_a_process(capsys):
    """``main`` reuses one parser; runs of different subcommands in one
    process, also after a usage error, print what fresh processes print."""
    env = dict(os.environ, PYTHONPATH=str(Path(defectk.__file__).parents[1]))
    for argv in (("family", "--name", "plane", "--d", "4"), ("expand", "--c", "10", "--d", "7"),
                 ("expand", "--c", "x", "--d", "2"), ("family", "--name", "plane", "--d", "4")):
        fresh = subprocess.run([sys.executable, "-m", "defectk.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert run_cli(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert build_parser.cache_info().currsize == 1


def test_no_command_imports_the_oracles(tmp_path):
    """``import defectk`` and a run of every command kind in that process
    leave ``defectk.oracles``, the tests' references, unloaded."""
    gens_file = tmp_path / "gens.json"
    gens_file.write_text(json.dumps([GradedPoly.variable(5, 0).to_json_dict()]))
    script = f"""
import contextlib, io, json, sys
import defectk
from defectk.cli import SUITES, main
runs = [["family", "--name", "plane", "--d", "4"],
        ["defect", "--random", "8", "--nvars", "5", "--degree", "3"],
        ["base-locus", "--generators", {str(gens_file)!r}],
        *(["verify", "--suite", suite] for suite in SUITES)]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(json.dumps([codes, sorted(name for name in sys.modules if name.startswith("defectk"))]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(defectk.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    codes, modules = json.loads(done.stdout)
    assert codes == [0] * len(codes) and len(codes) == 3 + len(SUITES)
    assert "defectk.cli" in modules and "defectk.oracles" not in modules


def test_no_module_but_the_oracles_imports_them():
    for path in Path(defectk.__file__).parent.glob("*.py"):
        if path.name == "oracles.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            else:
                continue
            assert not any("oracles" in name.split(".") for name in names), (path.name, names)


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "expand", "--c", "x", "--d", "2")[0] == 1
    assert run_cli(capsys, "verify", "--suite", "unknown")[0] == 1
    assert run_cli(capsys, "nope")[0] == 1


@pytest.mark.parametrize("argv", [
    ("family", "--name", "plane", "--d", "4", "--field", "qq"),
    ("family", "--name", "plane", "--d", "4", "--field", "fp=4"),
    ("family", "--d", "abc"),
    ("verify", "--suite", "nope"),
])
def test_a_usage_error_is_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: argument ") and err.count("\n") == 1, err


# the options each subcommand's --help lists
HELP_OPTIONS = {
    "expand": {"-h", "--c", "--d"},
    "bounds": {"-h", "--c", "--d", "--k"},
    "family": {"-h", "--name", "--d", "--n", "--seed", "--field", "--format", "--out",
               "--probe-prime"},
    "defect": {"-h", "--points", "--random", "--nvars", "--seed", "--degree", "--field",
               "--format", "--out"},
    "base-locus": {"-h", "--generators", "--degree", "--degree-cap"},
    "verify": {"-h", "--suite"},
}


@pytest.mark.parametrize("command", sorted(HELP_OPTIONS))
def test_help_lists_every_option_of_the_subcommand(capsys, command):
    code, out, err = run_cli(capsys, command, "--help")
    assert (code, err) == (0, "")
    options = out[out.index("\noptions:\n"):]
    listed = set(re.findall(r"^  (-[-\w]+)", options, flags=re.MULTILINE))
    assert listed == HELP_OPTIONS[command]


def test_value_errors_exit_one_with_one_line(tmp_path, capsys):
    code, out, err = run_cli(capsys, "expand", "--c", "-1", "--d", "3")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1

    points_file = tmp_path / "points.json"
    points_file.write_text(json.dumps([[[1, 1], [2, 1]], [[2, 1], [4, 1]]]))
    code, out, err = run_cli(capsys, "defect", "--points", str(points_file), "--degree", "2")
    assert code == 1 and out == ""
    assert "distinct" in err and err.count("\n") == 1

    for args in (("--c", "5", "--d", "0"), ("--c", "-2", "--d", "3"),
                 ("--c", "9", "--d", "3", "--k", "1")):  # no floor for c > 2d+1
        code, out, err = run_cli(capsys, "bounds", *args)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_bounds_prints_the_floor_table(capsys):
    head = ("c=3, d=2\n  upper_growth     4\n  hyperplane_bound 1\n"
            "  lower_shift      2 strict=False\n")
    code, out, err = run_cli(capsys, "bounds", "--c", "3", "--d", "2")
    assert (code, err) == (0, "")
    assert out == head + "  floor h(0) >= 1\n  floor h(1) >= 2\n  floor h(2) >= 3\n"
    code, out, err = run_cli(capsys, "bounds", "--c", "3", "--d", "2", "--k", "1")
    assert (code, err) == (0, "")
    assert out == head + "  floor h(1) >= 2\n"


def test_family_report_fields(capsys):
    code, out, _ = run_cli(capsys, "family", "--name", "plane", "--d", "4")
    assert code == 0
    report = json.loads(out)
    assert report["node_count"] == 9
    assert report["defect"]["defect"] == 1
    assert report["certification"]["certified"] is True
    assert report["certification"]["bound_value"] == 9
    assert report["scenario"]["params"]["d"] == 4
    assert report["restricted_profile"] == [1, 2, 3, 2, 1]


def test_family_rejects_low_degree(capsys):
    code, _, err = run_cli(capsys, "family", "--name", "plane", "--d", "2")
    assert code == 1 and "d >= 3" in err


def test_family_double_solid_and_formats(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys, "family", "--name", "double-solid", "--d", "2",
        "--format", "csv", "--out", str(out_file),
    )
    assert code == 0
    import csv

    with open(out_file, newline="") as fh:
        header, row = list(csv.reader(fh))
    record = dict(zip(header, row))
    assert record["node_count"] == "6"
    assert record["defect.defect"] == "1"

    code, out, _ = run_cli(capsys, "family", "--name", "double-solid", "--d", "2",
                           "--format", "markdown")
    assert code == 0 and out.startswith("| field | value |")


def test_family_replay_reproduces_report(capsys):
    args = ["family", "--name", "plane", "--d", "5", "--seed", "7"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    # the embedded scenario carries everything needed to replay
    scenario = json.loads(out1)["scenario"]
    replay = ["family", "--name", scenario["params"]["name"],
              "--d", str(scenario["params"]["d"]), "--seed", str(scenario["params"]["seed"])]
    _, out3, _ = run_cli(capsys, *replay)
    assert out3 == out1


def test_the_environment_does_not_move_the_seed(capsys, monkeypatch):
    """--seed is the only seed source: a variable that once set it is ignored."""
    argv = ("family", "--name", "plane", "--d", "4")
    plain = run_cli(capsys, *argv)
    monkeypatch.setenv("DEFECTK_SEED", "99")
    assert run_cli(capsys, *argv) == plain
    assert json.loads(plain[1])["scenario"]["params"]["seed"] == scenarios.DEFAULT_SEED


def test_field_flag(capsys):
    code, out, _ = run_cli(capsys, "family", "--name", "plane", "--d", "4",
                           "--field", "fp=1000003")
    assert code == 0 and json.loads(out)["defect"]["defect"] == 1
    code, out, err = run_cli(capsys, "family", "--name", "plane", "--d", "4", "--field", "fp=4")
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == (
        "error: argument --field: characteristic must be an odd prime <= 2^31, got 4")
    code, out, _ = run_cli(capsys, "family", "--name", "plane", "--d", "4", "--field", "qp")
    assert code == 0
    for field in ("fp=abc", "fp=", "fp=7.0", "qq"):  # neither qp nor fp=<integer>
        code, out, err = run_cli(capsys, "defect", "--random", "3", "--degree", "2",
                                 "--field", field)
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == "error: argument --field: expected qp or fp=<prime>"


def test_defect_command_with_points_file(tmp_path, capsys):
    inst = plane_family(4)
    points_file = tmp_path / "points.json"
    points_file.write_text(json.dumps(inst.nodes.to_json_list()))
    code, out, _ = run_cli(capsys, "defect", "--points", str(points_file), "--degree", "3")
    assert code == 0
    report = json.loads(out)
    assert report["defect"] == 1 and report["eval_rank"] == 8

    code, out, _ = run_cli(capsys, "defect", "--random", "8", "--nvars", "5",
                           "--seed", "1", "--degree", "3")
    assert code == 0 and json.loads(out)["defect"] == 0


def test_defect_command_at_large_degrees_and_many_variables(capsys):
    # C(41, 29) and C(404, 4) monomials of the degree: the rank is read at
    # degree #points - 1, past which the Hilbert function of points is constant
    for count, nvars, degree in (("10", "30", "12"), ("20", "5", "400")):
        code, out, _ = run_cli(capsys, "defect", "--random", count, "--nvars", nvars,
                               "--seed", "1", "--degree", degree)
        assert code == 0
        report = json.loads(out)
        assert report["eval_rank"] == int(count) and report["defect"] == 0


def test_base_locus_command(tmp_path, capsys):
    gens = [GradedPoly.variable(5, 0), GradedPoly.variable(5, 1)]
    gens_file = tmp_path / "gens.json"
    gens_file.write_text(json.dumps([g.to_json_dict() for g in gens]))
    code, out, _ = run_cli(capsys, "base-locus", "--generators", str(gens_file))
    assert code == 0 and out.strip() == "dimension 2"

    code, out, _ = run_cli(capsys, "base-locus", "--generators", str(gens_file),
                           "--degree-cap", "0")
    assert code == 2 and "inconclusive" in out

    # the zero quadric cuts out all of P^3
    gens_file.write_text(json.dumps([GradedPoly.zero(4, 2).to_json_dict()]))
    code, out, _ = run_cli(capsys, "base-locus", "--generators", str(gens_file))
    assert code == 0 and out == "dimension 3\n"

    code, out, err = run_cli(capsys, "base-locus", "--generators", str(gens_file),
                             "--degree-cap", "-1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_suites_exit_zero(capsys):
    for suite in SUITES:
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0
        assert "checks passed" in out and "FAIL" not in out


def test_verify_macaulay_fails_on_a_wrong_or_refused_expansion(capsys, monkeypatch):
    """An expansion that does not sum to c, or one that sums to c but is
    not weakly decreasing, is a FAIL line and exit 2, not a traceback."""
    original = macaulay.expand

    def wrong(c, d):
        return (c,) + (-1,) * (d - 1) if c == 3000 else original(c, d)

    def increasing(c, d):
        # binom(1, 2) + binom(3000, 1) = 3000, but eps_2 < eps_1
        return (-1, 2999) if (c, d) == (3000, 2) else original(c, d)

    for patched in (wrong, increasing):
        monkeypatch.setattr(macaulay, "expand", patched)
        code, out, err = run_cli(capsys, "verify", "--suite", "macaulay")
        assert code == 2 and err == ""
        assert out.splitlines() == [
            "FAIL  expansion reconstructs c for c<=3000, d<=12  exact",
            "PASS  piecewise growth values for c<=2d+1, d<=50  exact",
            "macaulay: 1/2 checks passed",
        ]


def test_family_probe_prime_warns(capsys):
    code, out, err = run_cli(capsys, "family", "--name", "plane", "--d", "4",
                             "--probe-prime", "11")
    assert code == 0
    report = json.loads(out)
    assert report["undeclared_singular_mod_p"]["count"] == 12
    assert "warning" in err


def test_probe_prime_report_matches_stored_copy(capsys):
    """The sweep report of plane d=6 mod 11, byte for byte."""
    code, out, err = run_cli(capsys, "family", "--name", "plane", "--d", "6",
                             "--probe-prime", "11")
    assert code == 0
    assert err == "warning: 12 singular point(s) mod 11 not among the declared nodes\n"
    assert out == (Path(__file__).parent / "data" / "family-plane-d6-probe-11.json").read_text()


STORED_REPORTS = {
    # certification trace, probe points and scenario lists, flattened
    "family-double-solid-d3-probe-11.csv": ("family", "--name", "double-solid", "--d", "3",
                                            "--probe-prime", "11", "--format", "csv"),
    # tangent codimension, no certification
    "family-ci-highdim-n2-d4.md": ("family", "--name", "ci-highdim", "--n", "2", "--d", "4",
                                   "--format", "markdown"),
    "defect-random-20-k3-seed1.csv": ("defect", "--random", "20", "--degree", "3",
                                      "--seed", "1", "--format", "csv"),
    "defect-random-20-k3-seed1-fp101.json": ("defect", "--random", "20", "--degree", "3",
                                             "--seed", "1", "--field", "fp=101"),
}


def test_reports_match_stored_copies(capsys):
    """JSON, CSV and markdown reports of both commands, byte for byte."""
    for name, argv in STORED_REPORTS.items():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        # read_bytes: CSV rows end in \r\n, which read_text would translate
        assert out == (Path(__file__).parent / "data" / name).read_bytes().decode(), name


def _assert_one_line_error(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, message", [
    (("defect", "--points", "{points}", "--degree", "1", "--seed", "5"),
     "error: --seed applies only to --random"),
    (("defect", "--points", "{points}", "--degree", "1", "--nvars", "9"),
     "error: --nvars applies only to --random"),
    (("family", "--name", "plane", "--d", "5", "--n", "7"),
     "error: --n applies only to ci-highdim"),
], ids=["points-with-seed", "points-with-nvars", "plane-with-n"])
def test_an_option_the_run_does_not_read_is_refused(tmp_path, capsys, argv, message):
    points_file = tmp_path / "points.json"
    points_file.write_text(json.dumps(plane_family(4).nodes.to_json_list()))
    code, out, err = run_cli(capsys, *(a.format(points=points_file) for a in argv))
    _assert_one_line_error(code, out, err)
    assert err == message + "\n"


def test_random_control_without_enough_points_exits_one(capsys):
    # P^0 has one point, no point has zero coordinates, and P^1 has 1,210,584
    # points with coordinates in [-997, 997]: all three used to hang
    for count, nvars in (("2", "1"), ("3", "0"), ("1210585", "2")):
        _assert_one_line_error(*run_cli(capsys, "defect", "--random", count,
                                        "--nvars", nvars, "--degree", "1"))


def test_malformed_points_files_exit_one(tmp_path, capsys):
    points_file = tmp_path / "points.json"
    for data in ([[1, 2]], [[[1, 0], [1, 1]]], 5, [[[1, 1, 1]]], {"a": [[1, 1]]},
                 # JSON booleans, which Python would read as 1 and 0
                 [[[True, 1], [False, 1], [1, 1]], [[1, True], [2, 1], [3, 1]]],
                 [[[1, 1], [2, 1]], [[1, 1], [True, 1]]], [[[1, 1], [2, True]]]):
        points_file.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "defect", "--points", str(points_file), "--degree", "1")
        _assert_one_line_error(code, out, err)
        assert err.startswith("error: points must be lists of [numerator, denominator] pairs: ")
    # a directory where a file is read or written
    _assert_one_line_error(*run_cli(capsys, "defect", "--points", str(tmp_path),
                                    "--degree", "1"))
    _assert_one_line_error(*run_cli(capsys, "family", "--name", "plane", "--d", "3",
                                    "--out", str(tmp_path)))


def test_malformed_generator_files_exit_one(tmp_path, capsys):
    gens_file = tmp_path / "gens.json"
    for data in ([{"nvars": 3}], {"a": 1}, [5],
                 [{"nvars": 3, "degree": 1, "terms": [[[1, 0, 0], 1, 0]]}],
                 [{"nvars": 3, "degree": 3, "terms": [[[1.5, 1.5, 0], 1, 1]]}],
                 [{"nvars": 3.0, "degree": 1, "terms": [[[1, 0, 0], 1, 1]]}],
                 # JSON booleans, which Python would read as 1 and 0
                 [{"nvars": 3, "degree": 1, "terms": [[[True, 0, 0], True, True]]}],
                 [{"nvars": True, "degree": 0, "terms": [[[0], 1, 1]]}],
                 [{"nvars": 3, "degree": True, "terms": [[[1, 0, 0], 1, 1]]}],
                 [{"nvars": 3, "degree": 1, "terms": [[[True, 0, 0], 1, 1]]}],
                 [{"nvars": 3, "degree": 1, "terms": [[[1, 0, 0], True, 1]]}],
                 [{"nvars": 3, "degree": 1, "terms": [[[1, 0, 0], 1, True]]}]):
        gens_file.write_text(json.dumps(data))
        _assert_one_line_error(*run_cli(capsys, "base-locus", "--generators", str(gens_file)))
    gens_file.write_text("[]")
    code, out, err = run_cli(capsys, "base-locus", "--generators", str(gens_file))
    _assert_one_line_error(code, out, err)
    assert "need at least one generator" in err
    _assert_one_line_error(*run_cli(capsys, "base-locus", "--generators", str(tmp_path)))


def test_probe_prime_must_be_an_odd_prime(capsys):
    for bad in ("1", "-3", "4"):
        _assert_one_line_error(*run_cli(capsys, "family", "--name", "plane", "--d", "3",
                                        "--probe-prime", bad))


def test_family_usage_and_budget_errors_exit_one(capsys):
    for argv in (("--name", "double-solid", "--d", "1"),
                 ("--name", "ci-highdim", "--n", "0", "--d", "3"),
                 ("--name", "ci-highdim", "--n", "-2", "--d", "1"),
                 ("--name", "plane", "--d", "1000"),  # over scenarios.NODE_BUDGET
                 ("--name", "double-solid", "--d", "1000")):
        _assert_one_line_error(*run_cli(capsys, "family", *argv))


def test_family_certification_failure_exits_two(capsys, monkeypatch):
    # eight of the nine plane d=4 nodes impose independent conditions on
    # cubics, so the restricted profile vanishes at the socle
    def eight_nodes(d):
        inst = plane_family(d)
        return NodalHypersurface.build(inst.f, PointSet(list(inst.nodes)[:-1]))

    monkeypatch.setattr(scenarios, "plane_family", eight_nodes)
    code, out, err = run_cli(capsys, "family", "--name", "plane", "--d", "4")
    assert code == 2 and out == ""
    assert err.startswith("audit failure: no defect to certify") and err.count("\n") == 1


def test_family_bad_reduction_exits_one(capsys):
    # the grid values 1 and 4 collide mod 3, so the F_3 ranks would drop
    code, out, err = run_cli(capsys, "family", "--name", "plane", "--d", "5", "--field", "fp=3")
    _assert_one_line_error(code, out, err)
    assert err.startswith("error: bad reduction mod 3: the points (0:0:1:1:1) and (0:0:1:4:1)")


def test_defect_bad_reduction_exits_one(tmp_path, capsys):
    # (1:p:0) and (1:0:p) reduce to (1:0:0) mod p, so the F_p rank would be 3, not 5
    p = 2**31 - 1
    coords = [(1, 0, 0), (1, p, 0), (1, 0, p), (1, 1, 1)]
    data = [[[c, 1] for c in pt] for pt in coords] + [[[1, 2], [1, 3], [p, 7]]]
    points_file = tmp_path / "points.json"
    points_file.write_text(json.dumps(data))
    argv = ["defect", "--points", str(points_file), "--degree", "2"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["eval_rank"] == 5
    code, out, err = run_cli(capsys, *argv, "--field", f"fp={p}")
    _assert_one_line_error(code, out, err)
    assert err.startswith(f"error: bad reduction mod {p}: the points (1:0:0) and (1:{p}:0)")


def test_probe_prime_over_the_sweep_budget_exits_one(capsys):
    # P^4(F_31) has 954,305 points, over defect.SWEEP_BUDGET
    code, out, err = run_cli(capsys, "family", "--name", "plane", "--d", "3",
                             "--probe-prime", "31")
    _assert_one_line_error(code, out, err)
    assert "954305 points" in err


def test_probe_prime_is_refused_before_the_run(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(scenarios, "run_plane", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(scenarios, "run_highdim", lambda *a, **k: calls.append(a))
    code, out, err = run_cli(capsys, "family", "--name", "plane", "--d", "3",
                             "--probe-prime", "31")
    _assert_one_line_error(code, out, err)
    # ci-highdim n=3 lives in P^8, and P^8(F_13) has 883,708,281 points
    code, out, err = run_cli(capsys, "family", "--name", "ci-highdim", "--n", "3", "--d", "3",
                             "--probe-prime", "13")
    _assert_one_line_error(code, out, err)
    assert "P^8(F_13)" in err
    assert calls == []
