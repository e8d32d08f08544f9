"""CLI surface: subcommands, exit codes, formats, and replayability."""

import json

from defectk.cli import main
from defectk.families import GridParams, plane_family
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


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "expand", "--c", "x", "--d", "2")[0] == 1
    assert run_cli(capsys, "verify", "--suite", "unknown")[0] == 1
    assert run_cli(capsys, "nope")[0] == 1


def test_value_errors_exit_one_with_one_line(tmp_path, capsys):
    code, out, err = run_cli(capsys, "expand", "--c", "-1", "--d", "3")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1

    points_file = tmp_path / "points.json"
    points_file.write_text(json.dumps([[[1, 1], [2, 1]], [[2, 1], [4, 1]]]))
    code, out, err = run_cli(capsys, "defect", "--points", str(points_file), "--degree", "2")
    assert code == 1 and out == ""
    assert "distinct" in err and err.count("\n") == 1


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
    assert code == 2 and "d >= 3" in err


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


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("DEFECTK_SEED", "99")
    _, out, _ = run_cli(capsys, "family", "--name", "plane", "--d", "4")
    assert json.loads(out)["scenario"]["params"]["seed"] == 99


def test_field_flag(capsys):
    code, out, _ = run_cli(capsys, "family", "--name", "plane", "--d", "4",
                           "--field", "fp=1000003")
    assert code == 0 and json.loads(out)["defect"]["defect"] == 1
    assert run_cli(capsys, "family", "--name", "plane", "--d", "4", "--field", "fp=4")[0] == 1
    code, out, _ = run_cli(capsys, "family", "--name", "plane", "--d", "4", "--field", "qp")
    assert code == 0


def test_defect_command_with_points_file(tmp_path, capsys):
    inst = plane_family(GridParams.plane_defaults(4))
    points_file = tmp_path / "points.json"
    points_file.write_text(json.dumps(inst.nodes.to_json_list()))
    code, out, _ = run_cli(capsys, "defect", "--points", str(points_file), "--degree", "3")
    assert code == 0
    report = json.loads(out)
    assert report["defect"] == 1 and report["eval_rank"] == 8

    code, out, _ = run_cli(capsys, "defect", "--random", "8", "--nvars", "5",
                           "--seed", "1", "--degree", "3")
    assert code == 0 and json.loads(out)["defect"] == 0


def test_base_locus_command(tmp_path, capsys):
    gens = [GradedPoly.variable(5, 0), GradedPoly.variable(5, 1)]
    gens_file = tmp_path / "gens.json"
    gens_file.write_text(json.dumps([g.to_json_dict() for g in gens]))
    code, out, _ = run_cli(capsys, "base-locus", "--generators", str(gens_file))
    assert code == 0 and out.strip() == "dimension 2"

    code, out, _ = run_cli(capsys, "base-locus", "--generators", str(gens_file),
                           "--degree-cap", "0")
    assert code == 2 and "inconclusive" in out


def test_verify_suites_exit_zero(capsys):
    for suite in ("gotzmann", "highdim"):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0
        assert "checks passed" in out and "FAIL" not in out


def test_family_probe_prime_warns(capsys):
    code, out, err = run_cli(capsys, "family", "--name", "plane", "--d", "4",
                             "--probe-prime", "11")
    assert code == 0
    report = json.loads(out)
    assert report["undeclared_singular_mod_p"]["count"] == 12
    assert "warning" in err


def _assert_one_line_error(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_random_control_without_enough_points_exits_one(capsys):
    # P^0 has one point and no point has zero coordinates: both used to hang
    for count, nvars in (("2", "1"), ("3", "0")):
        _assert_one_line_error(*run_cli(capsys, "defect", "--random", count,
                                        "--nvars", nvars, "--degree", "1"))


def test_malformed_points_files_exit_one(tmp_path, capsys):
    points_file = tmp_path / "points.json"
    for data in ([[1, 2]], [[[1, 0], [1, 1]]], 5):
        points_file.write_text(json.dumps(data))
        _assert_one_line_error(*run_cli(capsys, "defect", "--points", str(points_file),
                                        "--degree", "1"))


def test_probe_prime_must_be_an_odd_prime(capsys):
    for bad in ("1", "-3", "4"):
        _assert_one_line_error(*run_cli(capsys, "family", "--name", "plane", "--d", "3",
                                        "--probe-prime", bad))
