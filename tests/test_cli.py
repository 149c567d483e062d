import csv
import json
import math
from pathlib import Path

import pytest

from pullin import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_transform_command_frozen(capsys):
    code, out, _ = run_cli(capsys, "transform", "--N", "2", "--alpha", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "transform"
    assert doc["result"]["voltage_factor"] == 12.25
    assert doc["result"]["N_eff"] == 2
    assert doc["result"]["regularity"] == "classical"


def test_branch_command_json(tmp_path, capsys):
    out_file = tmp_path / "branch.json"
    code, out, _ = run_cli(capsys, "branch", "--family", "mems", "--p", "2",
                           "--N", "2", "--m-points", "48", "--out", str(out_file))
    assert code == 0
    assert out == ""  # results went to the file
    doc = json.loads(out_file.read_text())
    res = doc["result"]
    assert res["fold_found"] is True
    assert res["lambda_star"] == pytest.approx(0.789, abs=5e-3)
    assert res["m_star"] == pytest.approx(0.445, abs=5e-3)
    assert len(res["points"]) == 48
    assert res["points"][0]["mu1"] is None


def test_branch_command_deterministic(tmp_path, capsys):
    args = ("branch", "--family", "mems", "--p", "2", "--N", "2",
            "--m-points", "24", "--m-max", "0.9")
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(list(args) + ["--out", str(f1)]) == 0
    assert cli.main(list(args) + ["--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


def test_branch_csv_and_json_carry_the_same_numbers(tmp_path, capsys):
    args = ["branch", "--family", "exp", "--N", "3", "--m-points", "16",
            "--m-max", "5.0"]
    jf, cf = tmp_path / "r.json", tmp_path / "r.csv"
    assert cli.main(args + ["--out", str(jf)]) == 0
    assert cli.main(args + ["--format", "csv", "--out", str(cf)]) == 0
    capsys.readouterr()
    points = json.loads(jf.read_text())["result"]["points"]
    rows = list(csv.DictReader(cf.read_text().splitlines()))
    assert len(points) == len(rows)
    for p, row in zip(points, rows):
        assert float(row["m"]) == p["m"]
        assert float(row["lambda"]) == p["lambda"]
        assert row["mu1"] == ""


def test_constants_table(capsys):
    code, out, _ = run_cli(capsys, "constants", "--table", "exp", "--N", "3..5")
    assert code == 0
    entries = json.loads(out)["result"]["entries"]
    assert [e["N"] for e in entries] == [3, 4, 5]
    assert entries[0]["value"] == pytest.approx(1.99154, abs=1e-4)


def test_constants_over_a_counted_range(capsys):
    # the dimensions come from np.linspace, so the validity flags are numpy bools
    code, out, _ = run_cli(capsys, "constants", "--table", "mems", "--N", "2.5..4:7")
    assert code == 0
    entries = json.loads(out)["result"]["entries"]
    assert [e["valid"] for e in entries] == [False, False, True, True, True, True, True]


def test_constants_decay_table(capsys):
    code, out, _ = run_cli(capsys, "constants", "--table", "decay",
                           "--N", "2", "--tau", "2..4:3")
    assert code == 0
    entries = json.loads(out)["result"]["entries"]
    assert entries[0]["value"] == pytest.approx(0.5, rel=1e-12)


def test_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--family", "mems", "--p", "2",
                           "--N", "2")
    assert code == 0
    doc = json.loads(out)
    names = {r["name"]: r for r in doc["result"]["reports"]}
    assert names["pullin_voltage_upper"]["value"] == pytest.approx(0.8568, abs=1e-3)
    assert names["pullin_distance_lower"]["value"] == pytest.approx(1 / 3, rel=1e-9)
    assert "mems_ball_supnorm_bound" in names


def test_invalid_dimension_exits_2(capsys):
    code, out, err = run_cli(capsys, "branch", "--N", "0.5")
    assert code == 2
    assert "invalid input" in err


def test_invalid_m_schedule_exits_2(capsys):
    code, _, err = run_cli(capsys, "branch", "--family", "mems", "--p", "2",
                           "--N", "2", "--m-min", "0.9", "--m-max", "0.5")
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["branch", "--no-such-flag", "1"])
    assert exc.value.code == 2


def test_verify_single_criterion(capsys):
    code, out, err = run_cli(capsys, "verify", "--criteria", "cube_bound")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["passed"] is True
    assert doc["result"]["criteria"][0]["name"] == "cube_bound"
    assert "[PASS] cube_bound" in err


def test_verify_output_is_the_same_on_every_run(capsys):
    argv = ("verify", "--criteria", "mems_disc_branch,cube_bound")
    code, first, err = run_cli(capsys, *argv)
    assert code == 0
    assert "[PASS] mems_disc_branch (" in err  # the time goes to stderr
    assert "seconds" not in first
    assert run_cli(capsys, *argv)[1] == first


def test_verify_unknown_criterion(capsys):
    code, _, err = run_cli(capsys, "verify", "--criteria", "no_such_check")
    assert code == 2
    assert "no_such_check" in err


def test_float_formatting_is_12_significant_digits():
    assert cli._fmt_float(math.pi) == "3.14159265359"
    assert cli._fmt_float(0.789229267914) == "0.789229267914"
    assert cli._fmt_float(float("inf")) == '"inf"'
    assert cli._fmt_float(float("nan")) == '"nan"'
    # CSV cells carry the same digits, unquoted
    assert cli._fmt_csv(math.pi) == "3.14159265359"
    assert cli._fmt_csv(float("nan")) == "nan"
    assert cli._fmt_csv(float("inf")) == "inf"
    assert cli._fmt_csv(float("-inf")) == "-inf"
    assert cli._fmt_csv(None) == ""
    assert cli._fmt_csv(True) == "true"
    assert cli._fmt_csv(False) == "false"


def test_branch_warnings_name_degraded_results(capsys):
    code, out, _ = run_cli(capsys, "branch", "--family", "mems", "--N", "9",
                           "--m-points", "25", "--m-max", "0.9")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["fold_found"] is False
    assert doc["warnings"] == ["no fold: λ* is a lower estimate"]

    code, out, _ = run_cli(capsys, "branch", "--family", "mems", "--N", "2",
                           "--m-points", "5", "--m-min", "0.05", "--stability")
    assert code == 0
    doc = json.loads(out)
    skipped = sum(p["mu1"] is None for p in doc["result"]["points"])
    assert skipped >= 1
    assert doc["warnings"] == [
        f"stability fill skipped at {skipped} of 5 points (mu1 is null there)"]


def test_branch_without_degraded_results_has_no_warnings(capsys):
    code, out, _ = run_cli(capsys, "branch", "--family", "exp", "--N", "2",
                           "--m-points", "16", "--m-max", "5.0")
    assert code == 0
    assert json.loads(out)["warnings"] == []


def test_asymptotics_warns_that_the_branch_voltage_is_a_lower_estimate(capsys):
    # exp N=10 is singular: its branch climbs toward 16 without a fold
    code, out, _ = run_cli(capsys, "asymptotics", "--family", "exp", "--N", "10",
                           "--lambda", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["lambda_star_branch"] == pytest.approx(16.0, rel=1e-6)
    assert doc["warnings"] == ["no fold: λ* is a lower estimate"]


def test_bounds_warns_for_each_invalid_report(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--family", "exp", "--N", "2",
                           "--alpha", "1.5")
    assert code == 0
    doc = json.loads(out)
    invalid = [r for r in doc["result"]["reports"] if not r["valid"]]
    assert [r["name"] for r in invalid] == ["exp_supnorm_bound"]
    assert doc["warnings"] == [
        "exp_supnorm_bound: requires the domain to lie inside a ball of radius 1/2"]

    code, out, _ = run_cli(capsys, "bounds", "--family", "mems", "--N", "3")
    assert code == 0
    assert json.loads(out)["warnings"] == []


def test_verify_serializes_numpy_pass_flags(capsys):
    # this criterion's pass flag comes from a numpy comparison
    code, out, err = run_cli(capsys, "verify", "--criteria", "oracle_equivalence")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["passed"] is True
    assert doc["result"]["criteria"][0]["passed"] is True
    assert "[PASS] oracle_equivalence" in err


@pytest.mark.parametrize("N, quantity", [("342", "Gamma")])
def test_bounds_at_large_dimension_exits_2(capsys, N, quantity):
    code, out, err = run_cli(capsys, "bounds", "--family", "exp", "--N", N)
    assert code == 2
    assert "invalid input" in err and quantity in err
    assert "Traceback" not in err


def test_bounds_at_dimension_340_exits_0(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--family", "exp", "--N", "340")
    assert code == 0
    assert json.loads(out)["result"]["domain"]["N"] == 340


def test_asymptotics_refuses_a_power_law_weight(capsys):
    code, out, err = run_cli(capsys, "asymptotics", "--family", "exp", "--N", "10",
                             "--lambda", "8", "--alpha", "1")
    assert code == 2
    assert out == ""
    assert "invalid input" in err and "--alpha" in err


def _readme_examples():
    """The argument lists of the README's "Command line" examples."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    return [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
            if line.startswith("pullin ")]


@pytest.mark.parametrize("argv", [a for a in _readme_examples() if a[0] != "verify"],
                         ids=" ".join)
def test_readme_examples_run(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["command"] == argv[0]


@pytest.mark.parametrize("command", ["bounds", "transform"])
def test_tol_is_refused_where_nothing_reads_it(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--tol", "1e-8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_readme_stability_example_keeps_its_eigenvalues(capsys):
    # the reference μ₁ come from an independent method, brentq on the end
    # value ψ(1; μ) of one-sided eigen-shots; both methods deliver
    # 1e-6 * max(1, |μ₁|), and the skipped fills (null) must stay the same
    golden = json.loads((Path(__file__).parent / "data" / "branch_exp_N3_stability.json")
                        .read_text())
    code, out, _ = run_cli(capsys, *golden["argv"])
    assert code == 0
    points = json.loads(out)["result"]["points"]
    assert [p["m"] for p in points] == golden["m"]
    for p, ref in zip(points, golden["mu1"]):
        if ref is None:
            assert p["mu1"] is None
        else:
            assert abs(p["mu1"] - ref) <= 1e-6 * max(1.0, abs(ref)), p["m"]


@pytest.mark.parametrize("argv", [
    ["constants", "--table", "exp", "--N", "nan"],
    ["constants", "--table", "mems", "--N", "nan"],
    ["constants", "--table", "power", "--p", "2", "--N", "nan"],
    ["constants", "--table", "decay", "--N", "2", "--tau", "nan"],
    ["bounds", "--N", "inf"],
    ["branch", "--N", "inf", "--m-points", "5"],
    ["asymptotics", "--N", "inf", "--lambda", "0.5"],
    ["branch", "--family", "mems", "--N", "2", "--tol", "inf", "--m-points", "5"],
    ["branch", "--family", "mems", "--N", "2", "--tol", "2", "--m-points", "5"],
    ["branch", "--family", "mems", "--N", "2", "--tol", "0", "--m-points", "5"],
    ["constants", "--table", "exp", "--N", "0.5"],
    ["constants", "--table", "exp", "--N", "3..x"],
    ["constants", "--table", "exp", "--N", "3..9:-2"],
    ["constants", "--table", "exp", "--N", "3..9:0"],
    ["constants", "--table", "decay", "--N", "2", "--tau", "abc"],
], ids=lambda argv: " ".join(argv))
def test_nan_infinite_and_meaningless_inputs_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "invalid input" in err
    assert "Traceback" not in err
