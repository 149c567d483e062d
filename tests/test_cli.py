import csv
import json
import math
import os
import subprocess
import sys
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


def test_branch_command_reads_a_schedule_top_past_its_last_step(capsys):
    # the trajectory's last recorded level falls a few ulps short of this top
    code, out, _ = run_cli(capsys, "branch", "--family", "exp", "--N", "2",
                           "--m-min", "0.5", "--m-max", "0.9802548378789799",
                           "--m-points", "3", "--tol", "1e-6")
    assert code == 0
    assert len(json.loads(out)["result"]["points"]) == 3


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
    # the dimensions come from np.linspace
    code, out, _ = run_cli(capsys, "constants", "--table", "mems", "--N", "2.5..4:7")
    assert code == 0
    entries = json.loads(out)["result"]["entries"]
    assert [e["valid"] for e in entries] == [False, False, True, True, True, True, True]


@pytest.mark.parametrize("spec, dims", [("2.5..4:4", [2.5, 3.0, 3.5, 4.0]),
                                         ("2.5..4", [2.5 + k / 6.0 for k in range(10)])])
def test_constants_csv_over_a_linspace_range(capsys, spec, dims):
    # the flags print as in every other CSV, not as numpy's True/False
    code, out, _ = run_cli(capsys, "constants", "--table", "mems", "--N", spec,
                           "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [float(r["N"]) for r in rows] == pytest.approx(dims, rel=1e-11)
    assert {r["valid"] for r in rows} == {"false", "true"}


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


def test_serialization_of_empty_and_unknown_values():
    assert cli._dumps({}) == "{}"
    assert cli._dumps([]) == "[]"
    assert cli._to_csv([]) == ""
    assert cli._to_csv([{"name": "cube", "n": 3}]) == "name,n\ncube,3\n"
    with pytest.raises(TypeError, match="cannot serialize"):
        cli._dumps(object())


def test_out_onto_a_directory_fails_and_leaves_no_temporary_file(tmp_path, capsys):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        cli.main(["transform", "--out", str(target)])
    assert list(tmp_path.glob(".pullin-*.tmp")) == []


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


@pytest.mark.parametrize("schedule", [
    "--family mems --N 2 --m-min 0.5 --m-max 0.9 --m-points 5",
    "--family exp --N 3 --m-min 2.5 --m-max 40 --m-points 200",
])
def test_branch_warns_when_the_schedule_starts_past_the_fold(capsys, schedule):
    code, out, _ = run_cli(capsys, "branch", *schedule.split())
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["fold_found"] is False
    assert doc["result"]["m_star"] is None
    assert doc["warnings"] == [
        "no fold: λ* is a lower estimate",
        "the schedule starts past the fold: no point is on the stable branch"]


_EXIT_PATHS = [
    # a voltage 2e-15 below the branch's λ* = 15.999999999999998 has its
    # minimal solution; the singular λ* = 16 itself is refused as input
    ("asymptotics --family exp --N 10 --lambda 15.999999999999 --m-points 5", 0,
     '"lambda_star_branch": 16,'),
    ("asymptotics --family exp --N 10 --lambda 16 --m-points 5", 2,
     "voltage 16.0 outside (0, λ* = 16)"),
    ("verify --criteria exp_constant_table", 1, "[FAIL] exp_constant_table"),
    ("branch --alpha -2", 2, "--alpha must be finite and > -2"),
    ("branch --m-points 2", 2, "--m-points must be at least 3"),
    ("branch --m-points -1", 2, "--m-points must be at least 3"),
    ("bounds --family mems --p inf", 2, "--p must be positive and finite"),
    ("branch --family power", 2, "--family power requires --p"),
    ("constants --table power", 2, "--table power requires --p"),
    ("constants --table decay --N 2..3", 2, "takes a single --N value"),
    ("asymptotics", 2, "asymptotics requires --lambda"),
    ("bounds --family power --p 3 --N 3", 0, '"name": "power_supnorm_bound"'),
    ("transform --family mems --N 9", 0, '"alpha_critical": '),
    # the default τ list of the decay table ends at 8
    ("constants --table decay --N 2", 0, '"tau": 8,'),
]


@pytest.mark.parametrize("argv, code, needle",
                         [pytest.param(*case, id=case[0]) for case in _EXIT_PATHS])
def test_each_exit_path(capsys, argv, code, needle):
    got, out, err = run_cli(capsys, *argv.split())
    assert got == code
    assert needle in (err if code else out)
    assert "Traceback" not in err
    if code == 2:
        assert "invalid input" in err
    if code and not argv.startswith("verify"):
        # a refusal or a failed computation: one line on stderr, no other
        assert err.startswith("error: ") and err.count("\n") == 1


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports pullin from ./src."""
    src = Path(__file__).resolve().parents[1] / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}


_SCIPY_CHECK = """
import sys
import pullin
if sys.argv[1:]:
    from pullin.cli import main
    try:
        main(sys.argv[1:])
    except SystemExit:  # --help
        pass
print("scipy" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("argv, loads_scipy", [
    pytest.param("", False, id="import pullin"),
    pytest.param("transform --N 2 --alpha 5", False, id="transform --N 2 --alpha 5"),
    pytest.param("--help", False, id="--help"),
    *(pytest.param(argv, False, id=argv) for argv, code, _ in _EXIT_PATHS if code == 2),
    # the control: a numeric command does load scipy
    pytest.param("bounds --family mems --N 2", True, id="bounds --family mems --N 2"),
])
def test_only_numeric_commands_import_scipy(argv, loads_scipy):
    proc = subprocess.run([sys.executable, "-c", _SCIPY_CHECK, *argv.split()],
                          env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.stderr.splitlines()[-1] == str(loads_scipy)


def test_a_refusal_prints_one_line_from_a_fresh_process():
    # the in-process runs above share the test runner's logging setup; a
    # fresh interpreter shows everything the command writes to stderr
    proc = subprocess.run([sys.executable, "-m", "pullin.cli", "branch", "--m-points", "2"],
                          env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: invalid input: --m-points must be at least 3\n"
