"""End-to-end runs of the command-line front end, in process via run()."""

import json
import math

import numpy as np
import pytest

import supply_eq.cli as cli
from supply_eq.cli import run
from supply_eq.closedform import eq_sample, make_finite_p_curve, make_p2_quarter_circle
from supply_eq.threshold import ConditionProbe, ThresholdReport


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("SUPPLY_EQ_SEED", raising=False)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_threshold_basis2_example(capsys):
    code, rep = run_json(capsys, ["threshold", "--users", "basis2", "--q", "2"])
    assert code == 0
    assert rep["beta_star_closed"] == 2.0
    assert rep["beta_estimate"] == pytest.approx(2.0, abs=0.15)
    assert rep["run_config"]["subcommand"] == "threshold"
    assert rep["run_config"]["seed"] == 0
    for probe in rep["condition_trace"]:
        assert set(probe) == {"beta", "holds", "lhs_log", "rhs_log"}


def test_profit_p2_example(capsys):
    argv = [
        "profit", "--users", "basis2", "--q", "2", "--beta", "4",
        "--producers", "2", "--variant", "p2",
    ]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["eq_profit"] == 0.5
    assert rep["q_alignment"] == pytest.approx(1 / math.sqrt(2), abs=1e-6)


def test_eq_onepop_cdf_example(capsys):
    argv = [
        "eq", "--variant", "onepop", "--beta", "2", "--producers", "2",
        "--n", "0", "--cdf-grid", "11",
    ]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "quality,cdf"
    assert len(lines) == 12
    assert "0.5,0.25" in lines


def test_output_bytes_deterministic(capsys):
    argv = ["threshold", "--users", "angle:1.2", "--seed", "11"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    assert capsys.readouterr().out == first


def test_env_seed_matches_explicit(capsys, monkeypatch):
    run(["threshold", "--users", "basis2", "--seed", "7"])
    explicit = capsys.readouterr().out
    monkeypatch.setenv("SUPPLY_EQ_SEED", "7")
    run(["threshold", "--users", "basis2"])
    assert capsys.readouterr().out == explicit


def test_bad_env_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SUPPLY_EQ_SEED", "many")
    assert run(["threshold", "--users", "basis2"]) == 2


def test_nsw_report(capsys):
    code, rep = run_json(capsys, ["nsw", "--users", "basis2"])
    assert code == 0
    assert rep["converged"] is True
    root_half = 1 / math.sqrt(2)
    assert rep["direction"] == pytest.approx([root_half, root_half], abs=1e-6)
    assert rep["nsw_value"] == pytest.approx(2 * math.log(root_half), abs=1e-6)


def test_nsw_weighted_cost(capsys):
    code, rep = run_json(capsys, ["nsw", "--users", "basis2", "--alpha", "2,1"])
    assert code == 0
    # Stationarity on the ellipse 4p1^2 + p2^2 = 1 forces p2 = 2p1.
    assert rep["direction"] == pytest.approx(
        [1 / (2 * math.sqrt(2)), 1 / math.sqrt(2)], abs=1e-6
    )
    assert rep["run_config"]["alpha"] == [2.0, 1.0]


def test_out_file_instead_of_stdout(capsys, tmp_path):
    dest = tmp_path / "rep.json"
    assert run(["nsw", "--users", "basis2", "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(dest.read_text())
    assert rep["run_config"]["out"] == str(dest)


def test_eq_samples_csv(capsys):
    argv = ["eq", "--variant", "p2", "--beta", "4", "--n", "5", "--seed", "1"]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "f0,f1"
    assert len(lines) == 6
    radius = (2 / 4.0) ** (1 / 4.0)
    for line in lines[1:]:
        x, y = map(float, line.split(","))
        assert math.hypot(x, y) == pytest.approx(radius, abs=1e-12)


def test_eq_finitep_cdf(capsys):
    argv = ["eq", "--variant", "finitep", "--producers", "3", "--cdf-grid", "5"]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,cdf"
    assert "0.5,0.5" in lines
    assert lines[-1] == "1,1"


def test_eq_infinite_cdf_and_samples(capsys, tmp_path):
    cdf_path = tmp_path / "cdf.csv"
    samp_path = tmp_path / "pts.csv"
    argv = [
        "eq", "--variant", "infinite", "--theta", str(math.pi / 3), "--beta", "7",
        "--cdf-grid", "9", "--n", "20", "--out", str(cdf_path),
        "--samples-out", str(samp_path), "--seed", "2",
    ]
    assert run(argv) == 0
    cdf_lines = cdf_path.read_text().splitlines()
    assert cdf_lines[0] == "quality,cdf"
    assert len(cdf_lines) == 10
    assert float(cdf_lines[-1].split(",")[1]) == 1.0
    pts = samp_path.read_text().splitlines()
    assert pts[0] == "f0,f1"
    assert len(pts) == 21



def test_eq_p2_angle_cdf(capsys):
    assert run(["eq", "--variant", "p2", "--beta", "4", "--cdf-grid", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "angle,cdf"
    assert lines[1] == "0,0"
    assert lines[-1] == "1.5707963267948966,1"

def test_verify_small_run(capsys):
    argv = [
        "verify", "--users", "basis2", "--variant", "p2", "--beta", "4",
        "--samples", "2000", "--grid", "40x40", "--seed", "0",
    ]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["eq_profit"] == 0.5
    assert rep["best_response_gap"] <= 0.1
    assert rep["positive_profit"] is True
    assert rep["run_config"]["grid_angles"] == 40



@pytest.mark.parametrize("variant_args", [
    ["--variant", "onepop", "--beta", "1.5"],
    ["--variant", "finitep", "--producers", "3"],
])
def test_verify_onepop_and_finitep(capsys, variant_args):
    argv = ["verify", "--users", "basis2", *variant_args, "--samples", "2000", "--grid", "40x40"]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["eq_profit"] == 0
    if variant_args[1] == "onepop":
        assert rep["foc_residual_max"] is None


@pytest.mark.parametrize("grid", ["0x10", "10x0"])
def test_exit_usage_empty_verify_grid(capsys, grid):
    argv = ["verify", "--users", "basis2", "--variant", "p2", "--beta", "4",
            "--samples", "1000", "--grid", grid]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "--grid" in err and grid in err


def test_profit_finitep(capsys):
    argv = ["profit", "--users", "basis2", "--variant", "finitep", "--producers", "3"]
    assert run(argv) == 0


@pytest.mark.parametrize("cmd", ["verify", "profit"])
def test_theta_flag_rejected_off_eq(capsys, cmd):
    argv = [cmd, "--users", "basis2", "--variant", "p2", "--beta", "4", "--theta", "0.3"]
    assert run(argv) == 2


def test_bad_angle_preset_is_usage_error(capsys):
    assert run(["threshold", "--users", "angle:2"]) == 2
    assert "theta_star must lie in [0, pi/2]" in capsys.readouterr().err

def test_nmf_end_to_end(capsys, tmp_path):
    a, b = [1.0, 2.0, 3.0], [0.5, 1.0, 2.0]
    body = "user_id,item_id,rating\n" + "".join(
        f"u{i},m{j},{a[i] * b[j]!r}\n" for i in range(3) for j in range(3)
    )
    ratings = tmp_path / "ratings.csv"
    ratings.write_text(body)
    emb = tmp_path / "emb.csv"
    argv = [
        "nmf", "--ratings", str(ratings), "--factors", "1",
        "--epochs", "300", "--seed", "0", "--out", str(emb),
    ]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["n_users"] == 3
    assert rep["n_items"] == 3
    assert rep["final_objective"] < 1e-10
    lines = emb.read_text().splitlines()
    assert lines[0] == "user_id,f0"
    assert len(lines) == 4
    # The embeddings file feeds straight back into the analysis commands.
    assert run(["nsw", "--users", str(emb), "--out", str(tmp_path / "n.json")]) == 0


def _seeded_embeddings(path, n, d):
    users = np.random.default_rng(0).random((n, d))
    lines = ["user_id," + ",".join(f"f{k}" for k in range(d))]
    lines += [f"u{i}," + ",".join(repr(float(v)) for v in row) for i, row in enumerate(users)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_profit_onepop_alignment_certified(capsys, tmp_path):
    # The alignment bracket on 30 uniform users sits far above the
    # threshold 30^(-2/3), so the flag is decided: no exit 4.
    users = _seeded_embeddings(tmp_path / "u.csv", 30, 5)
    argv = ["profit", "--users", users, "--variant", "onepop", "--beta", "3"]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["positive_profit"] is False
    assert rep["q_alignment"] > rep["q_threshold"]


@pytest.mark.parametrize("users, n", [("basis2", 2), ("orthonormal:3", 3)])
def test_profit_q1_alignment_is_one_over_n(capsys, users, n):
    # At q = 1 orthonormal users have Q = 1/N, attained by the uniform p.
    argv = ["profit", "--users", users, "--q", "1", "--beta", "1.5", "--variant", "onepop"]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["positive_profit"] is False
    assert rep["q_alignment"] == pytest.approx(1.0 / n, abs=1e-12)


@pytest.mark.parametrize("q", ["1", "inf"])
def test_nsw_edge_norms_certified(capsys, tmp_path, q):
    users = _seeded_embeddings(tmp_path / "u.csv", 30, 5)
    code, rep = run_json(capsys, ["nsw", "--users", users, "--q", q])
    assert code == 0
    assert rep["converged"] is True
    assert rep["kkt_residual"] <= 1e-11


def test_inf_serialized_as_string(capsys):
    code, rep = run_json(capsys, ["threshold", "--users", "angle:0"])
    assert code == 0
    assert rep["beta_upper"] == "inf"
    assert rep["beta_star_closed"] == "inf"
    assert rep["condition_trace"] == []


def test_exit_usage_on_bogus_subcommand(capsys):
    assert run(["frobnicate"]) == 2


def test_exit_usage_below_threshold_infinite(capsys):
    argv = ["eq", "--variant", "infinite", "--theta", str(math.pi / 3),
            "--beta", "2", "--cdf-grid", "5"]
    assert run(argv) == 2


def test_exit_usage_nothing_to_emit(capsys):
    assert run(["eq", "--variant", "onepop"]) == 2


@pytest.mark.parametrize("counts", [["--n", "-5", "--cdf-grid", "3"],
                                    ["--n", "2", "--cdf-grid", "-4"]])
def test_exit_usage_negative_eq_count(capsys, counts):
    assert run(["eq", "--variant", "onepop", *counts]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ">= 0" in captured.err


def _csv_per_value(head, rows):
    return head + "\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n" for row in rows
    )


@pytest.mark.parametrize("variant_args, make", [
    (["--variant", "p2", "--beta", "4"], lambda: make_p2_quarter_circle(4.0)),
    (["--variant", "finitep", "--producers", "4"], lambda: make_finite_p_curve(4)),
])
def test_eq_table_bytes_match_per_value_format(capsys, tmp_path, variant_args, make):
    # 10,001 sample rows cross two boundaries of the CLI's 4,096-row blocks.
    dist = make()
    xs = np.linspace(0.0, dist.cdf_max, 9)
    cdf = _csv_per_value(f"{dist.cdf_axis},cdf",
                         [(x, dist.cdf_point(float(x))) for x in xs])
    samples = _csv_per_value("f0,f1", eq_sample(dist, 10001, 5))
    argv = ["eq", *variant_args, "--n", "10001", "--cdf-grid", "9", "--seed", "5"]
    assert run(argv) == 0
    assert capsys.readouterr().out == cdf + samples
    cdf_path, samples_path = tmp_path / "cdf.csv", tmp_path / "s.csv"
    assert run([*argv, "--out", str(cdf_path), "--samples-out", str(samples_path)]) == 0
    assert capsys.readouterr().out == ""
    assert cdf_path.read_bytes() == cdf.encode()
    assert samples_path.read_bytes() == samples.encode()


def test_exit_usage_planar_variant_weighted(capsys):
    argv = ["eq", "--variant", "p2", "--q", "3", "--cdf-grid", "5"]
    assert run(argv) == 2


def test_exit_input_on_negative_rating(capsys, tmp_path):
    ratings = tmp_path / "r.csv"
    ratings.write_text("user_id,item_id,rating\nu,m,-1.0\n")
    argv = ["nmf", "--ratings", str(ratings), "--factors", "1",
            "--out", str(tmp_path / "e.csv")]
    assert run(argv) == 3
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("flag, setting", [("--init-scale", "init_scale"), ("--min-entry", "min_entry")])
def test_exit_usage_on_non_finite_nmf_setting(capsys, tmp_path, flag, setting):
    ratings = tmp_path / "r.csv"
    ratings.write_text("user_id,item_id,rating\nu,m,1.0\n")
    out = tmp_path / "e.csv"
    argv = ["nmf", "--ratings", str(ratings), "--factors", "1", flag, "inf", "--out", str(out)]
    assert run(argv) == 2
    assert setting in capsys.readouterr().err
    assert not out.exists()


def test_exit_input_on_missing_users_file(capsys, tmp_path):
    assert run(["nsw", "--users", str(tmp_path / "absent.csv")]) == 3


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out or True


def test_exit_nonconvergence_still_writes_report(capsys, monkeypatch, tmp_path):
    stuck = ThresholdReport(
        beta_star_closed=2.0,
        beta_upper=2.5,
        beta_estimate=None,
        condition_trace=(
            ConditionProbe(beta=2.2, holds=None, lhs_log=-1.0, rhs_log=-1.0),
        ),
    )
    monkeypatch.setattr(cli, "threshold_report", lambda *a, **k: stuck)
    dest = tmp_path / "rep.json"
    assert run(["threshold", "--users", "basis2", "--out", str(dest)]) == 4
    rep = json.loads(dest.read_text())
    assert rep["condition_trace"][0]["holds"] is None
    assert rep["beta_estimate"] is None


def test_render_json_shapes():
    text = cli.render_json(
        {"a": np.array([1.0, math.inf]), "b": None, "c": True, "d": "s", "e": 3}
    )
    rep = json.loads(text)
    assert rep == {"a": [1.0, "inf"], "b": None, "c": True, "d": "s", "e": 3}
