"""End-to-end runs of the command-line front end, in process via run()."""

import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import supply_eq
import supply_eq.cli as cli
import supply_eq.optimize as optimize_mod
import supply_eq.threshold as threshold_mod
from supply_eq.cli import run
from supply_eq.closedform import (
    FinitePCurve,
    InfiniteTwoGenre,
    OnePopulation,
    QuarterCircle,
    eq_sample,
)
from supply_eq.geometry import angle_pair
from supply_eq.optimize import OptResult


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
        assert set(probe) == {"beta", "holds", "excess", "witness", "status"}
        assert probe["status"] == "priced_out" and probe["witness"] is None
    assert "beta" not in rep["run_config"]


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


def test_eq_onepop_default_user_direction_has_unit_cost(capsys):
    # With no --users the lone user sits at e1; its direction costs 1 under
    # --alpha, so the samples are those of the unit-cost ray (1/2, 0).
    argv = ["eq", "--variant", "onepop", "--alpha", "2,1", "--beta", "2", "--n", "50"]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    want = eq_sample(OnePopulation(np.array([0.5, 0.0]), 1, 2.0, 2), 50, 0)
    assert np.array_equal(got, want)


def test_output_bytes_deterministic(capsys):
    argv = ["threshold", "--users", "angle:1.2", "--seed", "11"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("flag", [["--beta", "3"], ["--trials", "5"], ["--hull-points", "9"],
                                  ["--tau", "10"], ["--gap", "0.5"]])
def test_threshold_rejects_removed_flags(capsys, flag):
    # threshold searches beta itself, decides probes without sampling, and
    # fixes its bisection width and tau, which run_config never recorded.
    assert run(["threshold", "--users", "basis2", *flag]) == 2
    assert flag[0] in capsys.readouterr().err


def test_threshold_alpha_keeps_the_basis2_angle(capsys):
    # Weights that scale each user on its own axis leave the right angle, even
    # where the two users differ in scale by 1e600.
    argv = ["threshold", "--users", "basis2", "--alpha", "1e300,1e-300"]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["beta_star_closed"] == 2.0
    assert rep["beta_estimate"] == pytest.approx(2.0, abs=0.15)


@pytest.mark.parametrize("q", ["1", "1.5", "2", "3", "inf"])
def test_threshold_single_user_never_specializes(capsys, tmp_path, q):
    # One user is a homogeneous market, like two identical users.
    one_row = _users_csv(tmp_path / "one.csv", np.array([[0.5, 2.0, 1.0]]))
    for users in ("orthonormal:1", one_row):
        code, rep = run_json(capsys, ["threshold", "--users", users, "--q", q])
        assert code == 0
        assert rep["beta_star_closed"] is None
        assert rep["beta_upper"] == rep["beta_estimate"] == "inf"
        assert rep["condition_trace"] == []


def test_nsw_rejects_beta(capsys):
    # The NSW direction does not depend on the cost exponent.
    assert run(["nsw", "--users", "basis2", "--beta", "3"]) == 2


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
    assert rep["run_config"]["alpha"] == "2,1"


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


def test_eq_infinite_at_large_beta(capsys):
    # c1 * c2^(-beta) overflows a double here; no band constant may need it.
    argv = ["eq", "--variant", "infinite", "--theta", "1.0", "--beta", "5000",
            "--cdf-grid", "3", "--n", "2"]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "quality,cdf" and lines[4] == "f0,f1" and len(lines) == 7
    cdf = np.array([line.split(",") for line in lines[1:4]], dtype=float)
    pts = np.array([line.split(",") for line in lines[5:]], dtype=float)
    assert cdf[0, 1] == 0.0 and cdf[-1, 1] == 1.0 and np.all(np.diff(cdf[:, 1]) >= 0.0)
    # theta_g = 0 here, so one genre lies on the f0 axis: each row is a
    # positive multiple, up to support_max, of one of the two genres.
    dist = InfiniteTwoGenre(angle_pair(1.0), 5000.0)
    dirs = dist.genre_directions()
    assert np.all(np.isfinite(pts))
    for pt in pts:
        t = dirs @ pt
        off = np.linalg.norm(pt - t[:, None] * dirs, axis=1)
        k = int(np.argmin(off))
        assert off[k] <= 1e-12 * t[k] and 0.0 < t[k] <= dist.support_max * (1 + 1e-12)


def test_exit_usage_out_without_cdf_table(capsys, tmp_path):
    out = tmp_path / "f.csv"
    assert run(["eq", "--variant", "p2", "--n", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out" in captured.err
    assert not out.exists()



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
    assert rep["run_config"]["grid"] == "40x40"



@pytest.mark.parametrize("variant_args", [
    ["--variant", "onepop", "--beta", "1.5"],
    ["--variant", "finitep", "--producers", "3"],
])
def test_verify_onepop_and_finitep(capsys, variant_args):
    argv = ["verify", "--users", "basis2", *variant_args, "--samples", "2000", "--grid", "40x40"]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["eq_profit"] == 0
    assert max(map(abs, rep["support_profit_range"])) <= 2e-13


def test_verify_finitep_many_producers_reports_a_continuum(capsys):
    # The P = 300 curve bunches its draws near the two axes; counting genres
    # by clustering 1,000 sampled directions found 18.
    argv = ["verify", "--users", "basis2", "--variant", "finitep", "--producers", "300",
            "--samples", "1000", "--grid", "5x5"]
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert '"genre_count_estimate": "continuum"' in out


@pytest.mark.parametrize("grid", ["0x10", "10x0"])
def test_exit_usage_empty_verify_grid(capsys, grid):
    # The library rejects the grid; the command line passes its message on.
    argv = ["verify", "--users", "basis2", "--variant", "p2", "--beta", "4",
            "--samples", "1000", "--grid", grid]
    assert run(argv) == 2
    message = f"grid needs at least 1 angle and 1 radius, got {tuple(map(int, grid.split('x')))}"
    assert capsys.readouterr().err == f"error: {message}\n"


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


def _users_csv(path, users):
    lines = ["user_id," + ",".join(f"f{k}" for k in range(users.shape[1]))]
    lines += [f"u{i}," + ",".join(repr(float(v)) for v in row) for i, row in enumerate(users)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _seeded_embeddings(path, n, d):
    return _users_csv(path, np.random.default_rng(0).random((n, d)))


def _report_leaves(report, path=""):
    """(path, value) for every leaf of a JSON report but its run_config."""
    if isinstance(report, dict):
        for key, val in report.items():
            if key != "run_config":
                yield from _report_leaves(val, f"{path}.{key}")
    elif isinstance(report, list):
        for i, val in enumerate(report):
            yield from _report_leaves(val, f"{path}[{i}]")
    else:
        yield path, report


@pytest.mark.parametrize("argv", [
    ["threshold"],
    ["profit", "--variant", "onepop", "--beta", "3"],
    ["verify", "--variant", "onepop", "--beta", "3", "--grid", "20x20"],
], ids=["threshold", "profit", "verify"])
@pytest.mark.parametrize("q", ["1.5", "2", "3"])
def test_extreme_common_scale_gives_the_same_answers(capsys, tmp_path, argv, q):
    # Scaling every user by one c > 0 leaves the game unchanged: each report
    # agrees with scale 1 to 1e-10 relative (1e-12 absolute where the value
    # is rounding, such as a gap at an equilibrium, which prints as 0 where
    # it rounds to it), and a threshold probe's excess, a sum near N less N,
    # to its rounding bound delta N.  No sum of powers may under- or overflow
    # on the way, and no RuntimeWarning is raised.
    users = np.random.default_rng(3).random((10, 3))
    reports = {}
    for scale in (1.0, 1e100, 1e-100, 1e150, 1e-150, 1e-300):
        rows = [f"u{i}," + ",".join(repr(float(v)) for v in row)
                for i, row in enumerate(users * scale)]
        path = tmp_path / "users.csv"
        path.write_text("user_id,f0,f1,f2\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, rep = run_json(capsys, [*argv, "--users", str(path), "--q", q])
        assert code == 0, scale
        reports[scale] = dict(_report_leaves(rep))
    want = reports.pop(1.0)
    for scale, got in reports.items():
        assert got.keys() == want.keys()
        for key, val in got.items():
            if key.endswith(".excess"):
                assert val == pytest.approx(want[key], abs=_DELTA * len(users)), (scale, key)
            elif _is_number(val):
                assert val == pytest.approx(want[key], rel=1e-10, abs=1e-12), (scale, key)
            else:
                assert val == want[key], (scale, key)


_DELTA = threshold_mod._DELTA


def _is_number(val):
    # A float that rounds to an integer prints as one, such as a gap of 0.
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _assert_same_numbers(got, want, n_users):
    """Every leaf of got equals want's, a number within 1e-9 relative, or
    within 1e-13 where both are at rounding level (below 1e-12 * N); a
    threshold probe's excess, a sum near N less N, within delta N."""
    assert got.keys() == want.keys()
    for key, val in got.items():
        if key.endswith(".excess"):
            assert abs(val - want[key]) <= _DELTA * n_users, key
        elif _is_number(val) and max(abs(val), abs(want[key])) < 1e-12 * n_users:
            assert abs(val - want[key]) <= 1e-13, key
        elif _is_number(val):
            assert val == pytest.approx(want[key], rel=1e-9, abs=0), key
        else:
            assert val == want[key], key


_GAUGE = (0.5, 1.0, 2.0, 1.0, 3.0)


@pytest.mark.parametrize("q", ["1", "1.5", "2", "3", "inf"])
def test_every_number_is_the_same_in_a_feature_gauge(capsys, tmp_path, q):
    # Users scaled by d feature by feature under --alpha d are the same game,
    # so every printed number agrees with the unweighted run on the original
    # users; content (direction, gap_argmax, a probe's witness) is printed
    # divided by d.
    users = np.random.default_rng(0).random((30, 5))
    plain = _users_csv(tmp_path / "plain.csv", users)
    gauge = _users_csv(tmp_path / "gauge.csv", users * np.array(_GAUGE))
    alpha = ",".join(map(str, _GAUGE))
    for argv in (["nsw"], ["threshold"], ["profit", "--variant", "onepop", "--beta", "12"],
                 *(["verify", "--variant", "onepop", "--beta", beta, "--samples", "1000",
                    "--grid", "40x40"] for beta in ("3", "12"))):
        code, want = run_json(capsys, [*argv, "--users", plain, "--q", q])
        assert code == 0
        code, got = run_json(capsys, [*argv, "--users", gauge, "--q", q, "--alpha", alpha])
        assert code == 0
        for key in ("direction", "gap_argmax"):
            if key in got:
                got[key] = (np.array(got[key]) * _GAUGE).tolist()
        for probe in got.get("condition_trace", []):
            if probe["witness"] is not None:
                probe["witness"] = (np.array(probe["witness"]) * _GAUGE).tolist()
        _assert_same_numbers(dict(_report_leaves(got)), dict(_report_leaves(want)), 30)


def test_per_user_scale_changes_only_the_summed_logs(capsys, tmp_path):
    # Scaling user i by c_i > 0 leaves the game unchanged: only nsw_value, a
    # summed log, moves by sum log c_i.  A threshold probe reads only the
    # ratios <p, u_i>/a_i, so the whole trace stays.
    users = np.random.default_rng(0).random((30, 5))
    c = np.random.default_rng(1).random(30) * 10.0 + 0.1
    shift = float(np.log(c).sum())
    plain = _users_csv(tmp_path / "plain.csv", users)
    scaled = _users_csv(tmp_path / "scaled.csv", users * c[:, None])
    reports = {}
    for name, argv in {"threshold": ["threshold"], "nsw": ["nsw"],
                       "verify": ["verify", "--variant", "onepop", "--beta", "12",
                                  "--samples", "1000", "--grid", "40x40"]}.items():
        for src in (plain, scaled):
            code, rep = run_json(capsys, [*argv, "--users", src])
            assert code == 0
            reports[name, src] = rep
    want, got = reports["threshold", plain], reports["threshold", scaled]
    assert got["beta_estimate"] == want["beta_estimate"]
    assert any(p["witness"] for p in got["condition_trace"])
    _assert_same_numbers(dict(_report_leaves(got)), dict(_report_leaves(want)), 30)
    want, got = reports["nsw", plain], reports["nsw", scaled]
    assert got["nsw_value"] - shift == pytest.approx(want["nsw_value"], rel=1e-12)
    want, got = reports["verify", plain], reports["verify", scaled]
    assert want["best_response_gap"] > 0.5
    for key in ("q_alignment", "best_response_gap"):
        assert got[key] == pytest.approx(want[key], rel=1e-12)


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


@pytest.mark.parametrize("argv, option", [
    (["--variant", "infinite", "--users", "basis2", "--theta", "0.3", "--beta", "8"], "--theta"),
    (["--variant", "onepop", "--beta", "2", "--theta", "0.3"], "--theta"),
    (["--variant", "p2", "--beta", "4", "--n-users", "7"], "--n-users"),
    (["--variant", "infinite", "--theta", "1", "--beta", "8", "--producers", "5"], "--producers"),
    (["--variant", "p2", "--beta", "4", "--samples-out", "x.csv"], "--samples-out"),
    (["--variant", "onepop", "--alpha", "1,1,1"], "--alpha gives 3 weights, but the users "
     "have dimension 2"),
    # The population size would not be the users' own count.
    (["--variant", "onepop", "--users", "orthonormal:3", "--n-users", "5"],
     "--n-users and --users both give the users; pass one of them"),
])
def test_exit_usage_eq_option_the_variant_ignores(capsys, argv, option):
    assert run(["eq", *argv, "--cdf-grid", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert option in captured.err


@pytest.mark.parametrize("argv", [
    ["nsw", "--users", "basis2", "--alpha", "1,1,1"],
    ["threshold", "--users", "orthonormal:3", "--alpha", "1,2"],
    ["profit", "--users", "basis2", "--variant", "onepop", "--alpha", "2"],
    ["verify", "--users", "basis2", "--variant", "onepop", "--alpha", "1,1,1",
     "--samples", "1000", "--grid", "5x5"],
])
def test_exit_usage_alpha_length_differs_from_users_dimension(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    given = len(argv[argv.index("--alpha") + 1].split(","))
    dim = 3 if "orthonormal:3" in argv else 2
    assert f"--alpha gives {given} weights, but the users have dimension {dim}" in captured.err


@pytest.mark.parametrize("alpha, message", [
    ("1,0", "alpha must be strictly positive"),
    ("1,-2", "alpha must be strictly positive"),
    ("1,nan", "alpha has non-finite entries"),
    ("inf,1", "alpha has non-finite entries"),
])
def test_exit_usage_alpha_not_finite_and_positive(capsys, alpha, message):
    assert run(["nsw", "--users", "basis2", "--alpha", alpha]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("rows, alpha, message", [
    ("1,0\n0,1", "1e-310,1", "users / --alpha overflows the double range"),
    ("1e-100,0\n0,1", "1e300,1", "users / --alpha underflows user rows [0] to zero"),
], ids=["overflow", "underflow"])
def test_exit_usage_alpha_takes_the_users_out_of_range(capsys, tmp_path, rows, alpha, message):
    # The users are divided by the weights; a quotient that leaves the double
    # range is the weights' fault, and numpy warns of nothing.
    path = tmp_path / "users.csv"
    lines = [f"u{i},{row}" for i, row in enumerate(rows.split("\n"))]
    path.write_text("user_id,f0,f1\n" + "\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["nsw", "--users", str(path), "--alpha", alpha]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_exit_input_on_linalg_error(capsys, tmp_path, monkeypatch):
    # numpy's LinAlgError is a ValueError, but it reports a failed routine on
    # the data, not a bad flag.
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr("supply_eq.optimize.np.linalg.lstsq", fail)
    users = _seeded_embeddings(tmp_path / "u.csv", 30, 5)
    assert run(["profit", "--users", users, "--variant", "onepop"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: LinAlgError: SVD did not converge in Linear Least "
                            "Squares\n")


def test_exit_input_on_numerical_error(capsys, tmp_path, monkeypatch):
    # A non-finite intermediate on valid input is a ValueError too, but it
    # reports the numbers' failure, not a bad flag.  At q = 1 the threshold's
    # anchor is the simplex program's.
    real = optimize_mod.simplex_logsum_max
    monkeypatch.setattr(optimize_mod, "simplex_logsum_max",
                        lambda Y, **kw: real(np.full_like(Y, np.inf), **kw))
    users = _seeded_embeddings(tmp_path / "u.csv", 30, 5)
    assert run(["threshold", "--users", users, "--q", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: NumericalError: Y must be nonnegative and finite\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--users", "basis2", "--variant", "p2", "--beta", "4", "--grid", "2x2",
     "--samples", str(10**15)],
    ["eq", "--variant", "p2", "--n", str(10**15)],
], ids=["verify", "eq"])
def test_exit_input_on_memory_error(capsys, argv):
    # 10**15 doubles are more than numpy will allocate, so it refuses at once.
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: MemoryError: Unable to allocate ")
    assert captured.err.count("\n") == 1


def _edge_sweep(tmp_path, q):
    """The argv of every edge user set at q, without and with --alpha, through
    nsw, threshold, profit onepop and verify onepop."""
    seeded = np.random.default_rng(0).random((10, 3))
    sets = {
        "near_parallel_2": [[math.cos(0.4), math.sin(0.4)],
                            [math.cos(0.4 + 1e-9), math.sin(0.4 + 1e-9)]],
        "near_parallel_3": [[1.0, 0.5, 0.25], [1.0, 0.5 + 1e-9, 0.25 - 1e-9]],
        "axis": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.5]],
        # Ascents start at the axes, and their points keep zero coordinates
        # on faces of the orthant.
        "faces": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
        "duplicated_axis": [[1.0, 0.0], [1.0, 0.0]],
        "sparse": [[1.0, 0.0, 0.0, 2.0], [0.0, 3.0, 0.0, 0.0], [0.0, 0.5, 1.0, 0.0],
                   [0.0, 0.0, 4.0, 0.0]],
        "scaled_1e150": seeded * 1e150,
        "scaled_1e-150": seeded * 1e-150,
        "scaled_1e-300": seeded * 1e-300,
    }
    commands = [["nsw"], ["threshold"], ["profit", "--variant", "onepop", "--beta", "3"],
                ["verify", "--variant", "onepop", "--beta", "3", "--samples", "1000",
                 "--grid", "20x20"]]
    out = []
    for name, rows in sets.items():
        rows = np.array(rows)
        src = _users_csv(tmp_path / f"{name}.csv", rows)
        alpha = ",".join(map(str, (0.5, 2.0, 1.5, 3.0)[:rows.shape[1]]))
        for cmd in commands:
            out += [[*cmd, "--users", src, "--q", q], [*cmd, "--users", src, "--q", q,
                                                      "--alpha", alpha]]
    return out


def _run_quietly(argvs):
    """The stdout of each argv, run in one child process where every run must
    exit 0 with no RuntimeWarning (an error there) and nothing on stderr.  A
    LAPACK routine that rejects its input prints to file descriptor 2, past
    Python's sys.stderr, so the runs need a process of their own."""
    code = ("import contextlib, io, json, sys\n"
            "from supply_eq.cli import run\n"
            "outs = []\n"
            "for argv in json.load(sys.stdin):\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        assert run(argv) == 0, argv\n"
            "    outs.append(out.getvalue())\n"
            "json.dump(outs, sys.stdout)\n")
    src = str(pathlib.Path(supply_eq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          input=json.dumps(argvs), env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout)


@pytest.mark.parametrize("q", ["1", "1.5", "2", "3", "inf"])
def test_edge_inputs_exit_zero_quietly(tmp_path, q):
    _run_quietly(_edge_sweep(tmp_path, q))


def _csv_row(line):
    try:
        return [float(v) for v in line.split(",")]
    except ValueError:  # a header line
        return line


def _answers(out):
    """A report without its run_config, or a CSV's rows of floats."""
    assert "nan" not in out
    if out.startswith("{"):
        report = json.loads(out)
        del report["run_config"]
        return report
    return [_csv_row(line) for line in out.splitlines()]


def _assert_same_answers(got, ref):
    if isinstance(ref, dict):
        assert got.keys() == ref.keys()
        for key in ref:
            _assert_same_answers(got[key], ref[key])
    elif isinstance(ref, list):
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            _assert_same_answers(g, r)
    elif isinstance(ref, float) or isinstance(got, float):
        # The verify gaps are rounding zeros of size 1e-16.
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-14)
    else:
        assert got == ref


def test_two_user_scales_give_one_answer(tmp_path):
    # A common scale of the users is the same game, so every planar variant
    # and threshold give the answers of scale 1, quietly, from 1e-300 to 1e300.
    pairs = {
        "orthogonal": ([[1.0, 0.0], [0.0, 1.0]], [
            ["threshold"],
            ["eq", "--variant", "p2", "--beta", "4", "--cdf-grid", "5", "--n", "5"],
            ["eq", "--variant", "finitep", "--producers", "3", "--cdf-grid", "5", "--n", "5"],
            ["eq", "--variant", "infinite", "--beta", "8", "--cdf-grid", "5", "--n", "5"],
            ["verify", "--variant", "p2", "--beta", "4", "--grid", "20x20", "--samples", "1000"],
            ["verify", "--variant", "finitep", "--producers", "3", "--grid", "20x20",
             "--samples", "1000"],
            ["profit", "--variant", "p2", "--beta", "4"]]),
        "sixty": ([[1.0, 0.0], [1.0, math.sqrt(3.0)]], [
            ["threshold"],
            ["eq", "--variant", "infinite", "--beta", "8", "--cdf-grid", "5", "--n", "5"]]),
    }
    scales = (1.0, 1e-300, 1e-200, 1e-150, 1e150, 1e200, 1e300)
    argvs = [[*cmd, "--users", _users_csv(tmp_path / f"{name}_{s:g}.csv", np.array(rows) * s)]
             for name, (rows, cmds) in pairs.items() for cmd in cmds for s in scales]
    answers = [_answers(out) for out in _run_quietly(argvs)]
    for start in range(0, len(argvs), len(scales)):
        ref = answers[start]
        for k in range(1, len(scales)):
            _assert_same_answers(answers[start + k], ref)


def test_exit_usage_nothing_to_emit(capsys):
    assert run(["eq", "--variant", "onepop"]) == 2


@pytest.mark.parametrize("counts", [["--n", "-5", "--cdf-grid", "3"],
                                    ["--n", "2", "--cdf-grid", "-4"],
                                    ["--n-users", "0", "--cdf-grid", "3"]])
def test_exit_usage_negative_eq_count(capsys, counts):
    assert run(["eq", "--variant", "onepop", *counts]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # A population counts users, so its floor is 1.
    assert ("n_users must be >= 1" if "--n-users" in counts else ">= 0") in captured.err


def _csv_per_value(head, rows):
    return head + "\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n" for row in rows
    )


@pytest.mark.parametrize("variant_args, make", [
    (["--variant", "p2", "--beta", "4"], lambda: QuarterCircle(4.0)),
    (["--variant", "finitep", "--producers", "4"], lambda: FinitePCurve(4)),
])
def test_eq_table_bytes_match_per_value_format(capsys, tmp_path, variant_args, make):
    # 10,001 sample rows cross two boundaries of the CLI's 4,096-row blocks.
    dist = make()
    xs = np.linspace(0.0, dist.cdf_max, 9)
    cdf = _csv_per_value(f"{dist.cdf_axis},cdf", zip(xs, dist.cdf(xs)))
    samples = _csv_per_value("f0,f1", eq_sample(dist, 10001, 5))
    argv = ["eq", *variant_args, "--n", "10001", "--cdf-grid", "9", "--seed", "5"]
    assert run(argv) == 0
    assert capsys.readouterr().out == cdf + samples
    cdf_path, samples_path = tmp_path / "cdf.csv", tmp_path / "s.csv"
    assert run([*argv, "--out", str(cdf_path), "--samples-out", str(samples_path)]) == 0
    assert capsys.readouterr().out == ""
    assert cdf_path.read_bytes() == cdf.encode()
    assert samples_path.read_bytes() == samples.encode()


def _percent_per_row(head, table):
    return head + "\n" + "".join(
        ",".join(["%.17g"] * len(row)) % tuple(row) + "\n" for row in table.tolist()
    )


def _g17_ties(rng, s, count):
    """Exact 17-digit ties at decimal exponent 16 - s: x = q / 2**(s+1) with q
    odd has x * 10**s = q * 5**s / 2, an 18-digit expansion ending in 5."""
    lo, hi = -(-2 * 10**16 // 5**s), min(2 * 10**17 // 5**s, 2**53)
    q = rng.integers(lo, hi, count) | 1
    return np.ldexp(q[q < hi].astype(float), -(s + 1))


def _g17_domain_pool():
    """Values inside the vectorised kernel's domain that stress its rounding."""
    rng = np.random.default_rng(8)
    ties = [_g17_ties(rng, s, 3000) for s in range(1, 23)]
    # The doubles next to each power of ten; some round up to it.
    near = []
    for k in range(-99, 18):
        for toward in (0.0, np.inf):
            x = float(f"1e{k}")
            for _ in range(20):
                near.append(x)
                x = np.nextafter(x, toward)
    pool = np.concatenate([
        *ties, near,
        [9.9999999999999995e-05, 0.99999999999999994, 1e16, 1e17 - 16, 0.0, -0.0, 1e-99],
        np.exp(rng.uniform(np.log(1e-99), np.log(1e17), 20000)),
        rng.integers(0, 10**6, 2000).astype(float),
    ])
    pool = pool[(pool == 0) | ((np.abs(pool) >= 1e-99) & (np.abs(pool) < 1e17))]
    pool[rng.random(len(pool)) < 0.3] *= -1
    pool[rng.random(len(pool)) < 0.02] = 0.0
    pool[rng.random(len(pool)) < 0.02] = -0.0
    return rng.permutation(pool)


# Outside the kernel's domain: '%.17g' prints these with a three-digit or a
# positive exponent, or as inf/nan.
_G17_OUTSIDE = [np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308,
                9.9999999999999982e-100, 1e17, -1e300]


def _count_fallbacks(monkeypatch):
    calls = []
    fallback = cli._percent_rows
    monkeypatch.setattr(cli, "_percent_rows", lambda block: calls.append(1) or fallback(block))
    return calls


@pytest.mark.parametrize("rows", [4095, 4096, 4097])
@pytest.mark.parametrize("ncols", [1, 2, 3, 8])
def test_write_rows_bitwise_matches_percent_format(capsys, monkeypatch, ncols, rows):
    pool = _g17_domain_pool()
    table = np.resize(np.roll(pool, 7919 * ncols * rows), (rows, ncols))
    if rows > cli._ROW_BLOCK:
        # The first block falls back; the one-row second block does not.
        table[0] = _G17_OUTSIDE[:ncols]
    fallbacks = _count_fallbacks(monkeypatch)
    cli._write_rows("h", table, None)
    assert capsys.readouterr().out == _percent_per_row("h", table)
    assert len(fallbacks) == (rows > cli._ROW_BLOCK)


def test_write_rows_bitwise_log_uniform(capsys, monkeypatch):
    rng = np.random.default_rng(9)
    values = np.exp(rng.uniform(np.log(1e-9), np.log(1e17), 10**6))
    values[rng.random(len(values)) < 0.5] *= -1
    table = values.reshape(-1, 2)
    fallbacks = _count_fallbacks(monkeypatch)
    cli._write_rows("a,b", table, None)
    assert capsys.readouterr().out == _percent_per_row("a,b", table)
    assert fallbacks == []


def test_write_rows_bitwise_inexact_ties_fall_back(capsys, monkeypatch):
    # Ties at decimal exponents -7 and -8, where 5**s is no longer a double
    # and the kernel cannot tell them from near ties.
    rng = np.random.default_rng(10)
    table = np.concatenate([_g17_ties(rng, s, 20) for s in (23, 24)]).reshape(-1, 1)
    fallbacks = _count_fallbacks(monkeypatch)
    cli._write_rows("t", table, None)
    assert capsys.readouterr().out == _percent_per_row("t", table)
    assert len(fallbacks) == 1


def _one_lane_rows(head, table):
    """_write_rows's text as one lane writes it: each block in order."""
    out = [head + "\n"]
    for start in range(0, len(table), cli._ROW_BLOCK):
        block = table[start:start + cli._ROW_BLOCK]
        text = cli._g17().rows(block)
        out.append(cli._percent_rows(block) if text is None else text)
    return "".join(out)


@pytest.mark.parametrize("blocks", [0, 1, 2, 3, 5])
def test_write_rows_two_lanes_match_one_lane_bitwise(capsys, monkeypatch, blocks):
    # Blocks 1 and 3 are rendered on the worker lane, and block 1 holds an
    # inf, so the worker falls back to the % operation.  One worker serves
    # every pair of a call, and a table of one block starts none.
    rows = 0 if blocks == 0 else (blocks - 1) * cli._ROW_BLOCK + 17
    table = np.random.default_rng(blocks).standard_normal((rows, 3))
    if blocks >= 2:
        table[cli._ROW_BLOCK + 5, 1] = np.inf
    fallbacks = []
    percent_rows = cli._percent_rows

    def spy(block):
        fallbacks.append(threading.current_thread() is threading.main_thread())
        return percent_rows(block)

    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    monkeypatch.setattr(cli, "_percent_rows", spy)
    threads = threading.active_count()
    cli._write_rows("a,b,c", table, None)
    assert threading.active_count() == threads
    monkeypatch.undo()
    assert capsys.readouterr().out == _one_lane_rows("a,b,c", table)
    assert fallbacks == [False] * (blocks >= 2)
    assert len(started) == (blocks >= 2)


@pytest.mark.parametrize("lane", ["this", "worker"])
def test_write_rows_lane_exception_propagates_and_the_worker_is_joined(monkeypatch, tmp_path,
                                                                       lane):
    g17_rows = cli._G17.rows

    def failing(self, block):
        if (threading.current_thread() is threading.main_thread()) == (lane == "this"):
            raise FloatingPointError(f"rendering failed on the {lane} lane")
        return g17_rows(self, block)

    monkeypatch.setattr(cli._G17, "rows", failing)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match=f"rendering failed on the {lane} lane"):
        cli._write_rows("a", np.ones((3 * cli._ROW_BLOCK, 1)), str(tmp_path / "t.csv"))
    assert threading.active_count() == threads


def test_write_rows_lanes_keep_their_bytes_under_a_short_switch_interval(monkeypatch, tmp_path):
    # Three tables written at once, each call with its worker lane, so six
    # threads switch every microsecond; a block written out of order, or
    # rendered from the wrong rows, would change a file.
    monkeypatch.setattr(cli, "_ROW_BLOCK", 64)
    rng = np.random.default_rng(4)
    tables = [rng.standard_normal((rows, 2)) for rows in (1000, 777, 513)]
    tables[1][100, 0] = np.nan  # a fallback block on the worker lane
    want = [_one_lane_rows("x,y", t) for t in tables]
    paths = [str(tmp_path / f"t{i}.csv") for i in range(len(tables))]
    workers = [threading.Thread(target=cli._write_rows, args=("x,y", t, path))
               for t, path in zip(tables, paths)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert [pathlib.Path(p).read_text() for p in paths] == want


def test_zero_columns_never_fall_back(capsys, monkeypatch):
    def no_fallback(block):
        raise AssertionError("a block of zeros fell back to the % operation")

    monkeypatch.setattr(cli, "_percent_rows", no_fallback)
    # onepop samples: a column of exact zeros next to the quality column.
    assert run(["eq", "--variant", "onepop", "--n", "5000", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "f0,f1" and len(lines) == 5001
    assert {line.split(",")[1] for line in lines[1:]} == {"0"}
    zeros = np.zeros((cli._ROW_BLOCK + 3, 3))
    zeros[::2, 1] = -0.0
    cli._write_rows("a,b,c", zeros, None)
    assert capsys.readouterr().out == _percent_per_row("a,b,c", zeros)


@pytest.mark.parametrize("samples_out", ["t.csv", "./t.csv", "link.csv"])
def test_exit_usage_same_out_and_samples_out(capsys, tmp_path, monkeypatch, samples_out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.csv").symlink_to(tmp_path / "t.csv")
    argv = ["eq", "--variant", "p2", "--n", "10", "--cdf-grid", "5",
            "--out", "t.csv", "--samples-out", samples_out]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out" in captured.err and "--samples-out" in captured.err
    assert not (tmp_path / "t.csv").exists()


def test_exit_usage_planar_variant_weighted(capsys):
    argv = ["eq", "--variant", "p2", "--q", "3", "--cdf-grid", "5"]
    assert run(argv) == 2


@pytest.mark.parametrize("argv, message", [
    (["eq", "--variant", "infinite", "--beta", "8", "--cdf-grid", "2"],
     "the infinite variant needs --users or --theta"),
    (["profit", "--users", "basis2", "--variant", "p2", "--beta", "4", "--producers", "3"],
     "the p2 variant fixes producers = 2"),
    (["profit", "--users", "basis2", "--variant", "finitep", "--beta", "3"],
     "the finitep variant fixes beta = 2"),
    (["verify", "--users", "basis2", "--variant", "p2", "--beta", "4", "--grid", "20"],
     "grid must look like 200x200, got '20'"),
    (["verify", "--users", "basis2", "--variant", "p2", "--beta", "4", "--grid", "0x5"],
     "grid needs at least 1 angle and 1 radius, got (0, 5)"),
    (["eq", "--variant", "p2", "--alpha", "1,2", "--cdf-grid", "3"],
     "planar variants are defined for q = 2 with unit weights"),
    (["eq", "--variant", "finitep", "--q", "3", "--cdf-grid", "3"],
     "planar variants are defined for q = 2 with unit weights"),
])
def test_exit_usage_planar_variant_rules(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["nsw", "--users", "angle:abc"], "--users angle:<theta> needs a number, got 'angle:abc'"),
    (["nsw", "--users", "orthonormal:x"],
     "--users orthonormal:<N> needs an integer, got 'orthonormal:x'"),
    (["nsw", "--users", "basis2", "--alpha", "1,,2"],
     "--alpha must be comma-separated numbers, got '1,,2'"),
    (["verify", "--users", "basis2", "--variant", "p2", "--grid", "1e3x5"],
     "grid must look like 200x200, got '1e3x5'"),
])
def test_exit_usage_names_the_flag_of_a_number_that_does_not_parse(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("users, message", [
    ("angle:5", "theta_star must lie in [0, pi/2]"),
    ("orthonormal:0", "need n >= 1"),
])
def test_exit_usage_names_the_flag_of_a_preset_the_library_refuses(capsys, users, message):
    # The library validates the number; the command line adds the flag and
    # the text it was given.
    assert run(["nsw", "--users", users]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --users {users!r}: {message}\n"


def test_planar_variants_take_two_users_from_a_file(capsys, tmp_path):
    # The library's families count the users; the command line passes them on.
    three = _users_csv(tmp_path / "three.csv", np.eye(3))
    for variant in ("p2", "finitep", "infinite"):
        assert run(["eq", "--variant", variant, "--users", three, "--beta", "2",
                    "--cdf-grid", "3"]) == 2
        assert capsys.readouterr().err == "error: the planar families take exactly two users\n"
    pair = _users_csv(tmp_path / "pair.csv", np.array([[0.6, 0, 0.8, 0], [0, 1.5, 0, 0]]))
    code, rep = run_json(capsys, ["verify", "--users", pair, "--variant", "p2", "--beta", "4",
                                  "--samples", "1000", "--grid", "20x20"])
    assert code == 0
    assert rep["eq_profit"] == 0.5
    assert rep["best_response_gap"] <= 1e-12
    assert np.abs(rep["support_profit_range"]).max() <= 1e-12


def test_eq_infinite_on_near_parallel_users(capsys, tmp_path):
    # theta* = 5.0e-5, so beta* = 2 / (1 - cos theta*) = 1.6e9.  A RuntimeWarning
    # fails the test.
    near = _users_csv(tmp_path / "near.csv", np.array([[1.0, 1.0, 0.3], [1.0, 1.0001, 0.3]]))
    argv = ["eq", "--variant", "infinite", "--users", near, "--beta", "2e9", "--cdf-grid", "3",
            "--n", "2"]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == "quality,cdf" and lines[3].endswith(",1") and lines[4] == "f0,f1,f2"
    pts = np.array([line.split(",") for line in lines[5:]], dtype=float)
    assert pts.shape == (2, 3) and np.all(pts > 0)


def test_exit_input_on_negative_rating(capsys, tmp_path):
    ratings = tmp_path / "r.csv"
    ratings.write_text("user_id,item_id,rating\nu,m,-1.0\n")
    argv = ["nmf", "--ratings", str(ratings), "--factors", "1",
            "--out", str(tmp_path / "e.csv")]
    assert run(argv) == 3
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--init-scale", "0.2"), ("--min-entry", "1e-3")],
                         ids=["--init-scale", "--min-entry"])
def test_nmf_rejects_removed_flags(capsys, tmp_path, flag, value):
    # The init scale and floor are fixed; run_config never recorded them.
    ratings = tmp_path / "r.csv"
    ratings.write_text("user_id,item_id,rating\nu,m,1.0\n")
    out = tmp_path / "e.csv"
    argv = ["nmf", "--ratings", str(ratings), "--factors", "1", flag, value, "--out", str(out)]
    assert run(argv) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


# For each option of a JSON-writing subcommand: a value other than its
# default, the run_config keys it must appear under, and the values there.
_OPTION_CASES = {
    "--users": ("angle:1.2", {"users": "angle:1.2"}),
    "--q": ("3", {"q": 3.0}),
    "--alpha": ("1,2", {"alpha": "1,2"}),
    "--seed": ("5", {"seed": 5}),
    "--variant": ("p2", {"variant": "p2"}),
    "--beta": ("3", {"beta": 3.0}),
    "--producers": ("3", {"producers": 3}),
    "--samples": ("1500", {"samples": 1500}),
    "--grid": ("6x7", {"grid": "6x7"}),
    "--factors": ("3", {"factors": 3}),
    "--epochs": ("7", {"epochs": 7}),
}
_JSON_BASE = {
    "nsw": {"--users": "basis2"},
    "threshold": {"--users": "basis2"},
    "verify": {"--users": "basis2", "--variant": "onepop", "--samples": "1000", "--grid": "5x5"},
    "profit": {"--users": "basis2", "--variant": "onepop"},
    "nmf": {"--factors": "2", "--epochs": "5"},
}


def _subparsers():
    return next(a for a in cli._build_parser()._actions if a.dest == "cmd").choices


def _json_options():
    subs = _subparsers()
    return [(cmd, opt) for cmd in _JSON_BASE for action in subs[cmd]._actions
            for opt in action.option_strings if opt.startswith("--") and opt != "--help"]


@pytest.mark.parametrize("cmd, option", _json_options(), ids=lambda v: v)
def test_every_json_option_is_recorded_in_run_config(capsys, tmp_path, cmd, option):
    # The argv alone fixes the output, so every option a report depends on
    # must show in its run_config.
    ratings = tmp_path / "r.csv"
    ratings.write_text("user_id,item_id,rating\n" + "\n".join(
        f"u{u},i{i},{1 + (u + 2 * i) % 5}" for u in range(6) for i in range(4)) + "\n")
    out = tmp_path / "out"
    cases = {**_OPTION_CASES, "--ratings": (str(ratings), {"ratings": str(ratings)}),
             "--out": (str(out), {"out": str(out)})}
    args = dict(_JSON_BASE[cmd])
    if cmd == "nmf":  # --out names the embeddings CSV; the report goes to stdout
        args.update({"--ratings": str(ratings), "--out": str(out)})
    assert option in cases, f"{cmd} {option} has no run_config key"
    value, expected = cases[option]
    args[option] = value
    assert run([cmd, *[tok for kv in args.items() for tok in kv]]) == 0
    text = capsys.readouterr().out
    rc = json.loads(out.read_text() if option == "--out" and cmd != "nmf" else text)["run_config"]
    assert {key: rc[key] for key in expected} == expected


@pytest.mark.parametrize("cmd", list(_JSON_BASE))
def test_run_config_lists_exactly_the_subcommands_options(capsys, tmp_path, cmd):
    # No key for an option the subcommand does not have, and none missing.
    dests = {a.dest for a in _subparsers()[cmd]._actions if a.dest != "help"}
    args = dict(_JSON_BASE[cmd])
    if cmd == "nmf":
        ratings = tmp_path / "r.csv"
        ratings.write_text("user_id,item_id,rating\nu0,i0,1\nu0,i1,2\nu1,i0,3\nu1,i1,1\n")
        args.update({"--ratings": str(ratings), "--out": str(tmp_path / "e.csv")})
    assert run([cmd, *[tok for kv in args.items() for tok in kv]]) == 0
    rc = json.loads(capsys.readouterr().out)["run_config"]
    assert rc["subcommand"] == cmd
    assert set(rc) == {"subcommand"} | dests


def test_exit_input_on_missing_users_file(capsys, tmp_path):
    assert run(["nsw", "--users", str(tmp_path / "absent.csv")]) == 3


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out or True


def test_exit_nonconvergence_still_writes_report(capsys, monkeypatch, tmp_path):
    # One step leaves Frank-Wolfe far from its target gap on 30x5.
    monkeypatch.setattr(optimize_mod, "_MAX_ITERS", 1)
    users = _seeded_embeddings(tmp_path / "u.csv", 30, 5)
    dest = tmp_path / "rep.json"
    assert run(["nsw", "--users", users, "--out", str(dest)]) == 4
    rep = json.loads(dest.read_text())
    assert rep["converged"] is False and rep["iters"] == 1
    assert rep["kkt_residual"] > 1e-11


def test_threshold_exits_4_on_an_uncertified_anchor(capsys, monkeypatch, tmp_path):
    # The probes read their verdicts against the nsw anchor; when it is not
    # certified, threshold still writes its report, says so and exits 4.
    monkeypatch.setattr(optimize_mod, "_MAX_ITERS", 1)
    users = _seeded_embeddings(tmp_path / "u.csv", 30, 5)
    dest = tmp_path / "rep.json"
    assert run(["threshold", "--users", users, "--out", str(dest)]) == 4
    rep = json.loads(dest.read_text())
    assert rep["anchor_converged"] is False and rep["condition_trace"]


@pytest.mark.parametrize("command", [
    ["profit", "--variant", "p2", "--beta", "4"],
    ["verify", "--variant", "p2", "--beta", "4", "--samples", "2000", "--grid", "10x10"],
])
def test_exit4_names_the_alignment_bracket(capsys, monkeypatch, command):
    # A bracket [0.6, 0.9] straddles basis2's threshold 2^(-1/2): the flag is
    # undecided, and one stderr line says which solve left it so and why.
    stuck = OptResult(np.ones(2), 0.6, 0.3, 5000, False, "max_iters")
    monkeypatch.setattr("supply_eq.verify.minmax_alignment", lambda *a: stuck)
    assert run([command[0], "--users", "basis2", *command[1:]]) == 4
    cap = capsys.readouterr()
    rep = json.loads(cap.out)
    assert rep["positive_profit"] is None and rep["q_alignment"] == 0.6
    assert cap.err == (
        f"note: alignment solve max_iters, Q in [0.6, {0.6 + 0.3!r}], "
        f"q_threshold {2.0 ** -0.5!r}\n"
    )


@pytest.mark.parametrize("stuck", [False, True], ids=["decided", "exit4"])
@pytest.mark.parametrize("command", [
    ["profit", "--variant", "p2", "--beta", "4"],
    ["verify", "--variant", "p2", "--beta", "4", "--samples", "2000", "--grid", "10x10"],
])
def test_report_solves_the_alignment_program_once(capsys, monkeypatch, command, stuck):
    # One solve gives the flag, the printed Q and, on exit 4, the stderr note.
    calls = []
    res = OptResult(np.ones(2), 0.6 if stuck else 0.5, 0.3 if stuck else 0.0, 7, not stuck,
                    "max_iters" if stuck else "converged")
    monkeypatch.setattr("supply_eq.verify.minmax_alignment",
                        lambda *a: calls.append(a) or res)
    assert run([command[0], "--users", "basis2", *command[1:]]) == (4 if stuck else 0)
    assert json.loads(capsys.readouterr().out)["q_alignment"] == res.value
    assert len(calls) == 1


def test_decided_profit_writes_no_note(capsys):
    assert run(["profit", "--users", "basis2", "--variant", "p2", "--beta", "4"]) == 0
    assert capsys.readouterr().err == ""

def test_render_json_shapes():
    text = cli.render_json(
        {"a": np.array([1.0, math.inf]), "b": None, "c": True, "d": "s", "e": 3}
    )
    rep = json.loads(text)
    assert rep == {"a": [1.0, "inf"], "b": None, "c": True, "d": "s", "e": 3}


def test_render_json_empty_nan_and_unknown_types():
    assert cli.render_json({}) == "{}\n"
    assert json.loads(cli.render_json({"a": {}, "b": math.nan, "c": -math.inf})) == {
        "a": {}, "b": "nan", "c": "-inf"}
    with pytest.raises(TypeError, match="cannot serialize object"):
        cli.render_json({"a": object()})


def test_repeated_runs_in_one_process_repeat_every_byte(capsys, tmp_path, monkeypatch):
    # The parser is built once per process, and no run leaves state behind
    # that changes the next: a second round repeats exit codes, stdout,
    # stderr and written files exactly.
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.csv").write_text("user_id,item_id,rating\nu0,m0,1.0\nuz,m0,0.0\nu1,m1,2.0\n")
    argvs = [
        ["eq", "--variant", "p2", "--beta", "4", "--cdf-grid", "5", "--n", "4",
         "--samples-out", "s.csv"],
        ["eq", "--variant", "p2", "--beta", "4", "--n", "4"],
        ["verify", "--users", "basis2", "--variant", "p2", "--beta", "4", "--samples", "2000",
         "--grid", "8x8"],
        ["eq", "--variant", "p2", "--bogus"],
        ["nmf", "--ratings", "r.csv", "--factors", "1", "--epochs", "5", "--out", "e.csv"],
        ["threshold", "--users", "angle:1.0", "--out", "t.json"],
    ]
    written = ("s.csv", "e.csv", "t.json")

    def one_round():
        outcomes = []
        for argv in argvs:
            code = run(argv)
            cap = capsys.readouterr()
            outcomes.append((code, cap.out, cap.err))
        files = {name: (tmp_path / name).read_bytes() for name in written}
        for name in written:
            (tmp_path / name).unlink()
        return outcomes, files

    first = one_round()
    assert [code for code, _, _ in first[0]] == [0, 0, 0, 2, 0, 0]
    assert "unrecognized arguments: --bogus" in first[0][3][2]
    assert first[0][4][2] == "warning: dropping users with no positive ratings: ['uz']\n"
    assert one_round() == first
