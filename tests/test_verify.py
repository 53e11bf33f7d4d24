"""Numerical verification layer: marginals, profits, gaps, genre counts."""

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import supply_eq.verify as verify_mod
from supply_eq import cli
from supply_eq.closedform import (
    FinitePCurve,
    OnePopulation,
    InfiniteTwoGenre,
    QuarterCircle,
    eq_sample,
)
from supply_eq.geometry import CostSpec, UserSet, angle_pair, cost, two_user_plane
from supply_eq.ingest import save_embeddings_csv
from supply_eq.optimize import OptResult, nsw_direction
from supply_eq.verify import (
    best_response_gap,
    deviation_profit,
    empirical_marginals,
    positive_profit_condition,
)

BASIS2 = UserSet(np.eye(2))
E1_USER = UserSet(np.array([[1.0, 0.0]]))
SPEC2 = CostSpec(q=2.0, beta=2.0)


def test_empirical_marginals_match_analytic_h():
    # One user on the support ray: H(z) = F(z)^(P-1) = z^2 for N=1, beta=2, P=2.
    dist = OnePopulation(np.array([1.0, 0.0]), 1, 2.0, 2)
    marg = empirical_marginals(dist, E1_USER, 2, 20000, seed=0)
    zs = np.linspace(0.05, 0.95, 19)
    for z in zs:
        h = float(marg.win_probability(np.array([z]), weak=True)[0])
        assert h == pytest.approx(z * z, abs=0.02)


def test_win_probability_weak_dominates_strict():
    dist = QuarterCircle(4.0)
    marg = empirical_marginals(dist, BASIS2, 2, 5000, seed=1)
    zs = np.abs(np.random.default_rng(2).standard_normal((50, 2)))
    weak = marg.win_probability(zs, weak=True)
    strict = marg.win_probability(zs, weak=False)
    assert np.all(weak >= strict)


def test_empirical_marginals_sample_floor():
    dist = QuarterCircle(4.0)
    with pytest.raises(ValueError):
        empirical_marginals(dist, BASIS2, 2, 999, seed=0)


def test_deviation_profit_brackets_zero_on_support():
    dist = OnePopulation(np.array([1.0, 0.0]), 1, 2.0, 2)
    marg = empirical_marginals(dist, E1_USER, 2, 100000, seed=3)
    for r in (0.2, 0.5, 0.8):
        lo, hi = deviation_profit(np.array([r, 0.0]), marg, E1_USER, SPEC2)
        assert lo <= 0.01
        assert hi >= -0.01
        assert hi - lo < 0.01


def test_equilibrium_profit_zero_for_single_genre():
    dist = OnePopulation(np.array([1.0, 0.0]), 1, 2.0, 2)
    assert dist.profit(E1_USER.n_users, SPEC2) == 0.0
    users4 = UserSet(np.tile(np.array([[0.6, 0.8]]), (4, 1)))
    dist4 = OnePopulation(np.array([0.6, 0.8]), 4, 3.0, 5)
    assert dist4.profit(users4.n_users, CostSpec(q=2.0, beta=3.0)) == 0.0


def test_equilibrium_profit_quarter_circle():
    spec4 = CostSpec(q=2.0, beta=4.0)
    dist = QuarterCircle(4.0)
    assert dist.profit(BASIS2.n_users, spec4) == pytest.approx(0.5, abs=1e-15)
    spec8 = CostSpec(q=2.0, beta=8.0)
    dist8 = QuarterCircle(8.0)
    assert dist8.profit(BASIS2.n_users, spec8) == pytest.approx(0.75, abs=1e-15)
    # beta = 2 sits exactly at the threshold: no profit.
    assert QuarterCircle(2.0).profit(BASIS2.n_users, SPEC2) == 0.0


def test_equilibrium_profit_finite_p_curve():
    dist = FinitePCurve(3)
    users = angle_pair(math.pi / 2)
    assert dist.profit(users.n_users, SPEC2) == 0.0


def test_equilibrium_profit_mismatched_exponent():
    # Distribution built for beta 3 but priced at beta 2 loses money.
    dist = OnePopulation(np.array([1.0, 0.0]), 1, 3.0, 2)
    got = dist.profit(E1_USER.n_users, SPEC2)
    assert got == pytest.approx(0.5 - 3.0 / 5.0, abs=1e-15)
    assert got < 0


def test_equilibrium_profit_mismatch_two_homogeneous_users():
    users = UserSet(np.array([[1.0, 0.0], [1.0, 0.0]]))
    dist = OnePopulation(np.array([1.0, 0.0]), 2, 3.0, 2)
    got = dist.profit(users.n_users, SPEC2)
    assert got == pytest.approx(1.0 - 2.0 ** (2.0 / 3.0) * 3.0 / 5.0, abs=1e-14)


def test_equilibrium_profit_consistency_checks():
    dist = OnePopulation(np.array([1.0, 0.0]), 1, 2.0, 2)
    with pytest.raises(ValueError):
        dist.profit(BASIS2.n_users, SPEC2)


def test_positive_profit_condition_flags():
    spec8 = CostSpec(q=2.0, beta=8.0)
    flag, res, qthr = positive_profit_condition(BASIS2, spec8, 2)
    assert flag is True
    assert res.value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
    assert qthr == pytest.approx(2.0 ** (-2.0 / 8.0), rel=1e-12)
    flag2, res2, qthr2 = positive_profit_condition(BASIS2, SPEC2, 2)
    assert flag2 is False
    assert qthr2 == pytest.approx(0.5, rel=1e-12)
    assert res2.value >= qthr2


@pytest.mark.parametrize(
    "lower, width, expected",
    [
        (0.2, 0.1, True),  # bracket below the threshold 0.5
        (0.6, 0.1, False),  # bracket above
        (0.4, 0.2, None),  # bracket straddles it
        (0.4, 0.1 + 2e-16, True),  # upper end ties within rounding
        (0.4, 0.1 + 1e-9, None),  # upper end past the tie tolerance
        (0.5, 0.0, True),  # Q exactly at the threshold
        (0.5 + 1e-9, 0.0, False),
    ],
)
def test_positive_profit_condition_bracket_rule(monkeypatch, lower, width, expected):
    # 4 users and 1 producer at beta = 2 put the threshold at 4^(-1/2) = 0.5.
    res = OptResult(np.ones(2), lower, width, 1, True, "converged")
    monkeypatch.setattr("supply_eq.verify.minmax_alignment", lambda *a: res)
    flag, got, qthr = positive_profit_condition(UserSet(np.ones((4, 2))), SPEC2, 1)
    assert (flag, got.value, qthr) == (expected, lower, 0.5)


def test_best_response_gap_report_quarter_circle():
    spec = CostSpec(q=2.0, beta=4.0)
    dist = QuarterCircle(4.0)
    rep = best_response_gap(dist, BASIS2, spec, n_samples=20000, grid=(80, 80), seed=0)
    assert rep.eq_profit == pytest.approx(0.5, abs=1e-12)
    assert rep.best_response_gap <= 0.05
    assert abs(rep.eq_profit_mc - rep.eq_profit) <= 3 * rep.eq_profit_mc_stderr + 1e-12
    assert rep.genre_count_estimate == "continuum"
    assert np.abs(rep.support_profit_range).max() <= 2e-13
    assert positive_profit_condition(BASIS2, spec, 2)[0] is True
    assert rep.gap_argmax.shape == (2,)


def test_best_response_gap_one_population():
    dist = OnePopulation(np.array([1.0, 0.0]), 1, 2.0, 2)
    rep = best_response_gap(dist, E1_USER, SPEC2, n_samples=20000, grid=(1, 200), seed=0)
    assert rep.eq_profit == 0.0
    assert rep.best_response_gap <= 0.05
    assert rep.genre_count_estimate == 1
    assert np.abs(rep.support_profit_range).max() <= 1e-13
    # Every radius ties at zero profit; the first one, the origin, is reported.
    assert np.array_equal(rep.gap_argmax, [0.0, 0.0])


def test_best_response_gap_detects_wrong_equilibrium():
    # Two users stacked on one ray, quality law built for beta 3, priced at 2:
    # undercutting at high quality wins both users cheaply.
    users = UserSet(np.array([[1.0, 0.0], [1.0, 0.0]]))
    dist = OnePopulation(np.array([1.0, 0.0]), 2, 3.0, 2)
    rep = best_response_gap(dist, users, SPEC2, n_samples=20000, grid=(1, 200), seed=3)
    assert rep.eq_profit == pytest.approx(1.0 - 2.0 ** (2.0 / 3.0) * 3.0 / 5.0, abs=1e-14)
    assert rep.best_response_gap > 0.1


SUPPORT_ALPHA = np.array([1.0, 2.0, 0.5, 3.0, 1.5])
EQUILIBRIA = {
    "p2-beta4": lambda: (QuarterCircle(4.0), BASIS2, CostSpec(q=2.0, beta=4.0)),
    "finitep-P3": lambda: (FinitePCurve(3), BASIS2, SPEC2),
    "finitep-P7": lambda: (FinitePCurve(7), BASIS2, SPEC2),
    "onepop-basis2-beta1.5": lambda: _onepop_on(BASIS2, CostSpec(q=2.0, beta=1.5)),
    "onepop-basis2-beta4": lambda: _onepop_on(BASIS2, CostSpec(q=2.0, beta=4.0)),
    "onepop-30x5-q2": lambda: _onepop_on(USERS_30X5, CostSpec(q=2.0, beta=3.0)),
    "onepop-30x5-q3-alpha": lambda: _onepop_on(
        UserSet(USERS_30X5.embeddings / SUPPORT_ALPHA), CostSpec(q=3.0, beta=3.0)),
}


def _onepop_on(users, spec):
    # The command line's onepop: the NSW direction, which has unit cost.
    direction = nsw_direction(users, spec).point
    return OnePopulation(direction, users.n_users, spec.beta, 2), users, spec


@pytest.mark.parametrize("name", list(EQUILIBRIA))
def test_support_profit_range_is_rounding_on_an_indifferent_support(name):
    # Every point these families play earns eq_profit exactly in real
    # arithmetic, beta = 4 on basis2 included, where the onepop support is
    # indifferent but a deviation off its ray gains.
    dist, users, spec = EQUILIBRIA[name]()
    rep = best_response_gap(dist, users, spec, n_samples=1000, grid=(2, 2))
    assert np.abs(rep.support_profit_range).max() <= 1e-13 * users.n_users


@pytest.mark.parametrize("dist, users, spec", [
    (OnePopulation(np.array([1.0, 0.0]), 2, 3.0, 2), UserSet(np.array([[1.0, 0.0], [1.0, 0.0]])),
     SPEC2),
    (FinitePCurve(3), BASIS2, CostSpec(q=2.0, beta=3.0)),
], ids=["onepop-beta3-priced-at-2", "finitep-P3-priced-at-beta3"])
def test_support_profit_range_leaves_zero_off_equilibrium(dist, users, spec):
    # Priced at a cost exponent they were not built for, the supports are no
    # longer indifferent: eq_profit is their mean profit, and the points
    # spread on both sides of it.
    rep = best_response_gap(dist, users, spec, n_samples=1000, grid=(2, 2))
    lo, hi = rep.support_profit_range
    assert lo < -0.01 and hi > 0.01


def test_mc_profit_close_across_seeds():
    spec = CostSpec(q=2.0, beta=3.0)
    dist = OnePopulation(np.array([1.0, 0.0]), 1, 3.0, 2)
    for seed in (0, 5, 9):
        rep = best_response_gap(dist, E1_USER, spec, n_samples=20000, grid=(1, 50), seed=seed)
        assert abs(rep.eq_profit_mc - rep.eq_profit) <= 4 * rep.eq_profit_mc_stderr + 1e-12


# A block size that leaves a ragged last block in every pin below.
RAGGED = 4099
USERS_30X5 = UserSet(np.random.default_rng(0).random((30, 5)))
ONEPOP_30X5 = OnePopulation(np.full(5, 5.0**-0.5), 30, 3.0, 2)


def _reference_marginals(dist, users, n_samples, seed):
    pts = eq_sample(dist, n_samples, seed)
    return np.sort(pts @ users.embeddings.T, axis=0).T


def _reference_mc_profit(dist, users, spec, producers, n_rounds, seed):
    # Row-major, in one block: the draws copied to (n, D) memory.
    pts = np.ascontiguousarray(eq_sample(dist, n_rounds * producers, seed))
    z = (pts @ users.embeddings.T).reshape(n_rounds, producers, users.n_users)
    wins = (z.argmax(axis=1) == 0).sum(axis=1)
    profits = wins - cost(pts[::producers], spec)
    return float(profits.mean()), float(profits.std(ddof=1) / math.sqrt(n_rounds))


def _reference_genre_count(samples, angle_tol=1e-3):
    pts = np.asarray(samples, dtype=float)
    nrm = np.linalg.norm(pts, axis=1)
    dirs = pts[nrm > 0] / nrm[nrm > 0, None]
    limit = math.isqrt(dirs.shape[0])
    cos_tol = math.cos(angle_tol)
    reps = []
    for d in dirs:
        if not any(d @ r >= cos_tol for r in reps):
            reps.append(d)
            if len(reps) > limit:
                return "continuum"
    return len(reps)


GENRE_CASES = {
    "onepop-basis2": OnePopulation(np.full(2, 2.0**-0.5), 2, 3.0, 3),
    "onepop-30x5": ONEPOP_30X5,
    "p2": QuarterCircle(4.0),
    "finitep-P3": FinitePCurve(3),
    "infinite-theta1-beta8": InfiniteTwoGenre(two_user_plane(*angle_pair(1.0).embeddings), 8.0),
}


@pytest.mark.parametrize("name", list(GENRE_CASES))
def test_family_genres_match_sampled_clustering(name):
    # Each family states its genre count; greedy clustering of 20,000 draws'
    # directions at 1e-3 rad finds the same one.
    dist = GENRE_CASES[name]
    assert dist.genres == _reference_genre_count(eq_sample(dist, 20000, seed=0))


@pytest.mark.parametrize("dist, users", [
    (ONEPOP_30X5, USERS_30X5),
    (QuarterCircle(4.0), BASIS2),
], ids=["onepop-30x5", "p2"])
def test_empirical_marginals_blocks_bitwise(monkeypatch, dist, users):
    monkeypatch.setattr(verify_mod, "_BLOCK", RAGGED)
    marg = empirical_marginals(dist, users, 2, 20000, [3, 0])
    assert np.array_equal(marg.values, _reference_marginals(dist, users, 20000, [3, 0]))


@pytest.mark.parametrize("producers", [2, 3, 4])
def test_mc_profit_blocks_bitwise(monkeypatch, producers):
    # The draws are rows of coordinate-major memory; the reference copies
    # them row-major, so the weighted cost over a strided coordinate-major
    # view is checked against the row-major one too.
    monkeypatch.setattr(verify_mod, "_BLOCK", RAGGED)
    onepop = OnePopulation(ONEPOP_30X5.direction, 30, 3.0, producers)
    cases = [
        (FinitePCurve(producers), BASIS2, SPEC2),
        (onepop, USERS_30X5, CostSpec(q=3.0, beta=3.0)),
        (onepop, UserSet(USERS_30X5.embeddings / SUPPORT_ALPHA), CostSpec(q=2.0, beta=3.0)),
    ]
    if producers == 2:
        cases.append((QuarterCircle(4.0), BASIS2, CostSpec(q=2.0, beta=4.0)))
    for dist, users, spec in cases:
        got = verify_mod._mc_profit(dist, users, spec, producers, 10000, [2, 1])
        assert got == _reference_mc_profit(dist, users, spec, producers, 10000, [2, 1])


def test_first_wins_counts_ties_like_argmax():
    # Rounds x producers x users, with exact ties between producer 0 and others.
    z = np.array([
        [[1.0, 0.2], [1.0, 0.3], [0.5, 0.2]],
        [[0.0, 0.5], [0.0, 0.5], [0.0, 0.5]],
        [[0.4, 0.7], [0.4, 0.1], [0.41, 0.7]],
    ])
    # _first_wins reads the user-major layout, (users, rounds, producers).
    wins = verify_mod._first_wins(np.ascontiguousarray(z.transpose(2, 0, 1)))
    assert np.array_equal(wins, [1, 2, 1])
    assert np.array_equal(wins, (z.argmax(axis=1) == 0).sum(axis=1))


def _reference_grid(dist, users, spec, producers, grid, seed):
    """best_response_gap's deviation grid scored row-major, in one block."""
    n_angles, n_radii = grid
    radii = np.linspace(0.0, users.n_users ** (1.0 / spec.beta), n_radii)
    dirs = dist.deviation_dirs(n_angles, users, spec, [seed, 3])
    scores = dirs @ users.embeddings.T
    r = radii[:, None, None]
    win = (dist.value_cdf(r * scores, users) ** (producers - 1)).sum(axis=-1)
    profits = win - cost(r * dirs, spec)
    best = float(profits.max())
    # The first cell, radius-major, within _TIE * N of the maximum.
    i = int(np.argmax(profits >= best - verify_mod._TIE * users.n_users))
    gap = best - dist.profit(users.n_users, spec)
    return gap, radii[i // len(dirs)] * dirs[i % len(dirs)]


def _grid_case(name):
    """(dist, users, spec, producers) of the simulate workload's verify
    commands, and a D = 5 onepop on six users of the 30x5 set."""
    if name == "p2-beta4":
        return QuarterCircle(4.0), BASIS2, CostSpec(q=2.0, beta=4.0), 2
    if name == "finitep-P3":
        return FinitePCurve(3), BASIS2, SPEC2, 3
    users = UserSet(USERS_30X5.embeddings[:6]) if name == "onepop-6x5-beta12" else BASIS2
    dist, spec = _onepop_nsw(users, float(name.rsplit("beta", 1)[1]))
    return dist, users, spec, 2


@pytest.mark.parametrize("name", ["p2-beta4", "finitep-P3", "onepop-beta1.5", "onepop-beta4",
                                  "onepop-6x5-beta12"])
def test_deviation_grid_matches_row_major_reference_bitwise(name):
    # Below 8 users the user-major sum adds users in the order numpy's
    # row-wise sum does; from 8 users on, numpy sums a contiguous row
    # pairwise, so the two agree to rounding only (next test).
    dist, users, spec, producers = _grid_case(name)
    rep = best_response_gap(dist, users, spec, n_samples=1000, grid=(60, 70), seed=3)
    gap, argmax_pt = _reference_grid(dist, users, spec, producers, (60, 70), 3)
    assert rep.best_response_gap == gap
    assert np.array_equal(rep.gap_argmax, argmax_pt)


def test_deviation_grid_many_users_matches_row_major_reference():
    dist, spec = _onepop_nsw(USERS_30X5, 12.0)
    rep = best_response_gap(dist, USERS_30X5, spec, n_samples=1000, grid=(60, 70), seed=3)
    gap, argmax_pt = _reference_grid(dist, USERS_30X5, spec, 2, (60, 70), 3)
    # Either order of adding N values in [0, 1] errs by at most N * eps * N.
    n = USERS_30X5.n_users
    assert rep.best_response_gap == pytest.approx(gap, rel=0, abs=2 * n * n * np.finfo(float).eps)
    assert np.array_equal(rep.gap_argmax, argmax_pt)


def test_best_response_gap_report_independent_of_block_bitwise(monkeypatch):
    dist = FinitePCurve(3)
    args = (dist, BASIS2, SPEC2)
    kw = dict(n_samples=9000, grid=(70, 90), seed=4)
    full = best_response_gap(*args, **kw)
    monkeypatch.setattr(verify_mod, "_BLOCK", RAGGED)
    blocked = best_response_gap(*args, **kw)
    for field in ("eq_profit_mc", "eq_profit_mc_stderr", "best_response_gap",
                  "support_profit_range"):
        assert getattr(blocked, field) == getattr(full, field)
    assert np.array_equal(blocked.gap_argmax, full.gap_argmax)


# Dvoretzky-Kiefer-Wolfowitz: an empirical CDF of 1e6 draws is within this of
# the true CDF everywhere, except with probability 1e-6.
DKW_1E6 = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * 1e6))
_USERS_4D = UserSet(np.array([[0.6, 0.0, 0.8, 0.0], [0.0, 1.5, 0.0, 0.0]]))
_PLANE_4D = two_user_plane(*_USERS_4D.embeddings)
EXACT_CASES = {
    "p2-beta4": (QuarterCircle(4.0), BASIS2),
    "finitep-P2": (FinitePCurve(2), BASIS2),
    "finitep-P3": (FinitePCurve(3), BASIS2),
    "finitep-P4": (FinitePCurve(4), BASIS2),
    "onepop-basis2": (OnePopulation(np.full(2, 2.0**-0.5), 2, 3.0, 3), BASIS2),
    "onepop-30x5": (ONEPOP_30X5, USERS_30X5),
    "p2-4d-plane": (QuarterCircle(beta=4.0, plane=_PLANE_4D), _USERS_4D),
    "finitep-4d-plane": (FinitePCurve(producers=3, plane=_PLANE_4D), _USERS_4D),
}


@pytest.mark.parametrize("name", list(EXACT_CASES))
def test_value_cdf_matches_empirical_marginals(name):
    dist, users = EXACT_CASES[name]
    # Ten users at a time keep the sorted table at 80 MB; every chunk sees the
    # same draws, and each user's CDF is its own.
    for rows in np.array_split(np.arange(users.n_users), max(1, users.n_users // 10)):
        part = UserSet(users.embeddings[rows]) if users.n_users > 2 else users
        marg = empirical_marginals(dist, part, 2, 10**6, [7, 0])
        z = np.linspace(0.0, 1.05, 2001)[:, None] * marg.values[:, -1]
        ecdf = marg.win_probability(z, weak=True)
        exact = dist.value_cdf(z, part)
        assert np.abs(exact - ecdf).max() <= DKW_1E6
        assert exact[0].max() == 0.0 and exact[-1].min() == 1.0


@pytest.mark.parametrize("producers", [2, 3])
def test_value_cdf_orthogonal_user_wins_every_tie_at_zero(producers):
    # e2 values every draw along e1 at 0: F = 1 on [0, inf), as the empirical
    # table counts ties at 0 as wins.
    dist = OnePopulation(np.array([1.0, 0.0]), 2, 2.0, producers)
    z = np.array([[0.0, 0.0], [0.3, 0.5], [0.7, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = dist.value_cdf(z, BASIS2) ** (producers - 1)
        emp = empirical_marginals(dist, BASIS2, producers, 20000, 4).win_probability(z, weak=True)
        rep = best_response_gap(dist, BASIS2, SPEC2, n_samples=2000, grid=(30, 30))
    assert np.array_equal(exact[:, 1], [1.0, 1.0, 1.0])
    assert np.array_equal(emp[:, 1], exact[:, 1])
    assert np.array_equal(emp[0], exact[0])
    assert np.allclose(emp[1:, 0], exact[1:, 0], atol=0.02)
    assert math.isfinite(rep.best_response_gap)


def _onepop_nsw(users, beta, producers=2):
    spec = CostSpec(q=2.0, beta=beta)
    direction = nsw_direction(users, spec).point
    return OnePopulation(direction, users.n_users, beta, producers), spec


def _gauge_gaps(tmp_path, users, beta, gauges, grid):
    """The command line's verify onepop gap on users, then in each gauge d:
    users scaled by d feature by feature under --alpha d, the same game."""
    gaps = []
    for k, d in enumerate([None, *gauges]):
        src, out = tmp_path / f"users{k}.csv", tmp_path / f"report{k}.json"
        save_embeddings_csv(users if d is None else UserSet(users.embeddings * np.array(d)), src)
        argv = ["verify", "--users", str(src), "--variant", "onepop", "--beta", str(beta),
                "--samples", "1000", "--grid", grid, "--out", str(out)]
        assert cli.run(argv if d is None else argv + ["--alpha", ",".join(map(str, d))]) == 0
        gaps.append(json.loads(out.read_text())["best_response_gap"])
    return gaps


def test_onepop_gap_is_the_same_in_a_feature_gauge(tmp_path):
    # Above the threshold (about 9.36 in both gauges) the gap is about 0.56 in
    # both; below it, rounding in both.
    above = _gauge_gaps(tmp_path, USERS_30X5, 12.0, [(0.5, 1, 2, 1, 3)], "40x40")
    assert above[0] > 0.5
    assert above[1] == pytest.approx(above[0], rel=1e-9)
    assert max(_gauge_gaps(tmp_path, USERS_30X5, 3.0, [(0.5, 1, 2, 1, 3)], "40x40")) <= 1e-12


def test_onepop_gap_is_the_same_in_planar_gauges(tmp_path):
    gaps = _gauge_gaps(tmp_path, angle_pair(1.0), 6.0, [(1, 3), (1, 0.2), (1, 10)], "200x200")
    assert min(gaps) > 0.1
    assert max(gaps) - min(gaps) <= 1e-9 * max(gaps)


@pytest.mark.parametrize("theta", [0.6, 1.0, math.pi / 2])
def test_onepop_gap_crosses_at_two_user_threshold(theta):
    users = angle_pair(theta)
    beta_star = 2.0 / (1.0 - math.cos(theta))
    gaps = []
    for beta in (0.9 * beta_star, 1.1 * beta_star):
        dist, spec = _onepop_nsw(users, beta)
        rep = best_response_gap(dist, users, spec, n_samples=1000, grid=(400, 400))
        gaps.append(rep.best_response_gap)
    assert gaps[0] <= 1e-12
    assert gaps[1] >= 5e-3


def test_onepop_gap_beyond_the_plane_crosses():
    # The 30x5 set's threshold estimates lie near 9.5.
    gaps = []
    for beta in (3.0, 20.0):
        dist, spec = _onepop_nsw(USERS_30X5, beta)
        rep = best_response_gap(dist, USERS_30X5, spec, n_samples=1000, grid=(60, 60))
        gaps.append(rep.best_response_gap)
    assert gaps[0] <= 1e-12
    assert gaps[1] >= 0.1


@pytest.mark.parametrize("case", ["p2", "finitep", "onepop"])
def test_planar_gap_independent_of_seed_bitwise(case):
    if case == "p2":
        args = (QuarterCircle(4.0), BASIS2, CostSpec(q=2.0, beta=4.0))
    elif case == "finitep":
        args = (FinitePCurve(3), BASIS2, SPEC2)
    else:
        dist, spec = _onepop_nsw(angle_pair(1.0), 8.0)
        args = (dist, angle_pair(1.0), spec)
    a = best_response_gap(*args, n_samples=2000, grid=(60, 70), seed=0)
    b = best_response_gap(*args, n_samples=2000, grid=(60, 70), seed=5)
    assert a.best_response_gap == b.best_response_gap
    assert np.array_equal(a.gap_argmax, b.gap_argmax)


@pytest.mark.parametrize("users, beta", [(BASIS2, 4.0), (USERS_30X5, 12.0)], ids=["basis2", "30x5"])
def test_onepop_gap_independent_of_grid_block_bitwise(monkeypatch, users, beta):
    dist, spec = _onepop_nsw(users, beta)
    kw = dict(n_samples=2000, grid=(70, 90), seed=4)
    full = best_response_gap(dist, users, spec, **kw)
    monkeypatch.setattr(verify_mod, "_BLOCK", RAGGED)
    blocked = best_response_gap(dist, users, spec, **kw)
    assert blocked.best_response_gap == full.best_response_gap
    assert np.array_equal(blocked.gap_argmax, full.gap_argmax)
    assert blocked.support_profit_range == full.support_profit_range
    assert full.best_response_gap > 0.1


@pytest.mark.parametrize("beta", [3.0, 20.0])
def test_onepop_gap_splits_a_radius_row_into_direction_blocks_bitwise(monkeypatch, beta):
    # In D > 2, onepop on the 30x5 set prices N + 1 = 31 directions a radius;
    # a block of 480 or 150 user scores holds 16 or 5 of them, so each row is
    # priced in 2 or 7 direction blocks.  At beta = 20 the best deviation is
    # along the tenth user's direction, in the third of the 7 blocks.
    dist, spec = _onepop_nsw(USERS_30X5, beta)
    kw = dict(n_samples=2000, grid=(20, 20), seed=4)
    full = best_response_gap(dist, USERS_30X5, spec, **kw)
    for block in (480, 150):
        monkeypatch.setattr(verify_mod, "_BLOCK", block)
        split = best_response_gap(dist, USERS_30X5, spec, **kw)
        for field in dataclasses.fields(full):
            assert np.array_equal(getattr(split, field.name), getattr(full, field.name)), field.name


def test_onepop_gap_memory_does_not_grow_with_a_radius_row():
    # 1,500 users in D = 8 give 1,501 directions a radius, so one row is
    # 2.25M user scores, 18 MB an array; pricing the row whole peaked at 90 MB.
    users = UserSet(np.random.default_rng(1).random((1500, 8)) + 0.01)
    dist, spec = _onepop_nsw(users, 3.0)
    tracemalloc.start()
    try:
        rep = best_response_gap(dist, users, spec, n_samples=1000, grid=(20, 4), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert rep.best_response_gap <= verify_mod._TIE * users.n_users


def test_grid_blocks_keep_the_first_maximum(monkeypatch):
    # On the two axes finitep P = 3 prices a deviation at radius x <= 1 as
    # x*x - x*x = 0 exactly, so the maximum ties across one-radius blocks;
    # the first one, at radius 0, wins as np.argmax over the whole grid would.
    monkeypatch.setattr(verify_mod, "_BLOCK", 1)
    rep = best_response_gap(FinitePCurve(3), BASIS2, SPEC2, n_samples=1000, grid=(2, 50))
    assert rep.best_response_gap == 0.0
    assert np.array_equal(rep.gap_argmax, [0.0, 0.0])
