"""Numerical verification layer: marginals, profits, gaps, genre counts."""

import dataclasses
import json
import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import supply_eq.verify as verify_mod
from supply_eq import cli
from supply_eq._lanes import Lanes
from supply_eq.closedform import (
    FinitePCurve,
    OnePopulation,
    InfiniteTwoGenre,
    QuarterCircle,
    eq_sample,
)
from supply_eq.geometry import CostSpec, UserSet, angle_pair, cost
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


@pytest.mark.parametrize("grid", [(0, 10), (10, 0)])
def test_best_response_gap_rejects_an_empty_grid(grid):
    message = f"grid needs at least 1 angle and 1 radius, got {grid}"
    with pytest.raises(ValueError, match=re.escape(message)):
        best_response_gap(QuarterCircle(4.0), BASIS2, CostSpec(beta=4.0), n_samples=1000,
                          grid=grid)


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
    "infinite-theta1-beta8": InfiniteTwoGenre(angle_pair(1.0), 8.0),
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


def _mc_cases(producers):
    onepop = OnePopulation(ONEPOP_30X5.direction, 30, 3.0, producers)
    cases = [
        (FinitePCurve(producers), BASIS2, SPEC2),
        (onepop, USERS_30X5, CostSpec(q=3.0, beta=3.0)),
        (onepop, UserSet(USERS_30X5.embeddings / SUPPORT_ALPHA), CostSpec(q=2.0, beta=3.0)),
    ]
    if producers == 2:
        cases.append((QuarterCircle(4.0), BASIS2, CostSpec(q=2.0, beta=4.0)))
    return cases


@pytest.mark.parametrize("producers", [2, 3, 4])
def test_mc_profit_blocks_bitwise(monkeypatch, producers):
    # The draws are rows of coordinate-major memory; the reference copies
    # them row-major, so the weighted cost over a strided coordinate-major
    # view is checked against the row-major one too.  The lanes' sums meet
    # where numpy's pairwise sum splits; 10,013 and 70,011 rounds have
    # halves that are not a multiple of 8.
    for block in (RAGGED, verify_mod._BLOCK):
        monkeypatch.setattr(verify_mod, "_BLOCK", block)
        for dist, users, spec in _mc_cases(producers):
            for n in (10000, 10013, 70011):
                with Lanes() as lanes:
                    got = verify_mod._mc_profit(dist, users, spec, producers, n, [2, 1], lanes)
                want = _reference_mc_profit(dist, users, spec, producers, n, [2, 1])
                assert got == want, (block, n)


@pytest.mark.parametrize("producers", [2, 3])
def test_mc_profit_of_one_block_bitwise_on_this_thread(monkeypatch, producers):
    # Rounds of one block run as one span, summed whole, and start no worker.
    n = 1500
    for dist, users, spec in _mc_cases(producers):
        monkeypatch.setattr(verify_mod, "_BLOCK", n * producers * users.n_users)
        threads = threading.active_count()
        with Lanes() as lanes:
            got = verify_mod._mc_profit(dist, users, spec, producers, n, [2, 1], lanes)
            assert threading.active_count() == threads
        assert got == _reference_mc_profit(dist, users, spec, producers, n, [2, 1])


def test_mc_profit_of_a_million_rounds_bitwise():
    # The Monte Carlo as simulate runs it: 1,000,000 basis2 rounds of p2 at
    # the default _BLOCK, in two halves of 500,000.
    dist, spec = QuarterCircle(4.0), CostSpec(q=2.0, beta=4.0)
    with Lanes() as lanes:
        got = verify_mod._mc_profit(dist, BASIS2, spec, 2, 10**6, [7, 1], lanes)
    assert got == _reference_mc_profit(dist, BASIS2, spec, 2, 10**6, [7, 1])


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


def _reference_grid(dist, users, spec, producers, grid):
    """best_response_gap's deviation grid scored row-major, in one block."""
    n_angles, n_radii = grid
    radii = np.linspace(0.0, users.n_users ** (1.0 / spec.beta), n_radii)
    dirs = dist.deviation_dirs(n_angles)
    scores = dirs @ users.embeddings.T
    r = radii[:, None, None]
    win = (dist.value_cdf(r * scores, users) ** (producers - 1)).sum(axis=-1)
    profits = win - cost(r * dirs, spec)
    best = float(profits.max())
    # The first cell, radius-major, within _TIE * N of the maximum.
    i = int(np.argmax(profits >= best - verify_mod._TIE * users.n_users))
    gap = best - dist.profit(users.n_users, spec)
    return gap, radii[i // len(dirs)] * dirs[i % len(dirs)]


@pytest.mark.parametrize("name", ["p2-beta4", "finitep-P3"])
def test_deviation_grid_matches_row_major_reference_bitwise(name):
    # The planar families have two users, which the user-major sum adds in
    # the order numpy's row-wise sum does.
    if name == "p2-beta4":
        dist, spec, producers = QuarterCircle(4.0), CostSpec(q=2.0, beta=4.0), 2
    else:
        dist, spec, producers = FinitePCurve(3), SPEC2, 3
    rep = best_response_gap(dist, BASIS2, spec, n_samples=1000, grid=(60, 70), seed=3)
    gap, argmax_pt = _reference_grid(dist, BASIS2, spec, producers, (60, 70))
    assert rep.best_response_gap == gap
    assert np.array_equal(rep.gap_argmax, argmax_pt)


def _onepop_profits(dist, users, spec, pts):
    """Plain numpy: the profit of deviating to each row of pts against a
    single-genre equilibrium priced at its own beta.  User i values the
    ray's quality law at a_i = <d, u_i>, so a deviation scoring z_i wins it
    with probability min(1, z_i / (a_i N^(1/beta)))^beta, and always where
    a_i = 0."""
    a = users.embeddings @ dist.direction
    z = pts @ users.embeddings.T
    top = a * users.n_users ** (1.0 / spec.beta)
    win = np.where(a > 0, np.minimum(1.0, z / np.where(a > 0, top, 1.0)) ** spec.beta, 1.0)
    return win.sum(axis=1) - np.linalg.norm(pts, ord=spec.q, axis=1) ** spec.beta


ONEPOP_SCAN_CASES = {
    "basis2-beta1.5": (BASIS2, 1.5),
    "basis2-beta4": (BASIS2, 4.0),
    "6x5-beta12": (UserSet(USERS_30X5.embeddings[:6]), 12.0),
    "30x5-beta9.45": (USERS_30X5, 9.45),
    "30x5-beta12": (USERS_30X5, 12.0),
}


@pytest.mark.parametrize("name", list(ONEPOP_SCAN_CASES))
def test_onepop_gap_is_not_beaten_by_a_radius_scan(name):
    # 20,001 radii on [0, N^(1/beta)] along gap_argmax's direction and along
    # each user's dual point (u / |u| at q = 2).  No scanned point beats the
    # reported profit by more than rounding, and re-pricing gap_argmax gives
    # it.  At 30x5 and beta = 9.45, past the set's threshold of about 9.36,
    # the best deviation earns about 0.0176.
    users, beta = ONEPOP_SCAN_CASES[name]
    dist, spec = _onepop_nsw(users, beta)
    rep = best_response_gap(dist, users, spec, n_samples=1000, grid=(60, 70), seed=3)
    found = rep.eq_profit + rep.best_response_gap
    n, eps = users.n_users, np.finfo(float).eps
    assert _onepop_profits(dist, users, spec, rep.gap_argmax[None])[0] == pytest.approx(
        found, rel=0, abs=4 * n * eps)
    dirs = users.embeddings / np.linalg.norm(users.embeddings, axis=1)[:, None]
    length = np.linalg.norm(rep.gap_argmax)
    if length > 0:
        dirs = np.vstack([rep.gap_argmax / length, dirs])
    radii = np.linspace(0.0, n ** (1.0 / beta), 20001)[:, None]
    scan = max(_onepop_profits(dist, users, spec, radii * d).max() for d in dirs)
    assert scan <= found + 4 * n * eps
    if name == "30x5-beta9.45":
        assert rep.best_response_gap > 0.0175


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
EXACT_CASES = {
    "p2-beta4": (QuarterCircle(4.0), BASIS2),
    "finitep-P2": (FinitePCurve(2), BASIS2),
    "finitep-P3": (FinitePCurve(3), BASIS2),
    "finitep-P4": (FinitePCurve(4), BASIS2),
    "onepop-basis2": (OnePopulation(np.full(2, 2.0**-0.5), 2, 3.0, 3), BASIS2),
    "onepop-30x5": (ONEPOP_30X5, USERS_30X5),
    "p2-4d-plane": (QuarterCircle(beta=4.0, users=_USERS_4D), _USERS_4D),
    "finitep-4d-plane": (FinitePCurve(producers=3, users=_USERS_4D), _USERS_4D),
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


def test_onepop_gap_where_no_user_values_the_ray():
    # e2 values every draw along e1 at 0 and wins at every radius, so the
    # search has no user to price and the origin earns 1.
    dist = OnePopulation(np.array([1.0, 0.0]), 1, 2.0, 2)
    rep = best_response_gap(dist, UserSet(np.array([[0.0, 1.0]])), SPEC2, n_samples=1000)
    assert rep.best_response_gap == 1.0
    assert np.array_equal(rep.gap_argmax, [0.0, 0.0])


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


@pytest.mark.parametrize("case", ["p2", "finitep", "onepop", "onepop-30x5"])
def test_planar_gap_independent_of_seed_bitwise(case):
    # onepop's search reads neither the seed nor the grid, in D > 2 too.
    grids = [(60, 70), (60, 70)]
    if case == "p2":
        args = (QuarterCircle(4.0), BASIS2, CostSpec(q=2.0, beta=4.0))
    elif case == "finitep":
        args = (FinitePCurve(3), BASIS2, SPEC2)
    elif case == "onepop":
        dist, spec = _onepop_nsw(angle_pair(1.0), 8.0)
        args = (dist, angle_pair(1.0), spec)
    else:
        dist, spec = _onepop_nsw(USERS_30X5, 12.0)
        args, grids = (dist, USERS_30X5, spec), [(20, 20), (400, 400)]
    a = best_response_gap(*args, n_samples=2000, grid=grids[0], seed=0)
    b = best_response_gap(*args, n_samples=2000, grid=grids[1], seed=5)
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
def test_onepop_gap_scores_its_candidates_in_blocks_bitwise(monkeypatch, beta):
    # onepop on the 30x5 set scores N + 1 = 31 candidate directions against
    # 30 users; a block of 480 or 150 user scores holds 16 or 5 of them, so
    # they are scored in 2 or 7 blocks.
    dist, spec = _onepop_nsw(USERS_30X5, beta)
    kw = dict(n_samples=2000, grid=(20, 20), seed=4)
    full = best_response_gap(dist, USERS_30X5, spec, **kw)
    for block in (480, 150):
        monkeypatch.setattr(verify_mod, "_BLOCK", block)
        split = best_response_gap(dist, USERS_30X5, spec, **kw)
        for field in dataclasses.fields(full):
            assert np.array_equal(getattr(split, field.name), getattr(full, field.name)), field.name


def test_onepop_gap_memory_does_not_grow_with_a_radius_row():
    # 1,500 users in D = 8 give 1,501 candidate directions, so their scores
    # are 2.25M, 18 MB an array; pricing them whole peaked at 90 MB.
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


def _lane_case(name):
    """(dist, users, spec) with more than one block of Monte Carlo rounds,
    and for the planar families of radii, at the default _BLOCK and the
    lane test's keywords; p2 has its best deviation at a radius of the
    worker's half."""
    if name == "p2":
        return QuarterCircle(4.0), BASIS2, CostSpec(q=2.0, beta=4.0)
    if name == "finitep-P3":
        return FinitePCurve(3), BASIS2, SPEC2
    dist, spec = _onepop_nsw(BASIS2, 3.0)
    return dist, BASIS2, spec


@pytest.mark.parametrize("block", [RAGGED, None], ids=["ragged", "default"])
@pytest.mark.parametrize("name", ["p2", "finitep-P3", "onepop-basis2"])
def test_two_lanes_match_an_in_order_loop_bitwise(monkeypatch, name, block):
    # Each lane prices its own radii and draws its own Monte Carlo rounds;
    # the report is that of one lane running every block in order.
    if block is not None:
        monkeypatch.setattr(verify_mod, "_BLOCK", block)
    dist, users, spec = _lane_case(name)
    kw = dict(n_samples=70001, grid=(60, 1201), seed=4)
    on_worker = []
    lanes_map = Lanes.map

    def spy(self, fn, args):
        def noted(span):
            on_worker.append(threading.current_thread() is not threading.main_thread())
            return fn(span)
        return lanes_map(self, noted, args)

    monkeypatch.setattr(Lanes, "map", spy)
    lanes = best_response_gap(dist, users, spec, **kw)
    # The planar grid and the Monte Carlo both split, and the Monte Carlo's
    # squares run on the same halves as its rounds; onepop prices no grid.
    assert on_worker.count(True) == (2 if name.startswith("onepop") else 3)
    monkeypatch.setattr(verify_mod, "_spans", lambda n, blk: [(0, n)])
    in_order = best_response_gap(dist, users, spec, **kw)
    for field in dataclasses.fields(lanes):
        assert np.array_equal(getattr(lanes, field.name), getattr(in_order, field.name)), field.name


def test_two_lanes_split_more_than_one_block_in_halves():
    # Work of one block is not split: it runs on this thread alone.
    me = threading.get_ident()
    # Past 128 values the halves meet where numpy's pairwise sum splits.
    for n, block, halves in ((7, 3, [(0, 4), (4, 7)]), (7, 7, [(0, 7)]), (1, 0, [(0, 1)]),
                             (10013, 1024, [(0, 5000), (5000, 10013)]),
                             (129, 1, [(0, 64), (64, 129)])):
        seen = {}
        with Lanes() as lanes:
            lanes.map(lambda span: seen.update({span: threading.get_ident()}),
                      verify_mod._spans(n, block))
        assert sorted(seen) == halves
        assert seen[halves[0]] == me
        assert all(seen[h] != me for h in halves[1:])


def test_lanes_keep_every_report_under_a_short_switch_interval(monkeypatch):
    # Three verify calls at once, each with its worker lane, so six threads
    # share the cores and switch every microsecond; a row written by the
    # wrong lane, or lost, would change a report.
    monkeypatch.setattr(verify_mod, "_BLOCK", RAGGED)
    cases = [_lane_case(name) for name in ("p2", "finitep-P3", "onepop-basis2")]
    kw = dict(n_samples=20001, grid=(30, 300), seed=4)
    with monkeypatch.context() as m:
        m.setattr(verify_mod, "_spans", lambda n, blk: [(0, n)])
        want = [best_response_gap(*case, **kw) for case in cases]
    got = [None] * len(cases)

    def call(i):
        got[i] = best_response_gap(*cases[i], **kw)

    threads = [threading.Thread(target=call, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for a, b in zip(got, want):
        for field in dataclasses.fields(b):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


class _FailingOffMainThread:
    """dist, except that one method raises when called off the main thread."""

    def __init__(self, dist, method):
        self._dist, self._method = dist, method

    def __getattr__(self, name):
        attr = getattr(self._dist, name)
        if name != self._method:
            return attr

        def call(*args):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError(f"{name} failed in the worker lane")
            return attr(*args)

        return call


@pytest.mark.parametrize("method", ["value_cdf", "points"], ids=["grid", "monte-carlo"])
def test_worker_lane_exception_propagates_and_the_worker_is_joined(monkeypatch, method):
    monkeypatch.setattr(verify_mod, "_BLOCK", RAGGED)
    threads = threading.active_count()
    dist = _FailingOffMainThread(FinitePCurve(3), method)
    with pytest.raises(FloatingPointError, match=f"{method} failed in the worker lane"):
        best_response_gap(dist, BASIS2, SPEC2, n_samples=5000, grid=(20, 200))
    assert threading.active_count() == threads


def test_grid_blocks_keep_the_first_maximum(monkeypatch):
    # On the two axes finitep P = 3 prices a deviation at radius x <= 1 as
    # x*x - x*x = 0 exactly, so the maximum ties across one-radius blocks;
    # the first one, at radius 0, wins as np.argmax over the whole grid would.
    monkeypatch.setattr(verify_mod, "_BLOCK", 1)
    rep = best_response_gap(FinitePCurve(3), BASIS2, SPEC2, n_samples=1000, grid=(2, 50))
    assert rep.best_response_gap == 0.0
    assert np.array_equal(rep.gap_argmax, [0.0, 0.0])
