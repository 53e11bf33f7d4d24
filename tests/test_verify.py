"""Numerical verification layer: marginals, profits, gaps, genre counts."""

import math

import numpy as np
import pytest

from supply_eq.closedform import (
    OnePopulation,
    eq_sample,
    make_finite_p_curve,
    make_one_population,
    make_p2_quarter_circle,
)
from supply_eq.geometry import CostSpec, UserSet, angle_pair
from supply_eq.optimize import OptResult
from supply_eq.verify import (
    best_response_gap,
    deviation_profit,
    empirical_marginals,
    equilibrium_profit,
    foc_residual,
    genre_count,
    positive_profit_condition,
    soc_direction_sign,
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
    dist = make_p2_quarter_circle(4.0)
    marg = empirical_marginals(dist, BASIS2, 2, 5000, seed=1)
    zs = np.abs(np.random.default_rng(2).standard_normal((50, 2)))
    weak = marg.win_probability(zs, weak=True)
    strict = marg.win_probability(zs, weak=False)
    assert np.all(weak >= strict)


def test_empirical_marginals_sample_floor():
    dist = make_p2_quarter_circle(4.0)
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
    assert equilibrium_profit(dist, E1_USER, SPEC2, 2) == 0.0
    users4 = UserSet(np.tile(np.array([[0.6, 0.8]]), (4, 1)))
    dist4 = make_one_population(np.array([0.6, 0.8]), 4, CostSpec(q=2.0, beta=3.0), 5)
    assert equilibrium_profit(dist4, users4, CostSpec(q=2.0, beta=3.0), 5) == 0.0


def test_equilibrium_profit_quarter_circle():
    spec4 = CostSpec(q=2.0, beta=4.0)
    dist = make_p2_quarter_circle(4.0)
    assert equilibrium_profit(dist, BASIS2, spec4, 2) == pytest.approx(0.5, abs=1e-15)
    spec8 = CostSpec(q=2.0, beta=8.0)
    dist8 = make_p2_quarter_circle(8.0)
    assert equilibrium_profit(dist8, BASIS2, spec8, 2) == pytest.approx(0.75, abs=1e-15)
    # beta = 2 sits exactly at the threshold: no profit.
    assert equilibrium_profit(make_p2_quarter_circle(2.0), BASIS2, SPEC2, 2) == 0.0


def test_equilibrium_profit_finite_p_curve():
    dist = make_finite_p_curve(3)
    users = angle_pair(math.pi / 2)
    assert equilibrium_profit(dist, users, SPEC2, 3) == 0.0


def test_equilibrium_profit_mismatched_exponent():
    # Distribution built for beta 3 but priced at beta 2 loses money.
    dist = OnePopulation(np.array([1.0, 0.0]), 1, 3.0, 2)
    got = equilibrium_profit(dist, E1_USER, SPEC2, 2)
    assert got == pytest.approx(0.5 - 3.0 / 5.0, abs=1e-15)
    assert got < 0


def test_equilibrium_profit_mismatch_two_homogeneous_users():
    users = UserSet(np.array([[1.0, 0.0], [1.0, 0.0]]))
    dist = OnePopulation(np.array([1.0, 0.0]), 2, 3.0, 2)
    got = equilibrium_profit(dist, users, SPEC2, 2)
    assert got == pytest.approx(1.0 - 2.0 ** (2.0 / 3.0) * 3.0 / 5.0, abs=1e-14)


def test_equilibrium_profit_consistency_checks():
    dist = OnePopulation(np.array([1.0, 0.0]), 1, 2.0, 2)
    with pytest.raises(ValueError):
        equilibrium_profit(dist, E1_USER, SPEC2, 3)
    with pytest.raises(ValueError):
        equilibrium_profit(dist, BASIS2, SPEC2, 2)


def test_positive_profit_condition_flags():
    spec8 = CostSpec(q=2.0, beta=8.0)
    flag, qval, qthr = positive_profit_condition(BASIS2, spec8, 2)
    assert flag is True
    assert qval == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
    assert qthr == pytest.approx(2.0 ** (-2.0 / 8.0), rel=1e-12)
    flag2, qval2, qthr2 = positive_profit_condition(BASIS2, SPEC2, 2)
    assert flag2 is False
    assert qthr2 == pytest.approx(0.5, rel=1e-12)
    assert qval2 >= qthr2


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
    flag, qval, qthr = positive_profit_condition(UserSet(np.ones((4, 2))), SPEC2, 1)
    assert (flag, qval, qthr) == (expected, lower, 0.5)


@pytest.mark.parametrize("beta", [2.0, 4.0, 8.0])
def test_foc_residual_quarter_circle(beta):
    dist = make_p2_quarter_circle(beta)
    spec = CostSpec(q=2.0, beta=beta)
    assert foc_residual(dist, dist.plane, spec) < 1e-10


@pytest.mark.parametrize("producers", [2, 3, 4])
def test_foc_residual_finite_p(producers):
    dist = make_finite_p_curve(producers)
    assert foc_residual(dist, dist.plane, SPEC2) < 1e-10


def test_foc_residual_rejects_one_population():
    dist = OnePopulation(np.array([1.0, 0.0]), 1, 2.0, 2)
    with pytest.raises(ValueError):
        foc_residual(dist, None, SPEC2)


def test_soc_direction_sign():
    # (beta-2)/beta * cos(theta*-2theta) - cos(theta*): positive once beta > 2
    # on the orthogonal pair, negative below it.
    assert soc_direction_sign(math.pi / 4, math.pi / 2, 4.0) == 1
    assert soc_direction_sign(math.pi / 4, math.pi / 2, 1.5) == -1
    assert soc_direction_sign(0.1, math.pi / 3, 100.0) == 1


def test_genre_count_kinds():
    one = eq_sample(OnePopulation(np.array([1.0, 0.0]), 1, 2.0, 2), 2000, seed=0)
    assert genre_count(one) == 1
    from supply_eq.closedform import make_infinite_two_genre
    from supply_eq.geometry import two_user_plane

    plane = two_user_plane(*angle_pair(1.2).embeddings)
    two = eq_sample(make_infinite_two_genre(plane, 7.0), 2000, seed=1)
    assert genre_count(two) == 2
    cont = eq_sample(make_p2_quarter_circle(4.0), 2000, seed=2)
    assert genre_count(cont) == "continuum"
    curve = eq_sample(make_finite_p_curve(3), 2000, seed=3)
    assert genre_count(curve) == "continuum"


def test_genre_count_needs_samples():
    with pytest.raises(ValueError):
        genre_count(np.ones((99, 2)))


def test_best_response_gap_report_quarter_circle():
    spec = CostSpec(q=2.0, beta=4.0)
    dist = make_p2_quarter_circle(4.0)
    rep = best_response_gap(dist, BASIS2, spec, 2, n_samples=20000, grid=(80, 80), seed=0)
    assert rep.eq_profit == pytest.approx(0.5, abs=1e-12)
    assert rep.best_response_gap <= 0.05
    assert abs(rep.eq_profit_mc - rep.eq_profit) <= 3 * rep.eq_profit_mc_stderr + 1e-12
    assert rep.genre_count_estimate == "continuum"
    assert rep.foc_residual_max < 1e-10
    assert rep.positive_profit is True
    assert rep.gap_argmax.shape == (2,)


def test_best_response_gap_one_population():
    dist = OnePopulation(np.array([1.0, 0.0]), 1, 2.0, 2)
    rep = best_response_gap(dist, E1_USER, SPEC2, 2, n_samples=20000, grid=(1, 200), seed=0)
    assert rep.eq_profit == 0.0
    assert rep.best_response_gap <= 0.05
    assert rep.genre_count_estimate == 1
    assert rep.foc_residual_max is None


def test_best_response_gap_detects_wrong_equilibrium():
    # Two users stacked on one ray, quality law built for beta 3, priced at 2:
    # undercutting at high quality wins both users cheaply.
    users = UserSet(np.array([[1.0, 0.0], [1.0, 0.0]]))
    dist = OnePopulation(np.array([1.0, 0.0]), 2, 3.0, 2)
    rep = best_response_gap(dist, users, SPEC2, 2, n_samples=20000, grid=(1, 200), seed=3)
    assert rep.eq_profit == pytest.approx(1.0 - 2.0 ** (2.0 / 3.0) * 3.0 / 5.0, abs=1e-14)
    assert rep.best_response_gap > 0.1


def test_mc_profit_close_across_seeds():
    spec = CostSpec(q=2.0, beta=3.0)
    dist = OnePopulation(np.array([1.0, 0.0]), 1, 3.0, 2)
    for seed in (0, 5, 9):
        rep = best_response_gap(dist, E1_USER, spec, 2, n_samples=20000, grid=(1, 50), seed=seed)
        assert abs(rep.eq_profit_mc - rep.eq_profit) <= 4 * rep.eq_profit_mc_stderr + 1e-12
