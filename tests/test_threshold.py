"""Specialization thresholds: closed form, dual-norm bound, hull-test search."""

import math

import numpy as np
import pytest

import supply_eq.threshold as threshold_mod
from supply_eq.cli import run
from supply_eq.geometry import (
    CostSpec,
    UserSet,
    angle_pair,
    dual_norm,
    orthonormal_users,
    weighted_norm,
)
from supply_eq.ingest import save_embeddings_csv
from supply_eq.optimize import nsw_direction, simplex_logsum_max
from supply_eq.threshold import (
    beta_star_two_user,
    beta_upper,
    max_condition_holds,
    threshold_report,
)

SPEC2 = CostSpec(q=2.0, beta=2.0)

# The benchmark's seeded sets: one generator, 30x5 drawn first.
_RNG = np.random.default_rng(0)
USERS_30X5 = UserSet(_RNG.random((30, 5)))
USERS_200X10 = UserSet(_RNG.random((200, 10)))


def test_beta_star_closed_values():
    assert beta_star_two_user(math.pi / 2) == pytest.approx(2.0, abs=1e-12)
    assert beta_star_two_user(math.pi / 3) == pytest.approx(4.0, abs=1e-12)
    assert beta_star_two_user(math.pi / 4) == pytest.approx(2.0 / (1.0 - math.cos(math.pi / 4)), abs=1e-12)
    assert beta_star_two_user(0.0) == math.inf


def test_beta_star_validates_angle():
    with pytest.raises(ValueError):
        beta_star_two_user(-0.1)
    with pytest.raises(ValueError):
        beta_star_two_user(math.pi / 2 + 0.1)


@pytest.mark.parametrize("n", [2, 4, 9])
def test_beta_upper_orthonormal(n):
    assert beta_upper(orthonormal_users(n), SPEC2) == pytest.approx(2.0, abs=1e-12)


def test_beta_upper_identical_users_infinite():
    users = UserSet(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
    assert beta_upper(users, SPEC2) == math.inf


def test_beta_upper_requires_two_users():
    with pytest.raises(ValueError):
        beta_upper(UserSet(np.array([[1.0, 0.0]])), SPEC2)


def test_beta_upper_explicit_formula():
    # Recompute log N / (log N - log Z) with per-row loops as a cross-check.
    rng = np.random.default_rng(7)
    users = UserSet(np.abs(rng.standard_normal((3, 3))) + 0.05)
    got = beta_upper(users, SPEC2)
    assert got == pytest.approx(13.637227546462267, rel=1e-12)
    acc = np.zeros(3)
    for row in users.embeddings:
        acc += row / np.linalg.norm(row)
    z = float(np.linalg.norm(acc))
    n = 3
    assert got == pytest.approx(math.log(n) / (math.log(n) - math.log(z)), rel=1e-12)


@pytest.mark.parametrize("users", [USERS_30X5, USERS_200X10], ids=["30x5", "200x10"])
@pytest.mark.parametrize("spec", [SPEC2, CostSpec(q=3.0, beta=2.0)], ids=["q2", "q3"])
def test_beta_upper_bitwise_matches_row_loop(users, spec):
    # The definition, one dual norm per user row, on the benchmark's solve sets.
    U = users.embeddings
    duals = np.array([dual_norm(row, spec) for row in U])
    z = dual_norm(U.T @ (1.0 / duals), spec)
    n = users.n_users
    assert beta_upper(users, spec) == math.log(n) / (math.log(n) - math.log(z))


def test_beta_upper_never_below_two_user_closed_form():
    for theta in (0.4, math.pi / 4, 1.2, math.pi / 2):
        users = angle_pair(theta)
        assert beta_upper(users, SPEC2) >= beta_star_two_user(theta) - 1e-9


def test_max_condition_flips_at_threshold():
    users = UserSet(np.eye(2))
    below, *_ = max_condition_holds(users, SPEC2, 1.5)
    above, *_ = max_condition_holds(users, SPEC2, 2.5)
    assert below is True
    assert above is False


def test_max_condition_trace_ordering():
    users = angle_pair(math.pi / 3)
    for beta in (1.2, 3.0, 4.5):
        holds, lhs, rhs, _ = max_condition_holds(users, SPEC2, beta)
        assert rhs >= lhs - 1e-12
        if holds is False:
            tau = threshold_mod._tau(users.n_users)
            assert rhs - lhs >= tau - 1e-15


def test_max_condition_rejects_bad_beta():
    with pytest.raises(ValueError):
        max_condition_holds(UserSet(np.eye(2)), SPEC2, 0.5)


def test_threshold_report_basis_pair():
    rep = threshold_report(UserSet(np.eye(2)), SPEC2)
    assert rep.beta_star_closed == 2.0
    assert rep.beta_upper == pytest.approx(2.0, abs=1e-12)
    assert rep.beta_estimate == pytest.approx(1.9843750000000004, abs=1e-9)
    assert abs(rep.beta_estimate - 2.0) < 0.15
    betas = [p.beta for p in rep.condition_trace]
    assert betas == sorted(betas)
    assert len(set(betas)) == len(betas)


def test_threshold_report_pi_three():
    rep = threshold_report(angle_pair(math.pi / 3), SPEC2)
    assert rep.beta_star_closed == pytest.approx(4.0, abs=1e-12)
    assert rep.beta_estimate == pytest.approx(3.998387412267929, abs=1e-9)
    assert abs(rep.beta_estimate - 4.0) < 0.15


def test_threshold_report_pi_four():
    rep = threshold_report(angle_pair(math.pi / 4), SPEC2)
    closed = 2.0 / (1.0 - math.cos(math.pi / 4))
    assert rep.beta_star_closed == pytest.approx(closed, abs=1e-12)
    assert abs(rep.beta_estimate - closed) < 0.15


def test_threshold_report_identical_users():
    users = UserSet(np.array([[2.0, 1.0], [2.0, 1.0]]))
    rep = threshold_report(users, SPEC2)
    assert rep.beta_upper == math.inf
    assert rep.beta_estimate == math.inf
    assert rep.condition_trace == ()


def test_threshold_report_no_closed_form_for_three_users():
    users = UserSet(np.abs(np.random.default_rng(1).standard_normal((3, 2))) + 0.2)
    rep = threshold_report(users, SPEC2)
    assert rep.beta_star_closed is None
    assert rep.beta_estimate is not None


def test_flags_nonincreasing_small_grid():
    users = UserSet(np.eye(2))
    flags = []
    for beta in np.linspace(1.0, 3.0, 6):
        holds, *_ = max_condition_holds(users, SPEC2, float(beta))
        flags.append(holds)
    seen_false = False
    for f in flags:
        if f is False:
            seen_false = True
        if seen_false:
            assert f is not True


def test_beta_estimate_within_bound():
    users = angle_pair(1.0)
    est = threshold_report(users, SPEC2).beta_estimate
    assert 1.0 <= est <= beta_upper(users, SPEC2)


def test_hull_search_deterministic():
    users = angle_pair(1.1)
    a = threshold_report(users, SPEC2)
    b = threshold_report(users, SPEC2)
    assert a.beta_estimate == b.beta_estimate
    assert [p.beta for p in a.condition_trace] == [p.beta for p in b.condition_trace]
    assert [p.lhs_log for p in a.condition_trace] == [p.lhs_log for p in b.condition_trace]
    assert a.condition_trace == b.condition_trace


@pytest.mark.parametrize("theta", [0.3, 0.6, 1.0, math.pi / 4, math.pi / 3, 1.2, math.pi / 2])
def test_angle_pair_estimate_within_gap_of_closed_form(theta):
    rep = threshold_report(angle_pair(theta), SPEC2)
    assert abs(rep.beta_estimate - 2.0 / (1.0 - math.cos(theta))) <= threshold_mod._GAP
    # D = 2 pricing searches every angle, so each probe is decided globally.
    assert {p.status for p in rep.condition_trace} <= {"beaten", "priced_out"}


@pytest.mark.parametrize("users", [USERS_30X5, USERS_200X10], ids=["30x5", "200x10"])
def test_threshold_report_bytes_do_not_depend_on_seed(tmp_path, capsys, users):
    path = tmp_path / "users.csv"
    save_embeddings_csv(users, path)
    outs = []
    for seed in range(5):
        assert run(["threshold", "--users", str(path), "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert f'"seed": {seed},' in out
        outs.append(out.replace(f'"seed": {seed},', '"seed": _,'))
    assert outs == outs[:1] * 5


def test_threshold_estimates_on_benchmark_sets():
    # Below the lowest sampled-hull estimate over --seed 0..4 (9.4714 and
    # 13.1256): random points missed improvements and read them as "holds".
    est30 = threshold_report(USERS_30X5, SPEC2)
    est200 = threshold_report(USERS_200X10, SPEC2)
    assert 9.0 < est30.beta_estimate <= 9.471406802579658
    assert 12.0 < est200.beta_estimate <= 13.125578790996029
    for rep in (est30, est200):
        assert {p.status for p in rep.condition_trace} <= {"beaten", "local_max"}
        assert "beaten" in {p.status for p in rep.condition_trace}


def test_largest_holding_beta_survives_random_points():
    # At the largest beta the search accepts on 30x5, no seeded random
    # cone-ball point, nor any point of the old sampled test's 50 trials of
    # 75, prices above N + tau at the anchor.
    users = USERS_30X5
    rep = threshold_report(users, SPEC2)
    beta = max(p.beta for p in rep.condition_trace if p.holds)
    U = users.embeddings
    anchor = nsw_direction(users, SPEC2)
    a = U @ anchor.point
    tau = threshold_mod._tau(users.n_users)
    draws = [np.abs(np.random.default_rng(123).standard_normal((20000, 5)))]
    draws += [np.abs(np.random.default_rng([0, t]).standard_normal((75, 5))) for t in range(50)]
    for pts in draws:
        pts = pts / weighted_norm(pts, SPEC2)[:, None]
        price = (((pts @ U.T) / a) ** beta).sum(axis=1)
        assert price.max() <= users.n_users + tau


def _vertex_mixture_value(users, spec, beta):
    # At q = 1 every point of the ball is a mixture of 0 and the vertices
    # e_k, and the values (<p, u_i>/a_i)^beta are convex in p, so the best
    # mixture of the vertices and the anchor is the best of all mixtures.
    U = users.embeddings
    a = U @ nsw_direction(users, spec).point
    Y = np.vstack([np.ones(users.n_users), (U.T / a) ** beta])
    return simplex_logsum_max(Y).value


@pytest.mark.parametrize("U, alpha", [
    (np.array([[1.0, 0.2], [0.3, 1.0]]), None),
    (np.array([[1.0, 0.2], [0.3, 1.0]]), np.array([1.0, 3.0])),
    (np.random.default_rng(3).random((6, 4)), None),
    (np.random.default_rng(3).random((6, 4)), np.array([1.0, 1.5, 1.0, 4.0])),
], ids=["pair", "pair_weighted", "6x4", "6x4_weighted"])
def test_q1_flips_where_vertex_pricing_says(U, alpha):
    # The weighted cases run on the users divided by alpha.
    users, spec = UserSet(U if alpha is None else U / alpha), CostSpec(q=1.0)
    tau = threshold_mod._tau(users.n_users)
    est = threshold_report(users, spec).beta_estimate
    flags = []
    for beta in np.unique(np.r_[np.linspace(1.0, 1.1, 11), np.linspace(est - 0.5, est + 0.5, 11)]):
        if beta < 1.0:
            continue
        holds, _, _, status = max_condition_holds(users, spec, float(beta))
        oracle = _vertex_mixture_value(users, spec, float(beta))
        if abs(oracle - tau) > 1e-9:
            assert holds is (oracle < tau)
        assert status == ("priced_out" if holds else "beaten")
        flags.append(holds)
    assert True in flags and False in flags


def test_qinf_never_flips():
    # At q = inf the all-ones point dominates every other point of the ball
    # in every user's value, so nothing beats the anchor at any beta; the
    # weighted case runs on the users divided by alpha.
    U = np.random.default_rng(3).random((6, 4))
    spec = CostSpec(q=math.inf)
    for users in (UserSet(U), UserSet(U / np.array([1.0, 1.5, 1.0, 4.0]))):
        for beta in (1.0, 2.0, 5.0, 40.0):
            assert max_condition_holds(users, spec, beta)[::3] == (True, "priced_out")
        assert threshold_report(users, spec).beta_estimate == math.inf


def test_weighted_pair_flips_at_rescaled_closed_form():
    # ||alpha p||_2 <= 1 with users u_i is the unit ball with users u_i/alpha,
    # so the two-user closed form applies to the rescaled pair.
    U, alpha = np.array([[1.0, 0.2], [0.3, 1.0]]), np.array([1.0, 2.0])
    users, spec = UserSet(U / alpha), CostSpec(q=2.0)
    v1, v2 = U / alpha
    closed = 2.0 / (1.0 - v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2)))
    rep = threshold_report(users, spec)
    assert rep.beta_star_closed == pytest.approx(closed, rel=1e-14)
    assert abs(rep.beta_estimate - closed) <= threshold_mod._GAP
    assert max_condition_holds(users, spec, closed - 0.1)[::3] == (True, "priced_out")
    assert max_condition_holds(users, spec, closed + 0.1)[::3] == (False, "beaten")


def test_round_cap_is_inconclusive(monkeypatch):
    monkeypatch.setattr(threshold_mod, "_ROUND_CAP", 1)
    holds, lhs, rhs, status = max_condition_holds(USERS_30X5, SPEC2, 12.0)
    assert (holds, status) == (None, "round_cap")
    assert rhs == lhs


def test_probes_share_one_pool():
    users = USERS_30X5
    anchor = nsw_direction(users, SPEC2)
    pool = [anchor.point]
    first = max_condition_holds(users, SPEC2, 12.0, anchor, pool)
    assert first[::3] == (False, "beaten") and len(pool) > 1
    grown = len(pool)
    # The points found at beta = 12 already beat the anchor at 13.
    assert max_condition_holds(users, SPEC2, 13.0, anchor, pool)[::3] == (False, "beaten")
    assert len(pool) == grown


def test_probes_decide_near_the_threshold_at_q7():
    # Each new column is ascended to its local maximum.  Columns cut off at
    # the first price above the bar were near-copies of the pool, and the
    # probe at beta = 24.18 on this set stayed undecided after _ROUND_CAP.
    rep = threshold_report(UserSet(np.random.default_rng(11).random((8, 3))), CostSpec(q=7.0))
    assert all(p.holds is not None for p in rep.condition_trace)
    assert 24.1 < rep.beta_estimate < 24.2
