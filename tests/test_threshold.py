"""Specialization thresholds: closed form, dual-norm bound, first-order test."""

import math

import numpy as np
import pytest

import supply_eq.optimize as optimize_mod
import supply_eq.threshold as threshold_mod
from supply_eq.cli import run
from supply_eq.geometry import (
    CostSpec,
    UserSet,
    angle_pair,
    beta_star_two_user,
    dual_norm,
    orthonormal_users,
    weighted_norm,
)
from supply_eq.ingest import save_embeddings_csv
from supply_eq.optimize import nsw_direction, simplex_logsum_max
from supply_eq.threshold import (
    ConditionProbe,
    beta_upper,
    max_condition_holds,
    threshold_report,
)

SPEC2 = CostSpec(q=2.0, beta=2.0)
delta = threshold_mod._delta

# The benchmark's seeded sets: one generator, 30x5 drawn first.
_RNG = np.random.default_rng(0)
USERS_30X5 = UserSet(_RNG.random((30, 5)))
USERS_200X10 = UserSet(_RNG.random((200, 10)))


def test_beta_star_closed_values():
    assert beta_star_two_user(angle_pair(math.pi / 2)) == pytest.approx(2.0, abs=1e-12)
    assert beta_star_two_user(angle_pair(math.pi / 3)) == pytest.approx(4.0, abs=1e-12)
    assert beta_star_two_user(angle_pair(math.pi / 4)) == pytest.approx(
        2.0 / (1.0 - math.cos(math.pi / 4)), abs=1e-12)
    assert beta_star_two_user(angle_pair(0.0)) == math.inf


def test_beta_star_validates_angle():
    with pytest.raises(ValueError):
        beta_star_two_user(angle_pair(-0.1))
    with pytest.raises(ValueError):
        beta_star_two_user(angle_pair(math.pi / 2 + 0.1))


@pytest.mark.parametrize("n", [2, 4, 9])
def test_beta_upper_orthonormal(n):
    assert beta_upper(orthonormal_users(n), SPEC2) == pytest.approx(2.0, abs=1e-12)


def test_beta_upper_identical_users_infinite():
    users = UserSet(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
    assert beta_upper(users, SPEC2) == math.inf


def test_beta_upper_single_user_infinite():
    # One user is a homogeneous market: Z = N, and the single genre never breaks.
    assert beta_upper(UserSet(np.array([[1.0, 0.0]])), SPEC2) == math.inf


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
        assert beta_upper(users, SPEC2) >= beta_star_two_user(angle_pair(theta)) - 1e-9


def test_max_condition_flips_at_threshold():
    users = UserSet(np.eye(2))
    below, *_ = max_condition_holds(users, SPEC2, 1.5)
    above, *_ = max_condition_holds(users, SPEC2, 2.5)
    assert below is True
    assert above is False


def test_max_condition_trace_ordering():
    # A beaten probe's witness is a unit-cost point whose sum of y_i is
    # N + excess, above the bar; a holding probe has no witness.
    users = angle_pair(math.pi / 3)
    a = users.embeddings @ nsw_direction(users, SPEC2).point
    for beta in (1.2, 3.0, 4.5):
        holds, excess, witness, status = max_condition_holds(users, SPEC2, beta)
        assert holds is (beta < 4.0)
        if holds:
            assert witness is None and excess <= delta(beta) * 2 and status == "priced_out"
        else:
            w = np.array(witness)
            assert weighted_norm(w, SPEC2) == pytest.approx(1.0, abs=1e-15)
            assert float(((users.embeddings @ w / a) ** beta).sum()) == 2 + excess
            assert excess > delta(beta) * 2 and status == "beaten"


def test_max_condition_beaten_past_the_double_range():
    # At beta = 5000 the best sums overflow: inf is above any bar.
    holds, _, witness, status = max_condition_holds(USERS_30X5, SPEC2, 5000.0)
    assert (holds, status) == (False, "beaten") and witness is not None


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


NEAR_PAIR = UserSet(np.array([[1.0, 1.0, 0.3], [1.0, 1.000001, 0.3]]))


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_near_parallel_pair_gets_a_finite_certified_upper_end(q):
    # The dual-norm bound is inf here: Z rounds to N.  The upper end is where
    # the user of largest ||u_j||_*/a_j beats the bar at its own dual point,
    # re-priced here from the anchor and that point built by hand.
    spec = CostSpec(q=q)
    assert beta_upper(NEAR_PAIR, spec) == math.inf
    rep = threshold_report(NEAR_PAIR, spec)
    top = rep.beta_upper
    assert 1e13 < top < math.inf
    if q == 2.0:
        assert top >= rep.beta_star_closed == beta_star_two_user(NEAR_PAIR)
    U = NEAR_PAIR.embeddings
    a = U @ nsw_direction(NEAR_PAIR, spec).point
    j = int(np.argmax(dual_norm(U, spec) / a))
    p = U[j] ** (1.0 / (q - 1.0))
    p /= (p ** q).sum() ** (1.0 / q)
    assert ((U @ p / a) ** top).sum() > 2.0 * (1.0 + delta(top))
    assert max_condition_holds(NEAR_PAIR, spec, top)[3] == "beaten"
    assert rep.condition_trace and rep.beta_estimate <= top


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, math.inf])
def test_pair_parallel_to_rounding_keeps_an_infinite_upper_end(q):
    # At 1e-8 apart y_j rounds to 1, at q = 1 the own point is the anchor's
    # vertex, and q = inf takes no own point: no finite end is certified.
    users = UserSet(np.array([[1.0, 1.0, 0.3], [1.0, 1.0 + 1e-8, 0.3]]))
    rep = threshold_report(users, CostSpec(q=q))
    assert rep.beta_upper == rep.beta_estimate == math.inf
    assert rep.condition_trace == () and rep.anchor_converged


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
    assert [p.excess for p in a.condition_trace] == [p.excess for p in b.condition_trace]
    assert a.condition_trace == b.condition_trace


# 59 angles from 0.05 (beta* = 1600) to 1.5; a copy of a listed angle runs once.
_THETAS = dict.fromkeys([0.3, 0.6, 1.0, math.pi / 4, math.pi / 3, 1.2, math.pi / 2,
                         *np.linspace(0.05, 1.5, 59).tolist()])


@pytest.mark.parametrize("theta", list(_THETAS))
def test_angle_pair_estimate_within_gap_of_closed_form(theta):
    rep = threshold_report(angle_pair(theta), SPEC2)
    assert abs(rep.beta_estimate - rep.beta_star_closed) <= threshold_mod._GAP
    # D = 2 pricing searches every angle, so each probe is decided globally,
    # and every verdict is the closed form's.
    assert {p.status for p in rep.condition_trace} <= {"beaten", "priced_out"}
    assert [p.holds for p in rep.condition_trace] == [
        p.beta <= rep.beta_star_closed for p in rep.condition_trace]


@pytest.mark.parametrize("theta", [0.02, 0.005, 0.002])
def test_near_parallel_pair_prints_no_false_certificate(theta):
    # beta* is 10^4, 1.6e5 and 10^6 here.  The sum's rounding, which the bar
    # covers, grows like beta ulps, while the true excess at beta* + _GAP
    # shrinks (1.9e-11 N at theta = 0.02, 6e-14 N at 0.005), so a probe just
    # above beta* may hold and the estimate sit above beta* by a few parts in
    # 10^5.  A beaten probe is still a true certificate: it lies above beta*.
    rep = threshold_report(angle_pair(theta), SPEC2)
    closed = rep.beta_star_closed
    assert all(p.beta > closed for p in rep.condition_trace if not p.holds)
    assert closed - 0.5 * threshold_mod._GAP < rep.beta_estimate < closed * (1.0 + 1e-4)


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
    # On 200x10 a point prices 0.17 above N at beta = 12.4352.
    est30 = threshold_report(USERS_30X5, SPEC2)
    est200 = threshold_report(USERS_200X10, SPEC2)
    assert 9.0 < est30.beta_estimate <= 9.471406802579658
    assert 12.0 < est200.beta_estimate < 12.4352
    # On 30x5 the ascents at beta = 9.3478 were still climbing at the step cap.
    assert [p.status for p in est30.condition_trace] == (
        ["local_max"] * 2 + ["step_cap"] + ["beaten"] * 7)
    assert [p.status for p in est200.condition_trace] == ["local_max"] * 3 + ["beaten"] * 7
    assert est200.condition_trace[3].excess > 0.17


def test_largest_holding_beta_survives_random_points():
    # At the largest beta the search accepts on 30x5, no seeded random
    # cone-ball point, nor any point of the old sampled test's 50 trials of
    # 75, prices above the bar N (1 + delta) at the anchor.
    users = USERS_30X5
    rep = threshold_report(users, SPEC2)
    beta = max(p.beta for p in rep.condition_trace if p.holds)
    U = users.embeddings
    anchor = nsw_direction(users, SPEC2)
    a = U @ anchor.point
    draws = [np.abs(np.random.default_rng(123).standard_normal((20000, 5)))]
    draws += [np.abs(np.random.default_rng([0, t]).standard_normal((75, 5))) for t in range(50)]
    for pts in draws:
        pts = pts / weighted_norm(pts, SPEC2)[:, None]
        price = (((pts @ U.T) / a) ** beta).sum(axis=1)
        assert price.max() <= users.n_users * (1.0 + delta(beta))


def _vertex_mixture_value(users, spec, beta):
    # At q = 1 every point of the ball is a mixture of 0 and the vertices
    # e_k, and the values (<p, u_i>/a_i)^beta are convex in p, so the best
    # mixture of the vertices and the anchor is the best of all mixtures:
    # (its gain in summed log value, the best vertex's sum of values).
    U = users.embeddings
    a = U @ nsw_direction(users, spec).point
    Y = np.vstack([np.ones(users.n_users), (U.T / a) ** beta])
    return simplex_logsum_max(Y).value, float(Y[1:].sum(axis=1).max())


@pytest.mark.parametrize("U, alpha", [
    (np.array([[1.0, 0.2], [0.3, 1.0]]), None),
    (np.array([[1.0, 0.2], [0.3, 1.0]]), np.array([1.0, 3.0])),
    (np.random.default_rng(3).random((6, 4)), None),
    (np.random.default_rng(3).random((6, 4)), np.array([1.0, 1.5, 1.0, 4.0])),
], ids=["pair", "pair_weighted", "6x4", "6x4_weighted"])
def test_q1_flips_where_vertex_pricing_says(U, alpha):
    # The weighted cases run on the users divided by alpha.
    # The first-order test agrees with the best vertex, and the concave
    # mixture program gains where it says beaten.
    users, spec = UserSet(U if alpha is None else U / alpha), CostSpec(q=1.0)
    n = users.n_users
    est = threshold_report(users, spec).beta_estimate
    flags = []
    for beta in np.unique(np.r_[np.linspace(1.0, 1.1, 11), np.linspace(est - 0.5, est + 0.5, 11)]):
        if beta < 1.0:
            continue
        holds, excess, _, status = max_condition_holds(users, spec, float(beta))
        gain, vertex = _vertex_mixture_value(users, spec, float(beta))
        assert excess == pytest.approx(vertex - n, rel=1e-12, abs=1e-12)
        assert holds is (vertex <= n * (1.0 + delta(float(beta))))
        if gain > 1e-9:
            assert not holds
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


@pytest.mark.parametrize("users", [USERS_30X5, USERS_200X10], ids=["30x5", "200x10"])
@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 7.0])
def test_a_probe_in_a_search_answers_as_it_does_alone(users, q):
    # A probe reads only the users, the cost, beta and the anchor, so each
    # entry of the trace is the same probe run on its own, to the last bit.
    spec = CostSpec(q=q)
    anchor = threshold_mod._Anchor(users, spec)
    rep = threshold_report(users, spec)
    assert rep.condition_trace
    for p in rep.condition_trace:
        assert ConditionProbe(p.beta, *max_condition_holds(users, spec, p.beta, anchor)) == p


def test_probes_decide_near_the_threshold_at_q7():
    # Near its threshold this set's probes come within 0.01 of beta*.
    rep = threshold_report(UserSet(np.random.default_rng(11).random((8, 3))), CostSpec(q=7.0))
    assert 24.1 < rep.beta_estimate < 24.2


# price without its return at the first point above the bar, nor compact
# arrays: conditional-gradient ascents over the full arrays, each start to its
# stall or into the anchor's cap, the reference for the D > 2 ascent.
_PRICE = threshold_mod.price


def _price_cg(U, a, beta, spec, bar, cap=None):
    d = U.shape[1]
    if spec.q == 1.0 or math.isinf(spec.q) or d <= 2:
        return _PRICE(U, a, beta, spec, bar, cap)
    S = threshold_mod.dual_point(U, spec)
    own = ((S * U).sum(axis=1) / a) ** beta
    P = np.vstack([np.eye(d), S[np.argsort(-own)[:threshold_mod._USER_STARTS]]])
    P = P[np.sort(np.unique(P, axis=0, return_index=True)[1])]
    Z = P @ U.T / a
    v = (Z ** beta).sum(axis=1)
    live = np.flatnonzero(v > 0)
    for _ in range(threshold_mod._ASCENT_STEPS):
        if not live.size:
            break
        Pn = threshold_mod.dual_point(Z[live] ** (beta - 1.0) / a @ U, spec)
        Zn = Pn @ U.T / a
        vn = (Zn ** beta).sum(axis=1)
        up = vn > v[live] * (1.0 + threshold_mod._STALL)
        if cap is not None:
            up &= Pn @ cap[0] < cap[1]
        live = live[up]
        P[live], Z[live], v[live] = Pn[up], Zn[up], vn[up]
    if cap is not None:
        P = np.vstack([P, cap[0]])
        v = np.append(v, ((cap[0][None] @ U.T / a) ** beta).sum(axis=1))
    return P[np.argmax(v)], float(v.max()), "step_cap" if live.size else "local_max"


_R7 = np.random.default_rng(7)
ASCENT_SETS = {
    "30x5": USERS_30X5.embeddings,
    "200x10": USERS_200X10.embeddings,
    **{f"rng7_{n}x{d}": _R7.random((n, d)) for n, d in ((10, 3), (20, 4), (30, 5), (40, 6),
                                                        (50, 7))},
    "rng11_8x3": np.random.default_rng(11).random((8, 3)),
}
ASCENT_CASES = [(name, q) for name in list(ASCENT_SETS)[:-1] for q in (1.5, 2.0, 3.0, 7.0)]
ASCENT_CASES.append(("rng11_8x3", 7.0))


@pytest.mark.parametrize("name, q", ASCENT_CASES)
def test_ascent_keeps_every_verdict_of_the_conditional_gradient_ascent(monkeypatch, name, q):
    # Returning at the first point above the bar decides a probe as the
    # climb to the top does, though its witness may differ.
    users, spec = UserSet(ASCENT_SETS[name]), CostSpec(q=q)
    new = threshold_report(users, spec)
    monkeypatch.setattr(threshold_mod, "price", _price_cg)
    old = threshold_report(users, spec)
    assert ([(p.beta, p.holds, p.status) for p in new.condition_trace]
            == [(p.beta, p.holds, p.status) for p in old.condition_trace])
    assert (new.beta_estimate, new.beta_upper) == (old.beta_estimate, old.beta_upper)


@pytest.mark.parametrize("name, q", ASCENT_CASES)
def test_the_cap_keeps_every_verdict_of_the_uncapped_ascent(monkeypatch, name, q):
    # Stopping a start in the anchor's cap moves no probe's verdict, and so
    # no bisection step: only a holding probe's excess and status can move.
    users, spec = UserSet(ASCENT_SETS[name]), CostSpec(q=q)
    new = threshold_report(users, spec)
    monkeypatch.setattr(threshold_mod, "_cap", lambda *args: None)
    old = threshold_report(users, spec)
    assert ([(p.beta, p.holds) for p in new.condition_trace]
            == [(p.beta, p.holds) for p in old.condition_trace])
    assert [p for p in new.condition_trace if not p.holds] == [
        p for p in old.condition_trace if not p.holds]
    assert (new.beta_estimate, new.beta_upper) == (old.beta_estimate, old.beta_upper)


def _tangential(U, x):
    # The rows t_i: the parts of u_i/<x, u_i> orthogonal to the unit anchor x.
    W = U / (U @ x)[:, None]
    return W - np.outer(W @ x, x)


# One user apart from a cluster of 20 puts the cap's edge within a factor
# 3.05-3.4 of the nearest point above the bar as beta nears beta_loc.
_OUTLIER = np.vstack([[1.0, 0.0, 0.0]] + [[math.cos(0.3), math.sin(0.3), 0.2]] * 20)
CAP_SETS = {
    **{name: ASCENT_SETS[name] for name in list(ASCENT_SETS)[:-1]},
    "zero_column_12x4": np.random.default_rng(9).random((12, 4)) * [1.0, 1.0, 0.0, 1.0],
    "near_parallel_6x3": 1.0 + 1e-3 * np.random.default_rng(5).random((6, 3)),
    "outlier_21x3": _OUTLIER + 1e-3 * np.random.default_rng(1).random(_OUTLIER.shape),
}


@pytest.mark.parametrize("name", list(CAP_SETS))
def test_no_point_of_the_cap_prices_above_the_bar(name):
    # Seeded feasible unit points inside the cap, a third of them on its
    # edge, and the edge points toward each user and along the top
    # eigenvector of sum_i t_i t_i^T, priced in plain numpy at a grid of
    # beta in [2, beta_loc): none is above N (1 + delta(beta)).  At least
    # 5,000 points a set, so over 20,000 on the ten sets.
    users = UserSet(CAP_SETS[name])
    U, spec = users.embeddings, SPEC2
    anchor = threshold_mod._Anchor(users, spec)
    x, n = anchor.point, users.n_users
    a, T = U @ x, _tangential(U, x)
    lam, V = np.linalg.eigh(T.T @ T)
    beta_loc = 1.0 + n / lam[-1]
    edge_dirs = np.vstack([T, -T, V[:, -1], -V[:, -1]])
    rng = np.random.default_rng(123)
    priced = 0
    for beta in np.linspace(2.0, beta_loc, 7)[:-1].tolist() + [beta_loc * (1.0 - 1e-6)]:
        p0, cos = threshold_mod._cap(anchor, beta)
        assert p0 is x and 0.0 <= cos <= 1.0
        theta = math.acos(cos)
        E = rng.standard_normal((3000, U.shape[1]))
        angles = theta * np.sqrt(rng.random(3000))
        angles[:1000] = theta
        E = np.vstack([E, edge_dirs])
        angles = np.r_[angles, np.full(len(edge_dirs), theta)]
        E -= np.outer(E @ x, x)
        E /= np.linalg.norm(E, axis=1)[:, None]
        P = np.cos(angles)[:, None] * x + np.sin(angles)[:, None] * E
        P = P[(P >= 0.0).all(axis=1)]
        P /= np.linalg.norm(P, axis=1)[:, None]
        values = (((P @ U.T) / a) ** beta).sum(axis=1)
        assert values.max() <= n * (1.0 + delta(beta))
        priced += len(P)
    assert priced >= 5000
    for beta in (beta_loc, beta_loc * 1.001, 2.0 * beta_loc):
        assert threshold_mod._cap(anchor, beta) is None


@pytest.mark.parametrize("theta", [0.3, 1.0, 1.2])
def test_beta_loc_is_the_two_user_closed_form(theta):
    # For two unit users at angle theta the anchor is the bisector and
    # lambda = 2 tan^2(theta/2), so 1 + N/lambda = 2/(1 - cos theta); _cap
    # proves a cap just below it and none just above.  A third feature that
    # neither user has lets the anchor carry the cap's data, which it builds
    # for the D > 2 ascent only.
    users = angle_pair(theta)
    anchor = threshold_mod._Anchor(UserSet(np.hstack([users.embeddings, [[0.0], [0.0]]])), SPEC2)
    U, x = users.embeddings, nsw_direction(users, SPEC2).point
    T = _tangential(U, x)
    closed = beta_star_two_user(users)
    assert 1.0 + 2.0 / np.linalg.eigvalsh(T.T @ T)[-1] == pytest.approx(closed, rel=1e-9, abs=0.0)
    assert threshold_mod._cap(anchor, closed * (1.0 - 1e-8)) is not None
    assert threshold_mod._cap(anchor, closed * (1.0 + 1e-8)) is None


def test_no_cap_off_q2_or_below_beta_2():
    anchor = threshold_mod._Anchor(USERS_30X5, SPEC2)
    assert threshold_mod._cap(anchor, 1.99) is None
    for q in (1.0, 1.5, 3.0, math.inf):
        assert threshold_mod._cap(threshold_mod._Anchor(USERS_30X5, CostSpec(q=q)), 5.0) is None
    assert threshold_mod._cap(anchor, 5.0) is not None


def _cap_reference(U, anchor, beta, spec):
    # The cap rebuilt from the anchor's point on every call: the reference
    # that the anchor's once-per-report build must match to the bit.
    if spec.q != 2.0 or beta < 2.0:
        return None
    (n, d), eps = U.shape, np.finfo(float).eps
    p0 = anchor / math.sqrt(anchor @ anchor)
    W = U / (U @ anchor)[:, None]
    c = W @ p0
    T = W - np.outer(c, p0)
    tn2, g = np.einsum("ij,ij->i", T, T), np.ones(n) @ T
    wn = np.sqrt(c * c + tn2)
    eta, grow = (d + 3) * eps * wn, 1.0 + threshold_mod._CAP_MARGIN + n * d * eps
    lam = (math.sqrt(max(np.linalg.eigvalsh(T.T @ T)[-1], 0.0)) * grow
           + math.sqrt(eta @ eta)) ** 2
    m = float((np.sqrt(tn2) + eta).max()) * grow
    gam = math.sqrt(g @ g) + (n + d + 3) * eps * float(wn.sum())
    slack = (1.0 + delta(beta)) / max(1.0, float(c.max()) * (1.0 + (d + 2) * eps)) ** beta - 1.0
    r = n / ((beta - 1.0) * lam)
    if r <= 1.0 or slack <= 0.0:
        return None
    tau = math.inf if beta == 2.0 else math.expm1(min(math.log(r) / (beta - 2.0), 700.0)) / m
    tau = min(tau, n * slack / (beta * gam))
    return anchor, 1.0 / math.hypot(1.0, tau)


def _same_caps(users, spec, betas):
    # The number of proved caps among betas, each the reference's to the bit.
    anchor, proved = threshold_mod._Anchor(users, spec), 0
    for beta in betas:
        ref = _cap_reference(users.embeddings, anchor.point, beta, spec) if users.dim > 2 else None
        cap = threshold_mod._cap(anchor, beta)
        assert (cap is None) is (ref is None)
        if cap is not None:
            assert cap[0] is ref[0] and cap[1].hex() == ref[1].hex()
            proved += 1
    return proved


@pytest.mark.parametrize("name, q", ASCENT_CASES)
def test_the_cap_built_once_a_report_is_the_per_probe_cap_bitwise(name, q):
    # The anchor's tangential data, built once for the report, gives each
    # probe the cosine the per-probe build gave, to the last bit.
    users, spec = UserSet(ASCENT_SETS[name]), CostSpec(q=q)
    betas = [p.beta for p in threshold_report(users, spec).condition_trace]
    assert betas
    proved = _same_caps(users, spec, betas)
    assert (proved > 0) is (q == 2.0)


@pytest.mark.parametrize("name", list(CAP_SETS))
def test_the_cap_built_once_a_report_matches_on_the_cap_grid_bitwise(name):
    users = UserSet(CAP_SETS[name])
    T = _tangential(users.embeddings, nsw_direction(users, SPEC2).point)
    beta_loc = 1.0 + users.n_users / np.linalg.eigvalsh(T.T @ T)[-1]
    betas = np.linspace(2.0, beta_loc, 7)[:-1].tolist() + [beta_loc * (1.0 - 1e-6)]
    assert _same_caps(users, SPEC2, betas) == 7
    assert _same_caps(users, SPEC2, [beta_loc, beta_loc * 1.001, 2.0 * beta_loc, 1.99]) == 0


def test_a_report_takes_one_eigvalsh_and_prints_the_per_probe_report_bitwise(monkeypatch):
    # The tangential data is built once per report, not once per probe, and
    # the report is the one each probe's own build gives.
    calls, real = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: calls.append(A.shape) or real(A))
    rep = threshold_report(USERS_30X5, SPEC2)
    assert len(rep.condition_trace) == 10
    assert calls == [(5, 5)]
    U = USERS_30X5.embeddings
    monkeypatch.setattr(threshold_mod, "_cap",
                        lambda anchor, beta: _cap_reference(U, anchor.point, beta, SPEC2))
    calls.clear()
    assert threshold_report(USERS_30X5, SPEC2) == rep
    assert len(calls) == 1 + 10  # the anchor's, then one per probe


@pytest.mark.parametrize("name, q", [("30x5", 2.0), ("200x10", 3.0), ("rng7_10x3", 1.5),
                                     ("rng11_8x3", 7.0)])
def test_ascent_below_the_bar_matches_the_conditional_gradient_ascent_bitwise(
        monkeypatch, name, q):
    # The return above the bar and the compact arrays change nothing else,
    # so a pricing no start lifts above the bar is the full-array ascent's,
    # to the last bit.
    calls = []

    def spy(U, a, beta, spec, bar, cap=None):
        out = _PRICE(U, a, beta, spec, bar, cap)
        calls.append(((U, a, beta, spec, bar, cap), out))
        return out

    monkeypatch.setattr(threshold_mod, "price", spy)
    threshold_report(UserSet(ASCENT_SETS[name]), CostSpec(q=q))
    below = [(args, out) for args, out in calls if out[1] <= args[4]]
    assert below
    assert (q == 2.0) is any(args[5] is not None for args, _ in below)
    for args, (point, price, status) in below:
        ref_point, ref_price, ref_status = _price_cg(*args)
        assert point.tobytes() == ref_point.tobytes()
        assert (price, status) == (ref_price, ref_status)


def test_a_newton_point_that_lowers_f_is_refused(monkeypatch):
    # The anchor's Newton finish keeps a step only where it lowers the
    # Frank-Wolfe gap.  A proposal toward e1 lowers the Nash welfare and
    # raises the gap, so each one is refused, and the reports are those of
    # the Frank-Wolfe anchor alone, to the last bit.
    def toward_e1(U, x, spec):
        y = x + np.eye(1, len(x))[0]
        return y / weighted_norm(y, spec), 1.0

    def no_polish(U, x, spec, cap):
        return x, optimize_mod._fw_gap(U, x, spec), 0

    for users in (USERS_30X5, UserSet(ASCENT_SETS["rng7_10x3"])):
        with monkeypatch.context() as m:
            m.setattr(optimize_mod, "_polish", no_polish)
            old = threshold_report(users, SPEC2)
        with monkeypatch.context() as m:
            m.setattr(optimize_mod, "_tangent_step", toward_e1)
            assert threshold_report(users, SPEC2) == old


def test_returning_above_the_bar_shortens_the_ascents(monkeypatch):
    calls = []
    real = threshold_mod.dual_point
    monkeypatch.setattr(threshold_mod, "dual_point", lambda *args: calls.append(1) or real(*args))
    threshold_report(USERS_30X5, SPEC2)
    new = len(calls)
    monkeypatch.setattr(threshold_mod, "price", _price_cg)
    calls.clear()
    threshold_report(USERS_30X5, SPEC2)
    assert new < 0.4 * len(calls)


def test_an_ascent_cut_by_its_step_cap_says_so(monkeypatch):
    monkeypatch.setattr(threshold_mod, "_ASCENT_STEPS", 1)
    assert max_condition_holds(USERS_30X5, SPEC2, 8.0)[::3] == (True, "step_cap")


def test_ascent_starts_no_copy_of_a_start(monkeypatch):
    # The axes are also three users' dual points here; the first copy of
    # each start is kept, and a copy would have taken the same steps, so the
    # report is what it was with the copies: the values pinned below.  Each
    # gradient row belongs to one start.
    seen, real = [], threshold_mod.dual_point

    def spy(G, spec):
        seen.append(len(np.unique(G, axis=0)) == len(G))
        return real(G, spec)

    monkeypatch.setattr(threshold_mod, "dual_point", spy)
    users = UserSet(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [1.0, 1.0, 0]]))
    rep = threshold_report(users, CostSpec(q=1.5))
    assert seen and all(seen)
    assert (rep.beta_estimate, rep.beta_upper) == (1.5091747930103852, 2.5517707977459354)
    assert [(p.beta, p.holds, p.witness, p.status) for p in rep.condition_trace] == [
        (1.3879426994364839, True, None, "local_max"),
        (1.4849283742956048, True, None, "local_max"),
        (1.5334212117251653, False, (0.0, 0.0, 1.0), "beaten"),
        (1.5819140491547259, False, (0.0, 0.0, 1.0), "beaten"),
        (1.7758853988729677, False, (0.0, 0.0, 1.0), "beaten"),
    ]


def test_newton_skips_a_zero_coordinate_below_q2(monkeypatch):
    # The second feature is no user's, and Frank-Wolfe sets it to 0: at
    # q < 2, x^(q-2) is infinite there, so the anchor's Newton steps run on
    # the support, with no RuntimeWarning (an error here) and no LinAlgError.
    seen, real = [], optimize_mod._tangent_step

    def spy(U, x, spec):
        seen.append(bool((x == 0).any()))
        return real(U, x, spec)

    monkeypatch.setattr(optimize_mod, "_tangent_step", spy)
    users = UserSet(np.array([[1.0, 0.0, 0.0, 0.5], [0.7, 0.0, 0.1, 0.3]]))
    anchor = nsw_direction(users, CostSpec(q=1.5))
    assert seen and all(seen) and anchor.converged and anchor.kkt_residual < 1e-15
    rep = threshold_report(users, CostSpec(q=1.5))
    assert 1.0 < rep.beta_estimate < rep.beta_upper < math.inf
