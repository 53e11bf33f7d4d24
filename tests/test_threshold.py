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


def test_probes_share_one_pool():
    # The pool holds the witnesses of beaten probes and nothing else.
    users = USERS_30X5
    anchor = nsw_direction(users, SPEC2)
    pool = []
    first = max_condition_holds(users, SPEC2, 12.0, anchor, pool)
    assert first[::3] == (False, "beaten")
    assert len(pool) == 1 and tuple(pool[0].tolist()) == first[2]
    # The witness found at beta = 12 already beats the anchor at 13: it is
    # the witness again, and the pool keeps one copy.
    again = max_condition_holds(users, SPEC2, 13.0, anchor, pool)
    assert again[::3] == (False, "beaten") and again[2] == first[2]
    assert len(pool) == 1
    assert max_condition_holds(users, SPEC2, 8.0, anchor, pool)[0] is True
    assert len(pool) == 1


def test_probes_decide_near_the_threshold_at_q7():
    # Near its threshold this set's probes come within 0.01 of beta*.
    rep = threshold_report(UserSet(np.random.default_rng(11).random((8, 3))), CostSpec(q=7.0))
    assert 24.1 < rep.beta_estimate < 24.2


# price without its return at the first point above the bar, nor compact
# arrays: conditional-gradient ascents over the full arrays, each start to its
# stall, the reference for the D > 2 ascent.
_PRICE = threshold_mod.price


def _price_cg(U, a, beta, spec, pool, bar):
    d = U.shape[1]
    if spec.q == 1.0 or math.isinf(spec.q) or d <= 2:
        return _PRICE(U, a, beta, spec, pool, bar)
    S = threshold_mod.dual_point(U, spec)
    own = ((S * U).sum(axis=1) / a) ** beta
    P = np.vstack([*pool, np.eye(d), S[np.argsort(-own)[:threshold_mod._USER_STARTS]]])
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
        live = live[up]
        P[live], Z[live], v[live] = Pn[up], Zn[up], vn[up]
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
    # climb to the top does; the pools differ, since their witnesses do.
    users, spec = UserSet(ASCENT_SETS[name]), CostSpec(q=q)
    new = threshold_report(users, spec)
    monkeypatch.setattr(threshold_mod, "price", _price_cg)
    old = threshold_report(users, spec)
    assert ([(p.beta, p.holds, p.status) for p in new.condition_trace]
            == [(p.beta, p.holds, p.status) for p in old.condition_trace])
    assert (new.beta_estimate, new.beta_upper) == (old.beta_estimate, old.beta_upper)


@pytest.mark.parametrize("name, q", [("30x5", 2.0), ("200x10", 3.0), ("rng7_10x3", 1.5),
                                     ("rng11_8x3", 7.0)])
def test_ascent_below_the_bar_matches_the_conditional_gradient_ascent_bitwise(
        monkeypatch, name, q):
    # The return above the bar and the compact arrays change nothing else,
    # so a pricing no start lifts above the bar is the full-array ascent's,
    # to the last bit.
    calls = []

    def spy(U, a, beta, spec, pool, bar):
        out = _PRICE(U, a, beta, spec, pool, bar)
        calls.append(((U, a, beta, spec, list(pool), bar), out))
        return out

    monkeypatch.setattr(threshold_mod, "price", spy)
    threshold_report(UserSet(ASCENT_SETS[name]), CostSpec(q=q))
    below = [(args, out) for args, out in calls if out[1] <= args[-1]]
    assert below
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
    # The axes are also three users' dual points here, and the pool can hold
    # them too; the first copy of each start is kept, and a copy would have
    # taken the same steps, so the report is what it was with the copies:
    # the values pinned below.  Each gradient row belongs to one start.
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
