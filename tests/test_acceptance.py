"""Acceptance gate: one test per release criterion, one verdict line each.

Every check runs at its contractual tolerance against values the rest of the
suite has pinned independently.  Each test prints a single
``criterion NN: PASS`` / ``FAIL (...)`` line before asserting, so the verdict
is visible in captured output either way.
"""

import math
import time

import numpy as np
import scipy.stats as sp_stats

from supply_eq.closedform import (
    FinitePCurve,
    InfiniteTwoGenre,
    OnePopulation,
    QuarterCircle,
    eq_sample,
)
from supply_eq.geometry import (
    CostSpec,
    UserSet,
    angle_pair,
    basis_pair,
    beta_star_two_user,
    orthonormal_users,
)
from supply_eq.ingest import NmfConfig, RatingsTable, nmf_factorize
from supply_eq.optimize import nsw_direction
from supply_eq.threshold import (
    beta_upper,
    max_condition_holds,
    threshold_report,
)
from supply_eq.verify import best_response_gap, positive_profit_condition

SPEC2 = CostSpec(q=2.0, beta=2.0)


def verdict(num: int, checks: dict) -> None:
    bad = [name for name, ok in checks.items() if not ok]
    line = f"criterion {num:02d}: " + ("PASS" if not bad else f"FAIL ({', '.join(bad)})")
    print(line)
    assert not bad, line


def test_criterion_01_two_user_threshold_and_estimate():
    checks = {
        "closed_right_angle": abs(beta_star_two_user(angle_pair(math.pi / 2)) - 2.0) <= 1e-12,
        "closed_pi_third": abs(beta_star_two_user(angle_pair(math.pi / 3)) - 4.0) <= 1e-12,
    }
    for name, theta, target in (
        ("right_angle", math.pi / 2, 2.0),
        ("pi_third", math.pi / 3, 4.0),
    ):
        start = time.perf_counter()
        rep = threshold_report(angle_pair(theta), SPEC2)
        elapsed = time.perf_counter() - start
        checks[f"estimate_{name}"] = abs(rep.beta_estimate - target) <= 0.15
        checks[f"runtime_{name}"] = elapsed < 30.0
    verdict(1, checks)


def test_criterion_02_orthonormal_upper_bound():
    checks = {}
    for n in (2, 4, 9):
        got = beta_upper(orthonormal_users(n), SPEC2)
        checks[f"orthonormal_{n}"] = abs(got - 2.0) <= 1e-12
    identical = UserSet(np.tile(np.array([[1.0, 2.0]]), (3, 1)))
    checks["identical_infinite"] = beta_upper(identical, SPEC2) == math.inf
    verdict(2, checks)


def test_criterion_03_nsw_direction_and_vi_residual():
    users = basis_pair()
    res = nsw_direction(users, SPEC2)
    target = np.full(2, 1.0 / math.sqrt(2.0))
    checks = {"direction": float(np.max(np.abs(res.point - target))) <= 1e-6}
    # First-order optimality over the feasible set: the welfare gradient at
    # the optimum must not improve toward any other feasible direction.
    grad = (users.embeddings / (users.embeddings @ res.point)[:, None]).sum(axis=0)
    rng = np.random.default_rng(0)
    worst = -math.inf
    for _ in range(100):
        d = np.abs(rng.standard_normal(2))
        d /= np.linalg.norm(d)
        worst = max(worst, float(grad @ (d - res.point)))
    checks["vi_residual"] = worst < 1e-6
    verdict(3, checks)


def test_criterion_04_zero_profit_identity():
    checks = {}
    for n, beta, producers in ((1, 2.0, 2), (4, 3.0, 5), (2, 7.0, 2)):
        dist = OnePopulation(np.array([1.0, 0.0]), n, beta, producers)
        rs = np.linspace(0.0, dist.support_max, 1000)
        resid = np.abs(n * dist.cdf(rs) ** (producers - 1) - rs**beta).max()
        checks[f"n{n}_beta{beta:g}_p{producers}"] = resid <= 1e-12
    verdict(4, checks)


def test_criterion_05_quarter_circle_verification():
    users = basis_pair()
    checks = {}
    for beta in (2.0, 4.0, 8.0):
        dist = QuarterCircle(beta)
        start = time.perf_counter()
        rep = best_response_gap(
            dist, users, CostSpec(q=2.0, beta=beta),
            n_samples=100_000, grid=(200, 200), seed=0,
        )
        elapsed = time.perf_counter() - start
        checks[f"gap_beta{beta:g}"] = rep.best_response_gap <= 0.03
        checks[f"mc_profit_beta{beta:g}"] = abs(rep.eq_profit_mc - (1.0 - 2.0 / beta)) <= 0.02
        checks[f"runtime_beta{beta:g}"] = elapsed < 60.0
    verdict(5, checks)


def test_criterion_06_finite_p_curve_laws():
    checks = {}
    for producers in (2, 3, 4):
        pts = eq_sample(FinitePCurve(producers), 100_000, seed=producers)
        expo = 2.0 / (producers - 1)
        stat = sp_stats.kstest(
            pts[:, 0], lambda x, e=expo: np.minimum(1.0, np.clip(x, 0.0, None) ** e)
        ).statistic
        checks[f"ks_p{producers}"] = stat < 0.02
    segment = eq_sample(FinitePCurve(3), 20_000, seed=0)
    checks["segment_p3"] = float(np.max(np.abs(segment.sum(axis=1) - 1.0))) < 1e-12
    verdict(6, checks)


def test_criterion_07_infinite_two_genre_cdf():
    checks = {}
    for theta_star, beta in ((math.pi / 3, 7.0), (1.2, 7.0), (math.pi / 2.5, 5.0)):
        dist = InfiniteTwoGenre(angle_pair(theta_star), beta)
        tag = f"t{theta_star:.2f}_b{beta:g}"

        edges = dist.support_max * dist.c2 ** np.arange(1, 12)
        jump = np.abs(dist.cdf(edges) - dist.cdf(np.nextafter(edges, 0.0))).max()
        checks[f"continuity_{tag}"] = jump <= 1e-12

        qs = np.linspace(dist.support_max * dist.c2**6, dist.support_max, 1000)
        resid = np.abs(
            np.sqrt(dist.cdf(qs) * dist.cdf(qs * dist.c2)) - dist.c2**beta * qs**beta / dist.c1
        ).max()
        checks[f"product_{tag}"] = resid < 1e-9

        t = dist.theta_g
        slope = beta * (
            math.cos(theta_star - t) ** (beta - 1) * math.sin(theta_star - t)
            - math.cos(t) ** (beta - 1) * math.sin(t)
        )
        checks[f"foc_{tag}"] = abs(slope) < 1e-10

    orth = InfiniteTwoGenre(basis_pair(), 7.0)
    qs = np.linspace(0.0, orth.support_max, 1000)
    worst = np.abs(orth.cdf(qs) - qs**14.0).max()
    checks["orthogonal_limit"] = worst <= 1e-12
    verdict(7, checks)


def test_criterion_08_profit_dichotomy():
    users = basis_pair()
    e1 = UserSet(np.array([[1.0, 0.0]]))
    users4 = UserSet(np.tile(np.array([[0.6, 0.8]]), (4, 1)))
    dist1 = OnePopulation(np.array([1.0, 0.0]), 1, 2.0, 2)
    dist4 = OnePopulation(np.array([0.6, 0.8]), 4, 3.0, 5)
    checks = {
        "onepop_zero": dist1.profit(e1.n_users, SPEC2) == 0.0,
        "onepop_n4_zero": dist4.profit(users4.n_users, CostSpec(q=2.0, beta=3.0)) == 0.0,
        "quarter_circle_beta2_zero": QuarterCircle(2.0).profit(users.n_users, SPEC2) == 0.0,
    }
    for beta in (4.0, 8.0):
        got = QuarterCircle(beta).profit(users.n_users, CostSpec(q=2.0, beta=beta))
        checks[f"quarter_circle_beta{beta:g}_positive"] = got > 0.0
        checks[f"quarter_circle_beta{beta:g}_value"] = abs(got - (1.0 - 2.0 / beta)) <= 1e-15
    flag8, _, _ = positive_profit_condition(users, CostSpec(q=2.0, beta=8.0), 2)
    flag2, _, _ = positive_profit_condition(users, SPEC2, 2)
    checks["flag_beta8_true"] = flag8 is True
    checks["flag_beta2_false"] = flag2 is False
    verdict(8, checks)


def _nonincreasing_flags(flags) -> bool:
    resolved = [f for f in flags if f is not None]
    mono = all(a >= b for a, b in zip(resolved, resolved[1:]))
    return mono and sum(f is None for f in flags) <= 1


def test_criterion_09_condition_monotone_in_beta():
    checks = {}
    flags = [
        max_condition_holds(basis_pair(), SPEC2, float(b))[0]
        for b in np.linspace(1.0, 3.0, 20)
    ]
    checks["basis_pair_monotone"] = _nonincreasing_flags(flags)
    checks["basis_pair_flips"] = True in flags and False in flags

    rand3 = UserSet(np.abs(np.random.default_rng(7).standard_normal((3, 3))) + 0.05)
    top = beta_upper(rand3, SPEC2)
    flags3 = [
        max_condition_holds(rand3, SPEC2, float(b))[0]
        for b in np.linspace(1.0, top + 1.0, 20)
    ]
    checks["random3_monotone"] = _nonincreasing_flags(flags3)
    checks["random3_flips"] = True in flags3 and False in flags3
    verdict(9, checks)


def test_criterion_10_dimension_trend_and_nmf():
    checks = {}
    medians = []
    for d in (2, 3, 5, 10):
        vals = []
        for seed in range(10):
            rng = np.random.default_rng([seed, d])
            users = UserSet(np.abs(rng.standard_normal((30, d))))
            vals.append(beta_upper(users, SPEC2))
        medians.append(float(np.median(vals)))
    checks["median_nonincreasing"] = all(a >= b for a, b in zip(medians, medians[1:]))

    full = np.outer([1.0, 2.0, 3.0], [0.5, 1.0, 2.0])
    table = RatingsTable(
        user_ids=tuple(f"u{i}" for i in range(3)),
        item_ids=tuple(f"m{j}" for j in range(3)),
        user_index=np.repeat(np.arange(3), 3),
        item_index=np.tile(np.arange(3), 3),
        rating=full.ravel(),
    )
    res = nmf_factorize(table, NmfConfig(factors=1, seed=0))
    rec = res.users.embeddings @ res.item_factors
    checks["nmf_rank1_recovery"] = float(np.sqrt(((rec - full) ** 2).mean())) < 1e-2
    checks["nmf_monotone_objective"] = bool(np.all(np.diff(res.objective_trace) <= 1e-9))
    verdict(10, checks)
