"""Closed-form equilibrium constructions and their sampling laws.

Sampled-law checks use scipy.stats KS tests as the independent oracle; the
analytic CDFs under test never touch scipy.
"""

import ast
import math
import pathlib
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import supply_eq.closedform as closedform_mod
from supply_eq.closedform import (
    FinitePCurve,
    InfiniteTwoGenre,
    OnePopulation,
    QuarterCircle,
    _genre_slope,
    _two_user_plane,
    eq_sample,
    eq_sample_blocks,
)
from supply_eq.geometry import (
    CostSpec,
    UserSet,
    angle_pair,
    beta_star_two_user,
)

INFINITE_CASES = [
    (math.pi / 3, 7.0, 0.015758743157470702),
    (1.2, 7.0, 0.0021800236927420934),
    (math.pi / 2.5, 5.0, 0.009727302331289635),
]


@pytest.mark.parametrize("n,beta,producers", [(1, 2.0, 2), (4, 3.0, 5), (2, 7.0, 2)])
def test_one_population_zero_profit_identity(n, beta, producers):
    dist = OnePopulation(
        direction=np.array([1.0, 0.0]), n_users=n, beta=beta, producers=producers
    )
    rs = np.linspace(0.0, dist.support_max, 1000)
    resid = np.abs(n * dist.cdf(rs) ** (producers - 1) - rs**beta)
    assert float(resid.max()) <= 1e-12


def test_one_population_support_max():
    dist = OnePopulation(np.array([1.0, 0.0]), 4, 3.0, 5)
    assert dist.support_max == pytest.approx(4.0 ** (1.0 / 3.0), rel=1e-15)
    assert dist.cdf(dist.support_max) == pytest.approx(1.0, abs=1e-12)
    assert dist.cdf(0.0) == 0.0


def test_one_population_sampling_ks():
    dist = OnePopulation(np.array([0.0, 1.0]), 2, 7.0, 2)
    pts = eq_sample(dist, 20000, seed=0)
    assert pts.shape == (20000, 2)
    assert np.all(pts[:, 0] == 0.0)
    quality = pts[:, 1]
    stat = scipy.stats.kstest(quality, lambda r: np.minimum(1.0, (r**7.0 / 2.0))).statistic
    assert stat < 0.02


def test_one_population_validation():
    with pytest.raises(ValueError):
        OnePopulation(np.array([0.0, 0.0]), 1, 2.0, 2)
    with pytest.raises(ValueError):
        OnePopulation(np.array([1.0, 0.0]), 0, 2.0, 2)
    with pytest.raises(ValueError):
        OnePopulation(np.array([1.0, 0.0]), 1, 2.0, 1)


@pytest.mark.parametrize("beta", [2.0, 4.0, 8.0])
def test_quarter_circle_radius_and_samples(beta):
    dist = QuarterCircle(beta)
    assert dist.radius == pytest.approx((2.0 / beta) ** (1.0 / beta), rel=1e-15)
    pts = eq_sample(dist, 5000, seed=1)
    norms = np.linalg.norm(pts, axis=1)
    assert float(np.abs(norms - dist.radius).max()) <= 1e-12
    assert np.all(pts >= -1e-15)


def test_quarter_circle_angle_law_ks():
    dist = QuarterCircle(4.0)
    pts = eq_sample(dist, 20000, seed=2)
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    stat = scipy.stats.kstest(angles, lambda t: np.sin(np.clip(t, 0, math.pi / 2)) ** 2).statistic
    assert stat < 0.02


def test_quarter_circle_draw_matches_the_arcsin_form():
    # cos and sin of arcsin(sqrt(u)) are drawn as sqrt(1 - u) and sqrt(u).  The
    # two forms agree to a few ulps of the radius, except where the arcsin form
    # loses digits itself: its cosine near u = 1, by up to eps / sqrt(1 - u).
    dist = QuarterCircle(4.0)
    u = np.random.default_rng(8).random(100000)
    pts = dist.points(u)
    theta = np.arcsin(np.sqrt(u))
    old = dist.radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    ulp = np.spacing(dist.radius)
    assert np.abs(pts[:, 1] - old[:, 1]).max() <= 4 * ulp
    assert np.all(np.abs(pts[:, 0] - old[:, 0]) <= 4 * ulp / np.sqrt(1.0 - u))
    # Against 40-digit square roots, each coordinate is within 2 of its own ulps.
    with localcontext() as ctx:
        ctx.prec = 40
        r = Decimal(dist.radius)
        exact = np.array([[float(r * (1 - Decimal(x)).sqrt()), float(r * Decimal(x).sqrt())]
                          for x in u[:10000].tolist()])
    assert np.all(np.abs(pts[:10000] - exact) <= 2 * np.spacing(exact))


def test_quarter_circle_angle_cdf_values():
    dist = QuarterCircle(2.0)
    assert dist.cdf(0.0) == 0.0
    assert dist.cdf(math.pi / 4) == pytest.approx(0.5, abs=1e-12)
    assert dist.cdf(math.pi / 2) == 1.0


def test_quarter_circle_requires_orthogonal_plane():
    with pytest.raises(ValueError):
        QuarterCircle(beta=4.0, users=angle_pair(math.pi / 3))
    with pytest.raises(ValueError):
        QuarterCircle(beta=1.5, users=angle_pair(math.pi / 2))


def test_finite_p_validation():
    with pytest.raises(ValueError, match="producers must be >= 2"):
        FinitePCurve(1)
    with pytest.raises(ValueError, match="requires orthogonal users"):
        FinitePCurve(3, users=angle_pair(1.0))


def test_two_user_plane_roundtrip():
    u1 = np.array([1.0, 0.0, 0.0])
    u2 = np.array([0.6, 0.8, 0.0])
    plane = _two_user_plane(UserSet(np.stack([u1, u2])))
    assert plane.theta_star == pytest.approx(math.acos(0.6), abs=1e-12)
    b = plane.basis
    assert np.allclose(b @ b.T, np.eye(2), atol=1e-12)
    # In-plane angle 0 is u1's direction; theta_star lands on u2's.
    assert np.allclose(plane.direction(0.0), u1, atol=1e-12)
    assert np.allclose(plane.direction(plane.theta_star), u2, atol=1e-12)
    assert plane.direction(np.zeros((4, 2))).shape == (4, 2, 3)


def test_two_user_plane_rejects_dependence():
    # Every planar family builds its plane from its users, so each refuses
    # other than two users, and two users on one ray.
    for make in (lambda users: QuarterCircle(4.0, users), lambda users: FinitePCurve(3, users),
                 lambda users: InfiniteTwoGenre(users, 8.0)):
        for rows in (np.eye(3), np.array([[1.0, 0.0]])):
            with pytest.raises(ValueError, match="exactly two users"):
                make(UserSet(rows))
        with pytest.raises(ValueError, match="linearly dependent"):
            make(UserSet(np.array([[1.0, 1.0], [2.0, 2.0]])))


def _exact_angle(u1, u2):
    """The angle between two float vectors, from the exact rational Gram
    entries: tan = sqrt(|u1|^2 |u2|^2 - <u1, u2>^2) / <u1, u2>."""
    a, b = [Fraction(x) for x in u1], [Fraction(x) for x in u2]
    dot = sum(x * y for x, y in zip(a, b))
    cross2 = sum(x * x for x in a) * sum(y * y for y in b) - dot * dot
    return math.atan2(math.sqrt(cross2), float(dot))


@pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-4, 1e-6, 1e-9, 1e-11])
def test_two_user_plane_near_parallel(eps):
    # A single Gram-Schmidt pass leaves the second basis row off orthogonal by
    # about ulp / eps; the second pass brings it back to rounding.
    users = UserSet(np.array([[1.0, 1.0, 0.3], [1.0, 1.0 + eps, 0.3]]))
    plane = _two_user_plane(users)
    b = plane.basis
    assert np.abs(b @ b.T - np.eye(2)).max() <= 1e-15
    if eps >= 1e-4:
        exact = _exact_angle(*users.embeddings)
        assert plane.theta_star == pytest.approx(exact, rel=1e-12, abs=0)


@pytest.mark.parametrize("theta", [1e-7, 1e-3, 0.3, 1.0])
def test_two_user_plane_reads_angle_pair_exactly(theta):
    assert _two_user_plane(angle_pair(theta)).theta_star == theta


@pytest.mark.parametrize("producers", [2, 3, 4])
def test_finite_p_x_law_ks(producers):
    dist = FinitePCurve(producers)
    pts = eq_sample(dist, 20000, seed=2)
    stat = scipy.stats.kstest(
        pts[:, 0], lambda x: np.minimum(1.0, np.maximum(x, 0.0) ** (2.0 / (producers - 1)))
    ).statistic
    assert stat < 0.02


def test_finite_p_example_value():
    # P = 2: the curve is the unit quarter circle, x-CDF(x) = x^2.
    dist = FinitePCurve(2)
    assert dist.cdf(0.5) == pytest.approx(0.25, abs=1e-15)
    assert dist.cdf(0.25) == pytest.approx(0.0625, abs=1e-15)


def test_finite_p_three_is_line_segment():
    dist = FinitePCurve(3)
    pts = eq_sample(dist, 5000, seed=3)
    assert float(np.abs(pts.sum(axis=1) - 1.0).max()) < 1e-12


def test_finite_p_two_is_unit_circle():
    dist = FinitePCurve(2)
    pts = eq_sample(dist, 5000, seed=4)
    assert float(np.abs(np.linalg.norm(pts, axis=1) - 1.0).max()) < 1e-12


def test_finite_p_beta_fixed():
    assert FinitePCurve(3).beta == 2.0


@pytest.mark.parametrize("theta_star,beta,theta_g", INFINITE_CASES)
def test_infinite_genre_angle_frozen(theta_star, beta, theta_g):
    dist = InfiniteTwoGenre(angle_pair(theta_star), beta)
    assert dist.theta_g == pytest.approx(theta_g, abs=1e-8)


@pytest.mark.parametrize("theta_star,beta,_", INFINITE_CASES)
def test_infinite_genre_angle_grid_oracle(theta_star, beta, _):
    dist = InfiniteTwoGenre(angle_pair(theta_star), beta)
    grid = np.linspace(0.0, theta_star / 2, 1000001)
    vals = np.cos(grid) ** beta + np.cos(theta_star - grid) ** beta
    assert dist.theta_g == pytest.approx(float(grid[np.argmax(vals)]), abs=2e-6)


@pytest.mark.parametrize("theta_star,beta,_", INFINITE_CASES)
def test_infinite_genre_foc_residual(theta_star, beta, _):
    dist = InfiniteTwoGenre(angle_pair(theta_star), beta)
    t = dist.theta_g
    slope = beta * (
        math.cos(theta_star - t) ** (beta - 1) * math.sin(theta_star - t)
        - math.cos(t) ** (beta - 1) * math.sin(t)
    )
    assert abs(slope) < 1e-10


@pytest.mark.parametrize("ratio", [1 + 1e-7, 1.001, 1.01, 1.1, 1.5, 2, 3, 5, 10, 50])
def test_infinite_genre_angle_brackets_the_slope_root(ratio):
    # The genre angle sits on the slope's sign change, to within 1e-7, or at 0.
    for theta_star in np.linspace(0.01, math.pi / 2 - 1e-3, 60).tolist():
        beta = ratio * beta_star_two_user(angle_pair(theta_star))
        t = InfiniteTwoGenre(angle_pair(theta_star), beta).theta_g
        if t != 0.0:
            assert _genre_slope(theta_star, beta, t - 1e-7) > 0.0, theta_star
            assert _genre_slope(theta_star, beta, t + 1e-7) < 0.0, theta_star


@pytest.mark.parametrize("theta_star,beta,_", INFINITE_CASES)
def test_infinite_band_continuity(theta_star, beta, _):
    dist = InfiniteTwoGenre(angle_pair(theta_star), beta)
    edges = dist.support_max * dist.c2 ** np.arange(1, 12)
    jump = np.abs(dist.cdf(edges) - dist.cdf(np.nextafter(edges, 0.0)))
    assert jump.max() <= 1e-12


@pytest.mark.parametrize("theta_star,beta,_", INFINITE_CASES)
def test_infinite_product_identity(theta_star, beta, _):
    dist = InfiniteTwoGenre(angle_pair(theta_star), beta)
    qs = np.linspace(dist.support_max * dist.c2**6, dist.support_max, 1000)
    lhs = np.sqrt(dist.cdf(qs) * dist.cdf(qs * dist.c2))
    assert lhs == pytest.approx(dist.c2**beta * qs**beta / dist.c1, abs=1e-9)


def test_infinite_orthogonal_limit_exact():
    dist = InfiniteTwoGenre(angle_pair(math.pi / 2), 7.0)
    assert dist.theta_g == 0.0
    assert dist.c1 == 1.0
    qs = np.linspace(0.0, 1.0, 1000)
    assert dist.cdf(qs) == pytest.approx(qs**14.0, abs=1e-12)


def test_infinite_requires_beta_above_threshold():
    theta = math.pi / 3
    with pytest.raises(ValueError):
        InfiniteTwoGenre(angle_pair(theta), beta_star_two_user(angle_pair(theta)))


def _two_genre_limit(eps):
    # (theta_g / theta*, c1, beta log c2) at beta = 1.01 beta* for the pair
    # (1, 1, 0.3), (1, 1 + eps, 0.3): each tends to a limit as theta* -> 0.
    users = UserSet(np.array([[1.0, 1.0, 0.3], [1.0, 1.0 + eps, 0.3]]))
    beta = 1.01 * beta_star_two_user(users)
    dist = InfiniteTwoGenre(users, beta)
    return dist, np.array([dist.theta_g / dist.plane.theta_star, dist.c1, beta * dist.log_c2])


@pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10])
def test_infinite_near_parallel_constants_keep_the_small_angle_limit(eps):
    # cos^beta would lose about beta ulps, and beta is near 4/eps^2 here; the
    # constants are taken in logs.  The checks run with every RuntimeWarning
    # an error, so the CDF and the draws are finite without a warning.
    dist, got = _two_genre_limit(eps)
    assert got == pytest.approx(_two_genre_limit(1e-4)[1], rel=1e-5)
    assert np.isfinite(dist.cdf(np.linspace(0.0, dist.cdf_max, 9))).all()
    assert np.isfinite(dist.points(np.linspace(0.0, 1.0, 9, endpoint=False))).all()


def test_infinite_has_no_per_producer_profit():
    with pytest.raises(ValueError, match="not defined in the infinite-producer limit"):
        InfiniteTwoGenre(angle_pair(1.0), 8.0).profit(2, CostSpec(beta=8.0))


def test_infinite_genre_directions():
    dist = InfiniteTwoGenre(angle_pair(math.pi / 3), 7.0)
    dirs = dist.genre_directions()
    assert dirs.shape == (2, 2)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    assert math.acos(dirs[0] @ dirs[1]) == pytest.approx(
        math.pi / 3 - 2 * dist.theta_g, abs=1e-10
    )


def test_infinite_sampler_two_genres_and_law():
    dist = InfiniteTwoGenre(angle_pair(1.2), 7.0)
    pts = eq_sample(dist, 20000, seed=5)
    angles = np.round(np.arctan2(pts[:, 1], pts[:, 0]), 9)
    assert len(np.unique(angles)) == 2
    quality = np.linalg.norm(pts, axis=1)
    stat = scipy.stats.kstest(quality, dist.cdf).statistic
    assert stat < 0.02


@pytest.mark.parametrize("theta_star, beta", [(math.pi / 3, 7.0), (1.0, 5000.0)])
def test_infinite_points_split_the_genres_at_one_half_bitwise(theta_star, beta):
    dist = InfiniteTwoGenre(angle_pair(theta_star), beta)
    top, mid, low = dist._quantile(np.array([1.0, 0.5, 2.0**-52]))
    lo, hi = dist.genre_directions()
    assert np.array_equal(dist.points(np.array([0.25, 0.75])), [mid * lo, mid * hi])
    # On rng.random's grid, each genre's half of [0, 1) maps onto (0, 1] exactly.
    ends = dist.points(np.array([0.0, 0.5, 0.5 - 2.0**-53, 1.0 - 2.0**-53]))
    assert np.array_equal(ends, [top * lo, top * hi, low * lo, low * hi])


def test_infinite_sampler_avoids_flat_bands():
    # Flat (odd) bands carry no mass; every draw must land on a power piece.
    dist = InfiniteTwoGenre(angle_pair(math.pi / 3), 7.0)
    quality = np.linalg.norm(eq_sample(dist, 20000, seed=6), axis=1)
    k = np.floor(np.log(quality / dist.support_max) / math.log(dist.c2)).astype(int)
    assert np.all(k % 2 == 0)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(0.5, math.pi / 2),
    st.floats(1.05, 4.0),
)
def test_infinite_cdf_monotone_property(theta_star, beta_factor):
    beta = beta_factor * beta_star_two_user(angle_pair(theta_star)) + 0.1
    dist = InfiniteTwoGenre(angle_pair(theta_star), beta)
    qs = np.linspace(0.0, dist.support_max * 1.1, 300)
    fs = dist.cdf(qs)
    assert np.all(np.diff(fs) >= -1e-15)
    assert fs[0] == 0.0
    assert fs[-1] == 1.0


def test_eq_sample_determinism_and_validation():
    dist = QuarterCircle(4.0)
    a = eq_sample(dist, 100, seed=7)
    b = eq_sample(dist, 100, seed=7)
    assert np.all(a == b)
    with pytest.raises(ValueError):
        eq_sample(dist, 0, seed=7)


def _reference_sample(dist, n, seed):
    """One n-row draw exactly as the unblocked samplers took it."""
    rng = np.random.default_rng(seed)
    if isinstance(dist, OnePopulation):
        u = rng.random(n)
        r = (dist.n_users * u ** (dist.producers - 1)) ** (1.0 / dist.beta)
        return np.outer(r, dist.direction)
    if isinstance(dist, QuarterCircle):
        u = rng.random(n)
        return dist.radius * np.stack([np.sqrt(1.0 - u), np.sqrt(u)], axis=1) @ dist.plane.basis
    if isinstance(dist, FinitePCurve):
        u = rng.random(n)
        e = 0.5 * (dist.producers - 1)
        return np.stack([u**e, (1.0 - u) ** e], axis=1) @ dist.plane.basis
    # The top half of u picks the genre; the quality's quantile is 1 - (2u - g).
    u = rng.random(n)
    g = np.where(u < 0.5, 0, 1)
    return dist._quantile(1.0 - (2.0 * u - g))[:, None] * dist.genre_directions()[g]


_S = 2.0**-0.5
USERS_4D = UserSet(np.array([[_S, _S, 0.0, 0.0], [0.0, 0.0, _S, _S]]))
USERS_4D_60 = UserSet(np.array([[_S, _S, 0.0, 0.0], [_S, 0.0, _S, 0.0]]))
BLOCK_DISTS = {
    "onepop-2d": OnePopulation(np.array([0.6, 0.8]), 3, 2.5, 3),
    "onepop-5d": OnePopulation(np.array([0.1, 0.2, 0.3, 0.4, 0.5]) / math.sqrt(0.55), 30, 3.0, 2),
    "p2-2d": QuarterCircle(4.0),
    "p2-4d": QuarterCircle(beta=3.0, users=USERS_4D),
    "finitep-2d": FinitePCurve(4),
    "finitep-4d": FinitePCurve(producers=3, users=USERS_4D),
    "infinite-2d": InfiniteTwoGenre(angle_pair(1.0), 8.0),
    "infinite-orthogonal": InfiniteTwoGenre(angle_pair(math.pi / 2), 5.0),
    "infinite-4d": InfiniteTwoGenre(USERS_4D_60, 6.0),
}


@pytest.mark.parametrize("dist", BLOCK_DISTS.values(), ids=BLOCK_DISTS.keys())
def test_eq_sample_blocks_match_unblocked_draw_bitwise(dist):
    ref = _reference_sample(dist, 20000, [4, 1])
    assert np.array_equal(eq_sample(dist, 20000, [4, 1]), ref)
    blocks = list(eq_sample_blocks(dist, 20000, [4, 1], 4099))
    assert [len(b) for b in blocks] == [4099] * 4 + [3604]
    assert np.array_equal(np.concatenate(blocks), ref)
    for block in (1, 7):
        small = np.concatenate(list(eq_sample_blocks(dist, 50, 3, block)))
        assert np.array_equal(small, _reference_sample(dist, 50, 3))


@pytest.mark.parametrize("dist", BLOCK_DISTS.values(), ids=BLOCK_DISTS.keys())
def test_eq_sample_blocks_from_any_start_match_the_draw_bitwise(dist):
    # Blocks from an odd start, with a short last block, are the matching
    # rows of the whole draw, also when each is drawn on its own and last
    # block first, as two lanes may draw them.
    ref = eq_sample(dist, 20000, [4, 1])
    blocks = list(eq_sample_blocks(dist, 20000, [4, 1], 4099, start=7777))
    assert [len(b) for b in blocks] == [4099, 4099, 4025]
    assert np.array_equal(np.concatenate(blocks), ref[7777:])
    for lo in (19999, 15975, 11876, 7777):
        hi = min(lo + 4099, 20000)
        (block,) = eq_sample_blocks(dist, hi, [4, 1], 4099, start=lo)
        assert np.array_equal(block, ref[lo:hi])


def test_eq_sample_blocks_validation():
    dist = QuarterCircle(4.0)
    with pytest.raises(ValueError):
        eq_sample_blocks(dist, 0, 1, 10)
    with pytest.raises(ValueError):
        eq_sample_blocks(dist, 10, 1, 0)
    for start in (-1, 10):
        with pytest.raises(ValueError, match="start must be in"):
            eq_sample_blocks(dist, 10, 1, 3, start=start)


@pytest.mark.parametrize("dist, users", [
    (QuarterCircle(4.0), UserSet(np.eye(2))),
    (FinitePCurve(3), UserSet(np.eye(2))),
    (FinitePCurve(producers=4, users=USERS_4D), USERS_4D),
], ids=["p2", "finitep", "finitep-4d"])
def test_planar_value_cdf_is_the_coordinate_law(dist, users):
    # Value of user i is |u_i| times in-plane coordinate i; the coordinate CDFs
    # are (x / r)^2 on the quarter circle and x^(2/(P-1)) on the curve.
    x = np.linspace(-0.5, 1.5, 41)
    f = dist.value_cdf(np.stack([x, 2.0 * x], axis=1), UserSet(users.embeddings * [[1.0], [2.0]]))
    r = dist.radius if isinstance(dist, QuarterCircle) else 1.0
    expo = 2.0 if isinstance(dist, QuarterCircle) else 2.0 / (dist.producers - 1)
    ref = np.clip(x / r, 0.0, 1.0) ** expo
    assert np.allclose(f, np.stack([ref, ref], axis=1), rtol=1e-14, atol=0)


def test_planar_value_cdf_needs_the_plane_users():
    dist = QuarterCircle(4.0)
    for users in (UserSet(np.array([[1.0, 0.0], [0.6, 0.8]])), UserSet(np.eye(2)[[1, 0]]),
                  UserSet(np.ones((3, 2)))):
        with pytest.raises(ValueError):
            dist.value_cdf(np.zeros((4, users.n_users)), users)


CDF_DISTS = {
    "onepop": OnePopulation(np.array([1.0, 0.0]), n_users=5, beta=2.5, producers=4),
    "p2": QuarterCircle(4.0),
    "finitep": FinitePCurve(4),
    "infinite": InfiniteTwoGenre(angle_pair(math.pi / 3), 7.0),
    "infinite-orthogonal": InfiniteTwoGenre(angle_pair(math.pi / 2), 7.0),
}


def _scalar_cdf(dist, x):
    """Each family's tabulated CDF at one point 0 <= x < cdf_max, in Python
    math, as the families stated it point by point before ``cdf``."""
    if isinstance(dist, OnePopulation):
        return min(1.0, (x**dist.beta / dist.n_users) ** (1.0 / (dist.producers - 1)))
    if isinstance(dist, QuarterCircle):
        return math.sin(x) ** 2
    if isinstance(dist, FinitePCurve):
        return min(1.0, x ** (2.0 / (dist.producers - 1)))
    beta = dist.beta
    if x == 0.0:
        return 0.0
    if dist.c2 <= 1e-12:
        return min(1.0, x ** (2.0 * beta) / dist.c1**2)
    lc2 = math.log(dist.c2)
    k = math.floor(math.log(x / dist.support_max) / lc2)
    if k % 2 == 1:
        return math.exp((k + 1) * beta * lc2)
    return math.exp(2.0 * beta * math.log(x) - 2.0 * math.log(dist.c1) - k * beta * lc2)


@pytest.mark.parametrize("dist", CDF_DISTS.values(), ids=CDF_DISTS.keys())
def test_cdf_is_elementwise_bounded_monotone_and_the_scalar_law(dist):
    top = dist.cdf_max
    x = np.linspace(0.0, top, 2001)
    f = dist.cdf(x)
    assert f.shape == x.shape
    assert np.array_equal(dist.cdf(x.reshape(3, 667)), f.reshape(3, 667))
    assert np.shape(dist.cdf(np.array(0.5 * top))) == ()
    below = np.array([0.0, -0.0, -1e-300, -0.5 * top, -np.inf])
    above = np.array([top, np.nextafter(top, np.inf), 2.0 * top, np.inf])
    assert np.all(dist.cdf(below) == 0.0)
    assert np.all(dist.cdf(above) == 1.0)
    assert np.all(np.diff(f) >= 0.0)
    ref = np.array([_scalar_cdf(dist, v) for v in x[:-1].tolist()])
    assert np.allclose(f[:-1], ref, rtol=1e-14, atol=0.0)


def test_finite_p_value_cdf_is_cdf_at_user_scale_bitwise():
    dist = FinitePCurve(4)
    z = np.random.default_rng(3).random((500, 2)) * 4.0 - 0.5
    f = dist.value_cdf(z, UserSet(np.diag([1.0, 3.0])))
    assert np.array_equal(f, dist.cdf(z / np.array([1.0, 3.0])))


def test_closedform_imports_nothing_from_threshold():
    # The equilibrium families rest on geometry alone, not on the threshold
    # search that verify gathers onepop's candidate directions from.
    tree = ast.parse(pathlib.Path(closedform_mod.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            assert not any("threshold" in name for name in names), ast.dump(node)
