"""Closed-form symmetric mixed equilibria and their samplers.

Four families:

* ``OnePopulation`` - every producer randomizes quality along one shared ray,
  so the market has a single genre.
* ``QuarterCircle`` - two producers spread over the quarter circle between two
  orthogonal users, at one fixed quality.
* ``FinitePCurve`` - P producers on a curve between the axes, quadratic cost.
* ``InfiniteTwoGenre`` - the infinite-producer limit with exactly two genres;
  the winning quality law is piecewise with countably many flat gaps.

Throughout, quality is the production norm ||p||_q of a content vector and
genre is its direction.  Every family states its law as one
inverse-transform map, ``points``, from uniform quantiles to content; the
sampler ``eq_sample_blocks`` feeds it ``rng.random`` a block at a time, so
draws are deterministic for a fixed seed.  The stream is random access: row
k of a seed's draw is ``points`` at the seed's k-th uniform, which a copy of
the seed's PCG64 state advanced by k gives, so blocks can be drawn in any
order and on any thread.  ``points`` returns (n, D) rows as
the transposed view of a contiguous coordinate-major (D, n) array, so
consumers that score or cost whole coordinates (``verify``) read contiguous
rows of length n.

Each family class holds all of its own behaviour: its genre count
``genres`` (1, 2 or ``"continuum"``), ``points``, the tabulated CDF
(``cdf_axis``, ``cdf_max`` and ``cdf``, which maps an array of points
elementwise; where ``cdf_axis`` is ``"quality"`` it is the quality law) and
the analytic per-producer ``profit``.  The families ``verify`` prices
against also state each user's exact value CDF ``value_cdf`` and where to
look for a deviation: the planar families their sweep directions
``deviation_dirs``, ``OnePopulation`` its exact search ``best_deviation``.

Each family is built by its own class from what fixes it.  The three
planar families take their two users (``QuarterCircle`` and ``FinitePCurve``
default to the two basis vectors) and build the plane those users span with
the one builder ``_two_user_plane``; ``InfiniteTwoGenre`` derives its genre
angle and band constants from that plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CostSpec, UserSet, basis_pair, beta_star_two_user, dual_point, weighted_norm
from .threshold import _price

__all__ = [
    "OnePopulation",
    "QuarterCircle",
    "FinitePCurve",
    "InfiniteTwoGenre",
    "EquilibriumDist",
    "eq_sample",
    "eq_sample_blocks",
]

# Below this, the two genres are numerically orthogonal and the band
# structure collapses to the smooth power law.
_DEGENERATE_C2 = 1e-12

_NOT_PLANE_USERS = "users must be the two users of the family's plane"


def _check(ok, msg):
    if not ok:
        raise ValueError(msg)


@dataclass(frozen=True)
class _Plane:
    """Orthonormal frame of the span of two users: basis[0] points along u1,
    and u2's direction sits at in-plane angle theta_star from it."""

    theta_star: float
    basis: np.ndarray

    def direction(self, theta):
        """Ambient unit vector(s) at in-plane angle(s) ``theta`` from the u1 axis."""
        t = np.asarray(theta, dtype=float)
        return np.stack([np.cos(t), np.sin(t)], axis=-1) @ self.basis


def _two_user_plane(users: UserSet) -> _Plane:
    """The plane of two linearly independent users, whose rows UserSet has
    already checked.  Gram-Schmidt runs twice, so the basis is orthonormal to
    rounding however near parallel the users are, and theta_star is read off
    that frame as atan2(|r|, <u2, b1>), r the part of u2 orthogonal to b1."""
    _check(users.n_users == 2, "the planar families take exactly two users")
    u1, u2 = users.embeddings
    spec = CostSpec(q=2.0)
    b1 = u1 / weighted_norm(u1, spec)
    along = float(u2 @ b1)
    r = u2 - along * b1
    r -= (r @ b1) * b1
    rn = weighted_norm(r, spec)
    _check(rn > 1e-12 * weighted_norm(u2, spec), "the two users are linearly dependent")
    return _Plane(math.atan2(rn, along), np.stack([b1, r / rn]))


class _PlanarFamily:
    """A family laid out in the plane of its two users; deviations sweep its angles."""

    def deviation_dirs(self, n_angles: int) -> np.ndarray:
        angles = np.linspace(0.0, self.plane.theta_star, n_angles)
        return self.plane.direction(angles)

    def _user_scales(self, users: UserSet) -> np.ndarray:
        # User i values a point at scale_i times its i-th in-plane coordinate.
        _check(users.n_users == 2, _NOT_PLANE_USERS)
        proj = users.embeddings @ self.plane.basis.T
        scales = np.diag(proj)
        off = np.abs(proj - np.diag(scales)).max()
        _check(scales.min() > 0 and off <= 1e-9 * scales.max(), _NOT_PLANE_USERS)
        return scales

    def _embed(self, xy: np.ndarray) -> np.ndarray:
        """Rows of ambient points for in-plane coordinates given as two rows,
        (2, n): an (n, D) view of coordinate-major (D, n) memory."""
        return (self.plane.basis.T @ xy).T


@dataclass(frozen=True)
class OnePopulation:
    """Single-genre equilibrium for N users sharing one direction.

    ``direction`` must have unit production norm; every sampled content
    vector is a nonnegative multiple of it.  The quality CDF is
    min(1, (r^beta / N)^(1/(P-1))) on [0, N^(1/beta)].
    """

    direction: np.ndarray
    n_users: int
    beta: float
    producers: int

    genres = 1
    cdf_axis = "quality"

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if d.ndim != 1 or np.any(d < 0) or not np.any(d > 0):
            raise ValueError("direction must be a nonnegative nonzero vector")
        object.__setattr__(self, "direction", d)
        if self.producers < 2:
            raise ValueError("producers must be >= 2")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if not self.beta >= 1.0:
            raise ValueError("beta must be >= 1")

    @property
    def support_max(self) -> float:
        return self.n_users ** (1.0 / self.beta)

    cdf_max = support_max

    def points(self, u: np.ndarray) -> np.ndarray:
        r = (self.n_users * u ** (self.producers - 1)) ** (1.0 / self.beta)
        return (self.direction[:, None] * r).T

    def cdf(self, q):
        return np.clip(q / self.support_max, 0.0, 1.0) ** (self.beta / (self.producers - 1))

    def value_cdf(self, z: np.ndarray, users: UserSet) -> np.ndarray:
        """P(value <= z) per user for scores z shaped (..., N).

        User i values the ray at a_i = <d, u_i> times the quality, so its CDF
        is cdf(z / a_i); a user with a_i = 0 values every draw at 0.
        """
        scale = users.embeddings @ self.direction
        pos = scale > 0.0
        f = self.cdf(z / np.where(pos, scale, 1.0))
        f[..., ~pos] = z[..., ~pos] >= 0.0
        return f

    def profit(self, n_users: int, spec: CostSpec) -> float:
        _check(n_users == self.n_users, "user count disagrees with dist")
        if spec.beta == self.beta:
            return 0.0
        bs, bd, p = spec.beta, self.beta, self.producers
        return n_users / p - n_users ** (bs / bd) * bd / (bd + (p - 1) * bs)

    def best_deviation(self, users: UserSet, spec: CostSpec, block: int) -> np.ndarray:
        """The best deviation r p found, p of unit cost: by ``value_cdf`` it wins
        user i with probability min(1, t s_i), where t = r^beta and
        s_i = (<p, u_i>/a_i)^beta / N, so it earns sum_i min(1, t s_i) - t, concave
        and piecewise linear in t.  With s ascending, the breakpoint t = 1/s_k
        earns (M - k) + (sum_{i<k} s_i - 1)/s_k over the M users with a_i > 0
        (the rest win at any radius).  The directions p, scored about ``block``
        scores at a time, are each user's unit-cost dual point and where
        threshold's pricing climbs at this ray: to its end in D > 2, and in D = 2
        to its first angle grid to beat the ray, whose argmax, unlike a finer
        zoom's, is stable under rounding."""
        u = users.embeddings
        a = u @ self.direction
        scored, a = u[a > 0.0], a[a > 0.0]
        best, point, m = -math.inf, np.zeros(users.dim), len(a)
        if not m:
            return point
        if 1.0 < spec.q < math.inf:
            own = dual_point(u, spec)
        else:  # each user scaled to unit cost
            own = u / weighted_norm(u, spec)[:, None]
        climb = _price(scored, a, self.beta, spec, [], m if users.dim == 2 else math.inf)[0]
        dirs, rows = np.vstack([climb, own]), max(1, block // m)
        for lo in range(0, len(dirs), rows):
            s = np.sort((dirs[lo:lo + rows] @ scored.T / a) ** self.beta / self.n_users, axis=1)
            below = np.zeros_like(s)
            np.cumsum(s[:, :-1], axis=1, out=below[:, 1:])
            # A zero s_k (the s below it are zero too) prices at -inf, as may a tiny one.
            with np.errstate(divide="ignore", over="ignore"):
                profit = (below - 1.0) / s + np.arange(m, 0, -1)
            i, k = np.unravel_index(np.argmax(profit), profit.shape)
            if profit[i, k] > best:
                best, point = profit[i, k], dirs[lo + i] * s[i, k] ** (-1.0 / self.beta)
        return point


@dataclass(frozen=True)
class QuarterCircle(_PlanarFamily):
    """Two-producer equilibrium on the quarter circle between orthogonal users.

    Quality is degenerate at radius (2/beta)^(1/beta); the angle has CDF
    sin^2(theta) on [0, pi/2].
    """

    beta: float
    users: UserSet = field(default_factory=basis_pair)
    plane: _Plane = field(init=False)

    genres = "continuum"
    cdf_axis = "angle"
    cdf_max = math.pi / 2

    def __post_init__(self):
        object.__setattr__(self, "plane", _two_user_plane(self.users))
        if not self.beta >= 2.0:
            raise ValueError("beta must be >= 2 for the quarter-circle equilibrium")
        if abs(self.plane.theta_star - math.pi / 2) > 1e-12:
            raise ValueError("quarter-circle equilibrium requires orthogonal users")

    @property
    def radius(self) -> float:
        return (2.0 / self.beta) ** (1.0 / self.beta)

    @property
    def producers(self) -> int:
        return 2

    def points(self, u: np.ndarray) -> np.ndarray:
        # The angle arcsin(sqrt(u)) has cosine sqrt(1 - u) and sine sqrt(u).
        xy = np.empty((2, u.size))
        np.sqrt(1.0 - u, out=xy[0])
        np.sqrt(u, out=xy[1])
        xy *= self.radius
        return self._embed(xy)

    def cdf(self, theta):
        return np.sin(np.clip(theta, 0.0, math.pi / 2)) ** 2

    def value_cdf(self, z: np.ndarray, users: UserSet) -> np.ndarray:
        """P(value <= z) per user: (z / (r |u_i|))^2, as the angle has CDF sin^2."""
        x = np.clip(z / (self.radius * self._user_scales(users)), 0.0, 1.0)
        return x * x

    def profit(self, n_users: int, spec: CostSpec) -> float:
        return n_users / 2.0 - (2.0 / self.beta) ** (spec.beta / self.beta)


@dataclass(frozen=True)
class FinitePCurve(_PlanarFamily):
    """P-producer equilibrium on the curve y = (1 - x^(2/(P-1)))^((P-1)/2).

    Fixed to quadratic cost; the x coordinate has CDF min(1, x^(2/(P-1))).
    """

    producers: int
    users: UserSet = field(default_factory=basis_pair)
    plane: _Plane = field(init=False)

    beta = 2.0
    genres = "continuum"
    cdf_axis = "x"
    cdf_max = 1.0

    def __post_init__(self):
        object.__setattr__(self, "plane", _two_user_plane(self.users))
        if self.producers < 2:
            raise ValueError("producers must be >= 2")
        if abs(self.plane.theta_star - math.pi / 2) > 1e-12:
            raise ValueError("finite-P curve requires orthogonal users")

    def points(self, u: np.ndarray) -> np.ndarray:
        # The curve point whose x coordinate has CDF value u: x = u^e, y = (1 - u)^e.
        e = 0.5 * (self.producers - 1)
        xy = np.empty((2, u.size))
        np.power(u, e, out=xy[0])
        np.subtract(1.0, u, out=xy[1])
        np.power(xy[1], e, out=xy[1])
        return self._embed(xy)

    def cdf(self, x):
        return np.clip(x, 0.0, 1.0) ** (2.0 / (self.producers - 1))

    def value_cdf(self, z: np.ndarray, users: UserSet) -> np.ndarray:
        """P(value <= z) per user: cdf(z / |u_i|), the coordinate CDF."""
        return self.cdf(z / self._user_scales(users))

    def profit(self, n_users: int, spec: CostSpec) -> float:
        p = self.producers
        if spec.beta == 2.0:
            return n_users / p - 2.0 / p
        t = np.linspace(0.0, 1.0, 200001)
        phi = _finite_p_phi(t, p)
        return n_users / p - float(np.trapezoid(phi ** (spec.beta / 2.0), t))


@dataclass(frozen=True)
class InfiniteTwoGenre(_PlanarFamily):
    """Infinite-producer two-genre equilibrium for users at angle theta_star.

    Genres sit at in-plane angles theta_g and theta_star - theta_g.  The
    winning-producer quality CDF alternates between power pieces
    c1^(-2) c2^(-2n beta) q^(2 beta) and flats, on geometric bands with ratio
    c2; support gaps are where the CDF is flat.  theta_g, c1 and log c2 are
    derived from the users' plane and a beta above its two-user threshold,
    with every cosine in logs, as cos^beta would lose about beta ulps.
    """

    users: UserSet
    beta: float
    plane: _Plane = field(init=False)
    theta_g: float = field(init=False)
    c1: float = field(init=False)
    log_c2: float = field(init=False)
    c2: float = field(init=False)

    genres = 2
    cdf_axis = "quality"

    def __post_init__(self):
        object.__setattr__(self, "plane", _two_user_plane(self.users))
        theta_star = self.plane.theta_star
        if self.beta <= beta_star_two_user(self.users):
            raise ValueError("beta must exceed 2/(1 - cos theta_star) for two genres")
        theta_g = _theta_genre(theta_star, self.beta)
        c1 = math.sin(theta_star) * math.cos(theta_g) / math.sin(theta_star - theta_g)
        log_c2 = _log_cos(theta_star - theta_g) - _log_cos(theta_g)
        for name, value in (("theta_g", theta_g), ("c1", c1), ("log_c2", log_c2),
                            ("c2", math.exp(log_c2))):
            object.__setattr__(self, name, value)

    @property
    def support_max(self) -> float:
        return self.c1 ** (1.0 / self.beta)

    cdf_max = support_max

    def genre_directions(self) -> np.ndarray:
        """The two genres, at in-plane angles theta_g and theta_star - theta_g."""
        angles = (self.theta_g, self.plane.theta_star - self.theta_g)
        return np.stack([self.plane.direction(a) for a in angles])

    def _quantile(self, u: np.ndarray) -> np.ndarray:
        # u in (0, 1]; flats carry no mass, so every draw lands on a power piece.
        beta = self.beta
        if self.c2 <= _DEGENERATE_C2:
            return (u * self.c1**2) ** (1.0 / (2.0 * beta))
        lc2 = self.log_c2
        n = np.floor(np.log(u) / (2.0 * beta * lc2))
        return np.exp(
            (np.log(u) + 2.0 * math.log(self.c1) + 2.0 * n * beta * lc2) / (2.0 * beta)
        )

    def points(self, u: np.ndarray) -> np.ndarray:
        # The top half of u picks the genre, g = (u >= 1/2), and the rest,
        # 1 - (2u - g) in (0, 1], is the quality's quantile.  Both steps are
        # exact in doubles for u on rng.random's grid of multiples of 2^-53.
        g = u >= 0.5
        q = self._quantile(1.0 - (2.0 * u - g))
        return (self.genre_directions().T.take(g.view(np.int8), axis=1) * q).T

    def cdf(self, q):
        # Band k = floor(log(q / top) / log c2) is flat when odd; 0 at and
        # below q = 0 and exactly 1 from the top on, where log is not taken.
        q = np.asarray(q, dtype=float)
        top, beta = self.support_max, self.beta
        inside = (q > 0.0) & (q < top)
        q_in = np.where(inside, q, top)
        if self.c2 <= _DEGENERATE_C2:
            f = np.minimum(1.0, q_in ** (2.0 * beta) / self.c1**2)
        else:
            lc2 = self.log_c2
            k = np.floor(np.log(q_in / top) / lc2)
            f = np.exp(np.where(
                k % 2 == 1, (k + 1) * beta * lc2,
                2.0 * beta * np.log(q_in) - 2.0 * math.log(self.c1) - k * beta * lc2))
        return np.where(inside, f, q >= top)

    def profit(self, n_users: int, spec: CostSpec) -> float:
        raise ValueError("per-producer profit is not defined in the infinite-producer limit")


EquilibriumDist = OnePopulation | QuarterCircle | FinitePCurve | InfiniteTwoGenre


def _log_cos(t):
    """log cos t as log1p(-2 sin^2(t/2)), which keeps its digits as t -> 0."""
    return math.log1p(-2.0 * math.sin(0.5 * t) ** 2)


def _genre_log_objective(theta_star, beta, t):
    """log(cos^beta(t) + cos^beta(theta_star - t))."""
    return float(np.logaddexp(beta * _log_cos(t), beta * _log_cos(theta_star - t)))


def _genre_slope(theta_star, beta, t):
    """The objective's slope at t divided by beta cos^(beta-1)(t) > 0, so of
    the same sign: the ratio of the two cosine powers is taken in logs."""
    ratio = math.exp((beta - 1.0) * (_log_cos(theta_star - t) - _log_cos(t)))
    return ratio * math.sin(theta_star - t) - math.sin(t)


def _theta_genre(theta_star: float, beta: float) -> float:
    """Maximizer of cos^beta(t) + cos^beta(theta_star - t) over [0, theta_star/2].

    Bisection to the float limit on the sign of the slope, whose root is the
    stationarity condition the genre angle must satisfy: above the threshold
    the slope is positive at t = 0 and negative just below theta_star/2, a
    local minimum.  The endpoint t = 0 is compared explicitly and returned
    exactly when it wins, which is the orthogonal-user case.
    """
    cand = _bisect_to_float_limit(
        lambda t: _genre_slope(theta_star, beta, t) > 0.0, 0.0, 0.5 * theta_star
    )
    if _genre_log_objective(theta_star, beta, 0.0) >= _genre_log_objective(theta_star, beta, cand):
        return 0.0
    return cand


def _finite_p_phi(t, p: int):
    return t ** (p - 1) + (1.0 - t) ** (p - 1)


def _bisect_to_float_limit(keep_low, lo, hi):
    # Runs until the bracket has no representable interior point.
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if keep_low(mid):
            lo = mid
        else:
            hi = mid


def eq_sample_blocks(dist: EquilibriumDist, n: int, seed: int, block: int, start: int = 0):
    """Rows [start, n) of ``eq_sample(dist, n, seed)``, yielded ``block`` rows at a time.

    Each block is ``dist.points`` at the block's next uniforms.  The seed's
    PCG64 stream is advanced by ``start`` first; ``rng.random`` takes one
    64-bit output per double, so that lands on row ``start``, and successive
    calls continue the stream.  The blocks therefore equal the matching rows
    of the n-row draw bit for bit at any block size and any start, drawn in
    any order; only the last one may be shorter.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if block < 1:
        raise ValueError("block must be >= 1")
    if not 0 <= start < n:
        raise ValueError("start must be in [0, n)")
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(start)
    return (dist.points(rng.random(min(block, n - lo))) for lo in range(start, n, block))


def eq_sample(dist: EquilibriumDist, n: int, seed: int) -> np.ndarray:
    """n inverse-transform draws as rows of an (n, D) content array.

    The concatenation of ``eq_sample_blocks``, taken as its single n-row block.
    """
    return next(eq_sample_blocks(dist, n, seed, n))
