"""Numerical equilibrium verification.

Checks a constructed distribution the way a skeptical producer would: price
deviations against the opponents' exact per-user value CDFs, ties counted as
the deviator's wins, and compare against the family's analytic ``profit``.
Every family priced here states one value law, F_i(z) = clip(z/c_i, 0, 1)^gamma
(``value_law``), so along a ray a deviation's profit is a closed form in the
radius, and one search takes the exact best radius along every candidate
direction: the planar families' angle sweep, or onepop's users' unit-cost
points and threshold's pricing climb at its ray.  The same pricing runs over
the distribution's own support at fixed quantiles of ``points``: an
equilibrium earns its profit at every point it plays, so the range of
profit - eq_profit there is zero up to rounding.  A Monte Carlo simulation
of the equilibrium's own profit stays as the independent cross-check of the
analytic profit.  All three go in blocks of about _BLOCK user scores.  Past
one block, the Monte Carlo rounds are split in two halves, one on each lane
of a ``_lanes.Lanes``, each lane writing only its own rows and drawing its
rounds at their own offset of the seed's stream, and their mean and
standard error are summed on the same lanes, split where numpy's pairwise
sum splits, so the report is bit for bit that of one lane, and of
``profits.mean()`` and ``profits.std(ddof=1)``.  The empirical marginals
remain as a test oracle for the exact CDFs.  ``positive_profit_condition``
checks the users, cost and producer count alone, through one alignment
solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lanes import Lanes
from .closedform import OnePopulation, eq_sample_blocks
from .geometry import CostSpec, UserSet, cost, dual_point, weighted_norm
from .optimize import minmax_alignment
from .threshold import price

__all__ = [
    "EmpiricalMarginals",
    "VerifyReport",
    "empirical_marginals",
    "deviation_profit",
    "best_response_gap",
    "positive_profit_condition",
]

# Relative distance at which a bracket end ties with the profit threshold:
# far above the few ulps that value + kkt_residual may round away from the
# bracket's upper end.  Times N, the distance at which a deviation's profit
# (a sum of N win probabilities) ties with the best one's.
_TIE = 1e-12

# User scores (one per user per point) handled per block, 1 MB, but never
# fewer than one search direction or Monte Carlo round (P*N).  The Monte
# Carlo's two lanes hold a block each, so together they hold 2 MB.  At N = 2
# a block is still large enough for numpy's per-call cost to stay small.
_BLOCK = 1 << 17

# The support is priced at the midpoints of a quantile grid of this many
# cells on [0, 1], which keep off the support's ends.
_SUPPORT_CELLS = 4096


@dataclass(frozen=True)
class EmpiricalMarginals:
    """Sorted per-user inferred values from M draws of one opponent strategy."""

    values: np.ndarray
    producers: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("values must be (n_users, M)")
        if self.producers < 2:
            raise ValueError("producers must be >= 2")
        object.__setattr__(self, "values", v)

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    def win_probability(self, inferred: np.ndarray, weak: bool) -> np.ndarray:
        """Empirical chance that inferred beats the max of P-1 opponents.

        inferred has shape (..., n_users); weak counts ties as wins.
        """
        side = "right" if weak else "left"
        z = np.asarray(inferred, dtype=float)
        m = self.n_samples
        out = np.empty_like(z)
        for i in range(self.values.shape[0]):
            rank = np.searchsorted(self.values[i], z[..., i], side=side)
            out[..., i] = (rank / m) ** (self.producers - 1)
        return out


def empirical_marginals(dist, users, producers, n_samples, seed) -> EmpiricalMarginals:
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    vals = np.empty((users.n_users, n_samples))
    start = 0
    for pts in eq_sample_blocks(dist, n_samples, seed, max(1, _BLOCK // users.n_users)):
        vals[:, start:start + len(pts)] = (pts @ users.embeddings.T).T
        start += len(pts)
    vals.sort(axis=1)
    return EmpiricalMarginals(values=vals, producers=producers)


def deviation_profit(p, marg: EmpiricalMarginals, users: UserSet, spec: CostSpec):
    """(lower, upper) bracket of the expected profit of deviating to p."""
    z = users.embeddings @ np.asarray(p, dtype=float)
    lo = float(marg.win_probability(z, weak=False).sum()) - cost(p, spec)
    hi = float(marg.win_probability(z, weak=True).sum()) - cost(p, spec)
    return lo, hi


def positive_profit_condition(users, spec, producers):
    """(flag, res, threshold): profit is forced positive when Q < N^(-P/beta).

    res is the alignment solve, whose certified bracket [Q, Q + kkt_residual]
    has Q = res.value as its attained lower end.  flag is True when the
    bracket lies below the threshold, False when it lies above, and None only
    when it straddles it.
    A bracket end within a relative _TIE of the threshold is a tie, decided
    as positive: on basis2 at beta = 4, Q and the threshold are both
    2^(-1/2), and the p2 equilibrium there earns 0.5.
    """
    res = minmax_alignment(users, spec)
    threshold = users.n_users ** (-producers / spec.beta)
    flag = None
    if res.value + res.kkt_residual <= threshold * (1.0 + _TIE):
        flag = True
    elif res.value > threshold * (1.0 + _TIE):
        flag = False
    return flag, res, threshold


def _first_wins(z):
    """Users won by producer 0 in each round of z, shaped (N, rounds, P).

    Producer 0 wins a user when no opponent scores strictly higher, which is
    argmax == 0 over the round's producers, ties included, at a fraction of
    argmax's cost.  With users outermost, the count per round adds whole
    rows of the win mask.
    """
    won = z[..., 0] >= z[..., 1]
    for j in range(2, z.shape[2]):
        won &= z[..., 0] >= z[..., j]
    return np.count_nonzero(won, axis=0)


def _spans(n, block):
    """[0, n) as the spans of its lanes: two halves, or all of it when it is
    work of one block, n <= block, which runs on this thread alone: two
    threads trading the interpreter lock over a block of small arrays take
    several times as long as one.  Past 128 values the halves meet where
    numpy's pairwise sum splits n values, so the sums of the halves add up
    to that of the whole, bit for bit."""
    if n <= max(1, block):
        return [(0, n)]
    half = n // 2 - n // 2 % 8 if n > 128 else (n + 1) // 2
    return [(0, half), (half, n)]


def _mc_profit(dist, users, spec, producers, n_rounds, seed, lanes):
    """(mean, standard error) of producer 0's profit over n_rounds rounds.

    Each lane draws its span of the rounds, from ``_spans``, and sums its
    span's profits; a second pass on the same lanes subtracts the mean from
    each span in place, squares it in place and sums the squares.  For more
    than 128 doubles ``np.add.reduce`` adds the pairwise sums of the halves
    ``_spans`` splits at, so the two sums are those of the whole array, and
    the results are bit for bit ``profits.mean()`` and
    ``profits.std(ddof=1) / sqrt(n_rounds)`` with no second array.  Callers
    pass n_rounds >= 1000, and a single span is summed whole.
    """
    profits = np.empty(n_rounds)
    rounds = max(1, _BLOCK // (producers * users.n_users))
    spans = _spans(n_rounds, rounds)

    def lane(span):
        lo, hi = span
        draws = eq_sample_blocks(dist, hi * producers, seed, rounds * producers, lo * producers)
        for start, pts in zip(range(lo, hi, rounds), draws):
            # The draws are rows of coordinate-major memory, so x is contiguous
            # (D, rounds * P) and the scores come out user-major.
            x = pts.T
            z = (users.embeddings @ x).reshape(users.n_users, -1, producers)
            profits[start:start + z.shape[1]] = _first_wins(z) - cost(x[:, ::producers].T, spec)
        return np.add.reduce(profits[lo:hi])

    mean = sum(lanes.map(lane, spans)) / n_rounds

    def squares(span):
        x = profits[span[0]:span[1]]
        np.subtract(x, mean, out=x)
        np.square(x, out=x)
        return np.add.reduce(x)

    var = sum(lanes.map(squares, spans)) / (n_rounds - 1)
    return float(mean), math.sqrt(var) / math.sqrt(n_rounds)


@dataclass(frozen=True)
class VerifyReport:
    eq_profit: float
    eq_profit_mc: float
    eq_profit_mc_stderr: float
    best_response_gap: float
    gap_argmax: np.ndarray
    genre_count_estimate: int | str
    support_profit_range: tuple[float, float]


def _profits(dist, users, spec, z, p):
    """Profits of deviating to points p (..., D) that users value at z (..., N)."""
    win = (dist.value_cdf(z, users) ** (dist.producers - 1)).sum(axis=-1)
    return win - cost(p, spec)


def _onepop_dirs(dist, users, spec):
    """onepop's candidate directions: each user's unit-cost dual point (the
    user scaled to unit cost at q = 1 and inf) and where threshold's pricing
    climbs at the equilibrium's ray, at the family's beta: to its end in
    D > 2, and in D = 2 to its first angle grid to beat the ray, whose
    argmax, unlike a finer zoom's, is stable under rounding."""
    u = users.embeddings
    own = dual_point(u, spec) if 1.0 < spec.q < math.inf else u / weighted_norm(u, spec)[:, None]
    a = u @ dist.direction
    bar = np.count_nonzero(a > 0.0) if users.dim == 2 else math.inf
    return np.vstack([price(u[a > 0.0], a[a > 0.0], dist.beta, spec, [], bar)[0], own])


def _ray_best(dist, users, spec, dirs):
    """The best deviation along the rays of dirs, each at its exact best
    radius: the first direction within _TIE * N of the best of all, as
    profits along a support tie up to rounding.  By ``value_law``, r d (d at
    unit cost) wins user i with probability min(1, t s_i), where t = r^e,
    e = gamma (P - 1) and s_i = (<d, u_i>/c_i)^e, and always where c_i = 0,
    and it costs t^rho, rho = beta/e.  With the M values s_i ascending, the
    users j and up are won outright on [1/s_j, 1/s_(j-1)] (from 0 for j = M,
    to inf for j = 0), where the deviation earns m + K t - t^rho, m the users
    won and K = sum_(i<j) s_i a running sum: it peaks at t = (K/rho)^(1/(rho-1))
    clipped into the segment where rho > 1, else at the lower end (the upper
    is the next segment's).  Directions are scored about _BLOCK scores a block."""
    c, gamma = dist.value_law(users)
    e = gamma * (dist.producers - 1)
    rho = spec.beta / e
    v = users.embeddings[c > 0.0] / c[c > 0.0, None]
    m = len(v)
    won = users.n_users - m + np.arange(m, -1, -1)
    dirs = dirs / weighted_norm(dirs, spec)[:, None]
    best, radius = np.empty(len(dirs)), np.empty(len(dirs))
    rows = max(1, _BLOCK // max(m, 1))
    for lo in range(0, len(dirs), rows):
        s = np.sort((dirs[lo:lo + rows] @ v.T) ** e, axis=1)
        k = np.zeros((len(s), m + 1))
        np.cumsum(s, axis=1, out=k[:, 1:])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t = np.hstack([1.0 / s, np.zeros((len(s), 1))])  # inf where s = 0: never won
            if rho > 1.0:
                high = np.hstack([np.full((len(s), 1), np.inf), t[:, :-1]])
                t = np.clip((k / rho) ** (1.0 / (rho - 1.0)), t, high)
            profit = won + k * t - t ** rho
        profit[~np.isfinite(profit)] = -np.inf
        j = m - np.argmax(profit[:, ::-1], axis=1)  # the smallest radius of a tie
        at = np.arange(len(s))
        best[lo:lo + len(s)], radius[lo:lo + len(s)] = profit[at, j], t[at, j] ** (1.0 / e)
    k = int(np.argmax(best >= best.max() - _TIE * users.n_users))
    return radius[k] * dirs[k]


def best_response_gap(dist, users, spec, n_samples=100000, grid=(200, 200),
                      seed=0) -> VerifyReport:
    """The best deviation against the exact opponent marginals; the report.

    A deviation to p earns sum_i F_i(<u_i, p>)^(P-1) - cost(p), with F_i the
    family's ``value_cdf``.  Each candidate direction is priced at its exact
    best radius: the planar families' ``deviation_dirs`` over grid[0]
    angles, and onepop's candidates, which read neither ``grid`` nor
    ``seed``; grid[1], the radius count, is only checked.  ``gap_argmax`` is
    the point found, or the origin unless the point beats it by more than
    _TIE * N, and ``best_response_gap`` its profit minus eq_profit.
    The same formula prices ``dist.points`` at the midpoints of a
    _SUPPORT_CELLS quantile grid for ``support_profit_range``, the (min, max)
    of profit - eq_profit there.  n_samples sizes only the Monte Carlo profit.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    if min(grid) < 1:
        raise ValueError(f"grid needs at least 1 angle and 1 radius, got {grid}")
    eq_profit = dist.profit(users.n_users, spec)
    dirs = (_onepop_dirs(dist, users, spec) if isinstance(dist, OnePopulation)
            else dist.deviation_dirs(grid[0]))
    pts = np.stack([np.zeros(users.dim), _ray_best(dist, users, spec, dirs)])
    profit = _profits(dist, users, spec, pts @ users.embeddings.T, pts)
    k = int(profit[1] > profit[0] + _TIE * users.n_users)
    best, argmax = float(profit[k]), pts[k]
    with Lanes() as lanes:
        mc, stderr = _mc_profit(dist, users, spec, dist.producers, n_samples, [seed, 1], lanes)

    # About _BLOCK scores a block, each cell priced on its own, in the draws'
    # layout: (N, cells) scores seen as (cells, N).
    quantiles = (np.arange(_SUPPORT_CELLS) + 0.5) / _SUPPORT_CELLS
    cells = max(1, _BLOCK // users.n_users)
    ranges = []
    for start in range(0, _SUPPORT_CELLS, cells):
        pts = dist.points(quantiles[start:start + cells])
        gap = _profits(dist, users, spec, (users.embeddings @ pts.T).T, pts) - eq_profit
        ranges.append((gap.min(), gap.max()))
    low, high = np.array(ranges).T

    return VerifyReport(
        eq_profit=eq_profit,
        eq_profit_mc=mc,
        eq_profit_mc_stderr=stderr,
        best_response_gap=best - eq_profit,
        gap_argmax=argmax,
        genre_count_estimate=dist.genres,
        support_profit_range=(float(low.min()), float(high.max())),
    )
