"""Numerical equilibrium verification.

Checks a constructed distribution the way a skeptical producer would: price
deviations against the opponents' exact per-user value CDFs, ties counted as
the deviator's wins, and compare against the family's analytic ``profit``.
``OnePopulation`` searches its own best deviation (``best_deviation``, an
exact radius along each candidate direction); the planar families are priced
on an angle-by-radius grid.  The same pricing runs over the distribution's
own support at fixed quantiles of ``points``: an equilibrium earns its profit
at every point it plays, so the range of profit - eq_profit there is zero up
to rounding.  A Monte Carlo simulation of the equilibrium's own profit stays
as the independent cross-check of the analytic profit.  The grid, the
support and the Monte Carlo rounds go in blocks of about _BLOCK user scores,
scored user-major, so memory grows with neither the sample count nor the
grid's radii.  Past one block, the grid's radii and the Monte Carlo rounds
are split in two halves, one on each lane of a ``_lanes.Lanes``, each lane
writing only its own rows and drawing its rounds at their own offset of the
seed's stream, so the report is bit for bit that of one lane.  The Monte
Carlo's mean and standard error are summed on the same lanes, split where
numpy's pairwise sum splits, so their bits are those of ``profits.mean()``
and ``profits.std(ddof=1)``.  The empirical marginals remain as a test
oracle for the exact CDFs.  ``positive_profit_condition`` checks the users,
cost and producer count alone, through one alignment solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lanes import Lanes
from .closedform import eq_sample_blocks
from .geometry import CostSpec, UserSet, cost
from .optimize import minmax_alignment

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
# fewer than one grid radius, onepop direction or Monte Carlo round (P*N).
# Two lanes hold a block each, so together they hold 2 MB.  At N = 2 a block
# is still large enough for numpy's per-call cost to stay small.
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


def _grid_best(dist, users, spec, grid, lanes):
    """(profit, point) of the planar families' best deviation on the grid of
    ``deviation_dirs`` times radii up to N^(1/beta), beyond which revenue
    cannot cover cost: the first cell, radius-major, within _TIE * N of the
    maximum, as profits along a support tie up to rounding.  Blocks of radii
    are built user-major, (N, radii, directions) and (D, radii, directions),
    and seen through axis-moved views, so value_cdf and cost reduce whole
    rows; a cell is priced the same in any block."""
    n_angles, n_radii = grid
    radii = np.linspace(0.0, users.n_users ** (1.0 / spec.beta), n_radii)
    dirs = dist.deviation_dirs(n_angles)
    d = np.ascontiguousarray(dirs.T)
    scores = users.embeddings @ d
    rows = max(1, _BLOCK // (len(dirs) * users.n_users))

    def grid_profits(r):
        z = np.moveaxis(r * scores[:, None, :], 0, -1)
        return _profits(dist, users, spec, z, np.moveaxis(r * d[:, None, :], 0, -1))

    row_max = np.empty(n_radii)

    def lane(span):  # writes only its own radii's rows of row_max
        for start in range(span[0], span[1], rows):
            stop = min(start + rows, span[1])
            row_max[start:stop] = grid_profits(radii[start:stop, None]).max(axis=1)

    lanes.map(lane, _spans(n_radii, rows))
    best = float(row_max.max())
    near = best - _TIE * users.n_users
    k = int(np.argmax(row_max >= near))
    # Only the chosen row is priced again.
    j = int(np.argmax(grid_profits(radii[k:k + 1, None])[0] >= near))
    return best, radii[k] * dirs[j]


def best_response_gap(dist, users, spec, n_samples=100000, grid=(200, 200),
                      seed=0) -> VerifyReport:
    """The best deviation against the exact opponent marginals; the report.

    A deviation to p earns sum_i F_i(<u_i, p>)^(P-1) - cost(p), with F_i the
    family's ``value_cdf``.  A family with a ``best_deviation`` (onepop) is
    searched by it, which reads neither ``grid`` nor ``seed``; the planar
    families are priced on the (angles, radii) ``grid``.  ``gap_argmax`` is
    the point found and ``best_response_gap`` its profit minus eq_profit.
    The same formula prices ``dist.points`` at the midpoints of a
    _SUPPORT_CELLS quantile grid for ``support_profit_range``, the (min, max)
    of profit - eq_profit there.  n_samples sizes only the Monte Carlo profit.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    if min(grid) < 1:
        raise ValueError(f"grid needs at least 1 angle and 1 radius, got {grid}")
    eq_profit = dist.profit(users.n_users, spec)
    with Lanes() as lanes:
        if hasattr(dist, "best_deviation"):
            # The point found, priced exactly, or the origin unless it beats
            # the origin by more than _TIE * N.
            pts = np.stack([np.zeros(users.dim), dist.best_deviation(users, spec, _BLOCK)])
            profit = _profits(dist, users, spec, pts @ users.embeddings.T, pts)
            k = int(profit[1] > profit[0] + _TIE * users.n_users)
            best, argmax = float(profit[k]), pts[k]
        else:
            best, argmax = _grid_best(dist, users, spec, grid, lanes)
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
