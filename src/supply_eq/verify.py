"""Numerical equilibrium verification.

Checks a constructed distribution the way a skeptical producer would: price
every deviation on a grid against the opponents' exact per-user value CDFs,
and compare against the family's analytic ``profit``.  A deviation wins a
user when it beats all P-1 opponents, ties included, so the gap is the
win-all-ties upper bracket.  The same pricing runs over the distribution's
own support, at fixed quantiles mapped through the family's ``points``: an
equilibrium earns its profit at every point it plays, so the range of
profit - eq_profit there is zero up to rounding, and leaves zero where the
support is not indifferent.  A Monte Carlo simulation of the
equilibrium's own profit, drawn through the same ``points``, stays as the
independent cross-check of the analytic profit.  The
deviation grid and the support are scored and the Monte Carlo rounds are
drawn in blocks of about _BLOCK user scores, so memory grows with neither
the sample count nor the grid's radii nor, past one block, the user count.
The grid's radii and the Monte Carlo rounds, past one block, are split in
two halves, each run on its own lane of one ``_lanes.Lanes``: this thread
and one worker thread, which serves both loops and is joined before the
call returns.  Each lane writes only its own rows of the
result and draws its rounds from the seed's stream at their own offset, so
the report is bit for bit that of one lane, and two lanes of half-size
blocks hold what one lane of 2 MB blocks would.  The Monte Carlo's mean and
standard error are summed on the same two lanes, whose halves meet where
numpy's pairwise sum splits the rounds, with the variance formed in place,
so their bits are those of ``profits.mean()`` and ``profits.std(ddof=1)``.
Both score user-major: the draws are row-shaped views of coordinate-major
memory, so a block's scores come out as one row per user and its costs
reduce one row per coordinate, not a short row per point.
The empirical marginals (sorted sampled values) remain as a test oracle for
the exact CDFs.  ``positive_profit_condition`` is a separate check, of the
users, cost and producer count only, through one alignment solve; it is
not part of the report.  What differs between equilibrium families (the
value CDFs, the analytic profit, the support's inverse-transform map, the
deviation directions, the genre count) lives on the family classes in
``closedform`` and is read from them directly.
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
# (a sum of N win probabilities) ties with the grid's maximum.
_TIE = 1e-12

# User scores (one per user per point) handled per block, 1 MB, but never
# fewer than one grid direction or one Monte Carlo round (P*N) at one
# radius.  Two lanes hold a block each, so together they hold 2 MB.  At
# N = 2 a block is still large enough for numpy's per-call cost to stay
# small.
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


def best_response_gap(dist, users, spec, n_samples=100000, grid=(200, 200),
                      seed=0) -> VerifyReport:
    """Grid-search deviations against the exact opponent marginals; the report.

    Deviations sweep the family's directions (``deviation_dirs``) times
    qualities up to N^(1/beta), beyond which revenue cannot cover cost.  A
    deviation to p earns sum_i F_i(<u_i, p>)^(P-1) - cost(p), with F_i the
    family's ``value_cdf``.  The grid is scored a block of radii and
    directions at a time.  Along an equilibrium's support profits tie up to
    rounding, so ``gap_argmax`` is the first cell in radius-major order
    within _TIE * N of the maximum.  The same formula prices ``dist.points``
    at the midpoints of a _SUPPORT_CELLS quantile grid, and
    ``support_profit_range`` is the (min, max) of profit - eq_profit there.
    n_samples sizes only the Monte Carlo profit.  The producer count and the
    genre count are the family's own, ``dist.producers`` and
    ``dist.genres``.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    if min(grid) < 1:
        raise ValueError(f"grid needs at least 1 angle and 1 radius, got {grid}")
    eq_profit = dist.profit(users.n_users, spec)

    n_angles, n_radii = grid
    radii = np.linspace(0.0, users.n_users ** (1.0 / spec.beta), n_radii)
    dirs = dist.deviation_dirs(n_angles, users, spec, [seed, 3])
    # Blocks are built user-major, (N, radii, directions) and (D, radii,
    # directions) (so a block's directions are made contiguous), and seen
    # through (radii, directions, N) and (radii, directions, D) views, so
    # value_cdf and cost keep their APIs while their reductions add whole
    # rows.  A radius row whose A*N scores exceed a block is split into
    # blocks of max(1, _BLOCK // N) directions.  A cell is priced the same in
    # any block.
    n_users, n_dirs = users.n_users, len(dirs)
    step = min(n_dirs, max(1, _BLOCK // n_users))
    rows = max(1, _BLOCK // (step * n_users))
    blocks = [np.ascontiguousarray(dirs[lo:lo + step].T) for lo in range(0, n_dirs, step)]

    def grid_profits(r, d, scores):
        z = np.moveaxis(r * scores[:, None, :], 0, -1)
        return _profits(dist, users, spec, z, np.moveaxis(r * d[:, None, :], 0, -1))

    row_max = np.full(n_radii, -np.inf)

    def lane(span):
        # A lane writes only its own radii's rows of row_max.
        lo, hi = span
        for d in blocks:
            scores = users.embeddings @ d
            for start in range(lo, hi, rows):
                stop = min(start + rows, hi)
                block = row_max[start:stop]
                np.maximum(block, grid_profits(radii[start:stop, None], d, scores).max(axis=1),
                           out=block)

    with Lanes() as lanes:
        lanes.map(lane, _spans(n_radii, rows if len(blocks) == 1 else 1))
        mc, stderr = _mc_profit(dist, users, spec, dist.producers, n_samples, [seed, 1], lanes)
    best = float(row_max.max())
    near = best - _TIE * n_users
    k = int(np.argmax(row_max >= near))
    # Only the chosen row is priced again.
    row = np.concatenate([grid_profits(radii[k:k + 1, None], d, users.embeddings @ d)[0]
                          for d in blocks])
    j = int(np.argmax(row >= near))

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
        gap_argmax=radii[k] * dirs[j],
        genre_count_estimate=dist.genres,
        support_profit_range=(float(low.min()), float(high.max())),
    )
