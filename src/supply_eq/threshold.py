"""Specialization threshold: closed forms, the dual-norm upper bound, and the
sampled hull test deciding whether a single-genre equilibrium survives at a
given cost exponent.

The decision procedure normalizes every candidate content point by the
single-genre optimum, so the test reduces to asking whether any mixture of
sampled points beats the anchor by more than tau in summed log inferred value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import CostSpec, UserSet, dual_norm, weighted_norm
from .optimize import OptimizerConfig, nsw_direction, simplex_logsum_max

__all__ = [
    "HullTestConfig",
    "ConditionProbe",
    "ThresholdReport",
    "beta_star_two_user",
    "beta_upper",
    "max_condition_holds",
    "beta_estimate",
    "threshold_report",
]

_RESEED_OFFSET = 1000003


@dataclass(frozen=True)
class HullTestConfig:
    """Knobs for the sampled max-condition test and the threshold search."""

    trials: int = 50
    hull_points: int = 75
    tau: float | None = None
    gap: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.hull_points < 1:
            raise ValueError("hull_points must be >= 1")
        if not self.gap > 0:
            raise ValueError("gap must be positive")
        if self.tau is not None and not self.tau > 0:
            raise ValueError("tau must be positive when given")

    def resolve_tau(self, n_users: int) -> float:
        # Default threshold scales linearly in the user count.
        if self.tau is not None:
            return self.tau
        return 1e-6 * n_users / 20.0


@dataclass(frozen=True)
class ConditionProbe:
    """One max-condition evaluation; holds is None when inconclusive."""

    beta: float
    holds: bool | None
    lhs_log: float
    rhs_log: float


@dataclass(frozen=True)
class ThresholdReport:
    beta_star_closed: float | None
    beta_upper: float
    beta_estimate: float | None
    condition_trace: tuple[ConditionProbe, ...]


def beta_star_two_user(theta_star: float) -> float:
    """Exact two-user threshold 2/(1 - cos theta_star) for the Euclidean cost.

    Degenerates to +inf as the users align (theta_star = 0).
    """
    if not 0.0 <= theta_star <= math.pi / 2:
        raise ValueError("theta_star must lie in [0, pi/2]")
    denom = 1.0 - math.cos(theta_star)
    if denom <= 0.0:
        return math.inf
    return 2.0 / denom


def beta_upper(users: UserSet, spec: CostSpec) -> float:
    """Dual-norm upper bound log(N)/(log(N) - log(Z)).

    Z is the dual norm of the sum of dual-normalized users; it reaches N only
    when all users point the same way, in which case the bound is +inf.
    """
    n = users.n_users
    if n < 2:
        raise ValueError("beta_upper requires at least 2 users")
    U = users.embeddings
    duals = np.array([dual_norm(row, spec) for row in U])
    z = dual_norm(U.T @ (1.0 / duals), spec)
    if z >= n - 1e-12:
        return math.inf
    return math.log(n) / (math.log(n) - math.log(z))


def _hull_trial_matrix(users, spec, beta, anchor_point, anchor_inner, rng, m1):
    draws = np.abs(rng.standard_normal((m1, users.dim)))
    nrms = np.asarray(weighted_norm(draws, spec)).reshape(-1, 1)
    pts = np.vstack([draws / nrms, anchor_point])
    return ((pts @ users.embeddings.T) / anchor_inner) ** beta


def max_condition_holds(users, spec, beta, cfg=None, _anchor=None):
    """Sampled test of the product-maximum condition at cost exponent beta.

    Returns (holds, lhs_log, rhs_log).  lhs_log is the single-genre optimum
    of the summed log inferred values (to the beta); rhs_log adds the best
    hull improvement found over all trials.  holds is False as soon as any
    trial's mixture beats the anchor by tau: the attained value is a valid
    lower bound whether or not that solve converged.  holds is None when no
    trial passed but some solve stopped uncertified with the optimum still
    possibly above tau.
    """
    if beta < 1.0:
        raise ValueError("beta must be >= 1")
    cfg = cfg or HullTestConfig()
    tau = cfg.resolve_tau(users.n_users)
    if _anchor is None:
        _anchor = nsw_direction(users, spec)
    anchor_inner = users.embeddings @ _anchor.point
    lhs_log = beta * _anchor.value

    excess = 0.0
    inconclusive = False
    for t in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, t])
        Y = _hull_trial_matrix(
            users, spec, beta, _anchor.point, anchor_inner, rng, cfg.hull_points
        )
        r = simplex_logsum_max(Y, early_accept=tau, early_reject=tau)
        if r.value >= tau:
            return False, lhs_log, lhs_log + r.value
        excess = max(excess, r.value)
        if not r.converged and r.value + r.kkt_residual >= tau:
            inconclusive = True
    holds = None if inconclusive else True
    return holds, lhs_log, lhs_log + max(0.0, excess)


def _probe(users, spec, beta, cfg, anchor):
    holds, lhs, rhs = max_condition_holds(users, spec, beta, cfg, _anchor=anchor)
    if holds is None:
        retry = replace(cfg, seed=cfg.seed + _RESEED_OFFSET)
        holds, lhs, rhs = max_condition_holds(users, spec, beta, retry, _anchor=anchor)
    return ConditionProbe(beta=beta, holds=holds, lhs_log=lhs, rhs_log=rhs)


def _bisect_threshold(users, spec, cfg):
    """(estimate, sorted probes, beta_upper) of the bisection on [1, beta_upper]."""
    upper = beta_upper(users, spec)
    if math.isinf(upper):
        return math.inf, (), upper
    anchor = nsw_direction(users, spec)
    lo, hi = 1.0, upper
    probes = []
    while hi - lo > cfg.gap:
        mid = 0.5 * (lo + hi)
        probe = _probe(users, spec, mid, cfg, anchor)
        probes.append(probe)
        # An unresolved probe narrows from above: treating it as a failure
        # keeps the estimate conservative rather than stalling the search.
        if probe.holds:
            lo = mid
        else:
            hi = mid
    probes.sort(key=lambda pr: pr.beta)
    return 0.5 * (lo + hi), tuple(probes), upper


def beta_estimate(users, spec, cfg=None) -> float:
    """Binary-search estimate of the specialization threshold.

    Searches [1, beta_upper] and stops when the bracket is narrower than
    cfg.gap, returning the midpoint.  +inf when the upper bound is infinite.
    """
    cfg = cfg or HullTestConfig()
    return _bisect_threshold(users, spec, cfg)[0]


def threshold_report(users, spec, cfg=None) -> ThresholdReport:
    """Full threshold summary: closed form where known, bound, and estimate."""
    cfg = cfg or HullTestConfig()
    closed = None
    uniform = spec.alpha is None or bool(np.all(spec.alpha == spec.alpha[0]))
    if users.n_users == 2 and spec.q == 2.0 and uniform:
        u1, u2 = users.embeddings
        # The normalized dot product is exact where cos(arccos(.)) is not,
        # e.g. orthogonal rows land on 2 rather than 2 + 4e-16.
        cos_t = float(u1 @ u2 / (np.linalg.norm(u1) * np.linalg.norm(u2)))
        closed = math.inf if cos_t >= 1.0 else 2.0 / (1.0 - cos_t)
    est, trace, upper = _bisect_threshold(users, spec, cfg)
    return ThresholdReport(
        beta_star_closed=closed,
        beta_upper=upper,
        beta_estimate=est,
        condition_trace=trace,
    )
