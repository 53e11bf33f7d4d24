"""Specialization threshold: closed forms, the dual-norm upper bound, and a
column-generation test of whether a single-genre equilibrium survives at cost
exponent beta.  A content point p scores y_i = (<p, u_i>/a_i)^beta against the
single-genre optimum (the anchor, <anchor, u_i> = a_i), and the test asks
whether a mixture of points beats the anchor's all-ones values by tau in summed
log value.  A master problem mixes a pool of points; pricing searches the
cone-ball for the point that best raises it and bounds what any point could add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CostSpec, UserSet, dual_norm, dual_point, weighted_norm
from .optimize import nsw_direction, simplex_logsum_max

__all__ = ["ConditionProbe", "ThresholdReport", "beta_star_two_user", "beta_upper",
           "max_condition_holds", "threshold_report"]

# _ROUND_CAP master solves per probe leave it inconclusive.  D = 2 pricing
# grids _ANGLES angles, then _ZOOMS times _ANGLES_ZOOM around the best one.
# D > 2 ascents of at most _ASCENT_STEPS start at the pool, the axes and the
# _USER_STARTS most valuable users; a start stops at a relative gain < _STALL.
_ROUND_CAP, _ANGLES, _ZOOMS, _ANGLES_ZOOM = 50, 1025, 8, 33
_USER_STARTS, _ASCENT_STEPS, _STALL = 4, 200, 1e-12

# The bisection stops once its bracket is narrower than _GAP.
_GAP = 0.05


def _tau(n_users: int) -> float:
    """The summed-log gain a mixture needs to beat the anchor: linear in N."""
    return 1e-6 * n_users / 20.0


@dataclass(frozen=True)
class ConditionProbe:
    """One max-condition evaluation.  status says what decided it: "beaten"
    (a mixture beat the anchor by tau), "priced_out" (a global search found no
    improving point), "local_max" (a multistart ascent found none), or
    "round_cap" (undecided, holds is None)."""

    beta: float
    holds: bool | None
    lhs_log: float
    rhs_log: float
    status: str


@dataclass(frozen=True)
class ThresholdReport:
    beta_star_closed: float | None
    beta_upper: float
    beta_estimate: float | None
    condition_trace: tuple[ConditionProbe, ...]


def beta_star_two_user(theta_star: float) -> float:
    """Exact two-user threshold 2/(1 - cos theta_star) for the Euclidean cost;
    +inf as the users align (theta_star = 0)."""
    if not 0.0 <= theta_star <= math.pi / 2:
        raise ValueError("theta_star must lie in [0, pi/2]")
    denom = 1.0 - math.cos(theta_star)
    return math.inf if denom <= 0.0 else 2.0 / denom


def beta_upper(users: UserSet, spec: CostSpec) -> float:
    """Dual-norm upper bound log(N)/(log(N) - log(Z)), Z the dual norm of the
    sum of dual-normalized users: +inf when Z reaches N (all users aligned)."""
    n = users.n_users
    if n < 2:
        raise ValueError("beta_upper requires at least 2 users")
    U = users.embeddings
    z = dual_norm(U.T @ (1.0 / dual_norm(U, spec)), spec)
    if z >= n - 1e-12:
        return math.inf
    return math.log(n) / (math.log(n) - math.log(z))


def _price(U, a, c, beta, spec, pool, bar):
    """(point, price, global) for max f(p) = sum_i c_i (<p, u_i>/a_i)^beta over
    the cone-ball.  f is convex, so at q = 1 it peaks at a vertex e_k, at
    q = inf at the all-ones point, and D = 2 is a search over one angle.
    D > 2 runs conditional-gradient ascents p <- dual_point(grad f(p)), which
    never lower f, from the pool, the vertices and the best users' dual
    points; once one prices above bar, only those go on.  Each point is scored once, and its
    scores give its next gradient.  global is False only for these ascents."""
    f = lambda P: ((P @ U.T / a) ** beta) @ c  # noqa: E731
    d = U.shape[1]
    if spec.q == 1.0 or d == 1:
        P = np.eye(d)
    elif math.isinf(spec.q):
        P = np.ones((1, d))
    elif d == 2:
        P, t = [], np.linspace(0.0, 0.5 * math.pi, _ANGLES)
        for _ in range(_ZOOMS + 1):
            X = np.stack([np.cos(t), np.sin(t)], axis=1)
            X /= weighted_norm(X, spec)[:, None]
            k = int(np.argmax(f(X)))
            P.append(X[k])
            t = np.linspace(t[max(k - 1, 0)], t[min(k + 1, len(t) - 1)], _ANGLES_ZOOM)
        P = np.array(P)
    else:
        S = dual_point(U, spec)  # ranked by each user's own term
        own = c * ((S * U).sum(axis=1) / a) ** beta
        P = np.vstack([pool, np.eye(d), S[np.argsort(-own)[:_USER_STARTS]]])
        Z = P @ U.T / a  # each point's scaled scores, kept for its next gradient
        v = (Z ** beta) @ c
        live = np.flatnonzero(v > 0)
        for _ in range(_ASCENT_STEPS):
            if v.max() >= bar:  # ascend only those: a column at its local max gains more
                live = live[v[live] >= bar]
            if not live.size:
                break
            Pn = dual_point((Z[live] ** (beta - 1.0) * (c / a)) @ U, spec)
            Zn = Pn @ U.T / a
            vn = (Zn ** beta) @ c
            up = vn > v[live] * (1.0 + _STALL)
            live = live[up]
            P[live], Z[live], v[live] = Pn[up], Zn[up], vn[up]
        return P[np.argmax(v)], float(v.max()), False
    v = f(P)
    return P[np.argmax(v)], float(v.max()), True


def max_condition_holds(users, spec, beta, _anchor=None, _pool=None):
    """Column-generation test of the product-maximum condition at cost exponent
    beta: (holds, lhs_log, rhs_log, status) as in ConditionProbe.  lhs_log is
    the single-genre optimum of the summed log values (to the beta); rhs_log
    adds the master value, the best mixture's gain.  Each round solves the
    master over the pool (the anchor first) and prices its mixed values z: no
    mixture gains more than value + price - N, as log is concave.  New points
    go into _pool; they do not depend on beta, so a search shares one pool."""
    if beta < 1.0:
        raise ValueError("beta must be >= 1")
    tau = _tau(users.n_users)
    if _anchor is None:
        _anchor = nsw_direction(users, spec)
    pool = [_anchor.point] if _pool is None else _pool
    U = users.embeddings
    a = U @ _anchor.point
    lhs_log = beta * _anchor.value
    for _ in range(_ROUND_CAP):
        Y = (np.array(pool) @ U.T / a) ** beta
        r = simplex_logsum_max(Y, early_accept=tau, early_reject=tau)
        rhs_log = lhs_log + max(0.0, r.value)
        if r.value >= tau:
            return False, lhs_log, rhs_log, "beaten"
        bar = users.n_users + tau - r.value
        p, price, exact = _price(U, a, 1.0 / (r.point @ Y), beta, spec, pool, bar)
        if price < bar:
            return True, lhs_log, rhs_log, "priced_out" if exact else "local_max"
        pool.append(p)
    return None, lhs_log, rhs_log, "round_cap"


def _bisect_threshold(users, spec):
    """(estimate, sorted probes, beta_upper) of the bisection on [1, beta_upper]:
    the estimate is the midpoint once the bracket is narrower than _GAP (+inf
    if the bound is)."""
    upper = beta_upper(users, spec)
    if math.isinf(upper):
        return math.inf, (), upper
    anchor, probes = nsw_direction(users, spec), []
    pool = [anchor.point]
    lo, hi = 1.0, upper
    while hi - lo > _GAP:
        mid = 0.5 * (lo + hi)
        decided = max_condition_holds(users, spec, mid, anchor, pool)
        probes.append(ConditionProbe(mid, *decided))
        # An unresolved probe narrows from above: treating it as a failure
        # keeps the estimate conservative rather than stalling the search.
        lo, hi = (mid, hi) if probes[-1].holds else (lo, mid)
    probes.sort(key=lambda pr: pr.beta)
    return 0.5 * (lo + hi), tuple(probes), upper


def threshold_report(users, spec) -> ThresholdReport:
    """Full threshold summary: closed form where known, bound, and estimate."""
    closed = None
    if users.n_users == 2 and spec.q == 2.0:
        u1, u2 = users.embeddings
        # The normalized dot product is exact where cos(arccos(.)) is not,
        # e.g. orthogonal rows land on 2 rather than 2 + 4e-16.
        cos_t = float(u1 @ u2 / (np.linalg.norm(u1) * np.linalg.norm(u2)))
        closed = math.inf if cos_t >= 1.0 else 2.0 / (1.0 - cos_t)
    est, trace, upper = _bisect_threshold(users, spec)
    return ThresholdReport(closed, upper, est, trace)
