"""Specialization threshold: the report (with geometry's two-user closed form),
the dual-norm upper bound, and a first-order test of whether a single-genre
equilibrium survives at cost exponent beta.  A content point p scores
y_i = (<p, u_i>/a_i)^beta against the single-genre optimum (the anchor,
<anchor, u_i> = a_i).  Mixing p into the anchor changes the summed log values
at rate sum_i y_i - N, and they are concave over mixtures, so the single genre
survives exactly when no unit-cost p has sum_i y_i > N.  A probe prices the
cone-ball once against the bar N (1 + _delta(beta)).  In D = 2 the pricing
zooms in on the best angle and in D > 2 it is a multistart
conditional-gradient ascent; both return at the first point above the bar,
so a probe the ascent decides as holding is a local answer ("local_max", or
"step_cap" when its step cap cut it short).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CostSpec, UserSet, beta_star_two_user, dual_norm, dual_point, weighted_norm
from .optimize import nsw_direction

__all__ = ["ConditionProbe", "ThresholdReport", "beta_upper", "max_condition_holds", "price",
           "threshold_report"]

# A point beats the anchor when sum_i y_i exceeds N (1 + _delta(beta)).  The
# sum's relative rounding grows like beta ulps (at most 1.7 beta on pairs and
# near-parallel sets in D <= 20 with beta* up to 10^7), which _ULPS covers;
# _DELTA bounds the rounding of the sum and the anchor where beta is small.
_DELTA, _ULPS = 1e-11, 10.0

# D = 2 pricing grids _ANGLES angles, then _ZOOMS times _ANGLES_ZOOM around
# the best one.  D > 2 ascents of at most _ASCENT_STEPS start at the pool,
# the axes and the _USER_STARTS most valuable users; a start stops when its
# step gains less than the relative _STALL.
_ANGLES, _ZOOMS, _ANGLES_ZOOM = 1025, 8, 33
_USER_STARTS, _ASCENT_STEPS, _STALL = 4, 200, 1e-12

# The bisection stops once its bracket is narrower than _GAP.
_GAP = 0.05


def _delta(beta):
    """The bar's relative margin over N at cost exponent beta."""
    return max(_DELTA, _ULPS * beta * np.finfo(float).eps)


@dataclass(frozen=True)
class ConditionProbe:
    """One first-order test.  excess is the largest sum_i y_i - N the pricing
    found, which returns at its first point above the bar: that point is the
    witness (None when there is none).  status says what decided it:
    "beaten" (a point priced above the bar), "priced_out" (a global search
    found none), "local_max" (a multistart ascent found none, every start at
    a stall) or "step_cap" (a multistart ascent found none, but some start
    was still climbing at _ASCENT_STEPS)."""

    beta: float
    holds: bool
    excess: float
    witness: tuple[float, ...] | None
    status: str


@dataclass(frozen=True)
class ThresholdReport:
    beta_star_closed: float | None
    beta_upper: float
    beta_estimate: float | None
    condition_trace: tuple[ConditionProbe, ...]
    anchor_converged: bool


def beta_upper(users: UserSet, spec: CostSpec) -> float:
    """Dual-norm upper bound log(N)/(log(N) - log(Z)), Z the dual norm of the
    sum of dual-normalized users: +inf when Z reaches N (all users aligned,
    or a single user)."""
    n = users.n_users
    U = users.embeddings
    z = dual_norm(U.T @ (1.0 / dual_norm(U, spec)), spec)
    if z >= n - 1e-12:
        return math.inf
    return math.log(n) / (math.log(n) - math.log(z))


def price(U, a, beta, spec, pool, bar):
    """(point, price, status) for max f(p) = sum_i (<p, u_i>/a_i)^beta over
    the cone-ball.  f is convex, so at q = 1 it peaks at a vertex e_k, at
    q = inf at the all-ones point, and D = 2 is a search over one angle that
    stops zooming once its best angle prices above bar: status "priced_out".
    D > 2 runs ascents from the pool, the vertices and the best users' dual
    points by conditional-gradient steps
    p <- dual_point(grad f(p)), which never lower f, and returns as soon as a
    start prices above bar.  A start stops when its step gains less than the
    factor (1 + _STALL): status "local_max" when every start stopped,
    "step_cap" when some were still climbing after _ASCENT_STEPS.  The live
    starts' points, scores and values sit in compact arrays, and a start is
    written back to P and v only when it stops."""
    f = lambda P: ((P @ U.T / a) ** beta).sum(axis=1)  # noqa: E731
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
            v = f(X)
            k = int(np.argmax(v))
            P.append(X[k])
            if v[k] > bar:  # a coarser grid's argmax is stable under rounding
                break
            t = np.linspace(t[max(k - 1, 0)], t[min(k + 1, len(t) - 1)], _ANGLES_ZOOM)
        P = np.array(P)
    else:
        S = dual_point(U, spec)  # ranked by each user's own term
        own = ((S * U).sum(axis=1) / a) ** beta
        P = np.vstack([*pool, np.eye(d), S[np.argsort(-own)[:_USER_STARTS]]])
        # A copy of a start would take its steps again; argmax keeps the first.
        first = {}
        for i, row in enumerate(P):
            first.setdefault(row.tobytes(), i)
        P = P[list(first.values())]
        UT, b1 = U.T, beta - 1.0
        Z = P @ UT / a  # each point's scaled scores, kept for its next gradient
        v = (Z ** beta).sum(axis=1)
        live = np.flatnonzero(v > 0)
        X, Z, vl = P[live], Z[live], v[live]
        for _ in range(_ASCENT_STEPS):
            if not live.size or vl.max() > bar:
                break
            Xn = dual_point((Z ** b1 / a) @ U, spec)
            Zn = Xn @ UT / a
            vn = (Zn ** beta).sum(axis=1)
            up = vn > vl * (1.0 + _STALL)
            if up.all():
                X, Z, vl = Xn, Zn, vn
            else:  # write the stopped starts back
                P[live[~up]], v[live[~up]] = X[~up], vl[~up]
                live, X, Z, vl = live[up], Xn[up], Zn[up], vn[up]
        P[live], v[live] = X, vl
        return P[np.argmax(v)], float(v.max()), "step_cap" if live.size else "local_max"
    v = f(P)
    return P[np.argmax(v)], float(v.max()), "priced_out"


def max_condition_holds(users, spec, beta, _anchor=None, _pool=None):
    """First-order test of the single genre at cost exponent beta:
    (holds, excess, witness, status) as in ConditionProbe, from one pricing
    of the cone-ball at the anchor against the bar N (1 + _delta(beta)).  A
    witness joins _pool, where the D > 2 ascents of later probes start too:
    witnesses do not depend on beta, so a search shares one pool."""
    if beta < 1.0:
        raise ValueError("beta must be >= 1")
    anchor = nsw_direction(users, spec) if _anchor is None else _anchor
    pool = [] if _pool is None else _pool
    U, n = users.embeddings, users.n_users
    bar = n * (1.0 + _delta(beta))
    p, value, status = price(U, U @ anchor.point, beta, spec, pool, bar)
    if value <= bar:
        return True, value - n, None, status
    if all(p.tobytes() != w.tobytes() for w in pool):  # a pool start may win again
        pool.append(p)
    return False, value - n, tuple(p.tolist()), "beaten"


def threshold_report(users, spec) -> ThresholdReport:
    """Full threshold summary: the two-user closed form where known (two
    users, q = 2), the bound, and the bisection on [1, beta_upper] with its
    probes sorted by beta.  The estimate is the midpoint once the bracket is
    narrower than _GAP (+inf if the bound is); anchor_converged is the NSW
    anchor's certificate (True when there is no anchor to read)."""
    closed = beta_star_two_user(users) if users.n_users == 2 and spec.q == 2.0 else None
    upper = beta_upper(users, spec)
    if math.isinf(upper):
        return ThresholdReport(closed, upper, math.inf, (), True)
    anchor, probes, pool, lo, hi = nsw_direction(users, spec), [], [], 1.0, upper
    while hi - lo > _GAP:
        mid = 0.5 * (lo + hi)
        probes.append(ConditionProbe(mid, *max_condition_holds(users, spec, mid, anchor, pool)))
        lo, hi = (mid, hi) if probes[-1].holds else (lo, mid)
    probes.sort(key=lambda pr: pr.beta)
    return ThresholdReport(closed, upper, 0.5 * (lo + hi), tuple(probes), anchor.converged)
