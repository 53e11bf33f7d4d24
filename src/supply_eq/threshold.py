"""Specialization threshold: the report (with geometry's two-user closed form),
the dual-norm upper bound, and a column-generation test of whether a
single-genre equilibrium survives at cost exponent beta.  A content point p
scores y_i = (<p, u_i>/a_i)^beta against the single-genre optimum (the anchor,
<anchor, u_i> = a_i), and the test asks whether a mixture of points beats the
anchor's all-ones values by tau in summed log value.  A master problem mixes a
pool of points; pricing searches the cone-ball for the point that best raises
it and bounds what any point could add.  In D > 2 the search is a multistart
ascent: conditional-gradient steps, and Newton steps on the unit-cost sphere
for starts already priced above the bar, so a probe it decides as holding is
a local answer ("local_max", or "step_cap" when its step cap cut it short).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CostSpec, UserSet, beta_star_two_user, dual_norm, dual_point, weighted_norm
from .optimize import nsw_direction, simplex_logsum_max

__all__ = ["ConditionProbe", "ThresholdReport", "beta_upper", "max_condition_holds",
           "threshold_report"]

# _ROUND_CAP master solves per probe leave it inconclusive.  D = 2 pricing
# grids _ANGLES angles, then _ZOOMS times _ANGLES_ZOOM around the best one.
# D > 2 ascents of at most _ASCENT_STEPS start at the pool, the axes and the
# _USER_STARTS most valuable users; a start stops when its step, conditional
# gradient or Newton, gains less than the relative _STALL.
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
    improving point), "local_max" (a multistart ascent found none, every
    start at a stall), "step_cap" (a multistart ascent found none, but some
    start was still climbing at _ASCENT_STEPS; holds is True), or
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


def _newton(X, Z, G, v, Ua, c, beta, spec):
    """Newton points of F(x) = log f(x) - beta log ||x||_q, f as in _price, at
    unit-cost rows X with scaled scores Z, gradient directions G and values v:
    (rows, points), each point at unit cost.  F does not change along rays,
    so its maximizers are f's on the unit-cost sphere, and on the plane
    x + x^perp it is an ordinary function whose Hessian is P H P
    (P = I - n n^T, n = x/|x|); subtracting n n^T makes that invertible and
    leaves its tangent eigenvalues alone.  No row gets a point unless that
    matrix is negative definite at every row (one Cholesky test), and a row
    keeps its point only inside the open orthant.  Rows with a non-finite
    term (x_k = 0 at q < 2, z_i = 0 at beta < 2) are dropped before LAPACK.
    Gradient and Hessian are F's divided by beta."""
    k, d = X.shape
    q = spec.q
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xq = X ** (q - 1.0)
        s = (xq * X).sum(axis=1)[:, None]
        g, y = G / v[:, None], xq / s  # grad log f / beta, grad log ||x||_q
        H = (Ua.T * (Z ** (beta - 2.0) * c * ((beta - 1.0) / v)[:, None])[:, None, :]) @ Ua
        H += q * y[:, :, None] * y[:, None, :] - beta * g[:, :, None] * g[:, None, :]
        H.reshape(k, d * d)[:, :: d + 1] -= (q - 1.0) * X ** (q - 2.0) / s
        rows = np.flatnonzero(np.isfinite(H).all(axis=(1, 2)))
        H, r, x = H[rows], (g - y)[rows], X[rows]
        n = x / np.sqrt((x * x).sum(axis=1))[:, None]
        h = (H @ n[:, :, None])[:, :, 0]
        e = n[:, :, None] * (h - 0.5 * ((h * n).sum(axis=1) - 1.0)[:, None] * n)[:, None, :]
        M = H - e - e.transpose(0, 2, 1)
        try:
            np.linalg.cholesky(-M)
        except np.linalg.LinAlgError:
            return rows[:0], x[:0]
        Y = x - np.linalg.solve(M, r[:, :, None])[:, :, 0]
        ok = ((Y > 0) & (Y < math.inf)).all(axis=1)
    return rows[ok], Y[ok] / weighted_norm(Y[ok], spec)[:, None]


def _price(U, a, c, beta, spec, pool, bar):
    """(point, price, status) for max f(p) = sum_i c_i (<p, u_i>/a_i)^beta over
    the cone-ball.  f is convex, so at q = 1 it peaks at a vertex e_k, at
    q = inf at the all-ones point, and D = 2 is a search over one angle:
    status "priced_out".  D > 2 runs ascents from the pool, the vertices and
    the best users' dual points.  A step is the conditional-gradient step
    p <- dual_point(grad f(p)), which never lowers f, or, for a start above
    bar, its _newton point where that raises f by the factor (1 + _STALL).
    Once a start prices above bar only those go on, and a start stops when
    its step gains less: status "local_max" when every start stopped,
    "step_cap" when some were still climbing after _ASCENT_STEPS.  The live
    starts' points, scores and values sit in compact arrays, and a start is
    written back to P and v only when it stops."""
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
        # A copy of a start would take its steps again; argmax keeps the first.
        first = {}
        for i, row in enumerate(P):
            first.setdefault(row.tobytes(), i)
        P = P[list(first.values())]
        UT, ca, b1, Ua = U.T, c / a, beta - 1.0, U / a[:, None]
        Z = P @ UT / a  # each point's scaled scores, kept for its next gradient
        v = (Z ** beta) @ c
        live = np.flatnonzero(v > 0)
        X, Z, vl, top = P[live], Z[live], v[live], v.max()
        for _ in range(_ASCENT_STEPS):
            if top >= bar:  # ascend only those: a column at its local max gains more
                keep = vl >= bar  # v keeps a dropped start's older, lower value: never the max
                live, X, Z, vl = live[keep], X[keep], Z[keep], vl[keep]
            if not live.size:
                break
            G = (Z ** b1 * ca) @ U
            Xn = dual_point(G, spec)
            Zn = Xn @ UT / a
            vn = (Zn ** beta) @ c
            if top >= bar:
                rows, Y = _newton(X, Z, G, vl, Ua, c, beta, spec)
                Yz = Y @ UT / a
                yv = (Yz ** beta) @ c
                gain = yv > vl[rows] * (1.0 + _STALL)
                rows = rows[gain]
                Xn[rows], Zn[rows], vn[rows] = Y[gain], Yz[gain], yv[gain]
            up = vn > vl * (1.0 + _STALL)
            if up.all():
                X, Z, vl = Xn, Zn, vn
            else:  # write the stopped starts back
                P[live[~up]], v[live[~up]] = X[~up], vl[~up]
                live, X, Z, vl = live[up], Xn[up], Zn[up], vn[up]
            if vl.size:
                top = max(top, vl.max())
        P[live], v[live] = X, vl
        return P[np.argmax(v)], float(v.max()), "step_cap" if live.size else "local_max"
    v = f(P)
    return P[np.argmax(v)], float(v.max()), "priced_out"


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
        p, price, status = _price(U, a, 1.0 / (r.point @ Y), beta, spec, pool, bar)
        if price < bar:
            return True, lhs_log, rhs_log, status
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
    """Full threshold summary: the two-user closed form where known (two
    users, q = 2), bound, and estimate."""
    closed = beta_star_two_user(users) if users.n_users == 2 and spec.q == 2.0 else None
    est, trace, upper = _bisect_threshold(users, spec)
    return ThresholdReport(closed, upper, est, trace)
