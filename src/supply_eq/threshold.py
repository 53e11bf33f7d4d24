"""Specialization threshold: the report (with geometry's two-user closed form),
the dual-norm upper bound (the own-point one where it is inf), and a
first-order test of whether a single-genre equilibrium survives at cost
exponent beta.  A content point p scores y_i = (<p, u_i>/a_i)^beta against
the single-genre optimum (the anchor, <anchor, u_i> = a_i).  Mixing p into
the anchor changes the summed log values at rate sum_i y_i - N, and they are
concave over mixtures, so the single genre survives exactly when no unit-cost
p has sum_i y_i > N.  A probe prices the cone-ball once against the bar
N (1 + _delta(beta)).  In D = 2 the pricing zooms in on the best angle and in
D > 2 it is a multistart conditional-gradient ascent; both return at the
first point above the bar, so a probe the ascent decides as holding is a
local answer ("local_max", or "step_cap" when its step cap cut it short).

At q = 2 the D > 2 ascent also stops a start once it enters a cap around the
anchor on which no point prices above the bar (second-order optimality
conditions, Nocedal & Wright ch. 12).  Once per report (_Anchor), let p0 be
the unit anchor, w_i = u_i/a_i, c_i = <w_i, p0> (1 up to rounding),
t_i = w_i - c_i p0, lambda = lambda_max(sum_i t_i t_i^T), m = max_i ||t_i||,
g = sum_i t_i, which the anchor's KKT condition sum_i w_i = N p0 makes 0,
and M = max(1, max_i c_i).  A unit p >= 0 at angle theta from p0 is
cos(theta) p0 + sin(theta) e for a unit e orthogonal to p0, so
y_i = cos(theta) (c_i + tau s_i) with tau = tan(theta) and s_i = <e, t_i>,
where |sum_i s_i| <= ||g||, sum_i s_i^2 <= lambda and |s_i| <= m.  As
y_i >= 0, y_i^beta <= cos(theta)^beta M^beta (1 + x_i)^beta with
x_i = tau s_i/M, and the three bounds hold for s_i/M.  At beta >= 2 the
Lagrange remainder of (1 + x)^beta, with 1 + x >= 0, gives

    sum_i (1 + x_i)^beta <= N + beta sum_i x_i
                            + beta (beta - 1)/2 (1 + max_i |x_i|)^(beta - 2) sum_i x_i^2,

and (1 + tau^2)^(beta/2) >= 1 + beta tau^2/2 (Bernoulli), so

    f_beta(p) (1 + beta tau^2/2)
        <= M^beta [N + beta tau ||g|| + beta (beta - 1)/2 tau^2 lambda (1 + m tau)^(beta - 2)].

The right side is at most N (1 + delta) (1 + beta tau^2/2), so f_beta(p) is
at most the bar wherever both (a) beta tau ||g|| <= N delta', with
1 + delta' = (1 + delta)/M^beta >= 1, and (b) (beta - 1) lambda
(1 + m tau)^(beta - 2) <= N hold; each probe solves them for tau (_cap).
With beta_loc = 1 + N/lambda, (b) is
tau <= [((beta_loc - 1)/(beta - 1))^(1/(beta - 2)) - 1]/m for beta > 2; it
holds for every tau at beta = 2 when lambda <= N, and for none from beta_loc
on, where the anchor stops being a local maximum.  On two users at angle
theta, beta_loc = 2/(1 - cos theta), the closed form.
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
# the best one.  D > 2 ascents of at most _ASCENT_STEPS start at the axes and
# the _USER_STARTS most valuable users; a start stops when its step gains less
# than the relative _STALL.
_ANGLES, _ZOOMS, _ANGLES_ZOOM = 1025, 8, 33
_USER_STARTS, _ASCENT_STEPS, _STALL = 4, 200, 1e-12

# The bisection stops once its bracket is narrower than _GAP.
_GAP = 0.05

# _Anchor widens the cap's curvature and reach by this relative margin (see _cap).
_CAP_MARGIN = 1e-10


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
    a stall or inside the anchor's cap) or "step_cap" (a multistart ascent
    found none, but some start was still climbing, outside the cap, at
    _ASCENT_STEPS).  Where the ascent has a cap the anchor is one of the
    priced points, so a holding probe's excess is at least f(anchor) - N."""

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


class _Anchor:
    """The NSW anchor every probe of a report reads: its point x, a = U x,
    converged and, at q = 2 in D > 2, _cap's tangent (N, lambda, m, gamma, M)."""

    def __init__(self, users, spec):
        opt, U = nsw_direction(users, spec), users.embeddings
        x = self.point = opt.point
        self.a, self.converged, self.tangent = U @ x, opt.converged, None
        if spec.q == 2.0 and users.dim > 2:  # only the q = 2 ascent reads a cap
            (n, d), eps = U.shape, np.finfo(float).eps
            p0, W = x / math.sqrt(x @ x), U / self.a[:, None]
            c = W @ p0
            T = W - np.outer(c, p0)
            tn2, g = np.einsum("ij,ij->i", T, T), np.ones(n) @ T
            wn = np.sqrt(c * c + tn2)
            eta, grow = (d + 3) * eps * wn, 1.0 + _CAP_MARGIN + n * d * eps
            lam = (math.sqrt(max(np.linalg.eigvalsh(T.T @ T)[-1], 0.0)) * grow
                   + math.sqrt(eta @ eta)) ** 2
            m = float((np.sqrt(tn2) + eta).max()) * grow
            gam = math.sqrt(g @ g) + (n + d + 3) * eps * float(wn.sum())
            self.tangent = n, lam, m, gam, max(1.0, float(c.max()) * (1.0 + (d + 2) * eps))


def _cap(anchor, beta):
    """(x, cos of the cap angle): the cap around the anchor x on which no
    unit point prices above N (1 + _delta(beta)), as derived in the module
    docstring; None without a tangent, at beta < 2 and from beta_loc on.  Per
    probe, only delta' and the tau of (a) and (b) are computed.  The anchor
    pays for rounding: lambda and m are inflated by the relative
    _CAP_MARGIN + N D eps (eigvalsh, the sums of T^T T and this formula),
    after each t_i is widened by eta_i = (D + 3) eps ||w_i|| (large only on
    near-parallel users); gamma adds (N + D + 3) eps sum_i ||w_i|| to the
    computed ||g||; and M is (D + 2) eps above the largest computed c_i, whose
    power M^beta the bar's margin pays for, with the linear term."""
    if anchor.tangent is None or beta < 2.0:
        return None
    n, lam, m, gam, cmax = anchor.tangent
    slack = (1.0 + _delta(beta)) / cmax ** beta - 1.0
    r = n / ((beta - 1.0) * lam)
    if r <= 1.0 or slack <= 0.0:
        return None
    tau = math.inf if beta == 2.0 else math.expm1(min(math.log(r) / (beta - 2.0), 700.0)) / m
    tau = min(tau, n * slack / (beta * gam))
    return anchor.point, 1.0 / math.hypot(1.0, tau)


@np.errstate(over="ignore")  # a sum past the double range is above any bar
def price(U, a, beta, spec, bar, cap=None):
    """(point, price, status) for max f(p) = sum_i (<p, u_i>/a_i)^beta over
    the cone-ball.  f is convex, so at q = 1 it peaks at a vertex e_k, at
    q = inf at the all-ones point, and D = 2 is a search over one angle that
    stops zooming once its best angle prices above bar: status "priced_out".
    D > 2 runs ascents from the vertices and the best users' dual points by
    conditional-gradient steps p <- dual_point(grad f(p)), which never lower
    f, and returns as soon as a start prices above bar.  A start stops when
    its step gains less than the factor (1 + _STALL): status "local_max" when
    every start stopped, "step_cap" when some were still climbing after
    _ASCENT_STEPS.  Given cap = (p0, cos) from _cap, a start also stops, as
    stalled, once its next point X has <X, p0> >= cos, and p0 is priced as
    one more point; verify's onepop candidates pass no cap.  The live
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
        P = np.vstack([np.eye(d), S[np.argsort(-own)[:_USER_STARTS]]])
        # An axis can be a user's dual point: keep the first copy of a start.
        keys = [row.tobytes() for row in P]
        P = P[[keys.index(k) for k in dict.fromkeys(keys)]]
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
            if cap is not None:  # a start that enters the cap stops as stalled
                up &= Xn @ cap[0] < cap[1]
            if up.all():
                X, Z, vl = Xn, Zn, vn
            else:  # write the stopped starts back
                P[live[~up]], v[live[~up]] = X[~up], vl[~up]
                live, X, Z, vl = live[up], Xn[up], Zn[up], vn[up]
        P[live], v[live] = X, vl
        if cap is not None:  # the anchor itself is one more priced point
            P, v = np.vstack([P, cap[0]]), np.append(v, f(cap[0][None]))
        return P[np.argmax(v)], float(v.max()), "step_cap" if live.size else "local_max"
    v = f(P)
    return P[np.argmax(v)], float(v.max()), "priced_out"


def max_condition_holds(users, spec, beta, _anchor=None):
    """First-order test of the single genre at cost exponent beta:
    (holds, excess, witness, status) as in ConditionProbe, from one pricing
    of the cone-ball at the _Anchor (the report's, or built here) against
    the bar N (1 + _delta(beta)), with its cap where _cap proves one."""
    if beta < 1.0:
        raise ValueError("beta must be >= 1")
    U, n, anchor = users.embeddings, users.n_users, _anchor or _Anchor(users, spec)
    bar = n * (1.0 + _delta(beta))
    p, value, status = price(U, anchor.a, beta, spec, bar, _cap(anchor, beta))
    if value <= bar:
        return True, value - n, None, status
    return False, value - n, tuple(p.tolist()), "beaten"


@np.errstate(over="ignore")  # a sum past the double range is above any bar
def _own_point_upper(users, spec, anchor):
    """The upper end where beta_upper's is inf (near-parallel users): the
    user j with the largest y_j = ||u_j||_*/a_j, whose own unit-cost point
    scores y_j^beta alone, and the root of beta log y_j = log(N (1 + delta))
    by fixed-point steps, raised by 1e-9.  It is kept only if that point,
    priced as `price` prices it, beats the bar there; +inf otherwise and at
    q = inf."""
    if math.isinf(spec.q):
        return math.inf
    U, n = users.embeddings, users.n_users
    y = dual_norm(U, spec) / anchor.a
    j = int(np.argmax(y))
    if not y[j] > 1.0:
        return math.inf
    beta = math.log(n) / math.log(y[j])
    for _ in range(3):
        beta = math.log(n * (1.0 + _delta(beta))) / math.log(y[j])
    beta *= 1.0 + 1e-9
    p = np.eye(users.dim)[np.argmax(U[j])] if spec.q == 1.0 else dual_point(U[j], spec)
    value = ((p[None] @ U.T / anchor.a) ** beta).sum()
    return beta if value > n * (1.0 + _delta(beta)) else math.inf


def threshold_report(users, spec) -> ThresholdReport:
    """Full threshold summary: the two-user closed form where known (two
    users, q = 2), the bound (the own-point one where the dual-norm one is
    inf), and the bisection on [1, bound] with its probes sorted by beta.
    The estimate is the midpoint once the bracket is narrower than _GAP
    (+inf if the bound is); anchor_converged is the NSW anchor's certificate."""
    closed = beta_star_two_user(users) if users.n_users == 2 and spec.q == 2.0 else None
    anchor = _Anchor(users, spec)
    upper = beta_upper(users, spec)
    if math.isinf(upper):
        upper = _own_point_upper(users, spec, anchor)
    if math.isinf(upper):
        return ThresholdReport(closed, upper, math.inf, (), anchor.converged)
    probes, lo, hi = [], 1.0, upper
    while hi - lo > _GAP:
        mid = 0.5 * (lo + hi)
        probes.append(ConditionProbe(mid, *max_condition_holds(users, spec, mid, anchor)))
        lo, hi = (mid, hi) if probes[-1].holds else (lo, mid)
    probes.sort(key=lambda pr: pr.beta)
    return ThresholdReport(closed, upper, 0.5 * (lo + hi), tuple(probes), anchor.converged)
