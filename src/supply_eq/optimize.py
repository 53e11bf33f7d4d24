"""Solvers over the cone-ball and the probability simplex.

All routines are deterministic given their inputs.  Each concave program is
solved once, and every result carries a certificate (a Frank-Wolfe or duality
gap, or the width of a two-sided bracket) plus the reason the solver stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import dual_norm, dual_point, weighted_norm

__all__ = ["OptResult", "nsw_direction", "minmax_alignment", "simplex_logsum_max"]

# Frank-Wolfe gap at which nsw_direction stops: well below the 1e-9 * N an
# independent check of the returned direction asks for.
_FW_GAP = 1e-11

# Iteration cap of every solver, and the certificate width at which the
# alignment bracket and the simplex program stop unless told otherwise.
_MAX_ITERS = 5000
_TOL = 1e-8


@dataclass(frozen=True)
class OptResult:
    """status is why the solver stopped: "converged" (the certificate met its
    target), "early_accept" or "early_reject" (a caller's threshold was decided),
    "max_iters", or "step_underflow" (the line search found no step)."""

    point: np.ndarray
    value: float
    kkt_residual: float
    iters: int
    converged: bool
    status: str


def _line_max(z, dz, hi):
    """The t in [0, hi] maximizing sum_i log(z_i + t dz_i): safeguarded Newton
    on the derivative, bisecting whenever a step leaves the bracket.  It reads
    no objective values, so it stays accurate where their changes round away
    and value line searches stall (gaps near 1e-7)."""
    zt = z + hi * dz
    if np.all(zt > 0) and float((dz / zt).sum()) >= 0:
        return hi
    lo, t = 0.0, 0.0
    for _ in range(100):
        r = dz / (z + t * dz)
        slope = float(r.sum())
        lo, hi = (t, hi) if slope >= 0 else (lo, t)
        tn = t + slope / float(r @ r) if slope else t
        if tn == t:
            return t
        t = tn if lo < tn < hi else 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * hi:
            break
    return lo


def _line_min(r, s, e, hi):
    """The t in [0, hi] minimizing sum_k (r_k + t s_k)^(e+1), descending at 0:
    hi, or the Illinois false-position root of its slope (one step if e = 1)."""
    slope = lambda t: float(np.maximum(r + t * s, 0.0) ** e @ s)  # noqa: E731
    a, b, fa, fb, t, side = 0.0, hi, slope(0.0), slope(hi), 0.0, 0
    for _ in range(100 if fb > 0 else 0):
        tn = (a * fb - b * fa) / (fb - fa)
        if not a < tn < b:
            break
        t, ft = tn, slope(tn)
        if ft > 0:  # halve the slope at an end kept twice running
            b, fb, fa, side = t, ft, fa * 0.5 if side < 0 else fa, -1
        else:
            a, fa, fb, side = t, ft, fb * 0.5 if side > 0 else fb, 1
    return t if fb > 0 else hi


def _face_step(w, g, Y, scale, b, line):
    """One active-set step from w on the simplex, ascending along g: on the
    face of w's support and j = argmax g, d = (c, -sum c), c the least-squares
    solution of (A[:-1] - A[-1])^T c = b, A = Y[face] / scale (e_j - w if d
    does not ascend or leaves the simplex at once); t = line(d @ Y, hi), hi
    where a first weight hits 0, and weights at 0 leave.  Returns (w, status)."""
    j = np.argmax(g)
    face = np.union1d(np.flatnonzero(w > 0), j)
    A = Y[face] / scale
    c = np.linalg.lstsq((A[:-1] - A[-1]).T, b, rcond=None)[0]
    d = np.zeros(len(w))
    d[face] = np.append(c, -c.sum())
    if not (float(g @ d) > 0 and np.all(w[d < 0] > 0)):
        d = np.eye(1, len(w), j)[0] - w
    ratio = np.divide(w, -d, out=np.full(len(w), math.inf), where=d < 0)  # w_i reaches 0
    t = line(d @ Y, float(ratio.min()))
    wn = np.clip(w + t * d, 0.0, None)
    wn[ratio <= t] = 0.0
    return (w, "step_underflow") if np.array_equal(wn, w) else (wn / wn.sum(), None)


def _nsw_frank_wolfe(U, spec):
    """Frank-Wolfe with exact line search, 1 < q < inf.  Each step moves toward
    the dual point of the gradient, then rescales onto the sphere,
    which only raises the objective.  Returns (point, iters, status)."""
    x = np.ones(U.shape[1]) / weighted_norm(np.ones(U.shape[1]), spec)
    for it in range(1, _MAX_ITERS + 1):
        z = U @ x
        g = U.T @ (1.0 / z)
        if dual_norm(g, spec) - float(g @ x) <= _FW_GAP:
            return x, it, "converged"
        d = dual_point(g, spec) - x
        xn = np.clip(x + _line_max(z, U @ d, 1.0) * d, 0.0, None)
        xn /= weighted_norm(xn, spec)
        if np.array_equal(xn, x):
            return x, it, "step_underflow"
        x = xn
    return x, _MAX_ITERS, "max_iters"


def nsw_direction(users, spec):
    """Nash-welfare direction: maximize sum_i log <p, u_i> on the unit ball.

    Solved once: q = inf has the closed form p = 1, q = 1 is the simplex
    program on U^T, and 1 < q < inf runs Frank-Wolfe from the uniform start.
    kkt_residual is the Frank-Wolfe gap dual_norm(g) - <g, p>, g = sum_i
    u_i/<p, u_i>, which bounds the suboptimality of p (Jaggi 2013); converged
    means it is <= _FW_GAP.
    """
    U = users.embeddings
    if math.isinf(spec.q):
        x, iters, status = np.ones(users.dim), 0, "converged"
    elif spec.q == 1.0:
        # Half the target leaves room for the rounding between the simplex
        # gap and the Frank-Wolfe gap recomputed at p.
        r = simplex_logsum_max(U.T, tol=0.5 * _FW_GAP)
        x, iters, status = r.point, r.iters, r.status
    else:
        x, iters, status = _nsw_frank_wolfe(U, spec)
    z = U @ x
    g = U.T @ (1.0 / z)
    gap = max(dual_norm(g, spec) - float(g @ x), 0.0)
    ok = gap <= _FW_GAP
    return OptResult(x, float(np.log(z).sum()), gap, iters, ok, "converged" if ok else status)


def _matrix_game(A):
    """Optimal strategies of max over x in the simplex of min_i (A x)_i, for A
    nonnegative with no zero row: the simplex method (Bland's rule) on
    max 1^T z s.t. A^T z <= 1, z >= 0, whose optimum is 1/value.  Returns
    (x, w, pivots, status): x the slacks' reduced costs, w = z, rescaled."""
    n, d = A.shape
    T = np.zeros((d + 1, n + d + 1))
    T[:d, :n], T[:d, n:-1], T[:d, -1], T[d, :n] = A.T, np.eye(d), 1.0, -1.0
    basis = np.arange(n, n + d)
    for it in range(_MAX_ITERS + 1):
        enter = np.flatnonzero(T[d, :-1] < -1e-12)
        rows = np.flatnonzero(T[:d, enter[0]] > 1e-12) if enter.size else enter
        if rows.size == 0 or it == _MAX_ITERS:
            break
        j = enter[0]
        ratio = T[rows, -1] / T[rows, j]
        r = min(rows[ratio == ratio.min()], key=lambda k: basis[k])
        T[r] /= T[r, j]
        T -= np.outer(T[:, j] - (np.arange(d + 1) == r), T[r])
        basis[r] = j
    status = "step_underflow" if enter.size and not rows.size else "max_iters"
    z = np.zeros(n)
    z[basis[basis < n]] = np.clip(T[:d, -1][basis < n], 0.0, None)
    x = np.clip(T[d, n:-1], 0.0, None)
    return x / x.sum(), z / z.sum(), it, status


def minmax_alignment(users, spec):
    """Alignment value Q = max { min_i <p, u_i/||u_i||> : ||p||_q <= 1, p >= 0 }.

    Users are normalized by the cost norm, matching the ball constraint.  Any
    p on the ball and w on the simplex bracket Q between min_i <p, u~_i> and
    ||U~^T w||_*, the minimax dual.  q = 1 is a matrix game, solved as a
    linear program; q = inf has p = 1 and w on the least aligned user.
    1 < q < inf tries the uniform weights, then takes active-set Newton steps
    (_face_step) on sum_k (U~^T w)_k^q* from the best vertex, pricing
    users by U~ p, p the dual point of U~^T w (at q = 2 Wolfe's 1976
    minimum-norm point).  Both ends move out by rel, a rounding bound; value is
    the lower end, at point.
    """
    U = users.embeddings
    Un = U / np.asarray(weighted_norm(U, spec)).reshape(-1, 1)
    if spec.q == 1.0:
        (p, w, iters, status), rel = _matrix_game(Un), 0.0
    elif math.isinf(spec.q):
        p, iters, status, rel = np.ones(users.dim), 0, "max_iters", 0.0
        w = np.eye(1, users.n_users, np.argmin(Un @ p))[0]
    else:
        qs = spec.q / (spec.q - 1.0)
        w = np.full(users.n_users, 1.0 / users.n_users)
        width, status, rel = math.inf, None, 2 * (users.dim + spec.q + qs) * math.ulp(1.0)
        for iters in range(1, _MAX_ITERS + 1):
            z = w @ Un
            p = dual_point(z, spec)
            g = Un @ p
            # Newton's lower end lags its upper: take one more step past tol.
            last, width = width, dual_norm(z, spec) - float(g.min())
            if width <= _TOL and (last <= _TOL or width <= 1e-3 * _TOL):
                break
            if iters == 1 and width > _TOL:  # restart from the best vertex
                w = np.eye(1, users.n_users, np.argmin((Un ** qs).sum(axis=1)))[0]
                continue
            # Rows scaled by z^(q*/2 - 1), floored where z_k = 0.
            scale = np.maximum(z, 1e-12 * z.max()) ** (1.0 - 0.5 * qs)
            w, status = _face_step(w, -g, Un, scale, z ** (0.5 * qs) / (1.0 - qs),
                                   lambda dz, hi: _line_min(z, dz, qs - 1.0, hi))
            if status:
                break
    lower = float((Un @ p).min()) * (1.0 - rel)
    width = max(dual_norm(w @ Un, spec) * (1.0 + rel) - lower, 0.0)
    ok = width <= _TOL
    return OptResult(p, lower, width, iters, ok, "converged" if ok else status or "max_iters")


def simplex_logsum_max(Y, tol=_TOL, early_accept=None, early_reject=None):
    """Maximize sum_i log((w^T Y)_i) over the probability simplex.

    Active-set Newton steps (_face_step, b = 1, scale = z) from the best vertex
    whose row of Y is positive (else uniform weights).  max_j (Y @ (1/z))_j - N
    bounds the suboptimality of the current iterate, so kkt_residual is a
    certified duality gap.

    tol: stop, converged, once the gap is at most this.
    early_accept: stop once the value reaches this threshold.
    early_reject: stop once value + gap certifies the optimum stays below it.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError("Y must be a 2-D array")
    if np.any(Y < 0) or not np.all(np.isfinite(Y)):
        raise ValueError("Y must be nonnegative and finite")
    if np.any(Y.max(axis=0) <= 0):
        raise ValueError("Y has a column with no positive entry")
    m, n = Y.shape
    with np.errstate(divide="ignore"):
        start = np.log(Y).sum(axis=1)
    w = np.eye(1, m, np.argmax(start))[0] if np.isfinite(start.max()) else np.full(m, 1.0 / m)
    for it in range(1, _MAX_ITERS + 1):
        z = w @ Y
        val, g = float(np.log(z).sum()), Y @ (1.0 / z)
        gap = float(g.max()) - n
        if gap <= tol:
            status = "converged"
        elif early_accept is not None and val >= early_accept:
            status = "early_accept"
        elif early_reject is not None and val + max(gap, 0.0) < early_reject:
            status = "early_reject"
        elif it == _MAX_ITERS:
            status = "max_iters"
        else:
            w, status = _face_step(w, g, Y, z, np.ones(n), lambda dz, hi: _line_max(z, dz, hi))
        if status:
            break
    return OptResult(w, val, max(gap, 0.0), it, gap <= tol, status)
