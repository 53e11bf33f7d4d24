"""First-order solvers over the cone-ball and the probability simplex.

All routines are deterministic given (inputs, seed) and report a first-order
residual so callers can tell a converged run from a truncated one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import weighted_norm

__all__ = [
    "OptimizerConfig",
    "OptResult",
    "nsw_direction",
    "minmax_alignment",
    "simplex_logsum_max",
]

_ARMIJO = 1e-4
_MIN_STEP = 1e-14
_MAX_STEP = 1e6


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 5000
    step_init: float = 1.0
    tol: float = 1e-8
    seed: int = 0
    restarts: int = 8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.step_init <= 0:
            raise ValueError("step_init must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


@dataclass(frozen=True)
class OptResult:
    point: np.ndarray
    value: float
    kkt_residual: float
    iters: int
    converged: bool


def _step_direction(x, g, spec):
    # Pulling an outward gradient step back to the ball mostly cancels the
    # move; on the sphere, follow the gradient's tangent component instead.
    # The constraint normal is masked to the support so stationarity on the
    # positive coordinates is what drives the residual to zero.
    if math.isinf(spec.q) or weighted_norm(x, spec) < 1.0 - 1e-12:
        return g
    alpha = np.ones_like(x) if spec.alpha is None else spec.alpha
    if spec.q == 1.0:
        nrm = alpha.copy()
    else:
        nrm = alpha ** spec.q * x ** (spec.q - 1.0)
    nrm[x <= 1e-15] = 0.0
    gn = float(g @ nrm)
    nn = float(nrm @ nrm)
    if gn > 0.0 and nn > 0.0:
        return g - nrm * (gn / nn)
    return g


def _retract(y, spec):
    # Cheap feasible retraction used inside the ascent loop: clamp to the
    # cone, then rescale radially if outside the ball.  Exact for q = 2;
    # ascent-compatible for every q when paired with tangent directions.
    y = np.clip(y, 0.0, None)
    r = weighted_norm(y, spec)
    return y / r if r > 1.0 else y


def _mapping_residual(x, d, spec):
    # Norm of the unit-step retracted displacement along the effective ascent
    # direction; zero at a constrained stationary point.
    return float(np.linalg.norm(_retract(x + d, spec) - x))


def _ascend(value, grad, x0, spec, cfg, tol_scale=1.0):
    """Projected gradient ascent with Armijo backtracking.

    ``value`` may return -inf to reject an iterate (barrier semantics); the
    step is then shrunk.  Returns (x, f, residual, iters, converged).
    """
    x = _retract(np.asarray(x0, dtype=float), spec)
    fx = value(x)
    if fx == -math.inf:
        # nudge a zero-value start into the relative interior
        x = _retract(x + 1e-3, spec)
        fx = value(x)
    step = cfg.step_init
    tol = cfg.tol * tol_scale
    resid = math.inf
    it = 0
    for it in range(1, cfg.max_iters + 1):
        gx = grad(x)
        dx = _step_direction(x, gx, spec)
        resid = _mapping_residual(x, dx, spec)
        if resid <= tol:
            return x, fx, resid, it, True
        s = step
        accepted = False
        while s >= _MIN_STEP:
            xn = _retract(x + s * dx, spec)
            fn = value(xn)
            if fn != -math.inf and fn >= fx + _ARMIJO * float(gx @ (xn - x)):
                accepted = True
                break
            s *= 0.5
        if not accepted:
            return x, fx, resid, it, resid <= tol
        x, fx = xn, fn
        step = min(s * 2.0, _MAX_STEP)
    return x, fx, resid, it, resid <= tol


def _restart_points(dim, spec, cfg):
    ones = np.ones(dim)
    yield _retract(ones / weighted_norm(ones, spec), spec)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.restarts - 1):
        draw = np.abs(rng.standard_normal(dim))
        nrm = weighted_norm(draw, spec)
        if nrm > 0:
            draw = draw / nrm
        yield _retract(draw, spec)


def _multistart(value, grad, dim, spec, cfg):
    # Restarts routinely tie in value to float precision; among near-ties,
    # keep a run that certified its residual over one that stalled.
    best = None
    for x0 in _restart_points(dim, spec, cfg):
        run = _ascend(value, grad, x0, spec, cfg)
        if best is None:
            best = run
            continue
        margin = 1e-10 * max(1.0, abs(best[1]))
        if run[1] > best[1] + margin or (run[1] >= best[1] - margin and run[4] and not best[4]):
            best = run
    return best


def nsw_direction(users, spec, cfg=None):
    """Nash-welfare direction: maximize sum_i log <p, u_i> on the unit ball.

    The optimum lies on the sphere; the returned point is renormalized to
    weighted norm 1.  kkt_residual is the unit-step projected-gradient
    displacement at the solution.
    """
    cfg = cfg or OptimizerConfig()
    U = users.embeddings

    def value(p):
        z = U @ p
        if np.any(z <= 1e-300):
            return -math.inf
        return float(np.log(z).sum())

    def grad(p):
        z = U @ p
        return U.T @ (1.0 / z)

    x, fx, resid, iters, ok = _multistart(value, grad, users.dim, spec, cfg)
    nrm = weighted_norm(x, spec)
    if nrm > 0:
        x = x / nrm
    fx = value(x)
    resid = _mapping_residual(x, _step_direction(x, grad(x), spec), spec)
    return OptResult(point=x, value=fx, kkt_residual=resid, iters=iters, converged=ok)


_ACTIVE_TOL = 1e-7


def minmax_alignment(users, spec, cfg=None):
    """Alignment value Q = max { min_i <p, u_i/||u_i||> : ||alpha*p||_q <= 1, p >= 0 }.

    Users are normalized by the cost norm, matching the ball constraint.
    Solved by supergradient ascent on the concave min-of-linear objective,
    averaging the gradients of the active users.
    """
    cfg = cfg or OptimizerConfig()
    U = users.embeddings
    norms = weighted_norm(U, spec)
    Un = U / np.asarray(norms).reshape(-1, 1)

    def value(p):
        return float((Un @ p).min())

    def grad(p):
        z = Un @ p
        zmin = z.min()
        active = z <= zmin + _ACTIVE_TOL * max(1.0, abs(zmin))
        return Un[active].mean(axis=0)

    x, fx, resid, iters, ok = _multistart(value, grad, users.dim, spec, cfg)
    return OptResult(point=x, value=fx, kkt_residual=resid, iters=iters, converged=ok)


def simplex_logsum_max(Y, cfg=None, early_accept=None, early_reject=None):
    """Maximize sum_i log((w^T Y)_i) over the probability simplex.

    Exponentiated-gradient ascent with Armijo backtracking.  For this
    objective the quantity max_j (Y @ (1/z))_j - N bounds the suboptimality
    of the current iterate, so kkt_residual is a certified duality gap.

    early_accept: stop once the value reaches this threshold.
    early_reject: stop once value + gap certifies the optimum stays below it.
    """
    cfg = cfg or OptimizerConfig()
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError("Y must be a 2-D array")
    if np.any(Y < 0) or not np.all(np.isfinite(Y)):
        raise ValueError("Y must be nonnegative and finite")
    if np.any(Y.max(axis=0) <= 0):
        raise ValueError("Y has a column with no positive entry")
    m, n = Y.shape
    w = np.full(m, 1.0 / m)
    z = w @ Y
    val = float(np.log(z).sum())
    step = cfg.step_init
    gap = math.inf
    it = 0
    for it in range(1, cfg.max_iters + 1):
        g = Y @ (1.0 / z)
        gap = float(g.max()) - n
        if gap <= cfg.tol:
            break
        if early_accept is not None and val >= early_accept:
            break
        if early_reject is not None and val + max(gap, 0.0) < early_reject:
            break
        s = step
        accepted = False
        while s >= _MIN_STEP:
            ex = s * g
            ex -= ex.max()
            wn = w * np.exp(ex)
            total = wn.sum()
            if total > 0:
                wn /= total
                zn = wn @ Y
                if np.all(zn > 0):
                    vn = float(np.log(zn).sum())
                    if vn >= val + _ARMIJO * float(g @ (wn - w)):
                        accepted = True
                        break
            s *= 0.5
        if not accepted:
            break
        w, z, val = wn, zn, vn
        step = min(s * 2.0, _MAX_STEP)
    return OptResult(
        point=w,
        value=val,
        kkt_residual=max(gap, 0.0),
        iters=it,
        converged=gap <= cfg.tol,
    )
