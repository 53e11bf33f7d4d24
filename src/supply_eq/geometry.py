"""Geometry of users, content, and production costs.

Users and content vectors live in the nonnegative orthant of R^D.  A
``CostSpec`` fixes the q-norm cost family

    cost(p) = ||p||_q ** beta,   q in [1, inf],  beta >= 1,

whose unit ball, dual norm, and two-user plane drive everything else in
this package.  The ball's kernels are here, once each: the norm, its dual
norm and the dual point (the best unit-cost content for a value vector).
Content vectors are plain 1-D float arrays.

Feature weights alpha > 0 are a change of coordinates, not a cost family of
their own: the cost ||alpha * p||_q ** beta with users u is the same game as
the cost ||p'||_q ** beta with users u / alpha and content p' = alpha * p,
since <p, u> = <p', u / alpha>.  The library solves the unweighted game; the
command line maps users in and content out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CostSpec",
    "UserSet",
    "TwoUserPlane",
    "weighted_norm",
    "cost",
    "dual_norm",
    "dual_point",
    "angle_between",
    "two_user_plane",
    "basis_pair",
    "angle_pair",
    "orthonormal_users",
]


def _as_vector(x, name="vector"):
    a = np.asarray(x, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


@dataclass(frozen=True)
class CostSpec:
    """Parameters of the cost family cost(p) = ||p||_q ** beta; q = math.inf
    selects the sup norm."""

    q: float = 2.0
    beta: float = 2.0

    def __post_init__(self):
        if not self.q >= 1.0:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if not (math.isfinite(self.beta) and self.beta >= 1.0):
            raise ValueError(f"beta must be finite and >= 1, got {self.beta}")


@dataclass(frozen=True)
class UserSet:
    """N user embeddings stacked as an (N, D) array.

    Rows are nonnegative and nonzero; duplicates are allowed (a homogeneous
    population is N copies of one vector).
    """

    embeddings: np.ndarray

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=float)
        if emb.ndim != 2:
            raise ValueError(f"embeddings must be 2-D, got shape {emb.shape}")
        if emb.shape[0] < 1 or emb.shape[1] < 1:
            raise ValueError("need at least one user and one dimension")
        if not np.all(np.isfinite(emb)):
            raise ValueError("embeddings have non-finite entries")
        if np.any(emb < 0):
            raise ValueError("embeddings must be nonnegative")
        zero_rows = np.flatnonzero(~np.any(emb > 0, axis=1))
        if zero_rows.size:
            raise ValueError(f"user rows {zero_rows.tolist()} are all-zero")
        object.__setattr__(self, "embeddings", emb)

    @property
    def n_users(self):
        return self.embeddings.shape[0]

    @property
    def dim(self):
        return self.embeddings.shape[1]


def basis_pair():
    """Two users at the standard basis vectors of R^2."""
    return UserSet(np.eye(2))


def angle_pair(theta_star):
    """Two unit users in R^2 separated by ``theta_star``, the first on e1.

    theta_star = 0 gives two identical rows, a homogeneous pair.
    """
    if not 0.0 <= theta_star <= math.pi / 2:
        raise ValueError("theta_star must lie in [0, pi/2]")
    return UserSet(
        np.array([[1.0, 0.0], [math.cos(theta_star), math.sin(theta_star)]])
    )


def orthonormal_users(n):
    """n users at the standard basis vectors of R^n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return UserSet(np.eye(int(n)))


def _norms(w, q):
    """||w||_q over the last axis, 1 < q < inf: one array pow for every root."""
    if q == 2.0:  # squaring drops the sign exactly, so no abs pass
        return np.sqrt(np.square(w).sum(axis=-1))
    return np.power((np.abs(w) ** q).sum(axis=-1), 1.0 / q)


# _norms that raises FloatingPointError where a power or a sum leaves the
# normal doubles (an exact zero or subnormal raises nothing).
_checked_norms = np.errstate(over="raise", under="raise")(_norms)


def weighted_norm(p, spec):
    """The q-norm ||p||_q, reduced over the last axis.

    Accepts a single vector or a stack of vectors, each row bit for bit its
    own norm; negative entries contribute through their absolute value.  At
    1 < q < inf, a finite nonzero row whose sum of |p|^q leaves the normal
    doubles is recomputed as m * ||p / m||_q, m its largest |entry|.
    """
    w = np.asarray(p, dtype=float)
    if math.isinf(spec.q):
        out = np.abs(w).max(axis=-1)
    elif spec.q == 1.0:
        out = np.abs(w).sum(axis=-1)
    else:
        try:
            out = _checked_norms(w, spec.q)
        except FloatingPointError:  # rescale the rows whose sums left the normal doubles
            with np.errstate(over="ignore", under="ignore"):
                out = np.array(_norms(w, spec.q))
            bad = (out < np.finfo(float).tiny ** (1.0 / spec.q)) | (out == math.inf)
            m = np.abs(w[bad]).max(axis=-1)  # a row of zeros or with an inf norms to m
            scale = np.where((m > 0) & (m < math.inf), m, 1.0)
            out[bad] = np.where(scale == m, m * _norms(w[bad] / scale[:, None], spec.q), m)
    return float(out) if out.ndim == 0 else out


def cost(p, spec):
    """Production cost ||p||_q ** beta (vectorized like weighted_norm)."""
    return weighted_norm(p, spec) ** spec.beta


def dual_norm(u, spec):
    """Dual of the q-norm at a nonnegative vector, reduced over the last axis
    like weighted_norm.

    For nonnegative u this equals max { <u, p> : ||p||_q <= 1, p >= 0 } and
    evaluates to ||u||_q' with 1/q + 1/q' = 1.  A stack of vectors gives one
    dual norm per row, each bit for bit its own.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim < 1:
        raise ValueError("u must have at least one axis")
    if not np.isfinite(u).all():
        raise ValueError("u has non-finite entries")
    if (u < 0).any():
        raise ValueError("dual_norm requires a nonnegative vector")
    if math.isinf(spec.q):
        qq = 1.0
    elif spec.q == 1.0:
        qq = math.inf
    else:
        qq = spec.q / (spec.q - 1.0)
    return weighted_norm(u, CostSpec(q=qq, beta=1.0))


def dual_point(v, spec):
    """The dual point at a nonnegative v, 1 < q < inf: the unit-cost p >= 0
    that maximizes <v, p>, where <v, p> = dual_norm(v).  Reduced over the
    last axis like weighted_norm; each row needs a positive entry.  p_k is
    proportional to v_k^(1/(q-1)), with v first divided by its row maximum,
    which keeps every sum of powers in range."""
    v = np.asarray(v, dtype=float)
    x = (v / v.max(axis=-1, keepdims=True)) ** (1.0 / (spec.q - 1.0))
    return x / _norms(x, spec.q)[..., None]


def angle_between(u1, u2):
    """Euclidean angle between two nonzero vectors."""
    u1 = _as_vector(u1, "u1")
    u2 = _as_vector(u2, "u2")
    n1 = float(np.linalg.norm(u1))
    n2 = float(np.linalg.norm(u2))
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("angle_between requires nonzero vectors")
    c = float(u1 @ u2) / (n1 * n2)
    return math.acos(min(1.0, max(-1.0, c)))


@dataclass(frozen=True)
class TwoUserPlane:
    """Orthonormal frame for the span of two users.

    basis[0] points along u1; in-plane angles are measured from it toward u2,
    so u2's direction sits at in-plane angle theta_star.
    """

    theta_star: float
    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.shape[0] != 2:
            raise ValueError("basis must have two rows")
        gram = b @ b.T
        if not np.allclose(gram, np.eye(2), atol=1e-12):
            raise ValueError("basis rows must be orthonormal")
        if not 0.0 < self.theta_star <= math.pi / 2:
            raise ValueError("theta_star must lie in (0, pi/2]")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self):
        return self.basis.shape[1]

    def embed(self, xy):
        """Map in-plane coordinates (..., 2) to ambient (..., D)."""
        return np.asarray(xy, dtype=float) @ self.basis

    def direction(self, theta):
        """Ambient unit vector(s) at in-plane angle(s) ``theta`` from the u1 axis."""
        t = np.asarray(theta, dtype=float)
        return self.embed(np.stack([np.cos(t), np.sin(t)], axis=-1))


def two_user_plane(u1, u2):
    """Build the TwoUserPlane spanned by two independent nonnegative users."""
    u1 = _as_vector(u1, "u1")
    u2 = _as_vector(u2, "u2")
    if np.any(u1 < 0) or np.any(u2 < 0):
        raise ValueError("user vectors must be nonnegative")
    n1 = float(np.linalg.norm(u1))
    n2 = float(np.linalg.norm(u2))
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("user vectors must be nonzero")
    b1 = u1 / n1
    resid = u2 - (u2 @ b1) * b1
    rn = float(np.linalg.norm(resid))
    if rn <= 1e-12 * n2:
        raise ValueError("user vectors are linearly dependent")
    b2 = resid / rn
    return TwoUserPlane(theta_star=angle_between(u1, u2), basis=np.stack([b1, b2]))
