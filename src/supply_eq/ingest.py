"""Embedding and rating file handling, plus a small masked NMF.

CSV schemas (UTF-8, LF, 17 significant digits):

* embeddings: header ``user_id,f0,...,f{D-1}``, one row per user, all factors
  nonnegative with at least one positive entry per row.
* ratings: header ``user_id,item_id,rating``, one observed rating per row;
  later duplicates of a (user, item) pair overwrite earlier ones.

The factorizer is deliberately plain: dense matrices, multiplicative updates
masked to the observed entries, entries floored away from zero so updates
cannot absorb.  It exists to produce nonnegative user embeddings at desk
scale, not to chase benchmark reconstruction error.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import UserSet

__all__ = [
    "InputDataError",
    "RatingsTable",
    "NmfConfig",
    "NmfResult",
    "load_ratings_csv",
    "load_embeddings_csv",
    "save_embeddings_csv",
    "nmf_factorize",
]


class InputDataError(ValueError):
    """Malformed or inconsistent input file contents."""


@dataclass(frozen=True)
class RatingsTable:
    """Observed (user, item, rating) triples with first-appearance index maps."""

    user_ids: tuple
    item_ids: tuple
    user_index: np.ndarray
    item_index: np.ndarray
    rating: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.rating)):
            raise InputDataError("ratings must be finite")
        if len(self.user_index) != len(self.rating) or len(self.item_index) != len(self.rating):
            raise InputDataError("index and rating arrays must have equal length")

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    def dense(self):
        """(matrix, mask) with zeros at unobserved cells; duplicates overwrite."""
        r = np.zeros((self.n_users, self.n_items))
        m = np.zeros((self.n_users, self.n_items))
        r[self.user_index, self.item_index] = self.rating
        m[self.user_index, self.item_index] = 1.0
        return r, m


def load_ratings_csv(path) -> RatingsTable:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["user_id", "item_id", "rating"]:
            raise InputDataError(f"{path}: expected header user_id,item_id,rating")
        users, items = {}, {}
        u_idx, i_idx, vals = [], [], []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise InputDataError(f"{path}:{row_no}: expected 3 fields")
            uid, iid, raw = row
            try:
                val = float(raw)
            except ValueError:
                raise InputDataError(f"{path}:{row_no}: bad rating {raw!r}") from None
            if not math.isfinite(val):
                raise InputDataError(f"{path}:{row_no}: rating must be finite")
            u_idx.append(users.setdefault(uid, len(users)))
            i_idx.append(items.setdefault(iid, len(items)))
            vals.append(val)
    if not vals:
        raise InputDataError(f"{path}: no ratings")
    return RatingsTable(
        user_ids=tuple(users),
        item_ids=tuple(items),
        user_index=np.array(u_idx, dtype=int),
        item_index=np.array(i_idx, dtype=int),
        rating=np.array(vals, dtype=float),
    )


def load_embeddings_csv(path) -> UserSet:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0] != "user_id" or any(
            h != f"f{k}" for k, h in enumerate(header[1:])
        ):
            raise InputDataError(f"{path}: expected header user_id,f0,...,f{{D-1}}")
        dim = len(header) - 1
        rows = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 1:
                raise InputDataError(f"{path}:{row_no}: expected {dim + 1} fields")
            vals = []
            for col, raw in enumerate(row[1:]):
                try:
                    v = float(raw)
                except ValueError:
                    raise InputDataError(
                        f"{path}:{row_no}: bad value {raw!r} in column f{col}"
                    ) from None
                if not math.isfinite(v) or v < 0:
                    raise InputDataError(
                        f"{path}:{row_no}: column f{col} must be a finite nonnegative "
                        f"number, got {raw!r}"
                    )
                vals.append(v)
            if not any(v > 0 for v in vals):
                raise InputDataError(f"{path}:{row_no}: user row is all zeros")
            rows.append(vals)
    if not rows:
        raise InputDataError(f"{path}: no users")
    return UserSet(np.array(rows, dtype=float))


def save_embeddings_csv(users: UserSet, path, user_ids=None) -> None:
    ids = user_ids if user_ids is not None else [f"u{i}" for i in range(users.n_users)]
    if len(ids) != users.n_users:
        raise ValueError("user_ids length must match the user count")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user_id"] + [f"f{k}" for k in range(users.dim)])
        for uid, row in zip(ids, users.embeddings):
            writer.writerow([uid] + [format(v, ".17g") for v in row])


@dataclass(frozen=True)
class NmfConfig:
    factors: int
    epochs: int = 200
    seed: int = 0
    init_scale: float = 0.1
    min_entry: float = 1e-9

    def __post_init__(self):
        if self.factors < 1:
            raise ValueError("factors must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.init_scale > 0:
            raise ValueError("init_scale must be positive")
        if not self.min_entry > 0:
            raise ValueError("min_entry must be positive")


@dataclass(frozen=True)
class NmfResult:
    users: UserSet
    user_ids: tuple
    item_factors: np.ndarray
    item_ids: tuple
    objective_trace: np.ndarray
    dropped_users: tuple


def nmf_factorize(ratings: RatingsTable, cfg: NmfConfig) -> NmfResult:
    """Masked multiplicative-update NMF of the observed ratings.

    Minimizes the squared error over observed cells only.  Users whose
    observed ratings are all zero would factor to the floor vector, so they
    are dropped up front and reported (and warned about) by id.
    """
    if np.any(ratings.rating < 0):
        raise InputDataError("ratings must be nonnegative for NMF")
    r_full, m_full = ratings.dense()
    keep = (r_full * m_full).sum(axis=1) > 0
    dropped = tuple(uid for uid, k in zip(ratings.user_ids, keep) if not k)
    if dropped:
        warnings.warn(f"dropping users with no positive ratings: {list(dropped)}")
    if not np.any(keep):
        raise InputDataError("no users with a positive rating remain")
    r = r_full[keep]
    mask = m_full[keep]

    rng = np.random.default_rng(cfg.seed)
    n, d, k = r.shape[0], ratings.n_items, cfg.factors
    w = np.maximum(cfg.init_scale * rng.random((n, k)), cfg.min_entry)
    h = np.maximum(cfg.init_scale * rng.random((k, d)), cfg.min_entry)

    mr = mask * r
    trace = np.empty(cfg.epochs)
    # wh holds mask * (w @ h) for the current factors.  The product an epoch
    # computes for its objective is the one the next epoch starts from, and
    # because mask is 0/1, mr - wh is bitwise mask * (r - w @ h).
    wh = np.empty_like(r)
    resid = np.empty_like(r)
    np.multiply(mask, np.matmul(w, h, out=wh), out=wh)
    for epoch in range(cfg.epochs):
        w *= (mr @ h.T) / np.maximum(wh @ h.T, cfg.min_entry)
        np.maximum(w, cfg.min_entry, out=w)
        np.multiply(mask, np.matmul(w, h, out=wh), out=wh)
        h *= (w.T @ mr) / np.maximum(w.T @ wh, cfg.min_entry)
        np.maximum(h, cfg.min_entry, out=h)
        np.multiply(mask, np.matmul(w, h, out=wh), out=wh)
        np.subtract(mr, wh, out=resid)
        np.square(resid, out=resid)
        trace[epoch] = float(resid.sum())
    return NmfResult(
        users=UserSet(w),
        user_ids=tuple(uid for uid, kp in zip(ratings.user_ids, keep) if kp),
        item_factors=h,
        item_ids=ratings.item_ids,
        objective_trace=trace,
        dropped_users=dropped,
    )
