"""Embedding and rating file handling, plus a small masked NMF.

CSV schemas (UTF-8, LF, 17 significant digits):

* embeddings: header ``user_id,f0,...,f{D-1}``, one row per user, all factors
  nonnegative with at least one positive entry per row.
* ratings: header ``user_id,item_id,rating``, one observed rating per row;
  later duplicates of a (user, item) pair overwrite earlier ones.

The factorizer is deliberately plain: multiplicative updates over the
observed (user, item, rating) entries only, entries floored away from zero so
updates cannot absorb.  The entries are sorted by user once, with an
item-sorted permutation beside them, so each update's numerator and
denominator are segment sums over the entries; its time and memory grow with
the number of ratings, not with users x items.  It exists to produce
nonnegative user embeddings at desk scale, not to chase benchmark
reconstruction error.
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
        for name, index, size in (
            ("user_index", self.user_index, self.n_users),
            ("item_index", self.item_index, self.n_items),
        ):
            if np.any((index < 0) | (index >= size)):
                raise InputDataError(f"{name} values must lie in [0, {size})")

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
        if not (math.isfinite(self.init_scale) and self.init_scale > 0):
            raise ValueError(f"init_scale must be finite and positive, got {self.init_scale}")
        if not (math.isfinite(self.min_entry) and self.min_entry > 0):
            raise ValueError(f"min_entry must be finite and positive, got {self.min_entry}")


@dataclass(frozen=True)
class NmfResult:
    users: UserSet
    user_ids: tuple
    item_factors: np.ndarray
    item_ids: tuple
    objective_trace: np.ndarray
    dropped_users: tuple


def _update_ratio(coef, gathered, starts, buf, floor):
    """Multiplicative-update ratio: segment sums of r * gathered over those
    of pred * gathered, one reduceat for both."""
    np.multiply(coef[:, None], gathered, out=buf)
    num, den = np.add.reduceat(buf, starts, axis=2)
    return num / np.maximum(den, floor)


def nmf_factorize(ratings: RatingsTable, cfg: NmfConfig) -> NmfResult:
    """Masked multiplicative-update NMF of the observed ratings.

    Minimizes the squared error over observed cells only.  Users whose
    observed ratings are all zero would factor to the floor vector, so they
    are dropped up front and reported (and warned about) by id.
    """
    if np.any(ratings.rating < 0):
        raise InputDataError("ratings must be nonnegative for NMF")
    # Last write wins for a repeated (user, item) pair: unique over the
    # reversed keys finds each pair's last entry and sorts the pairs by user.
    key = ratings.user_index.astype(np.int64) * ratings.n_items + ratings.item_index
    _, first_rev = np.unique(key[::-1], return_index=True)
    last = len(key) - 1 - first_rev
    user, item, r = ratings.user_index[last], ratings.item_index[last], ratings.rating[last]
    keep = np.zeros(ratings.n_users, dtype=bool)
    keep[user[r > 0]] = True
    dropped = tuple(uid for uid, k in zip(ratings.user_ids, keep) if not k)
    if dropped:
        warnings.warn(f"dropping users with no positive ratings: {list(dropped)}")
    if not np.any(keep):
        raise InputDataError("no users with a positive rating remain")
    kept = keep[user]
    user = (np.cumsum(keep) - 1)[user[kept]]
    item, r = item[kept], r[kept]
    # Every kept user has an entry, so user segments are never empty; items
    # without an entry get no segment and a zero update, which floors them.
    user_starts = np.flatnonzero(np.diff(user, prepend=-1))
    by_item = np.argsort(item, kind="stable")
    item_sorted = item[by_item]
    item_starts = np.flatnonzero(np.diff(item_sorted, prepend=-1))
    rated_items = item_sorted[item_starts]
    user_by_item = user[by_item]

    rng = np.random.default_rng(cfg.seed)
    n, d, k = len(user_starts), ratings.n_items, cfg.factors
    w = np.maximum(cfg.init_scale * rng.random((n, k)), cfg.min_entry).T.copy()
    h = np.maximum(cfg.init_scale * rng.random((k, d)), cfg.min_entry)

    # w is kept (k, n) like h, so the factors gathered at the entries are
    # factor-major, (k, E), and products and segment sums run along
    # contiguous rows.  coef stacks [r; pred] per entry, in user order and in
    # item order.
    e = len(r)
    coef_u, coef_i = np.empty((2, e)), np.empty((2, e))
    coef_u[0], coef_i[0] = r, r[by_item]
    buf = np.empty((2, k, e))
    ratio = np.zeros((k, d))
    trace = np.empty(cfg.epochs)
    wg = np.take(w, user, axis=1)
    hg = np.take(h, item, axis=1)
    np.einsum("ke,ke->e", wg, hg, out=coef_u[1])
    for epoch in range(cfg.epochs):
        w *= _update_ratio(coef_u, hg, user_starts, buf, cfg.min_entry)
        np.maximum(w, cfg.min_entry, out=w)
        wg = np.take(w, user, axis=1)
        np.einsum("ke,ke->e", wg, hg, out=coef_u[1])
        np.take(coef_u[1], by_item, out=coef_i[1])
        wg_by_item = np.take(w, user_by_item, axis=1)
        ratio[:, rated_items] = _update_ratio(coef_i, wg_by_item, item_starts, buf, cfg.min_entry)
        h *= ratio
        np.maximum(h, cfg.min_entry, out=h)
        hg = np.take(h, item, axis=1)
        np.einsum("ke,ke->e", wg, hg, out=coef_u[1])
        resid = r - coef_u[1]
        trace[epoch] = np.einsum("e,e->", resid, resid)
    return NmfResult(
        users=UserSet(np.ascontiguousarray(w.T)),
        user_ids=tuple(uid for uid, kp in zip(ratings.user_ids, keep) if kp),
        item_factors=h,
        item_ids=ratings.item_ids,
        objective_trace=trace,
        dropped_users=dropped,
    )
