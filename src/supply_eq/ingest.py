"""Embedding and rating file handling, plus a small masked NMF.

CSV schemas (UTF-8, LF, 17 significant digits):

* embeddings: header ``user_id,f0,...,f{D-1}``, one row per user, all factors
  nonnegative with at least one positive entry per row.
* ratings: header ``user_id,item_id,rating``, one observed rating per row;
  later duplicates of a (user, item) pair overwrite earlier ones.

The factorizer is deliberately plain: multiplicative updates over the
observed (user, item, rating) entries only, entries floored away from zero so
updates cannot absorb.  Each user's entries, and through an item-sorted
permutation each item's, are laid into rows of a fixed width (``_Rows``),
so an update's predictions, numerator and denominator come from batched
products over short rows and a segment sum over each user's or item's few
rows; its time and memory grow with the number of ratings, users and items,
not with users x items.  It exists to produce nonnegative user embeddings at
desk scale, not to chase benchmark reconstruction error.
"""

from __future__ import annotations

import csv
import itertools
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


# Initial factors are uniform on [0, _INIT_SCALE); every factor and update
# denominator is floored at _MIN_ENTRY.
_INIT_SCALE, _MIN_ENTRY = 0.1, 1e-9


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


def _row_fault(row, dim) -> str | None:
    """The first fault of one embeddings data row, in reading order, or None."""
    if len(row) != dim + 1:
        return f"expected {dim + 1} fields"
    for col, raw in enumerate(row[1:]):
        try:
            v = float(raw)
        except ValueError:
            return f"bad value {raw!r} in column f{col}"
        if not math.isfinite(v) or v < 0:
            return f"column f{col} must be a finite nonnegative number, got {raw!r}"
    if not any(float(raw) > 0 for raw in row[1:]):
        return "user row is all zeros"
    return None


def load_embeddings_csv(path) -> UserSet:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0] != "user_id" or any(
            h != f"f{k}" for k, h in enumerate(header[1:])
        ):
            raise InputDataError(f"{path}: expected header user_id,f0,...,f{{D-1}}")
        body = [(row_no, row) for row_no, row in enumerate(reader, start=2) if row]
    if not body:
        raise InputDataError(f"{path}: no users")
    dim = len(header) - 1
    emb = None
    if all(len(row) == dim + 1 for _, row in body):
        values = itertools.chain.from_iterable(row[1:] for _, row in body)
        try:
            emb = np.fromiter(map(float, values), float, len(body) * dim).reshape(-1, dim)
        except ValueError:  # a value float() cannot read
            pass
    good = None if emb is None else (
        (np.isfinite(emb) & (emb >= 0)).all(axis=1) & (emb > 0).any(axis=1))
    if good is None or not good.all():
        # Only a failing file is walked value by value, from its first bad row
        # (from the top when a row is ragged or a value did not parse), to name
        # its first fault.
        for row_no, row in body[0 if good is None else int(np.argmin(good)):]:
            fault = _row_fault(row, dim)
            if fault is not None:
                raise InputDataError(f"{path}:{row_no}: {fault}")
    return UserSet(emb)


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

    def __post_init__(self):
        if self.factors < 1:
            raise ValueError("factors must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class NmfResult:
    users: UserSet
    user_ids: tuple
    item_factors: np.ndarray
    item_ids: tuple
    objective_trace: np.ndarray
    dropped_users: tuple


class _Rows:
    """One side's observed entries laid into rows of ``width`` slots.

    seg (sorted) names the factor row each entry updates, other the row of
    the other factor it is scored against.  Each of the m segments starts a
    fresh row and fills as many rows as it needs, at least one; an empty
    slot points at the other factor's all-zero pad row and carries rating 0,
    so it adds exactly zero to every sum.  A segment with no entries gets a
    zero update, which floors it.  ``coef`` stacks [r; pred] per row,
    (rows, 2, width).
    """

    def __init__(self, seg, other, r, m, pad):
        lengths = np.bincount(seg, minlength=m)
        # The largest power of two not above the mean length of the nonempty
        # segments, capped at 16: each of them pads fewer than width slots,
        # so padding adds fewer slots than there are entries.
        width = 1 << min(4, int(np.log2(len(seg) / np.count_nonzero(lengths))))
        rows = np.maximum(1, -(-lengths // width))
        self.first = np.cumsum(rows) - rows
        self.owner = np.repeat(np.arange(m), rows)
        slot = np.repeat(self.first * width - (np.cumsum(lengths) - lengths), lengths)
        slot += np.arange(len(seg))
        self.other = np.full((rows.sum(), width), pad)
        self.other.flat[slot] = other
        self.coef = np.zeros((rows.sum(), 2, width))
        self.coef[:, 0].flat[slot] = r

    def predict(self, own, other):
        """other gathered at the slots, (rows, width, k); writes own @ other.T
        at the slots into coef[:, 1]."""
        g = np.take(other, self.other, axis=0)
        np.matmul(g, np.take(own, self.owner, axis=0)[:, :, None], out=self.coef[:, 1, :, None])
        return g

    def scale(self, own, g):
        """The multiplicative update of own's rows but the pad: segment sums of
        r * g over those of pred * g, both from one batched product."""
        m, k = len(own) - 1, own.shape[1]
        sums = np.add.reduceat(np.matmul(self.coef, g).reshape(-1, 2 * k), self.first, axis=0)
        own[:m] *= sums[:, :k] / np.maximum(sums[:, k:], _MIN_ENTRY)
        np.maximum(own[:m], _MIN_ENTRY, out=own[:m])


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
    order = np.argsort(item, kind="stable")

    rng = np.random.default_rng(cfg.seed)
    n, d, k = int(keep.sum()), ratings.n_items, cfg.factors
    # Row-major factors, each with an all-zero pad row at the end for the
    # empty slots.
    w = np.zeros((n + 1, k))
    h = np.zeros((d + 1, k))
    w[:n] = np.maximum(_INIT_SCALE * rng.random((n, k)), _MIN_ENTRY)
    h[:d] = np.maximum(_INIT_SCALE * rng.random((k, d)), _MIN_ENTRY).T
    user_rows = _Rows(user, item, r, n, d)
    item_rows = _Rows(item[order], user[order], r[order], d, n)

    # Each epoch's objective reuses the predictions the next W step needs.
    trace = np.empty(cfg.epochs)
    g = user_rows.predict(w, h)
    for epoch in range(cfg.epochs):
        user_rows.scale(w, g)
        item_rows.scale(h, item_rows.predict(h, w))
        g = user_rows.predict(w, h)
        resid = user_rows.coef[:, 0] - user_rows.coef[:, 1]
        trace[epoch] = np.einsum("rs,rs->", resid, resid)
    return NmfResult(
        users=UserSet(w[:n]),
        user_ids=tuple(uid for uid, kp in zip(ratings.user_ids, keep) if kp),
        item_factors=h[:d].T.copy(),
        item_ids=ratings.item_ids,
        objective_trace=trace,
        dropped_users=dropped,
    )
