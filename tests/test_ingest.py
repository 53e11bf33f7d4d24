"""CSV ingestion and the masked multiplicative-update factorizer."""

import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import supply_eq
from supply_eq.geometry import UserSet
from supply_eq.ingest import (
    InputDataError,
    NmfConfig,
    RatingsTable,
    load_embeddings_csv,
    load_ratings_csv,
    nmf_factorize,
    save_embeddings_csv,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def ratings_csv(tmp_path, rows, name="r.csv"):
    body = "user_id,item_id,rating\n" + "".join(f"{u},{i},{v!r}\n" for u, i, v in rows)
    return write(tmp_path / name, body)


def test_load_ratings_roundtrip_indices(tmp_path):
    p = ratings_csv(tmp_path, [("a", "x", 1.0), ("b", "y", 2.5), ("a", "y", 0.5)])
    t = load_ratings_csv(p)
    assert t.user_ids == ("a", "b")
    assert t.item_ids == ("x", "y")
    assert t.n_users == 2 and t.n_items == 2
    r, m = t.dense()
    assert r[0, 0] == 1.0 and r[1, 1] == 2.5 and r[0, 1] == 0.5
    assert m.sum() == 3


def test_load_ratings_duplicates_overwrite(tmp_path):
    p = ratings_csv(tmp_path, [("a", "x", 1.0), ("a", "x", 3.0)])
    r, m = load_ratings_csv(p).dense()
    assert r[0, 0] == 3.0
    assert m[0, 0] == 1.0


def test_load_ratings_errors(tmp_path):
    with pytest.raises(InputDataError, match="header"):
        load_ratings_csv(write(tmp_path / "a.csv", "u,i,r\n"))
    with pytest.raises(InputDataError, match="no ratings"):
        load_ratings_csv(write(tmp_path / "b.csv", "user_id,item_id,rating\n"))
    with pytest.raises(InputDataError, match="bad rating"):
        load_ratings_csv(write(tmp_path / "c.csv", "user_id,item_id,rating\nu,m,abc\n"))
    with pytest.raises(InputDataError, match="finite"):
        load_ratings_csv(write(tmp_path / "d.csv", "user_id,item_id,rating\nu,m,nan\n"))
    with pytest.raises(InputDataError, match="3 fields"):
        load_ratings_csv(write(tmp_path / "e.csv", "user_id,item_id,rating\nu,m\n"))


def test_nmf_rank_one_exact_recovery(tmp_path):
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([0.5, 1.0, 2.0])
    rows = [(f"u{i}", f"m{j}", float(a[i] * b[j])) for i in range(3) for j in range(3)]
    t = load_ratings_csv(ratings_csv(tmp_path, rows))
    res = nmf_factorize(t, NmfConfig(factors=1, seed=0))
    rec = res.users.embeddings @ res.item_factors
    rmse = float(np.sqrt(((rec - np.outer(a, b)) ** 2).mean()))
    assert rmse < 1e-2
    assert res.dropped_users == ()


def test_nmf_objective_trace_monotone(tmp_path):
    rng = np.random.default_rng(4)
    rows = [
        (f"u{i}", f"m{j}", float(rng.random() + 0.1)) for i in range(6) for j in range(5)
    ]
    t = load_ratings_csv(ratings_csv(tmp_path, rows))
    res = nmf_factorize(t, NmfConfig(factors=2, epochs=300, seed=1))
    diffs = np.diff(res.objective_trace)
    assert np.all(diffs <= 1e-9)


def test_nmf_masked_rank_two_recovery(tmp_path):
    rng = np.random.default_rng(5)
    w0 = rng.random((8, 2)) + 0.2
    h0 = rng.random((2, 6)) + 0.2
    full = w0 @ h0
    mask = rng.random((8, 6)) < 0.75
    rows = [
        (f"u{i}", f"m{j}", float(full[i, j]))
        for i in range(8)
        for j in range(6)
        if mask[i, j]
    ]
    t = load_ratings_csv(ratings_csv(tmp_path, rows))
    res = nmf_factorize(t, NmfConfig(factors=2, epochs=500, seed=2))
    rec = res.users.embeddings @ res.item_factors
    uperm = [int(u[1:]) for u in res.user_ids]
    iperm = [int(m[1:]) for m in res.item_ids]
    sub = np.ix_(uperm, iperm)
    rmse = float(
        np.sqrt((((rec - full[sub]) * mask[sub]) ** 2).sum() / mask.sum())
    )
    assert rmse < 0.01


def test_nmf_drops_zero_rating_users(tmp_path):
    rows = [("u0", "m0", 1.0), ("uz", "m0", 0.0), ("u1", "m1", 2.0)]
    t = load_ratings_csv(ratings_csv(tmp_path, rows))
    with pytest.warns(UserWarning, match="uz"):
        res = nmf_factorize(t, NmfConfig(factors=1, epochs=10))
    assert res.dropped_users == ("uz",)
    assert res.user_ids == ("u0", "u1")
    assert res.users.n_users == 2


def test_nmf_rejects_negative_ratings(tmp_path):
    t = load_ratings_csv(ratings_csv(tmp_path, [("u", "m", -1.0)]))
    with pytest.raises(InputDataError, match="nonnegative"):
        nmf_factorize(t, NmfConfig(factors=1))


def test_nmf_all_zero_table_rejected(tmp_path):
    t = load_ratings_csv(ratings_csv(tmp_path, [("u", "m", 0.0)]))
    with pytest.warns(UserWarning):
        with pytest.raises(InputDataError, match="positive rating"):
            nmf_factorize(t, NmfConfig(factors=1))


def test_nmf_entries_floored(tmp_path):
    rows = [("u0", "m0", 1.0), ("u0", "m1", 0.0), ("u1", "m1", 1.0)]
    t = load_ratings_csv(ratings_csv(tmp_path, rows))
    res = nmf_factorize(t, NmfConfig(factors=2, epochs=50, seed=0))
    assert np.all(res.users.embeddings >= 1e-9)
    assert np.all(res.item_factors >= 1e-9)


def test_nmf_deterministic(tmp_path):
    rows = [(f"u{i}", f"m{j}", float(i + j + 1)) for i in range(4) for j in range(3)]
    t = load_ratings_csv(ratings_csv(tmp_path, rows))
    a = nmf_factorize(t, NmfConfig(factors=2, epochs=40, seed=9))
    b = nmf_factorize(t, NmfConfig(factors=2, epochs=40, seed=9))
    assert np.all(a.users.embeddings == b.users.embeddings)
    assert np.all(a.objective_trace == b.objective_trace)


# The factorizer's fixed initial scale and factor floor.
_INIT_SCALE, _MIN_ENTRY = 0.1, 1e-9


def _nmf_reference(r, mask, cfg):
    """The factorizer as first written: three w @ h products per epoch and
    the residual formed as mask * (r - w @ h)."""
    rng = np.random.default_rng(cfg.seed)
    n, d, k = r.shape[0], r.shape[1], cfg.factors
    w = np.maximum(_INIT_SCALE * rng.random((n, k)), _MIN_ENTRY)
    h = np.maximum(_INIT_SCALE * rng.random((k, d)), _MIN_ENTRY)
    mr = mask * r
    trace = np.empty(cfg.epochs)
    for epoch in range(cfg.epochs):
        wh = mask * (w @ h)
        w *= (mr @ h.T) / np.maximum(wh @ h.T, _MIN_ENTRY)
        np.maximum(w, _MIN_ENTRY, out=w)
        wh = mask * (w @ h)
        h *= (w.T @ mr) / np.maximum(w.T @ wh, _MIN_ENTRY)
        np.maximum(h, _MIN_ENTRY, out=h)
        resid = mask * (r - w @ h)
        trace[epoch] = float((resid * resid).sum())
    return w, h, trace


# The observed-entry loop sums in another order than the dense products, so
# it agrees with the dense loop to rounding only: 4.3e-15 at most per element
# on this table, 8.2e-15 on 56 seeded 40x30 tables at 20 epochs.
_NMF_RTOL = 4e-14


def test_nmf_matches_dense_reference_loop():
    rng = np.random.default_rng(12)
    observed = np.argwhere(rng.random((40, 30)) < 0.3)
    table = RatingsTable(
        user_ids=tuple(f"u{i}" for i in range(40)),
        item_ids=tuple(f"m{j}" for j in range(30)),
        user_index=observed[:, 0],
        item_index=observed[:, 1],
        rating=rng.integers(1, 6, len(observed)).astype(float),
    )
    cfg = NmfConfig(factors=4, epochs=20, seed=3)
    res = nmf_factorize(table, cfg)
    assert res.dropped_users == ()
    w, h, trace = _nmf_reference(*table.dense(), cfg)
    np.testing.assert_allclose(res.users.embeddings, w, rtol=_NMF_RTOL, atol=0)
    np.testing.assert_allclose(res.item_factors, h, rtol=_NMF_RTOL, atol=0)
    np.testing.assert_allclose(res.objective_trace, trace, rtol=_NMF_RTOL, atol=0)


def test_nmf_overwrites_zeros_and_dropped_users_match_dense_reference():
    rows = [
        ("a", "x", 3.0), ("a", "y", 0.0), ("a", "z", 2.0),
        ("b", "q", 4.0),                    # b's only rating, overwritten by 0 below
        ("c", "y", 0.0),                    # overwritten by 5 below
        ("d", "x", 1.0), ("d", "y", 2.0), ("d", "z", 0.0),
        ("b", "q", 0.0), ("c", "y", 5.0), ("e", "z", 1.0), ("e", "x", 0.0),
    ]
    users = {u: i for i, u in enumerate(dict.fromkeys(u for u, _, _ in rows))}
    items = {m: j for j, m in enumerate(dict.fromkeys(m for _, m, _ in rows))}
    table = RatingsTable(
        user_ids=tuple(users),
        item_ids=tuple(items),
        user_index=np.array([users[u] for u, _, _ in rows]),
        item_index=np.array([items[m] for _, m, _ in rows]),
        rating=np.array([v for _, _, v in rows]),
    )
    cfg = NmfConfig(factors=2, epochs=30, seed=4)
    with pytest.warns(UserWarning, match="'b'"):
        res = nmf_factorize(table, cfg)
    assert res.dropped_users == ("b",)
    assert res.user_ids == ("a", "c", "d", "e")
    assert res.item_ids == ("x", "y", "z", "q")
    r, mask = table.dense()
    keep = [0, 2, 3, 4]
    w, h, trace = _nmf_reference(r[keep], mask[keep], cfg)
    np.testing.assert_allclose(res.users.embeddings, w, rtol=_NMF_RTOL, atol=0)
    np.testing.assert_allclose(res.item_factors, h, rtol=_NMF_RTOL, atol=0)
    np.testing.assert_allclose(res.objective_trace, trace, rtol=_NMF_RTOL, atol=0)
    # q is rated only by the dropped user, so its factors fall to the floor.
    assert np.all(res.item_factors[:, 3] == _MIN_ENTRY)
    # The zero ratings are observed cells: the objective counts their error.
    pred = res.users.embeddings @ res.item_factors
    zeros = [(0, 1), (2, 2), (3, 0)]
    assert res.objective_trace[-1] >= sum(pred[i, j] ** 2 for i, j in zeros) > 0


def _uneven_table(seed):
    """80 users with one rating each (of item "all"), 5 with about 13 each,
    "all" rated by all 85, and item "orphan" rated 0 only by user "z".  A
    kept user has under 2 ratings on average and a rated item about 6, while
    "all" has 85: the user rows are one slot wide, and "all" spans many item
    rows."""
    rng = np.random.default_rng(seed)
    rows = [(f"u{i}", "all", int(rng.integers(1, 6))) for i in range(80)]
    for i in range(80, 85):
        rows.append((f"u{i}", "all", int(rng.integers(0, 6))))
        rows += [(f"u{i}", f"m{j}", int(rng.integers(0, 6)))
                 for j in np.flatnonzero(rng.random(20) < 0.6)]
    rows.insert(25, ("z", "orphan", 0))
    rng.shuffle(rows)
    users = {u: i for i, u in enumerate(dict.fromkeys(u for u, _, _ in rows))}
    items = {m: j for j, m in enumerate(dict.fromkeys(m for _, m, _ in rows))}
    return RatingsTable(
        user_ids=tuple(users),
        item_ids=tuple(items),
        user_index=np.array([users[u] for u, _, _ in rows]),
        item_index=np.array([items[m] for _, m, _ in rows]),
        rating=np.array([float(v) for _, _, v in rows]),
    )


def test_nmf_uneven_table_matches_dense_reference():
    table = _uneven_table(6)
    r, mask = table.dense()
    assert mask.sum() < 2 * (table.n_users - 1) and mask.sum(axis=0).max() == 85
    cfg = NmfConfig(factors=3, epochs=30, seed=2)
    with pytest.warns(UserWarning, match="'z'"):
        res = nmf_factorize(table, cfg)
    assert res.dropped_users == ("z",)
    keep = [table.user_ids.index(u) for u in res.user_ids]
    w, h, trace = _nmf_reference(r[keep], mask[keep], cfg)
    np.testing.assert_allclose(res.users.embeddings, w, rtol=_NMF_RTOL, atol=0)
    np.testing.assert_allclose(res.item_factors, h, rtol=_NMF_RTOL, atol=0)
    np.testing.assert_allclose(res.objective_trace, trace, rtol=_NMF_RTOL, atol=0)
    assert np.all(res.item_factors[:, table.item_ids.index("orphan")] == _MIN_ENTRY)


def test_nmf_one_row_per_user_matches_dense_reference():
    # Every user rates four items: each user fills one four-slot row with no
    # empty slot.
    rng = np.random.default_rng(7)
    items = np.array([rng.choice(9, 4, replace=False) for _ in range(50)])
    table = RatingsTable(
        user_ids=tuple(f"u{i}" for i in range(50)),
        item_ids=tuple(f"m{j}" for j in range(9)),
        user_index=np.repeat(np.arange(50), 4),
        item_index=items.ravel(),
        rating=rng.integers(1, 6, 200).astype(float),
    )
    cfg = NmfConfig(factors=2, epochs=30, seed=5)
    res = nmf_factorize(table, cfg)
    w, h, trace = _nmf_reference(*table.dense(), cfg)
    np.testing.assert_allclose(res.users.embeddings, w, rtol=_NMF_RTOL, atol=0)
    np.testing.assert_allclose(res.item_factors, h, rtol=_NMF_RTOL, atol=0)
    np.testing.assert_allclose(res.objective_trace, trace, rtol=_NMF_RTOL, atol=0)


def test_nmf_bitwise_across_blas_threads():
    # The batched products call BLAS; one and two threads give the same bits.
    code = (
        "import hashlib, numpy as np\n"
        "from supply_eq.ingest import NmfConfig, RatingsTable, nmf_factorize\n"
        "rng = np.random.default_rng(3)\n"
        "obs = np.argwhere(rng.random((400, 300)) < 0.06)\n"
        "t = RatingsTable(tuple(range(400)), tuple(range(300)), obs[:, 0], obs[:, 1],\n"
        "                 rng.integers(1, 6, len(obs)).astype(float))\n"
        "res = nmf_factorize(t, NmfConfig(factors=8, epochs=20, seed=1))\n"
        "for a in (res.users.embeddings, res.item_factors, res.objective_trace):\n"
        "    print(hashlib.sha256(a.tobytes()).hexdigest())\n"
    )
    src = str(pathlib.Path(supply_eq.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        digests.append(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                      text=True, check=True).stdout.split())
    assert len(digests[0]) == 3
    assert digests[0] == digests[1]


def test_nmf_memory_scales_with_observed_entries(monkeypatch):
    # One dense 2,000 x 1,000 float array is 16 MB; the loop must not build one.
    rng = np.random.default_rng(8)
    table = RatingsTable(
        user_ids=tuple(f"u{i}" for i in range(2000)),
        item_ids=tuple(f"m{j}" for j in range(1000)),
        user_index=rng.permutation(np.arange(10_000) % 2000),
        item_index=rng.integers(0, 1000, 10_000),
        rating=rng.integers(1, 6, 10_000).astype(float),
    )

    def no_dense(self):
        raise AssertionError("nmf_factorize must not densify the ratings")

    monkeypatch.setattr(RatingsTable, "dense", no_dense)
    tracemalloc.start()
    try:
        res = nmf_factorize(table, NmfConfig(factors=8, epochs=2, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.users.n_users == 2000
    assert peak < 16e6


def test_nmf_memory_one_rating_per_user(monkeypatch):
    # Every user segment is one row one slot wide.  The peak was 38.6 MB when
    # the loop kept factor-major (k, E) buffers, and is 26.3 MB in rows.
    rng = np.random.default_rng(9)
    table = RatingsTable(
        user_ids=tuple(f"u{i}" for i in range(50_000)),
        item_ids=tuple(f"m{j}" for j in range(500)),
        user_index=np.arange(50_000),
        item_index=rng.integers(0, 500, 50_000),
        rating=rng.integers(1, 6, 50_000).astype(float),
    )

    def no_dense(self):
        raise AssertionError("nmf_factorize must not densify the ratings")

    monkeypatch.setattr(RatingsTable, "dense", no_dense)
    tracemalloc.start()
    try:
        res = nmf_factorize(table, NmfConfig(factors=8, epochs=2, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.users.n_users == 50_000
    assert peak < 32e6


def test_nmf_config_validation():
    with pytest.raises(ValueError):
        NmfConfig(factors=0)
    with pytest.raises(ValueError):
        NmfConfig(factors=1, epochs=0)


def test_ratings_table_validation():
    with pytest.raises(InputDataError):
        RatingsTable(
            user_ids=("a",),
            item_ids=("x",),
            user_index=np.array([0]),
            item_index=np.array([0]),
            rating=np.array([np.inf]),
        )


@pytest.mark.parametrize(
    "users, items",
    [([-1], [0]), ([2], [0]), ([0], [-1]), ([0], [3])],
    ids=["user-negative", "user-too-large", "item-negative", "item-too-large"],
)
def test_ratings_table_rejects_out_of_range_indices(users, items):
    with pytest.raises(InputDataError, match="index"):
        RatingsTable(
            user_ids=("a", "b"),
            item_ids=("x", "y", "z"),
            user_index=np.array(users),
            item_index=np.array(items),
            rating=np.array([1.0]),
        )


def test_embeddings_roundtrip_bytes(tmp_path):
    users = UserSet(np.abs(np.random.default_rng(3).standard_normal((4, 3))) + 0.01)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    save_embeddings_csv(users, pa)
    loaded = load_embeddings_csv(pa)
    assert np.all(loaded.embeddings == users.embeddings)
    save_embeddings_csv(loaded, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_save_embeddings_custom_ids(tmp_path):
    users = UserSet(np.array([[1.0, 2.0]]))
    p = tmp_path / "ids.csv"
    save_embeddings_csv(users, p, user_ids=["alice"])
    assert p.read_text().splitlines()[1].startswith("alice,")
    with pytest.raises(ValueError):
        save_embeddings_csv(users, p, user_ids=["a", "b"])


def test_load_embeddings_errors(tmp_path):
    with pytest.raises(InputDataError, match="header"):
        load_embeddings_csv(write(tmp_path / "a.csv", "id,f0\nu,1\n"))
    with pytest.raises(InputDataError, match="no users"):
        load_embeddings_csv(write(tmp_path / "b.csv", "user_id,f0,f1\n"))
    with pytest.raises(InputDataError, match="column f1"):
        load_embeddings_csv(write(tmp_path / "c.csv", "user_id,f0,f1\nu,1.0,-0.5\n"))
    with pytest.raises(InputDataError, match="all zeros"):
        load_embeddings_csv(write(tmp_path / "d.csv", "user_id,f0,f1\nu,0.0,0.0\n"))
    with pytest.raises(InputDataError, match="bad value"):
        load_embeddings_csv(write(tmp_path / "e.csv", "user_id,f0,f1\nu,x,1.0\n"))
    with pytest.raises(InputDataError, match="fields"):
        load_embeddings_csv(write(tmp_path / "f.csv", "user_id,f0,f1\nu,1.0\n"))


_HEAD = "user_id,f0,f1\n"
_GOOD = "u0,1.0,2.0\n"
_FINITE = "must be a finite nonnegative number, got"


# (file body, row, message): each is the loader's message before the one-pass
# parse, byte for byte.  The row is the file's line number, blank lines counted.
@pytest.mark.parametrize("body,row,message", [
    (_GOOD + "u1,1.0\n", 3, "expected 3 fields"),
    (_GOOD + "u1,1.0,2.0,3.0\n", 3, "expected 3 fields"),
    (_GOOD + "u1\n", 3, "expected 3 fields"),
    (_GOOD + "u1,1.0,x\n", 3, "bad value 'x' in column f1"),
    (_GOOD + "u1,,1.0\n", 3, "bad value '' in column f0"),
    (_GOOD + "u1,nan,1.0\n", 3, f"column f0 {_FINITE} 'nan'"),
    (_GOOD + "u1,1.0,inf\n", 3, f"column f1 {_FINITE} 'inf'"),
    (_GOOD + "u1,1.0,1e400\n", 3, f"column f1 {_FINITE} '1e400'"),
    (_GOOD + "u1,1.0,-0.5\n", 3, f"column f1 {_FINITE} '-0.5'"),
    (_GOOD + "u1,0,0.0\n", 3, "user row is all zeros"),
    (_GOOD + "u1,-0.0,0\n", 3, "user row is all zeros"),
    (_GOOD + "\n\n" + _GOOD + "u1,-1,2.0\n", 6, f"column f0 {_FINITE} '-1'"),
    (_GOOD + "\n\nu1,1.0\n", 5, "expected 3 fields"),
    # Two faulty rows: the first in reading order is reported, whichever of
    # them the array check or the parse would find.
    (_GOOD + "u1,-1,2.0\nu2,x,1.0\n", 3, f"column f0 {_FINITE} '-1'"),
    (_GOOD + "u1,x,1.0\nu2,-1,2.0\n", 3, "bad value 'x' in column f0"),
    (_GOOD + "u1,1.0,-2\nu2,0,0\n", 3, f"column f1 {_FINITE} '-2'"),
    (_GOOD + "u1,0,0\n" + _GOOD + "u2,nan,1.0\n", 3, "user row is all zeros"),
    (_GOOD + "u1,0,0\nu2,1.0\n", 3, "user row is all zeros"),
    (_GOOD + "u1,1.0\nu2,0,0\n", 3, "expected 3 fields"),
    # Two faults in one row: the first column in reading order.
    (_GOOD + "u1,-1,x\n", 3, f"column f0 {_FINITE} '-1'"),
    (_GOOD + "u1,x,-1\n", 3, "bad value 'x' in column f0"),
])
def test_load_embeddings_error_messages(tmp_path, body, row, message):
    path = write(tmp_path / "bad.csv", _HEAD + body)
    with pytest.raises(InputDataError) as err:
        load_embeddings_csv(path)
    assert str(err.value) == f"{path}:{row}: {message}"


def test_load_embeddings_header_only_and_empty(tmp_path):
    path = write(tmp_path / "h.csv", _HEAD)
    with pytest.raises(InputDataError) as err:
        load_embeddings_csv(path)
    assert str(err.value) == f"{path}: no users"
    path = write(tmp_path / "blank.csv", _HEAD + "\n\n")
    with pytest.raises(InputDataError) as err:
        load_embeddings_csv(path)
    assert str(err.value) == f"{path}: no users"
    path = write(tmp_path / "e.csv", "")
    with pytest.raises(InputDataError) as err:
        load_embeddings_csv(path)
    assert str(err.value) == f"{path}: expected header user_id,f0,...,f{{D-1}}"


def test_load_embeddings_bitwise_matches_per_value_parse(tmp_path):
    # 17 significant digits, a few exact zeros and tiny values, and blank lines.
    rng = np.random.default_rng(20)
    table = rng.random((500, 8)) * 10.0 ** rng.integers(-300, 300, size=(500, 8))
    table[rng.random((500, 8)) < 0.1] = 0.0
    table[:, 0] += 1.0  # no all-zero row
    lines = ["user_id," + ",".join(f"f{k}" for k in range(8))]
    lines += [f"u{i}," + ",".join("%.17g" % v for v in row) for i, row in enumerate(table)]
    lines[100:100] = ["", ""]
    path = write(tmp_path / "big.csv", "\n".join(lines) + "\n")
    reference = np.array([[float(raw) for raw in line.split(",")[1:]]
                          for line in lines[1:] if line])
    loaded = load_embeddings_csv(path).embeddings
    assert loaded.shape == (500, 8)
    assert loaded.tobytes() == reference.tobytes()
    assert loaded.tobytes() == table.tobytes()


def test_load_embeddings_wrong_factor_names(tmp_path):
    with pytest.raises(InputDataError, match="header"):
        load_embeddings_csv(write(tmp_path / "g.csv", "user_id,f0,f2\nu,1.0,1.0\n"))
