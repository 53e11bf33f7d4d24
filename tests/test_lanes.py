"""The two-lane helper: where each piece runs, errors, and the worker's lifetime."""

import threading

import numpy as np
import pytest

from supply_eq._lanes import Lanes


def _count_starts(monkeypatch):
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    return started


def test_one_piece_runs_here_and_starts_no_thread(monkeypatch):
    started = _count_starts(monkeypatch)
    with Lanes() as lanes:
        assert lanes.map(lambda x: (x, threading.get_ident()), [5]) == [(5, threading.get_ident())]
    assert started == []


def test_one_worker_serves_every_pair_and_is_joined(monkeypatch):
    started = _count_starts(monkeypatch)
    threads = threading.active_count()
    me, seen = threading.get_ident(), []
    with Lanes() as lanes:
        for i in range(5):
            seen.append(lanes.map(lambda x: (x, threading.get_ident()), [2 * i, 2 * i + 1]))
    assert threading.active_count() == threads
    assert len(started) == 1 and not started[0].is_alive()
    assert [[x for x, _ in pair] for pair in seen] == [[2 * i, 2 * i + 1] for i in range(5)]
    assert {pair[0][1] for pair in seen} == {me}
    assert {pair[1][1] for pair in seen} == {started[0].ident} != {me}


@pytest.mark.parametrize("fails", [["here"], ["there"], ["here", "there"]])
def test_an_exception_is_raised_once_both_pieces_finish(fails):
    # With both failing, this thread's exception is the one raised.
    finished = []

    def piece(name):
        if name in fails:
            raise FloatingPointError(f"{name} failed")
        finished.append(name)

    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match=f"{fails[0]} failed"):
        with Lanes() as lanes:
            lanes.map(piece, ["here", "there"])
    assert finished == [name for name in ("here", "there") if name not in fails]
    assert threading.active_count() == threads


def test_the_worker_runs_under_the_callers_errstate():
    def overflow(_):
        return np.float64(1e300) * np.float64(1e300)

    with np.errstate(over="raise"), Lanes() as lanes:
        with pytest.raises(FloatingPointError):
            lanes.map(overflow, [None, None])
        with pytest.raises(FloatingPointError):
            lanes.map(lambda x: overflow(x) if x else 0.0, [False, True])
