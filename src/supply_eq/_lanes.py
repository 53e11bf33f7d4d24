"""Two lanes for one library call: this thread and at most one worker thread.

A call opens ``Lanes`` in a ``with`` block and hands ``map`` one or two
pieces of work at a time.  One piece runs on this thread and starts nothing;
the first pair starts the worker, which then serves every later pair of the
call and is joined when the block exits, also when a piece raised.  ``map``
returns only once both pieces have finished, so each lane sees everything
either lane wrote before it, and a caller whose pieces write disjoint rows
gets the arrays one thread running the pieces in turn would have written.
The worker runs each piece in a copy of the caller's context, so numpy's
``errstate``, a context variable, holds on both lanes.
"""

from __future__ import annotations

import contextvars
import threading


class Lanes:
    """This thread and one lazily started worker, for one library call."""

    def __init__(self):
        self._thread = None
        self._task = None
        self._result = None
        self._go = threading.Semaphore(0)
        self._done = threading.Semaphore(0)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._thread is not None:
            self._task = None
            self._go.release()
            self._thread.join()

    def _serve(self):
        while True:
            self._go.acquire()
            task = self._task
            if task is None:
                return
            try:
                self._result = task(), None
            except BaseException as exc:  # handed to the calling thread, which raises it
                self._result = None, exc
            self._done.release()

    def map(self, fn, args):
        """[fn(a) for a in args] for one or two args: the first on this
        thread, the second at the same time on the worker.  Once both have
        finished, an exception either raised is raised here, this thread's
        first."""
        if len(args) == 1:
            return [fn(args[0])]
        here, there = args
        if self._thread is None:
            thread = threading.Thread(target=self._serve, name="supply_eq lane")
            thread.start()
            self._thread = thread
        ctx = contextvars.copy_context()
        self._task = lambda: ctx.run(fn, there)
        self._go.release()
        try:
            mine = fn(here)
        finally:
            self._done.acquire()
        theirs, exc = self._result
        self._result = None
        if exc is not None:
            raise exc
        return [mine, theirs]
