"""Outside-in tracing of the supply_eq modules.

The tracer replaces each public function of the seven modules with a thin
wrapper, in every module namespace that binds it, so calls made through
``from .x import y`` aliases are seen too.  Spans (name, start, end, parent,
command id) are kept in flat arrays in memory and written once, at the end of
the run.  Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
from array import array
from time import perf_counter

LAYERS = ("geometry", "optimize", "threshold", "closedform", "verify", "ingest", "cli")

# Public callables that are not listed in their module's __all__.
_EXTRA = {"cli": ("render_json",)}


def _count_solve(tr, name, args, kwargs, res):
    tr.add(name + ".iters", res.iters)
    tr.add(name + ".uncertified", 0 if res.converged else 1)


def _count_probe(tr, name, args, kwargs, res):
    if res[0] is None:
        tr.add("threshold.inconclusive", 1)


def _count_rows(tr, name, args, kwargs, res):
    tr.add(name + ".rows", res.shape[0])


def _count_nmf(tr, name, args, kwargs, res):
    # Seven (n x k) @ (k x d)-sized products per epoch, two flops per multiply-add.
    n, k = res.users.embeddings.shape
    d = len(res.item_ids)
    epochs = len(res.objective_trace)
    tr.add(name + ".gflop_computed", epochs * 7 * 2 * n * k * d / 1e9)


def _count_bytes_in(tr, name, args, kwargs, res):
    tr.add(name + ".bytes_in", os.path.getsize(args[0]))


def _count_bytes_out(tr, name, args, kwargs, res):
    tr.add(name + ".bytes_out", os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))


_RESULT_HOOKS = {
    "optimize.nsw_direction": _count_solve,
    "optimize.minmax_alignment": _count_solve,
    "optimize.simplex_logsum_max": _count_solve,
    "threshold.max_condition_holds": _count_probe,
    "closedform.eq_sample": _count_rows,
    "ingest.nmf_factorize": _count_nmf,
    "ingest.load_ratings_csv": _count_bytes_in,
    "ingest.save_embeddings_csv": _count_bytes_out,
}


class Tracer:
    """Span recorder with per-name call counts, self time and result counters.

    Spans are timed with ``clock``, which may leave out time the harness
    spends inside a span on its own work.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.command = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_command = array("i")
        self._undo: list[tuple] = []

    def add(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        hook = _RESULT_HOOKS.get(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_command.append(self.command)
            self.span_end.append(0.0)
            frame = [row, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.calls[nid] += 1
                self.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self.span_end[row] = end
            if hook is not None:
                hook(self, name, args, kwargs, res)
            return res

        return traced

    def install(self, package) -> None:
        """Wrap every public function of the layers, wherever it is bound."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr in tuple(mod.__all__) + _EXTRA.get(layer, ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for ns in modules:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._undo.append((ns, key, fn))
                            setattr(ns, key, wrapped)
        cls = package.verify.EmpiricalMarginals
        method = cls.win_probability
        self._undo.append((cls, "win_probability", method))
        cls.win_probability = self.wrap("verify.win_probability", method)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._undo):
            setattr(ns, key, original)
        self._undo.clear()

    def totals(self) -> dict[str, float]:
        """Flat ``<name>.calls`` / ``<name>.self_s`` plus result counters."""
        out = dict(self.counters)
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = self.calls[nid]
            out[name + ".self_s"] = self.self_s[nid]
        return out

    def write_spans(self, path: str) -> None:
        """One CSV row per span; ``parent`` is a row index, -1 at the top."""
        t0 = self.span_start[0] if self.span_start else 0.0
        rows = ["name,start_s,end_s,parent,command"]
        rows += [
            f"{self.names[n]},{s - t0:.9f},{e - t0:.9f},{p},{c}"
            for n, s, e, p, c in zip(
                self.span_name, self.span_start, self.span_end,
                self.span_parent, self.span_command,
            )
        ]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
