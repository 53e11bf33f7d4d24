"""Sweep the threshold verdicts of a checkout over seeded user sets, or compare two sweeps.

    python3 tools/sweep.py CHECKOUT OUT.json [--oracle]
    python3 tools/sweep.py --compare BASE.json NEW.json

The first form imports ``supply_eq`` from CHECKOUT/src and runs
``threshold_report`` on every set of the recipe at every q of QS.  The
recipe is ``numpy.random.default_rng(123)`` drawing SETS sets in turn, each
as N = ``integers(3, 60)`` and D = ``integers(3, 9)``, then
``random((N, D))``; sets are counted from 0 in draw order.  For each report
it records ``beta_upper`` and ``beta_estimate``, and for each probe its
beta, holds and status, and the sha256 of the repr of its excess and of its
witness; floats are kept as their repr, so a record names them to the bit.
It also records the run's time, which the compare mode does not read.

With ``--oracle`` it also runs, for each holding probe in D > 2, a plain
numpy ascent that reads only the users, the anchor's scores a_i = <x, u_i>
and beta: conditional-gradient steps p <- dual_point(grad f(p)) from the
probe's own starts (the axes and the ORACLE_USERS users whose dual points
score highest) and ORACLE_RANDOM seeded random points, ORACLE_STEPS steps
each, with no cap around the anchor and no return at the first point above
the bar.  A start stops only when a step no longer raises its value by more
than a few ulps.  It prints every final point above the bar
N (1 + delta(beta)) with its excess, and the oracle's time.

The second form prints every report whose bracket moved, and every probe
whose beta, verdict, status, excess digest or witness digest moved, or that
is in only one sweep, and exits 1 when there is one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # before numpy is first imported, as perfbench/run.py does
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

SEED, SETS, QS = 123, 160, (1.3, 1.5, 2.0, 3.0, 7.0)
ORACLE_USERS, ORACLE_RANDOM, ORACLE_STEPS = 4, 8, 5000

# The program's bar: a point beats the anchor when sum_i y_i exceeds
# N (1 + max(_DELTA, _ULPS beta eps)), as in threshold._delta.
_DELTA, _ULPS = 1e-11, 10.0


def recipe(sets: int = SETS) -> list:
    """The first `sets` user arrays of the recipe, in draw order."""
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(sets):
        n = int(rng.integers(3, 60))
        d = int(rng.integers(3, 9))
        out.append(rng.random((n, d)))
    return out


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _key(index: int, U: np.ndarray, q: float) -> str:
    return f"set {index} ({U.shape[0]}x{U.shape[1]}) q {q!r}"


def _import(checkout: Path):
    sys.path[:0] = [str(checkout / "src")]
    import supply_eq.threshold

    if Path(supply_eq.threshold.__file__).resolve().parents[2] != checkout.resolve():
        raise SystemExit(f"supply_eq was imported from {supply_eq.threshold.__file__}, "
                         f"not from {checkout}")
    return supply_eq


def sweep(checkout: Path, sets: int = SETS, qs=QS, oracle: bool = False) -> dict:
    """The sweep's record of `checkout`: its reports by key, and its time.
    With oracle, also the oracle's finds, printed as they come, by key."""
    supply_eq = _import(checkout)
    reports, finds, oracle_s = {}, {}, 0.0
    start = time.perf_counter()
    for index, U in enumerate(recipe(sets)):
        users = supply_eq.UserSet(U)
        for q in qs:
            spec = supply_eq.CostSpec(q=q)
            rep = supply_eq.threshold_report(users, spec)
            key = _key(index, U, q)
            reports[key] = {
                "beta_upper": repr(rep.beta_upper),
                "beta_estimate": repr(rep.beta_estimate),
                "probes": [{"beta": repr(p.beta), "holds": p.holds, "status": p.status,
                            "excess": _sha(p.excess), "witness": _sha(p.witness)}
                           for p in rep.condition_trace],
            }
            if oracle and U.shape[1] > 2 and any(p.holds for p in rep.condition_trace):
                t0 = time.perf_counter()
                a = U @ supply_eq.nsw_direction(users, spec).point
                for i, p in enumerate(rep.condition_trace):
                    if not p.holds:
                        continue
                    rng = np.random.default_rng([SEED, index, round(10 * q), i])
                    for excess, point in oracle_points(U, a, p.beta, q, rng):
                        line = (f"{key} beta {p.beta!r} ({p.status}): excess {excess!r} "
                                f"at {np.array2string(point, precision=6)}")
                        print(line, flush=True)
                        finds.setdefault(key, []).append(line)
                oracle_s += time.perf_counter() - t0
    record = {"seconds": time.perf_counter() - start, "reports": reports}
    if oracle:
        record.update(oracle_seconds=oracle_s, oracle=finds)
    return record


def _dual_point(G: np.ndarray, q: float) -> np.ndarray:
    """The unit q-norm p >= 0 maximizing <G_k, p>, one row per row of G."""
    x = (G / G.max(axis=1, keepdims=True)) ** (1.0 / (q - 1.0))
    return x / (x ** q).sum(axis=1, keepdims=True) ** (1.0 / q)


@np.errstate(over="ignore", invalid="ignore")
def oracle_points(U: np.ndarray, a: np.ndarray, beta: float, q: float, rng) -> list:
    """(excess, point) of every final point of the oracle's ascent on
    f(p) = sum_i (<p, u_i>/a_i)^beta, at 1 < q < inf, that lies above the
    bar: excess is f(point) - N."""
    n, d = U.shape
    bar = n * (1.0 + max(_DELTA, _ULPS * beta * np.finfo(float).eps))
    S = _dual_point(U, q)
    own = ((S * U).sum(axis=1) / a) ** beta
    R = np.abs(rng.standard_normal((ORACLE_RANDOM, d)))
    P = np.vstack([np.eye(d), S[np.argsort(-own)[:ORACLE_USERS]], _dual_point(R, q)])
    f = lambda X: (((X @ U.T) / a) ** beta).sum(axis=1)  # noqa: E731
    v = f(P)
    live = np.flatnonzero(np.isfinite(v) & (v > 0))
    for _ in range(ORACLE_STEPS):
        if not live.size:
            break
        Pn = _dual_point((((P[live] @ U.T) / a) ** (beta - 1.0) / a) @ U, q)
        vn = f(Pn)
        up = vn > v[live] * (1.0 + 4.0 * np.finfo(float).eps)
        P[live[up]], v[live[up]] = Pn[up], vn[up]
        live = live[up & np.isfinite(vn)]
    return [(float(v[k] - n), P[k]) for k in np.flatnonzero(v > bar)]


def compare(base: dict, new: dict) -> list:
    """One line for each moved report field and each moved probe field."""
    lines = []
    old_reps, new_reps = base["reports"], new["reports"]
    for key in sorted(set(old_reps) | set(new_reps)):
        if key not in new_reps:
            lines.append(f"only in base: {key}")
            continue
        if key not in old_reps:
            lines.append(f"only in new: {key}")
            continue
        old, cur = old_reps[key], new_reps[key]
        for field in ("beta_upper", "beta_estimate"):
            if old[field] != cur[field]:
                lines.append(f"{key}: {field} {old[field]} -> {cur[field]}")
        for i in range(max(len(old["probes"]), len(cur["probes"]))):
            if i >= len(cur["probes"]):
                lines.append(f"{key} probe {i}: only in base, beta {old['probes'][i]['beta']}")
            elif i >= len(old["probes"]):
                lines.append(f"{key} probe {i}: only in new, beta {cur['probes'][i]['beta']}")
            else:
                p, c = old["probes"][i], cur["probes"][i]
                moved = [f"{k} {p[k]} -> {c[k]}" if k in ("beta", "holds", "status") else k
                         for k in ("beta", "holds", "status", "excess", "witness") if p[k] != c[k]]
                if moved:
                    lines.append(f"{key} probe {i} (beta {p['beta']}): {'; '.join(moved)}")
    return lines


def _summary(record: dict) -> str:
    probes = [p for rep in record["reports"].values() for p in rep["probes"]]
    holding = [p for p in probes if p["holds"]]
    return (f"{len(record['reports'])} reports, {len(probes)} probes, {len(holding)} holding, "
            f"{sum(p['status'] == 'step_cap' for p in holding)} of them step_cap, "
            f"{record['seconds']:.2f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("paths", nargs=2, metavar=("CHECKOUT_OR_BASE", "OUT_OR_NEW"))
    parser.add_argument("--compare", action="store_true",
                        help="compare two sweep files instead of sweeping")
    parser.add_argument("--oracle", action="store_true",
                        help="also run the long plain ascent on every holding probe")
    ns = parser.parse_args(argv)
    if ns.compare:
        base, new = (json.loads(Path(p).read_text()) for p in ns.paths)
        lines = compare(base, new)
        print("\n".join(lines) if lines else
              f"identical: {sum(len(r['probes']) for r in base['reports'].values())} probes")
        return 1 if lines else 0
    record = sweep(Path(ns.paths[0]).resolve(), oracle=ns.oracle)
    Path(ns.paths[1]).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"swept {_summary(record)} into {ns.paths[1]}")
    if ns.oracle:
        print(f"oracle: {sum(map(len, record['oracle'].values()))} points above the bar, "
              f"{record['oracle_seconds']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
