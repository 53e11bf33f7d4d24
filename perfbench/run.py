"""Benchmark of the supply_eq command line, end to end and per module.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from src/.
One process is one closed-loop client: it sets up (a fresh import of
supply_eq, seeded inputs, warm-up; five times, median), then calls
``supply_eq.cli.run`` for each command of the workload, one after another, in
passes until --seconds is spent.  The first pass's outputs go through the
checks in checks.py; every later pass must reproduce its stdout and files byte
for byte.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  wall_ref and
setup_s are measured in units of the SpeedProbe kernel, which cancels the
host's speed; setup_s is converted back to seconds at a fixed reference speed.
--trace 1 spends half the time on untraced passes and half on passes with
every public function of the seven modules wrapped (tracing.py), and reports
the per-layer metrics, including the tracing overhead.  Both print a report
line first and the result object last.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SUBCOMMANDS = ("nsw", "threshold", "profit", "verify", "eq", "nmf")
SETUP_REPEATS = 5
SETUP_PROBE_INTERVAL_S = 0.01
# setup_s is the set-up's length in probe kernels times this: seconds on a
# host where the kernel takes 1 ms (it took 0.55-1.25 ms on a shared 2-vCPU VM).
REF_KERNEL_S = 1e-3


class SpeedProbe:
    """Samples the host's speed while set-up and passes run.

    Every interval_s (0.25 s by default) a SIGALRM handler times a ~1 ms kernel of the kinds of work
    the workloads do (an interpreted loop, small numpy calls, a sort and
    search, float formatting).  The kernel never calls supply_eq, so no change
    to the program moves it, and its time is taken out of the command it
    interrupted.  On a shared 2-vCPU VM the host's speed flips between two
    levels about 1.6x apart every second or so: identical solve passes took
    16 s to 31 s within one hour.  A pass divided by the trimmed mean of the
    samples taken during it does not move with those flips.  The mean is taken
    over speeds (1/kernel time), so that a pass's length over the level is the
    work done in kernels whatever share of it ran at either speed.
    """

    def __init__(self, interval_s: float = 0.25):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.np = np
        self.big = rng.random(5000)
        self.small = rng.random((20, 10))
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def kernel(self) -> float:
        np = self.np
        start = perf_counter()
        acc = 0.0
        for i in range(1500):
            acc += (i % 7) * 0.5
        v = np.ones(10)
        for _ in range(25):
            v = self.small.T @ (1.0 / (self.small @ v))
            v /= np.sqrt(v @ v)
        np.searchsorted(np.sort(self.big), self.big[:1000])
        ",".join(format(x, ".17g") for x in self.big[:150])
        return perf_counter() - start

    def _tick(self, signum, frame):
        d = self.kernel()
        self.samples.append(d)
        self.spent += d

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """perf_counter less the time spent in the kernel so far."""
        return perf_counter() - self.spent

    def level(self, first: int) -> float:
        """Kernel time at the trimmed mean speed (10% off each end) of the
        samples from index first on."""
        speeds = sorted(1.0 / k for k in self.samples[first:]) or [1.0 / self.kernel()]
        k = len(speeds) // 10
        return 1.0 / statistics.mean(speeds[k:len(speeds) - k])


@dataclass
class Outcome:
    """One command's exit code, time and output.  Only the first pass keeps
    its stdout, stderr and files (moved aside under ``kept/``); later passes
    keep the digest and size, so the harness holds no large buffers while the
    program runs."""

    rc: int | None
    seconds: float
    stdout: str
    stderr: str
    files: dict
    digest: str
    nbytes: int


@dataclass
class Pass:
    outcomes: list
    ref_s: float
    layer: dict

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)


def _execute(cli, cmd, workdir, probe, keep) -> Outcome:
    for name in cmd.files:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(workdir, name))
    out, err = io.StringIO(), io.StringIO()
    probed = probe.spent if probe else 0.0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.run(cmd.argv)
        except Exception:  # a crash is a failure of this command, not of the run
            rc = None
            traceback.print_exc()
        seconds = perf_counter() - start - ((probe.spent - probed) if probe else 0.0)
    stdout = out.getvalue()
    h = hashlib.sha256(f"{rc}\n{stdout}".encode())
    nbytes = len(stdout.encode())
    files = {}
    for name in sorted(cmd.files):
        path = os.path.join(workdir, name)
        if not os.path.exists(path):
            continue
        h.update(name.encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        nbytes += os.path.getsize(path)
        if keep:
            files[name] = os.path.join(workdir, "kept", name)
            os.replace(path, files[name])
    if not keep:
        stdout = ""
    return Outcome(rc, seconds, stdout, err.getvalue() if keep else "", files,
                   h.hexdigest(), nbytes)


def _passes(cli, wl, workdir, budget, probe, tracer=None, keep_first=True):
    """Run whole passes while another pass of median length fits the budget.

    A pass's ref_s is the host speed level the probe sampled during it.
    """
    passes = []
    start = perf_counter()
    while True:
        before = tracer.totals() if tracer else {}
        first_sample = len(probe.samples)
        outcomes = []
        for cmd in wl.commands:
            if tracer:
                tracer.command += 1
            outcomes.append(_execute(cli, cmd, workdir, probe, keep_first and not passes))
        layer = {}
        if tracer:
            after = tracer.totals()
            layer = {k: v - before.get(k, 0) for k, v in after.items()}
            layer["cli.bytes_out"] = sum(o.nbytes for o in outcomes)
        passes.append(Pass(outcomes, probe.level(first_sample), layer))
        typical = statistics.median(p.seconds for p in passes)
        if perf_counter() - start + typical > budget:
            return passes


def _recheck(cli, wl, workdir) -> Pass:
    """An untimed rerun of the workload's cheap recheck commands, so that a
    run of one pass still compares its outputs with a second execution."""
    return Pass([_execute(cli, c, workdir, None, False) if c.recheck else None
                 for c in wl.commands], 0.0, {})


def _fresh_import():
    for name in [m for m in sys.modules if m == "supply_eq" or m.startswith("supply_eq.")]:
        del sys.modules[name]
    return importlib.import_module("supply_eq"), importlib.import_module("supply_eq.cli")


def _setup(workloads, name, workdir, seed):
    """Import supply_eq afresh, write the inputs and warm up, SETUP_REPEATS
    times.  Returns the last round's workload and modules, and the median
    round length in probe kernels."""
    probe = SpeedProbe(SETUP_PROBE_INTERVAL_S)
    rounds = []
    with probe:
        for _ in range(SETUP_REPEATS):
            first_sample, probed = len(probe.samples), probe.spent
            start = perf_counter()
            package, cli = _fresh_import()
            wl = workloads.build(name, workdir, seed)
            for argv in wl.warmup:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.run(argv)
                if rc != 0:
                    raise RuntimeError(f"warm-up {' '.join(argv)} exited {rc}")
            seconds = perf_counter() - start - (probe.spent - probed)
            rounds.append(seconds / probe.level(first_sample))
    return wl, package, cli, statistics.median(rounds)


def _judge(wl, passes, timed):
    """Per-command failure kinds; checks run on the first pass only, and every
    later run must match its bytes.  Command times come from the timed passes."""
    first = passes[0].outcomes
    rows = []
    for i, cmd in enumerate(wl.commands):
        base = first[i]
        check_msgs = {}
        if base.rc is not None:
            for cname, fn in cmd.checks.items():
                try:
                    msgs = fn(base.stdout, base.files)
                except Exception as exc:  # unreadable output fails the check
                    msgs = [f"{type(exc).__name__}: {exc}"]
                if msgs:
                    check_msgs[f"check {cname}"] = "; ".join(msgs)
        ran = [p.outcomes[i] for p in passes if p.outcomes[i] is not None]
        per_pass = []
        for o in ran:
            kinds = set(check_msgs)
            if o.rc is None:
                kinds.add("exception")
            elif o.rc != 0:
                kinds.add(f"exit {o.rc}")
            if o.digest != base.digest:
                kinds.add("bytes")
            per_pass.append(kinds)
        kinds = set().union(*per_pass)
        rows.append({
            "command": cmd.name,
            "argv": cmd.argv,
            "exit": base.rc,
            "median_s": statistics.median(p.outcomes[i].seconds for p in timed),
            "runs": len(ran),
            "failed_runs": sum(1 for k in per_pass if k),
            "failures": {k: check_msgs.get(k, k) for k in sorted(kinds)},
            "known": {k: cmd.known[k] for k in sorted(kinds) if k in cmd.known},
            "unexpected": sorted(kinds - set(cmd.known)),
            "stderr": (base.stderr.strip().splitlines() or [""])[-1],
        })
    return rows


def _blas():
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{cfg.get('name')} {cfg.get('version')}"
    except (AttributeError, KeyError, TypeError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    threads = int(getattr(handle, sym)())
                    break
    except OSError:
        pass
    return name, threads


def _src_lines(layers):
    out = {}
    for layer in layers:
        with open(SRC / "supply_eq" / f"{layer}.py", "rb") as fh:
            out[f"{layer}.src_lines"] = fh.read().count(b"\n")
    return out


def _metadata(args):
    import numpy as np

    name, threads = _blas()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": name,
        "blas_threads": threads,
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _per_layer(traced, untraced, layers):
    keys = set().union(*(p.layer for p in traced))
    med = {k: statistics.median(p.layer.get(k, 0) for p in traced) for k in keys}
    base = med.get("optimize.nsw_direction.calls", 0) + med.get("optimize.minmax_alignment.calls", 0)
    unc = (med.get("optimize.nsw_direction.uncertified", 0)
           + med.get("optimize.minmax_alignment.uncertified", 0))
    med["optimize.certified_base"] = base
    # A ratio over no solves is vacuously 1; the base says there were none.
    med["optimize.certified_ratio"] = (base - unc) / base if base else 1.0
    med["trace.overhead_ref"] = _wall_ref(traced) - _wall_ref(untraced)
    med.update(_src_lines(layers))
    return med


def _wall_ref(passes) -> float:
    return statistics.median(p.seconds / p.ref_s for p in passes)


def bench(args, spec) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    # numpy (which the probe needs) and a first import of supply_eq, through
    # checks.py, load here, untimed: set-up times the program's own import.
    import tracing
    import workloads

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    os.mkdir(os.path.join(workdir, "kept"))
    try:
        wl, supply_eq, cli, setup_ref = _setup(workloads, args.workload, workdir, args.seed)
        probe = SpeedProbe()
        if args.trace:
            with probe:
                untraced = _passes(cli, wl, workdir, args.seconds / 2, probe)
            tracer = tracing.Tracer(probe.clock)
            tracer.install(supply_eq)
            try:
                with probe:
                    traced = _passes(cli, wl, workdir, args.seconds / 2, probe, tracer,
                                     keep_first=False)
            finally:
                tracer.uninstall()
            tracer.write_spans(str(scratch / f"spans-{args.workload}.csv"))
            timed, passes = untraced, untraced + traced
        else:
            with probe:
                timed = passes = _passes(cli, wl, workdir, args.seconds, probe)
        if len(timed) == 1:
            passes = passes + [_recheck(cli, wl, workdir)]
        # Before the checks, which hold whole output tables in memory.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rows = _judge(wl, passes, timed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Times come from untraced passes only.
    measured = timed + (traced if args.trace else [])
    sub = {}
    for s in SUBCOMMANDS:
        idx = [i for i, c in enumerate(wl.commands) if c.argv[0] == s]
        if idx:
            sub[f"{s}_s"] = statistics.median(
                sum(p.outcomes[i].seconds for i in idx) for p in timed)
    attempted = sum(r["runs"] for r in rows)
    failed = sum(r["failed_runs"] for r in rows)
    unexpected = [(r["command"], k) for r in rows for k in r["unexpected"]]
    values = {
        "wall_s": statistics.median(p.seconds for p in timed),
        "wall_ref": _wall_ref(timed),
        "setup_s": setup_ref * REF_KERNEL_S,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        values.update(_per_layer(traced, untraced, tracing.LAYERS))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    report = {
        **_metadata(args),
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "src_lines": _src_lines(tracing.LAYERS),
        "setup_ref": setup_ref,
        "passes": len(measured),
        "wall_s": values["wall_s"],
        "pass_s": [p.seconds for p in measured],
        "ref_s": [p.ref_s for p in measured],
        "subcommand_s": sub,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "unexpected_failures": unexpected,
        "commands": rows,
    }
    print(json.dumps({"report": report}))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for name, v in sub.items():
        print(f"# {name} = {v:.6g} s")
    print(f"# fail_share = {failed}/{attempted} = {failed / attempted:.4g}"
          f"{'' if not unexpected else '  UNEXPECTED: ' + str(unexpected)}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "supply_eq" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no supply_eq source under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread: the workloads gain nothing from a second one here,
    # and a single-threaded client is not slowed by load on the other core.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.pop("SUPPLY_EQ_SEED", None)
    return bench(args, spec)


if __name__ == "__main__":
    sys.exit(main())
