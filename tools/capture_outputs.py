"""Capture the output bytes of a checkout's command line, or compare two captures.

    python3 tools/capture_outputs.py CHECKOUT OUT.json
    python3 tools/capture_outputs.py --compare BASE.json NEW.json

The first form imports ``supply_eq`` from CHECKOUT/src and runs, through
``supply_eq.cli.run`` in this one process, every argv of the three perfbench
workloads (warm-ups, then commands, at run seeds 1 and 2), every
``supply-eq`` line of the README's "Command line" block, and the small argv
of SURFACE below, which use every option of every subcommand at least once.
The argv lists come from this repository's ``perfbench/workloads.py``,
``README.md`` and this file, so two checkouts are run on the same commands.
For each command it records the exit code (or the type of the exception it
raised) and the sha256 of its stdout, its stderr and every file it wrote,
with the temporary directory's path replaced by ``<work>``.  When stdout,
or a file the command wrote, parses as a JSON object, it also records one
sha256 per top-level key, of that key's value, and, where that value is a
list of objects, one per key of each element, named like
``condition_trace[3].excess``.

The second form prints every command whose record differs between the two
captures, or is in only one of them, and exits 1 when there is one.  Where
both records of a command digest its stdout, or one of its files, by key,
it names the keys that were added, removed or changed: the element keys
that changed in place of their list, and an added or removed element by its
index.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)

# Small argv that, between them, pass every option of every subcommand, run
# in a directory holding ratings.csv, ratings_uneven.csv and a 6x4 users
# file emb.csv.  They cover q = 1, 3 and inf, --alpha, each user source,
# every eq variant, a D > 2 verify, the exit-2 paths, four flags the command
# line no longer has (--tau, --gap, --init-scale, --min-entry), an infinite
# variant at beta = 5000, an infinite-variant samples file, an --out with no
# CDF table to write, a finitep verify at P = 300, and an nmf on a table
# where most users have one rating and one item has 85, so the user rows
# are one slot wide and that item's ratings span many rows.  A 10x5 users
# file and its feature gauge (features scaled by 0.5, 1, 2, 1, 3 under the
# same --alpha, which is the same game) run one verify above the threshold,
# and a profit and a verify at q = 1 and at q = inf each, and a threshold at
# q = 1.5 runs on emb.csv scaled by 1e150.  The planar variants read users
# files too: a p2 eq on the three users of emb3.csv (exit 2), an infinite eq
# on the near-parallel pair of near.csv, (1, 1, 0.3) and (1, 1.0001, 0.3), at
# beta = 2e9, and a p2 verify on the orthogonal 4-D pair of pair4.csv.  An
# onepop eq passes both --users and --n-users (exit 2).  Two-user edge inputs
# run threshold and an infinite eq each: the pair of near8.csv, (1, 1, 0.3) and
# (1, 1 + 1e-8, 0.3), at beta = 2e17, and a 60-degree pair scaled by 1e-200;
# a p2 verify runs on the orthogonal pair scaled by 1e200, a threshold on
# basis2 under --alpha 1e300,1e-300, and one on a single user.  Threshold
# runs on the pairs at 0.075 and 0.3 rad too, whose probes come within a few
# hundredths of beta* (711.4 and 44.8), where the first-order test needs the
# anchor to rounding.  Two commands run on two lanes: a p2 samples file of
# 20,001 rows (five CSV blocks, the last rendered alone) and an nmf on
# ratings_lanes.csv, whose two sides each hold more slots than the size past
# which nmf splits a half-step.  A finitep
# verify of 70,011 rounds has more than one block of them, in halves of
# 35,000 and 35,011 rounds, so its Monte Carlo sums split off the middle.
# A onepop verify runs on the 30x5 set of default_rng(0) at beta = 9.45,
# just past that set's threshold of about 9.36, where the best deviation
# earns about 0.0176.  A p2 verify at beta = 7 and a finitep verify at
# P = 7 take one radius on a 3x1 grid, which the deviation search does not
# read: each of the three sweep directions is priced at its exact best
# radius.
SURFACE = [
    ["nsw", "--users", "basis2", "--q", "1"],
    ["nsw", "--users", "orthonormal:3", "--q", "3", "--alpha", "1,2,0.5"],
    ["nsw", "--users", "emb.csv", "--q", "inf", "--seed", "3", "--out", "nsw.json"],
    ["nsw", "--users", "basis2", "--alpha", "1,1,1"],
    ["threshold", "--users", "angle:1.0"],
    ["threshold", "--users", "emb.csv", "--q", "3", "--alpha", "1,2,1,1.5", "--out", "thr.json"],
    ["threshold", "--users", "orthonormal:3", "--q", "1", "--seed", "4"],
    ["threshold", "--users", "basis2", "--q", "inf"],
    ["threshold", "--users", "angle:1.0", "--tau", "10"],
    ["threshold", "--users", "angle:1.0", "--gap", "0.5"],
    ["eq", "--variant", "onepop", "--users", "emb.csv", "--beta", "3", "--producers", "3",
     "--n", "50", "--cdf-grid", "5", "--seed", "2"],
    ["eq", "--variant", "onepop", "--n-users", "7", "--alpha", "2,1", "--q", "3", "--n", "20"],
    ["eq", "--variant", "p2", "--users", "basis2", "--beta", "4", "--cdf-grid", "9",
     "--out", "p2.csv", "--n", "30", "--samples-out", "p2s.csv"],
    ["eq", "--variant", "finitep", "--producers", "4", "--cdf-grid", "7", "--n", "10"],
    ["eq", "--variant", "infinite", "--theta", "1.0", "--beta", "12", "--n", "40",
     "--cdf-grid", "6", "--seed", "5"],
    ["eq", "--variant", "infinite", "--theta", "1.0", "--beta", "12", "--n", "40",
     "--samples-out", "inf.csv"],
    ["eq", "--variant", "infinite", "--theta", "1.0", "--beta", "12", "--producers", "5",
     "--n", "4"],
    ["eq", "--variant", "p2", "--n", "0", "--cdf-grid", "0"],
    ["eq", "--variant", "onepop", "--theta", "1.0", "--n", "3"],
    ["eq", "--variant", "p2", "--q", "3", "--cdf-grid", "5"],
    ["eq", "--variant", "infinite", "--theta", "1.0", "--beta", "5000", "--cdf-grid", "3",
     "--n", "2"],
    ["eq", "--variant", "p2", "--n", "3", "--out", "f.csv"],
    ["eq", "--variant", "p2", "--n", "20001", "--samples-out", "p2_lanes.csv"],
    ["eq", "--variant", "p2", "--users", "emb3.csv", "--beta", "4", "--cdf-grid", "3"],
    ["eq", "--variant", "infinite", "--users", "near.csv", "--beta", "2e9", "--cdf-grid", "3",
     "--n", "2"],
    ["eq", "--variant", "onepop", "--users", "emb.csv", "--n-users", "5", "--cdf-grid", "3"],
    ["verify", "--users", "basis2", "--variant", "p2", "--beta", "4", "--samples", "2000",
     "--grid", "20x20", "--seed", "1"],
    ["verify", "--users", "basis2", "--variant", "finitep", "--producers", "3",
     "--samples", "2000", "--grid", "20x20", "--out", "ver.json"],
    ["verify", "--users", "emb.csv", "--variant", "onepop", "--beta", "3", "--q", "3",
     "--alpha", "1,2,1,1.5", "--samples", "2000", "--grid", "20x20"],
    ["verify", "--users", "angle:1.0", "--variant", "onepop", "--beta", "1.5", "--q", "1",
     "--samples", "2000", "--grid", "20x20"],
    ["verify", "--users", "basis2", "--variant", "p2", "--grid", "0x10"],
    ["verify", "--users", "basis2", "--variant", "finitep", "--producers", "300",
     "--samples", "1000", "--grid", "5x5"],
    ["verify", "--users", "emb5.csv", "--variant", "onepop", "--beta", "12", "--grid", "20x20"],
    ["verify", "--users", "pair4.csv", "--variant", "p2", "--beta", "4", "--samples", "2000",
     "--grid", "20x20"],
    ["verify", "--users", "emb5_gauge.csv", "--alpha", "0.5,1,2,1,3", "--variant", "onepop",
     "--beta", "12", "--grid", "20x20"],
    ["verify", "--users", "basis2", "--variant", "finitep", "--producers", "3",
     "--samples", "70011", "--grid", "20x20"],
    ["verify", "--users", "emb30x5.csv", "--variant", "onepop", "--beta", "9.45",
     "--samples", "2000"],
    ["verify", "--users", "basis2", "--variant", "p2", "--beta", "7", "--grid", "3x1"],
    ["verify", "--users", "basis2", "--variant", "finitep", "--producers", "7", "--grid", "3x1"],
    *([*argv, "--q", q, *users]
      for q in ("1", "inf")
      for argv in (["profit", "--variant", "onepop", "--beta", "12"],
                   ["verify", "--variant", "onepop", "--beta", "12", "--samples", "2000",
                    "--grid", "20x20"])
      for users in (["--users", "emb5.csv"],
                    ["--users", "emb5_gauge.csv", "--alpha", "0.5,1,2,1,3"])),
    ["threshold", "--users", "emb_1e150.csv", "--q", "1.5"],
    ["profit", "--users", "basis2", "--variant", "finitep", "--producers", "3"],
    ["profit", "--users", "emb.csv", "--variant", "onepop", "--beta", "3", "--q", "inf",
     "--alpha", "1,2,1,1.5", "--seed", "9", "--out", "prof.json"],
    ["profit", "--users", "orthonormal:3", "--variant", "onepop", "--q", "1"],
    ["profit", "--users", "basis2", "--variant", "p2", "--producers", "3"],
    ["threshold", "--users", "near8.csv"],
    ["threshold", "--users", "angle:0.075"],
    ["threshold", "--users", "angle:0.3"],
    ["eq", "--variant", "infinite", "--users", "near8.csv", "--beta", "2e17", "--cdf-grid", "3",
     "--n", "2"],
    ["verify", "--users", "orth_1e200.csv", "--variant", "p2", "--beta", "4", "--grid", "20x20",
     "--samples", "1000"],
    ["threshold", "--users", "sixty_1e-200.csv"],
    ["eq", "--variant", "infinite", "--users", "sixty_1e-200.csv", "--beta", "8",
     "--cdf-grid", "3", "--n", "2"],
    ["threshold", "--users", "basis2", "--alpha", "1e300,1e-300"],
    ["threshold", "--users", "orthonormal:1"],
    ["nmf", "--ratings", "ratings.csv", "--factors", "3", "--epochs", "20", "--seed", "4",
     "--out", "nmf_users.csv"],
    ["nmf", "--ratings", "ratings.csv", "--factors", "2", "--init-scale", "0.2",
     "--out", "scaled.csv"],
    ["nmf", "--ratings", "ratings.csv", "--factors", "2", "--min-entry", "1e-3",
     "--out", "floored.csv"],
    ["nmf", "--ratings", "ratings.csv", "--factors", "0", "--out", "none.csv"],
    ["nmf", "--ratings", "ratings_uneven.csv", "--factors", "3", "--epochs", "30", "--seed", "2",
     "--out", "nmf_uneven.csv"],
    ["nmf", "--ratings", "ratings_lanes.csv", "--factors", "4", "--epochs", "20", "--seed", "3",
     "--out", "nmf_lanes.csv"],
    ["bogus"],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(value) -> str:
    return _sha(json.dumps(value, sort_keys=True).encode())


def _key_digests(text) -> dict | None:
    """One sha256 per top-level key of a JSON object, of that key's value, and
    one per key of each element of a top-level list of objects, or None when
    text is not a JSON object."""
    try:
        report = json.loads(text)
    except ValueError:
        return None
    if not isinstance(report, dict):
        return None
    digests = {}
    for key, value in report.items():
        digests[key] = _digest(value)
        if isinstance(value, list) and value and all(isinstance(e, dict) for e in value):
            for i, element in enumerate(value):
                digests.update({f"{key}[{i}].{k}": _digest(v) for k, v in element.items()})
    return digests


def _readme_commands() -> list:
    body = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = body.split("```\n", 2)[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("supply-eq ")]


def _write_readme_inputs(workdir: str) -> None:
    # The ratings table the README's nmf line reads, as tests/test_readme.py writes it.
    rows = [f"u{u},i{i},{1 + (u * 7 + i * 3) % 5}" for u in range(12) for i in range(10)
            if (u + i) % 3]
    with open(os.path.join(workdir, "ratings.csv"), "w", encoding="utf-8") as fh:
        fh.write("user_id,item_id,rating\n" + "\n".join(rows) + "\n")


def _write_users(workdir: str, name: str, rows: list) -> None:
    lines = [f"u{u}," + ",".join(str(v) for v in row) for u, row in enumerate(rows)]
    head = "user_id," + ",".join(f"f{k}" for k in range(len(rows[0])))
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        fh.write(head + "\n" + "\n".join(lines) + "\n")


def _write_surface_inputs(workdir: str) -> None:
    _write_readme_inputs(workdir)
    emb = [[1 + (u * 7 + k * 3) % 5 for k in range(4)] for u in range(6)]
    _write_users(workdir, "emb.csv", emb)
    _write_users(workdir, "emb3.csv", emb[:3])
    _write_users(workdir, "near.csv", [[1.0, 1.0, 0.3], [1.0, 1.0001, 0.3]])
    _write_users(workdir, "near8.csv", [[1.0, 1.0, 0.3], [1.0, 1.0 + 1e-8, 0.3]])
    _write_users(workdir, "orth_1e200.csv", [[1e200, 0.0], [0.0, 1e200]])
    _write_users(workdir, "sixty_1e-200.csv", [[1e-200, 0.0], [1e-200, 3.0**0.5 * 1e-200]])
    _write_users(workdir, "pair4.csv", [[0.6, 0.0, 0.8, 0.0], [0.0, 1.5, 0.0, 0.0]])
    _write_users(workdir, "emb_1e150.csv", [[v * 1e150 for v in row] for row in emb])
    emb5 = [[1 + (u * 5 + k * 3) % 7 for k in range(5)] for u in range(10)]
    _write_users(workdir, "emb5.csv", emb5)
    _write_users(workdir, "emb5_gauge.csv",
                 [[v * d for v, d in zip(row, (0.5, 1, 2, 1, 3))] for row in emb5])
    _write_users(workdir, "emb30x5.csv", np.random.default_rng(0).random((30, 5)).tolist())
    # 80 users rate only item "all", 5 rate it and 12 of 20 others each, and
    # "z" rates "orphan" 0 and is dropped: a kept user has 1.7 ratings on
    # average, each other item 3, and "all" has 85.
    rows = [f"u{u},all,{1 + u % 5}" for u in range(80)]
    for u in range(80, 85):
        rows.append(f"u{u},all,{u * 3 % 6}")
        rows += [f"u{u},m{j},{(u + 2 * j) % 6}" for j in range(20) if (u * 7 + j * 11) % 5 < 3]
    rows.insert(25, "z,orphan,0")
    with open(os.path.join(workdir, "ratings_uneven.csv"), "w", encoding="utf-8") as fh:
        fh.write("user_id,item_id,rating\n" + "\n".join(rows) + "\n")
    # 1,000 users x 400 items at 5% from a fixed seed: about 20 ratings a user
    # and 50 an item, so each side lays out in rows 16 slots wide, about
    # 32,000 and 25,600 slots.
    rng = random.Random(5)
    rows = [f"u{u},m{i},{rng.randint(1, 5)}" for u in range(1000) for i in range(400)
            if rng.random() < 0.05]
    with open(os.path.join(workdir, "ratings_lanes.csv"), "w", encoding="utf-8") as fh:
        fh.write("user_id,item_id,rating\n" + "\n".join(rows) + "\n")


def _stats(workdir: str) -> dict:
    return {p.name: (p.stat().st_mtime_ns, p.stat().st_size)
            for p in Path(workdir).iterdir() if p.is_file()}


def _record(run, argv: list, workdir: str) -> dict:
    """Run one argv in workdir; its exit code, or the type of the exception it
    raised, and the digests of what it wrote."""
    before = _stats(workdir)
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        # Every warning is printed, whatever ran before in this process.
        warnings.simplefilter("always")
        try:
            rc = run(argv)
        except Exception as exc:
            rc = f"exception {type(exc).__name__}"
    after = _stats(workdir)
    files, file_keys = {}, {}
    for name in sorted(after):
        if before.get(name) != after[name]:
            data = Path(workdir, name).read_bytes()
            files[name] = _sha(data)
            keys = _key_digests(data)
            if keys is not None:
                file_keys[name] = keys
    stdout = out.getvalue().replace(workdir, "<work>")
    rec = {"exit": rc, "stdout": _sha(stdout.encode()),
           "stderr": _sha(err.getvalue().replace(workdir, "<work>").encode()), "files": files}
    keys = _key_digests(stdout)
    if keys is not None:
        rec["stdout_keys"] = keys
    if file_keys:
        rec["file_keys"] = file_keys
    return rec


def _key_changes(old: dict | None, cur: dict | None) -> str:
    """The keys added, removed and changed between two key digests, or ''.  A
    list whose element keys changed is named by those keys, and an element
    added or removed by its index alone."""
    if old is None or cur is None:
        return ""
    changed = [k for k in old if k in cur and old[k] != cur[k]]
    changed = [k for k in changed if not any(j.startswith(k + "[") for j in changed)]
    groups = [("added", list(dict.fromkeys(k.split(".")[0] for k in cur if k not in old))),
              ("removed", list(dict.fromkeys(k.split(".")[0] for k in old if k not in cur))),
              ("changed", changed)]
    return "; ".join(f"{verb} {', '.join(keys)}" for verb, keys in groups if keys)


def capture(checkout: Path) -> dict:
    sys.path[:0] = [str(checkout / "src"), str(ROOT / "perfbench")]
    import supply_eq.cli
    import workloads

    if Path(supply_eq.cli.__file__).resolve().parents[2] != checkout.resolve():
        raise SystemExit(f"supply_eq was imported from {supply_eq.cli.__file__}, "
                         f"not from {checkout}")
    records = {}
    cwd = os.getcwd()
    try:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                with tempfile.TemporaryDirectory() as workdir:
                    os.chdir(workdir)
                    load = workloads.build(name, workdir, seed)
                    argvs = [("warmup", a) for a in load.warmup]
                    argvs += [(c.name, c.argv) for c in load.commands]
                    for label, argv in argvs:
                        line = " ".join(argv).replace(workdir, "<work>")
                        records[f"{name} seed {seed} {label}: {line}"] = _record(
                            supply_eq.cli.run, argv, workdir)
        with tempfile.TemporaryDirectory() as workdir:
            os.chdir(workdir)
            _write_readme_inputs(workdir)
            for argv in _readme_commands():
                records["README: " + " ".join(argv)] = _record(supply_eq.cli.run, argv, workdir)
        with tempfile.TemporaryDirectory() as workdir:
            os.chdir(workdir)
            _write_surface_inputs(workdir)
            for argv in SURFACE:
                records["surface: " + " ".join(argv)] = _record(supply_eq.cli.run, argv, workdir)
    finally:
        os.chdir(cwd)
    return records


def compare(base: dict, new: dict) -> list:
    lines = []
    for key in sorted(set(base) | set(new)):
        if key not in new:
            lines.append(f"only in base: {key}")
        elif key not in base:
            lines.append(f"only in new: {key}")
        else:
            # A record's key digests restate its stdout and file digests, and
            # a capture made before they were recorded has none.
            old, cur = base[key], new[key]
            parts = [k for k in ("exit", "stdout", "stderr", "files") if old[k] != cur[k]]
            if not parts:
                continue
            named = []
            if "stdout" in parts:
                named.append(_key_changes(old.get("stdout_keys"), cur.get("stdout_keys")))
            old_files, cur_files = old.get("file_keys", {}), cur.get("file_keys", {})
            for name in sorted(set(old_files) & set(cur_files)):
                changes = _key_changes(old_files[name], cur_files[name])
                if changes:
                    named.append(f"{name}: {changes}")
            named = "; ".join(n for n in named if n)
            keys = f" [{named}]" if named else ""
            lines.append(f"differs in {', '.join(parts)}{keys}: {key}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("paths", nargs=2, metavar=("CHECKOUT_OR_BASE", "OUT_OR_NEW"))
    parser.add_argument("--compare", action="store_true",
                        help="compare two capture files instead of capturing")
    ns = parser.parse_args(argv)
    if ns.compare:
        base, new = (json.loads(Path(p).read_text()) for p in ns.paths)
        lines = compare(base, new)
        print("\n".join(lines) if lines else f"identical: {len(base)} commands")
        return 1 if lines else 0
    # Set before capture() first imports numpy, as perfbench/run.py does.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    records = capture(Path(ns.paths[0]).resolve())
    Path(ns.paths[1]).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"captured {len(records)} commands into {ns.paths[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
