"""The three workloads: seeded inputs, command lists, checks, known failures.

Each workload is one closed-loop client: the benchmark process calls
``supply_eq.cli.run(argv)`` for one command after another, waiting for each.

Known failures are defects ROADMAP already lists.  They are run, checked and
counted as failures like any other; they only do not make a run incorrect.
Any other failure does.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

import checks

# Failure kinds are "exit <code>", "check <name>", "bytes" and "exception".
UNCERTIFIED = ("an 8-restart solve or a sampled hull probe did not certify "
               "(ROADMAP items 2 and 4)")
ONEPOP_BLIND = ("onepop verify sweeps only the equilibrium's own ray, so it "
                "accepts a single genre above beta* = 2 (ROADMAP item 3)")

# solve ignores the run seed: its 30x5 and 200x10 sets are drawn from this
# fixed generator seed, as ROADMAP fixes them, and its commands get it as
# --seed.  Its work is chaotic in both: over five fresh draws profit onepop on
# 200x10 took 1.8-5.1 s, and threshold on one fixed 200x10 set took 3-9 s over
# five hull seeds, a spread no regression bound could hold at one pass per run.
SOLVE_SEED = 0


@dataclass
class Command:
    name: str
    argv: list
    checks: dict
    known: dict = field(default_factory=dict)
    files: tuple = ()
    recheck: bool = False  # rerun, untimed, when a run makes only one pass


@dataclass
class Workload:
    commands: list
    warmup: list


def _write_embeddings(path, users):
    lines = ["user_id," + ",".join(f"f{k}" for k in range(users.shape[1]))]
    lines += [f"u{i}," + ",".join(format(v, ".17g") for v in row) for i, row in enumerate(users)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_ratings(path, rng, n_users, n_items, density):
    """user_id,item_id,rating rows with integer ratings 1-5; returns sum of r^2."""
    mask = rng.random((n_users, n_items)) < density
    empty = ~mask.any(axis=1)
    mask[empty, rng.integers(0, n_items, size=int(empty.sum()))] = True
    rating = rng.integers(1, 6, size=(n_users, n_items))
    users, items = np.nonzero(mask)
    vals = rating[users, items]
    lines = ["user_id,item_id,rating"]
    lines += [f"u{u},i{i},{r}" for u, i, r in zip(users, items, vals)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return float((vals.astype(float) ** 2).sum())


def _solve(workdir, _run_seed):
    seed = SOLVE_SEED
    rng = np.random.default_rng(seed)
    sets = {
        "basis2": (np.eye(2), "basis2"),
        "angle1": (np.array([[1.0, 0.0], [math.cos(1.0), math.sin(1.0)]]), "angle:1.0"),
    }
    for n, d in ((30, 5), (200, 10)):
        users = rng.random((n, d))
        path = os.path.join(workdir, f"users_{n}x{d}.csv")
        _write_embeddings(path, users)
        sets[f"{n}x{d}"] = (users, path)
    cmds = []
    for key, (users, src) in sets.items():
        # On these sets only the alignment solves of profit onepop fail to
        # certify; any other exit 4 is unexpected.
        known = {"exit 4": UNCERTIFIED} if key in ("30x5", "200x10") else {}
        base = ["--users", src, "--seed", str(seed)]
        cheap = key == "basis2"
        cmds.append(Command(f"nsw {key}", ["nsw", *base], {"fw_gap": checks.nsw(users, 2.0)},
                            recheck=cheap))
        if key == "30x5":
            cmds.append(Command("nsw 30x5 q3", ["nsw", *base, "--q", "3"],
                                {"fw_gap": checks.nsw(users, 3.0)}))
        cmds.append(Command(f"threshold {key}", ["threshold", *base],
                            {"bracket": checks.threshold(users, 0.05)}, recheck=cheap))
        cmds.append(Command(f"profit onepop {key}",
                            ["profit", *base, "--variant", "onepop", "--beta", "3"],
                            {"profit": checks.profit(users, 2, 3.0, 0.0)}, known, recheck=cheap))
    cmds.append(Command("profit p2 basis2",
                        ["profit", "--users", "basis2", "--seed", str(seed),
                         "--variant", "p2", "--beta", "4"],
                        {"profit": checks.profit(np.eye(2), 2, 4.0, 0.5)}, recheck=True))
    return cmds, [["nsw", "--users", "basis2"]]


def _simulate(workdir, seed):
    mc = ["--users", "basis2", "--samples", "1000000", "--grid", "400x400", "--seed", str(seed)]
    cmds = [
        Command("verify p2 beta4", ["verify", *mc, "--variant", "p2", "--beta", "4"],
                {"gap": checks.verify_gap(at_most=0.01), "profit": checks.verify_profit(0.5)}),
        Command("verify finitep P3", ["verify", *mc, "--variant", "finitep", "--producers", "3"],
                {"gap": checks.verify_gap(at_most=0.01), "profit": checks.verify_profit(0.0)}),
        Command("verify onepop beta1.5", ["verify", *mc, "--variant", "onepop", "--beta", "1.5"],
                {"gap": checks.verify_gap(at_most=0.01), "profit": checks.verify_profit(0.0)}),
        Command("verify onepop beta4", ["verify", *mc, "--variant", "onepop", "--beta", "4"],
                {"gap": checks.verify_gap(at_least=0.1), "profit": checks.verify_profit(0.0)},
                {"check gap": ONEPOP_BLIND}),
        Command("eq infinite", ["eq", "--variant", "infinite", "--theta", "1.0", "--beta", "8",
                                "--cdf-grid", "20001", "--seed", str(seed)],
                {"cdf": checks.eq_infinite(20001)}),
    ]
    warm = ["verify", "--users", "basis2", "--variant", "p2", "--beta", "4",
            "--samples", "1000", "--grid", "20x20"]
    return cmds, [warm]


def _export(workdir, seed):
    rng = np.random.default_rng(seed)
    ratings = os.path.join(workdir, "ratings.csv")
    sum_sq = _write_ratings(ratings, rng, 1000, 500, 0.05)
    out = {name: os.path.join(workdir, name) for name in (
        "users.csv", "p2_cdf.csv", "p2_samples.csv", "fp_cdf.csv", "fp_samples.csv")}
    s = ["--seed", str(seed)]
    eq = ["--n", "200000", "--cdf-grid", "1001"]
    cmds = [
        Command("nmf", ["nmf", "--ratings", ratings, "--factors", "8", "--out", out["users.csv"], *s],
                {"nmf": checks.nmf(1000, 8, sum_sq, "users.csv")}, files=("users.csv",)),
        Command("eq p2", ["eq", "--variant", "p2", "--beta", "4", *eq, *s,
                          "--out", out["p2_cdf.csv"], "--samples-out", out["p2_samples.csv"]],
                {"tables": checks.eq_p2(4.0, 1001, 200000, "p2_cdf.csv", "p2_samples.csv")},
                files=("p2_cdf.csv", "p2_samples.csv")),
        Command("eq finitep P4", ["eq", "--variant", "finitep", "--producers", "4", *eq, *s,
                                  "--out", out["fp_cdf.csv"], "--samples-out", out["fp_samples.csv"]],
                {"tables": checks.eq_finitep(4, 1001, 200000, "fp_cdf.csv", "fp_samples.csv")},
                files=("fp_cdf.csv", "fp_samples.csv")),
    ]
    warm_out = os.path.join(workdir, "warmup")
    warm = [
        ["nmf", "--ratings", ratings, "--factors", "8", "--epochs", "1", "--out", warm_out + ".csv"],
        ["eq", "--variant", "p2", "--beta", "4", "--n", "1000", "--cdf-grid", "11",
         "--out", warm_out + "_cdf.csv", "--samples-out", warm_out + "_samples.csv"],
    ]
    return cmds, warm


WORKLOADS = {"solve": _solve, "simulate": _simulate, "export": _export}


def build(name, workdir, seed) -> Workload:
    """Write the workload's inputs under workdir and return its commands."""
    return Workload(*WORKLOADS[name](workdir, seed))
