"""Command-line front end.

Six subcommands map onto the library surface: ``nsw`` (best single direction),
``threshold`` (specialization thresholds with the hull-test trace), ``eq``
(closed-form equilibrium CDF tables and samples as CSV), ``verify`` (full
numerical equilibrium check), ``profit`` (equilibrium profit and the
positive-profit flag), and ``nmf`` (ratings CSV to embeddings CSV).  The CLI
only parses arguments, builds library objects and renders their results:
validation and per-family behaviour stay in the library.

Reports are flat JSON objects with snake_case keys and embed the resolved run
configuration.  Floats are serialized at 17 significant digits, infinities as
the strings "inf"/"-inf", so identical argv plus seed reproduce every output
byte for byte.  Exit codes: 0 success, 2 usage error, 3 input-data error,
4 non-convergence (the report is still written).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .closedform import (
    FinitePCurve,
    OnePopulation,
    QuarterCircle,
    eq_sample,
    make_infinite_two_genre,
    make_one_population,
)
from .geometry import (
    CostSpec,
    UserSet,
    angle_pair,
    basis_pair,
    orthonormal_users,
    two_user_plane,
)
from .ingest import (
    InputDataError,
    NmfConfig,
    load_embeddings_csv,
    load_ratings_csv,
    nmf_factorize,
    save_embeddings_csv,
)
from .optimize import nsw_direction
from .threshold import HullTestConfig, threshold_report
from .verify import best_response_gap, equilibrium_profit, positive_profit_condition

__all__ = ["RunConfig", "run", "main"]

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_INPUT = 3
_EXIT_NOCONV = 4

# CSV rows formatted per % operation by _write_rows.
_ROW_BLOCK = 4096


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation parameters, embedded in every JSON report."""

    subcommand: str
    users_source: str | None = None
    variant: str | None = None
    q: float | None = None
    beta: float | None = None
    alpha: tuple | None = None
    producers: int | None = None
    samples: int | None = None
    n_users: int | None = None
    theta: float | None = None
    seed: int = 0
    cdf_grid: int | None = None
    grid_angles: int | None = None
    grid_radii: int | None = None
    factors: int | None = None
    epochs: int | None = None
    format: str = "json"
    out: str | None = None


_RUN_FIELDS = {f.name for f in fields(RunConfig)}


def _run_config(ns, **resolved) -> dict:
    """The report's run_config: the RunConfig fields the namespace holds, alpha
    parsed, then the values the subcommand resolved itself."""
    given = {k: v for k, v in vars(ns).items() if k in _RUN_FIELDS}
    if given.get("alpha") is not None:
        given["alpha"] = tuple(_parse_alpha(given["alpha"]))
    return asdict(RunConfig(subcommand=ns.cmd, **{**given, **resolved}))


def _render(value, indent):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_render(v, indent + 1)}' for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        items = ",\n".join(f"{pad}  {_render(v, indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, np.ndarray):
        return _render(value.tolist(), indent)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        if math.isnan(v):
            return '"nan"'
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_json(report: dict) -> str:
    return _render(report, 0) + "\n"


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_rows(head: str, table: np.ndarray, out: str | None) -> None:
    """Write a CSV header line, then the rows of a 2-D float table at 17
    significant digits, to out or to stdout.

    Rows are formatted _ROW_BLOCK at a time by one % operation and written as
    they are formatted; '%.17g' % x is the same text as format(x, '.17g')
    for every Python float.
    """
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with (
        contextlib.nullcontext(sys.stdout)
        if out is None
        else open(out, "w", encoding="utf-8", newline="\n")
    ) as fh:
        fh.write(head + "\n")
        for start in range(0, len(table), _ROW_BLOCK):
            block = table[start:start + _ROW_BLOCK]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _parse_users(source: str | None) -> UserSet | None:
    if source is None:
        return None
    if source == "basis2":
        return basis_pair()
    if source.startswith("angle:"):
        return angle_pair(float(source[len("angle:"):]))
    if source.startswith("orthonormal:"):
        return orthonormal_users(int(source[len("orthonormal:"):]))
    return load_embeddings_csv(source)


def _parse_alpha(raw: str | None) -> np.ndarray | None:
    if raw is None:
        return None
    return np.array([float(tok) for tok in raw.split(",")])


def _resolve_seed(ns) -> int:
    if ns.seed is not None:
        return ns.seed
    env = os.environ.get("SUPPLY_EQ_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"SUPPLY_EQ_SEED must be an integer, got {env!r}") from None
    return 0


def _spec(ns) -> CostSpec:
    beta = ns.beta if ns.beta is not None else 2.0
    return CostSpec(q=ns.q, beta=beta, alpha=_parse_alpha(ns.alpha))


def _build_dist(ns, users, spec, n_users=None, theta=None):
    """Distribution for the chosen variant plus an optimizer-converged flag."""
    producers = ns.producers
    if ns.variant == "onepop":
        if n_users is None:
            n_users = users.n_users if users is not None else 1
        if users is None:
            return OnePopulation(
                direction=np.array([1.0, 0.0]),
                n_users=n_users,
                beta=spec.beta,
                producers=producers,
            ), True
        if users.n_users == 1:
            return make_one_population(users.embeddings[0], n_users, spec, producers), True
        res = nsw_direction(users, spec)
        dist = OnePopulation(
            direction=res.point, n_users=n_users, beta=spec.beta, producers=producers
        )
        return dist, res.converged
    if spec.q != 2.0 or spec.alpha is not None:
        raise ValueError("planar variants are defined for q = 2 with unit weights")
    if users is None and theta is not None:
        users = angle_pair(theta)
    if users is None:
        if ns.variant == "infinite":
            raise ValueError("the infinite variant needs --users or --theta")
        users = basis_pair()
    if users.n_users != 2:
        raise ValueError("this variant takes exactly two users")
    plane = two_user_plane(*users.embeddings)
    if ns.variant == "p2":
        if producers not in (None, 2):
            raise ValueError("the p2 variant fixes producers = 2")
        return QuarterCircle(beta=spec.beta, plane=plane), True
    if ns.variant == "finitep":
        if spec.beta != 2.0:
            raise ValueError("the finitep variant fixes beta = 2")
        return FinitePCurve(producers=producers, plane=plane), True
    return make_infinite_two_genre(plane, spec.beta), True


def _cmd_nsw(ns) -> int:
    users = _parse_users(ns.users)
    spec = _spec(ns)
    res = nsw_direction(users, spec)
    report = {
        "direction": res.point,
        "nsw_value": res.value,
        "kkt_residual": res.kkt_residual,
        "iters": res.iters,
        "converged": res.converged,
        "run_config": _run_config(ns, users_source=ns.users),
    }
    _write_text(render_json(report), ns.out)
    return _EXIT_OK if res.converged else _EXIT_NOCONV


def _cmd_threshold(ns) -> int:
    users = _parse_users(ns.users)
    spec = _spec(ns)
    cfg = HullTestConfig(
        trials=ns.trials, hull_points=ns.hull_points, tau=ns.tau, gap=ns.gap, seed=ns.seed
    )
    rep = threshold_report(users, spec, cfg)
    report = {
        "beta_star_closed": rep.beta_star_closed,
        "beta_upper": rep.beta_upper,
        "beta_estimate": rep.beta_estimate,
        "condition_trace": [asdict(p) for p in rep.condition_trace],
        "run_config": _run_config(ns, users_source=ns.users),
    }
    _write_text(render_json(report), ns.out)
    unresolved = any(p.holds is None for p in rep.condition_trace)
    return _EXIT_NOCONV if unresolved else _EXIT_OK


def _cmd_eq(ns) -> int:
    if ns.cdf_grid < 0 or ns.n < 0:
        raise ValueError("--n and --cdf-grid must be >= 0")
    if ns.cdf_grid == 0 and ns.n == 0:
        raise ValueError("nothing to emit: pass --cdf-grid and/or --n")
    users = _parse_users(ns.users)
    spec = _spec(ns)
    dist, converged = _build_dist(ns, users, spec, ns.n_users, ns.theta)
    if ns.cdf_grid > 0:
        xs = np.linspace(0.0, dist.cdf_max, ns.cdf_grid)
        cdf = [dist.cdf_point(x) for x in xs.tolist()]
        _write_rows(f"{dist.cdf_axis},cdf", np.column_stack([xs, cdf]), ns.out)
    if ns.n > 0:
        pts = eq_sample(dist, ns.n, ns.seed)
        _write_rows(",".join(f"f{k}" for k in range(pts.shape[1])), pts, ns.samples_out)
    return _EXIT_OK if converged else _EXIT_NOCONV


def _parse_grid(raw: str) -> tuple[int, int]:
    parts = raw.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"grid must look like 200x200, got {raw!r}")
    return int(parts[0]), int(parts[1])


def _cmd_verify(ns) -> int:
    users = _parse_users(ns.users)
    spec = _spec(ns)
    grid = _parse_grid(ns.grid)
    dist, converged = _build_dist(ns, users, spec)
    rep = best_response_gap(
        dist, users, spec, ns.producers, n_samples=ns.samples, grid=grid, seed=ns.seed
    )
    rc = _run_config(ns, users_source=ns.users, grid_angles=grid[0], grid_radii=grid[1])
    _write_text(render_json({**asdict(rep), "run_config": rc}), ns.out)
    if not converged or rep.positive_profit is None:
        return _EXIT_NOCONV
    return _EXIT_OK


def _cmd_profit(ns) -> int:
    users = _parse_users(ns.users)
    spec = _spec(ns)
    dist, converged = _build_dist(ns, users, spec)
    eq = equilibrium_profit(dist, users, spec, ns.producers)
    flag, qval, qthr = positive_profit_condition(users, spec, ns.producers)
    report = {
        "eq_profit": eq,
        "positive_profit": flag,
        "q_alignment": qval,
        "q_threshold": qthr,
        "run_config": _run_config(ns, users_source=ns.users),
    }
    _write_text(render_json(report), ns.out)
    if not converged or flag is None:
        return _EXIT_NOCONV
    return _EXIT_OK


def _cmd_nmf(ns) -> int:
    table = load_ratings_csv(ns.ratings)
    cfg = NmfConfig(
        factors=ns.factors,
        epochs=ns.epochs,
        seed=ns.seed,
        init_scale=ns.init_scale,
        min_entry=ns.min_entry,
    )
    res = nmf_factorize(table, cfg)
    save_embeddings_csv(res.users, ns.out, user_ids=res.user_ids)
    report = {
        "n_users": res.users.n_users,
        "n_items": len(res.item_ids),
        "dropped_users": list(res.dropped_users),
        "final_objective": float(res.objective_trace[-1]),
        "run_config": _run_config(ns, users_source=ns.ratings, format="csv"),
    }
    sys.stdout.write(render_json(report))
    return _EXIT_OK


def _add_common(p, users_required: bool) -> None:
    p.add_argument(
        "--users",
        required=users_required,
        help="basis2 | angle:<theta> | orthonormal:<N> | path to embeddings CSV",
    )
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--alpha", help="comma-separated positive weights")
    p.add_argument("--seed", type=int, default=None, help="falls back to $SUPPLY_EQ_SEED, then 0")
    p.add_argument("--out", help="output path (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supply-eq",
        description="Supply-side equilibria of producer competition under "
        "personalized recommendations.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("nsw", help="best single-genre direction and its welfare value")
    _add_common(p, users_required=True)
    p.add_argument("--beta", type=float, default=2.0)
    p.set_defaults(fn=_cmd_nsw)

    p = sub.add_parser("threshold", help="specialization threshold report")
    _add_common(p, users_required=True)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--hull-points", type=int, default=75)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--gap", type=float, default=0.05)
    p.set_defaults(fn=_cmd_threshold)

    p = sub.add_parser("eq", help="equilibrium CDF table and samples as CSV")
    _add_common(p, users_required=False)
    p.add_argument("--variant", required=True, choices=["onepop", "p2", "finitep", "infinite"])
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--producers", type=int, default=2)
    p.add_argument("--n-users", type=int, default=None, help="population size for onepop")
    p.add_argument("--theta", type=float, default=None, help="user angle for infinite")
    p.add_argument("--n", type=int, default=0, help="sample count")
    p.add_argument("--cdf-grid", type=int, default=0, help="CDF table size")
    p.add_argument("--samples-out", help="samples path (default stdout)")
    p.set_defaults(fn=_cmd_eq)

    p = sub.add_parser("verify", help="numerical equilibrium verification report")
    _add_common(p, users_required=True)
    p.add_argument("--variant", required=True, choices=["onepop", "p2", "finitep"])
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--producers", type=int, default=2)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--grid", default="200x200")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("profit", help="equilibrium profit and positive-profit condition")
    _add_common(p, users_required=True)
    p.add_argument("--variant", required=True, choices=["onepop", "p2", "finitep"])
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--producers", type=int, default=2)
    p.set_defaults(fn=_cmd_profit)

    p = sub.add_parser("nmf", help="factorize a ratings CSV into embeddings")
    p.add_argument("--ratings", required=True, help="ratings CSV path")
    p.add_argument("--factors", type=int, required=True)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--init-scale", type=float, default=0.1)
    p.add_argument("--min-entry", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="embeddings CSV path")
    p.set_defaults(fn=_cmd_nmf)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_OK if exc.code in (0, None) else _EXIT_USAGE
    try:
        ns.seed = _resolve_seed(ns)
        return ns.fn(ns)
    except InputDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
