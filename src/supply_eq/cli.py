"""Command-line front end.

Six subcommands map onto the library surface: ``nsw`` (best single direction),
``threshold`` (specialization thresholds with the probe trace), ``eq``
(closed-form equilibrium CDF tables and samples as CSV), ``verify`` (full
numerical equilibrium check), ``profit`` (equilibrium profit), and ``nmf``
(ratings CSV to embeddings CSV).  ``verify`` and ``profit`` share one report
path, which ends both reports with the positive-profit flag of one alignment
solve.  The CLI only parses arguments, builds library objects and renders
their results: validation and per-family behaviour stay in the library.
The argument parser is built once per process and holds no per-call state, so
repeated ``run`` calls in one process behave as separate invocations.

Reports are flat JSON objects with snake_case keys and embed, as run_config,
the subcommand and its options as given.  Floats are serialized at 17
significant digits, infinities as the strings "inf"/"-inf", so identical argv
reproduces every output byte for byte.  ``--seed`` (default 0) is read by
``eq``, ``verify`` and ``nmf``; ``nsw``, ``threshold`` and ``profit`` accept
it and ignore it.  Exit codes: 0 success, 2 usage error, 3 input-data error,
failed linear algebra, a non-finite intermediate (``NumericalError``) or an
array too large to allocate (``MemoryError``), 4 non-convergence (the report
is still written).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from ._lanes import Lanes
from .closedform import FinitePCurve, InfiniteTwoGenre, OnePopulation, QuarterCircle, eq_sample
from .geometry import (
    CostSpec,
    NumericalError,
    UserSet,
    angle_pair,
    basis_pair,
    orthonormal_users,
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
from .threshold import threshold_report
from .verify import best_response_gap, positive_profit_condition

__all__ = ["run", "main"]

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_INPUT = 3
_EXIT_NOCONV = 4

# CSV rows formatted per block by _write_rows.
_ROW_BLOCK = 4096


def _run_config(ns) -> dict:
    """The report's run_config: the subcommand, then each of its options as
    parsed from argv (or its default), under its argparse dest name."""
    return {"subcommand": ns.cmd, **{k: v for k, v in vars(ns).items() if k not in ("cmd", "fn")}}


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


def _veltkamp(a):
    """Split doubles into 26-bit high halves and exact remainders."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


class _G17:
    """A vectorised '%.17g' for CSV blocks, with the tables it reads.

    A value is laid out in 48 bytes; NUL bytes are padding:

    - 0-7: the head, right-aligned: the separator before the value, '-',
      '0.' and zeros when the decimal exponent e is in [-4, -1], and the
      first digit d0; head row ((first column * 2 + negative) * 6
      + min(max(-e, 0), 5)) * 10 + d0;
    - 8-23: digits 1-16, the integer part when e >= 0;
    - 27: the decimal point;
    - 28-43: digits 1-16 again, the fraction when e >= 0 or e <= -5;
    - 44-47: the exponent 'e-05' to 'e-99' when e <= -5 (exponent row e + 99).

    keep says which of the 48 bytes '%.17g' prints, by e in [-5, 16] (-5
    standing for every e <= -5), the place L in [0, 16] of the last nonzero
    digit, and the sign: row ((e + 5) * 17 + L) * 2 + negative.
    """

    def __init__(self):
        # |x| is scaled by 10**s = 2**s * 5**s with s in [0, 115].  p5 + p5_rest
        # is 5**s as a double-double, exact for s <= 45, and p5_rest is 0 for
        # s <= 22; p5_h and p5_l are p5's halves for Dekker's exact product.
        self.p5 = np.array([float(5**s) for s in range(116)])
        self.p5_rest = np.array([float(5**s - int(float(5**s))) for s in range(116)])
        self.p5_h, self.p5_l = _veltkamp(self.p5)
        # For each 4-digit group g: its ASCII digits as one uint32, and the
        # 1-based place of its last nonzero digit (-16 for g = 0).
        g = np.arange(10000, dtype=np.int32)
        digits = (g[:, None] // np.array([1000, 100, 10, 1], np.int32)) % 10
        self.digits4 = (digits + 48).astype(np.uint8).view(np.uint32).ravel()
        self.last4 = np.where(g == 0, -16, 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0))
        self.head = np.frombuffer(b"".join(
            (sep + b"-" * neg + (b"0." + b"0" * (c - 1) if 0 < c < 5 else b"")
             + bytes([48 + d0])).rjust(8, b"\0")
            for sep in (b",", b"\n") for neg in (0, 1) for c in range(6) for d0 in range(10)
        ), np.uint64)
        self.exponent = np.frombuffer(
            "".join(f"e{e:+03d}" for e in range(-99, 17)).encode(), np.uint32)
        self.point = np.frombuffer(b"\0\0\0.", np.uint32)[0]
        e = np.arange(-5, 17)[:, None, None, None]
        last = np.arange(17)[None, :, None, None]
        neg = np.arange(2)[None, None, :, None]
        b = np.arange(48)
        sci = e < -4
        small = (e < 0) & ~sci
        point = np.where(sci, 0, e)  # the place the decimal point follows
        frac = ~small & (last > point)
        self.keep = (
            ((b < 8) & (b >= 6 - neg - np.where(small, 1 - e, 0)))
            | ((b >= 8) & (b < 24) & (b - 7 <= np.where(small, last, point)))
            | ((b == 27) & frac)
            | ((b >= 28) & (b < 44) & frac & (b - 27 > point) & (b - 27 <= last))
            | ((b >= 44) & sci)
        ).reshape(-1, 48)

    def times_pow10(self, x, s):
        """x * 10**s as p + err, where p = fl(y * p5) for y = x * 2**s and err
        is p's rounding error plus y * p5_rest: exact for s <= 22, and within
        2**-47 of x * 10**s while that is below 1e17."""
        y = np.ldexp(x, s)
        yh, yl = _veltkamp(y)
        bh, bl = self.p5_h.take(s), self.p5_l.take(s)
        p = y * self.p5.take(s)
        err = yl * bl - (((p - yh * bh) - yl * bh) - yh * bl)
        return p, err + y * self.p5_rest.take(s)

    def round17(self, a):
        """The decimal exponent e and the 17-digit integer d of each x in a, a
        float array with 1e-99 <= x < 1e17: d is x * 10**(16 - e) rounded half
        to even, in [1e16, 1e17).  None when, for some e < -6, where the
        product is not exact, x is too near a rounding tie to tell."""
        # log10 can be one off near powers of ten; the product says so.
        e = np.floor(np.log10(a)).astype(np.intp)
        np.clip(e, -99, 16, out=e)
        hi, lo = self.times_pow10(a, 16 - e)
        off = ((hi - 1e16) + lo < 0).view(np.int8) - ((hi - 1e17) + lo >= 0)
        fix = np.flatnonzero(off)
        if len(fix):
            e[fix] -= off[fix]
            hi[fix], lo[fix] = self.times_pow10(a[fix], 16 - e[fix])
        # hi is an even integer, so rounding lo half to even rounds hi + lo.
        r = np.rint(lo)
        if ((np.abs(np.abs(lo - r) - 0.5) < 2**-30) & (e < -6)).any():
            return None
        d = hi.astype(np.int64)
        d += r.astype(np.int64)
        # Some doubles just below a power of ten round up to it.
        up = np.flatnonzero(d == 10**17)
        e[up] += 1
        d[up] = 10**16
        return e, d

    def rows(self, block: np.ndarray) -> str | None:
        """The rows of a 2-D float block as '%.17g' CSV text, or None when a
        value is outside the domain (zeros and |x| in [1e-99, 1e17)) or
        round17 cannot round one.  The 17 digits of each value and the fixed
        text around them are laid out in 48 bytes, and one boolean compaction
        keeps the bytes '%.17g' prints."""
        a = np.abs(block).ravel()
        zero = a == 0
        inside = a < 1e17
        inside &= (a >= 1e-99) | zero
        if not inside.all():
            return None
        a[zero] = 1.0
        rounded = self.round17(a)
        if rounded is None:
            return None
        e, d = rounded
        d[zero] = 0
        e[zero] = 0
        # Temporaries are dropped once used, so a block's peak stays near 1 MB.
        del a, inside
        top, bot = np.divmod(d, 10**8)
        del d
        d0, top = np.divmod(top.astype(np.uint32), 10**8)
        bot = bot.astype(np.uint32)
        buf = np.empty((len(e), 12), np.uint32)
        last = np.zeros(len(e), np.intp)
        for j, g in enumerate((*np.divmod(top, 10000), *np.divmod(bot, 10000))):
            buf[:, 2 + j] = self.digits4.take(g)
            np.maximum(last, self.last4.take(g) + 4 * j, out=last)
        del top, bot, g
        buf[:, 6] = self.point
        buf[:, 7:11] = buf[:, 2:6]
        buf[:, 11] = self.exponent.take(e + 99)
        neg = np.signbit(block).ravel()
        h = np.clip(-e, 0, 5) * 10 + d0 + neg * 60
        h.reshape(len(block), -1)[:, 0] += 120
        buf.view(np.uint64)[:, 0] = self.head.take(h)
        np.maximum(e, -5, out=e)
        keep = self.keep.take(((e + 5) * 17 + last) * 2 + neg, axis=0)
        del e, last, neg, h, d0
        # Every value carries the separator before it; the block's first has none.
        keep[0, keep[0].argmax()] = False
        out = buf.view(np.uint8)[keep]
        del buf, keep
        return str(out, "ascii") + "\n"


@functools.cache
def _g17() -> _G17:
    """The kernel, built on first use, so commands that write no CSV neither
    build nor hold its tables."""
    return _G17()


def _percent_rows(block: np.ndarray) -> str:
    """The rows of a 2-D float block as '%.17g' CSV text, by one % operation."""
    row = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return row * len(block) % tuple(block.ravel().tolist())


def _write_rows(head: str, table: np.ndarray, out: str | None) -> None:
    """Write a CSV header line, then the rows of a 2-D float table at 17
    significant digits, to out or to stdout.

    Rows are formatted _ROW_BLOCK at a time, two blocks at once: block 2i on
    this thread and block 2i + 1 on the worker of a ``_lanes.Lanes``, and
    each pair is written, in order, once both are formatted.  A table of
    one block starts no thread.  A block goes through the vectorised kernel
    _G17.rows, built before the lanes start.  A block
    holding a value outside its domain (non-finite, or nonzero |x| outside
    [1e-99, 1e17), which '%g' prints with a positive or three-digit exponent),
    or one the kernel cannot round exactly, goes through one % operation
    instead.  Both give the bytes of '%.17g' % x, which is the same text as
    format(x, '.17g'), for every Python float.
    """
    with (
        contextlib.nullcontext(sys.stdout)
        if out is None
        else open(out, "w", encoding="utf-8", newline="\n")
    ) as fh:
        fh.write(head + "\n")
        if not len(table):
            return
        kernel = _g17()

        def render(block):
            text = kernel.rows(block)
            return _percent_rows(block) if text is None else text

        with Lanes() as lanes:
            for start in range(0, len(table), 2 * _ROW_BLOCK):
                stop = min(start + 2 * _ROW_BLOCK, len(table))
                fh.writelines(lanes.map(render, [table[lo:lo + _ROW_BLOCK]
                                                 for lo in range(start, stop, _ROW_BLOCK)]))


def _parse_users(source: str | None) -> UserSet | None:
    if source is None:
        return None
    if source == "basis2":
        return basis_pair()
    if source.startswith(("angle:", "orthonormal:")):
        kind, arg = source.split(":", 1)
        try:
            number = float(arg) if kind == "angle" else int(arg)
        except ValueError:
            what = "<theta> needs a number" if kind == "angle" else "<N> needs an integer"
            raise ValueError(f"--users {kind}:{what}, got {source!r}") from None
        try:  # the library checks the value; the message names the flag
            return angle_pair(number) if kind == "angle" else orthonormal_users(number)
        except ValueError as exc:
            raise ValueError(f"--users {source!r}: {exc}") from None
    return load_embeddings_csv(source)


def _parse_alpha(raw: str | None) -> np.ndarray | None:
    if raw is None:
        return None
    try:
        return np.array([float(tok) for tok in raw.split(",")])
    except ValueError:
        raise ValueError(f"--alpha must be comma-separated numbers, got {raw!r}") from None


def _spec(ns, users: UserSet | None):
    """(spec, users / alpha, alpha): --alpha applied once, as the change of
    coordinates in the geometry module docstring.  Content the library returns
    is printed divided by alpha, which is 1.0 (dividing exactly) without
    --alpha.  users is None only for the planar eq variants without --users or
    --theta, which take no weights at all."""
    alpha = _parse_alpha(ns.alpha)
    if alpha is not None and users is not None and len(alpha) != users.dim:
        raise ValueError(f"--alpha gives {len(alpha)} weights, but the users have "
                         f"dimension {users.dim}")
    beta = getattr(ns, "beta", None)  # nsw does not depend on beta; threshold searches it
    spec = CostSpec(q=ns.q, beta=2.0 if beta is None else beta)
    if alpha is None:
        return spec, users, 1.0
    if not np.all(np.isfinite(alpha)):
        raise ValueError("alpha has non-finite entries")
    if np.any(alpha <= 0):
        raise ValueError("alpha must be strictly positive")
    if users is None:
        return spec, None, alpha
    with np.errstate(over="ignore"):
        scaled = users.embeddings / alpha
    if not np.all(np.isfinite(scaled)):
        raise ValueError("users / --alpha overflows the double range")
    lost = np.flatnonzero(~np.any(scaled > 0, axis=1))
    if lost.size:
        raise ValueError(f"users / --alpha underflows user rows {lost.tolist()} to zero")
    return spec, UserSet(scaled), alpha


def _build_dist(ns, users, spec, n_users=None):
    """Distribution for the chosen variant plus an optimizer-converged flag."""
    producers = 2 if ns.producers is None else ns.producers
    if ns.variant == "onepop":
        n_users = users.n_users if n_users is None else n_users
        res = nsw_direction(users, spec)
        dist = OnePopulation(
            direction=res.point, n_users=n_users, beta=spec.beta, producers=producers
        )
        return dist, res.converged
    if spec.q != 2.0 or ns.alpha is not None:  # their CDF axes are plane coordinates
        raise ValueError("planar variants are defined for q = 2 with unit weights")
    if users is None:
        if ns.variant == "infinite":
            raise ValueError("the infinite variant needs --users or --theta")
        users = basis_pair()
    if ns.variant == "p2":
        if producers != 2:
            raise ValueError("the p2 variant fixes producers = 2")
        return QuarterCircle(spec.beta, users), True
    if ns.variant == "finitep":
        if spec.beta != 2.0:
            raise ValueError("the finitep variant fixes beta = 2")
        return FinitePCurve(producers, users), True
    return InfiniteTwoGenre(users, spec.beta), True


def _cmd_nsw(ns) -> int:
    spec, users, alpha = _spec(ns, _parse_users(ns.users))
    res = nsw_direction(users, spec)
    report = {
        "direction": res.point / alpha,
        "nsw_value": res.value,
        "kkt_residual": res.kkt_residual,
        "iters": res.iters,
        "converged": res.converged,
        "run_config": _run_config(ns),
    }
    _write_text(render_json(report), ns.out)
    return _EXIT_OK if res.converged else _EXIT_NOCONV


def _cmd_threshold(ns) -> int:
    spec, users, alpha = _spec(ns, _parse_users(ns.users))
    rep = threshold_report(users, spec)
    trace = [asdict(p) for p in rep.condition_trace]
    for probe in trace:
        if probe["witness"] is not None:
            probe["witness"] = np.array(probe["witness"]) / alpha
    report = {
        "beta_star_closed": rep.beta_star_closed,
        "beta_upper": rep.beta_upper,
        "beta_estimate": rep.beta_estimate,
        "condition_trace": trace,
        "anchor_converged": rep.anchor_converged,
        "run_config": _run_config(ns),
    }
    _write_text(render_json(report), ns.out)
    return _EXIT_OK if rep.anchor_converged else _EXIT_NOCONV


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def _cmd_eq(ns) -> int:
    if ns.cdf_grid < 0 or ns.n < 0:
        raise ValueError("--n and --cdf-grid must be >= 0")
    if ns.cdf_grid == 0 and ns.n == 0:
        raise ValueError("nothing to emit: pass --cdf-grid and/or --n")
    if ns.theta is not None and ns.users is not None:
        raise ValueError("--theta and --users both give the users; pass one of them")
    if ns.theta is not None and ns.variant == "onepop":
        raise ValueError("--theta sets a two-user angle; onepop takes --users or --n-users")
    if ns.n_users is not None and ns.variant != "onepop":
        raise ValueError("--n-users applies to --variant onepop only")
    if ns.n_users is not None and ns.users is not None:
        raise ValueError("--n-users and --users both give the users; pass one of them")
    if ns.producers is not None and ns.variant == "infinite":
        raise ValueError("--producers does not apply to --variant infinite, the "
                         "infinite-producer limit")
    if ns.samples_out is not None and ns.n == 0:
        raise ValueError("--samples-out names a samples file, but --n is 0")
    if ns.out is not None and ns.cdf_grid == 0:
        raise ValueError("--out names a CDF table file, but --cdf-grid is 0")
    if ns.out is not None and ns.samples_out is not None and _same_file(ns.out, ns.samples_out):
        raise ValueError(
            f"--out and --samples-out both name {ns.samples_out!r}; the samples would "
            "overwrite the CDF table"
        )
    users = _parse_users(ns.users) if ns.theta is None else angle_pair(ns.theta)
    if users is None and ns.variant == "onepop":
        users = UserSet(np.array([[1.0, 0.0]]))
    spec, users, alpha = _spec(ns, users)
    dist, converged = _build_dist(ns, users, spec, ns.n_users)
    if ns.cdf_grid > 0:
        xs = np.linspace(0.0, dist.cdf_max, ns.cdf_grid)
        _write_rows(f"{dist.cdf_axis},cdf", np.column_stack([xs, dist.cdf(xs)]), ns.out)
    if ns.n > 0:
        pts = eq_sample(dist, ns.n, ns.seed)
        pts /= alpha
        _write_rows(",".join(f"f{k}" for k in range(pts.shape[1])), pts, ns.samples_out)
    return _EXIT_OK if converged else _EXIT_NOCONV


def _parse_grid(raw: str) -> tuple[int, int]:
    try:  # "20" leaves no radii, and "2x3x4" radii "3x4": int() refuses both
        return tuple(map(int, raw.lower().partition("x")[::2]))
    except ValueError:
        raise ValueError(f"grid must look like 200x200, got {raw!r}") from None


def _cmd_report(ns) -> int:
    """verify and profit: the equilibrium's report (verify's full check, or
    profit's eq_profit alone), then the positive-profit condition.  On exit 4,
    one stderr line gives the alignment solve's stop reason and its bracket
    on Q, next to the threshold."""
    spec, users, alpha = _spec(ns, _parse_users(ns.users))
    dist, converged = _build_dist(ns, users, spec)
    if ns.cmd == "verify":
        report = asdict(best_response_gap(dist, users, spec, n_samples=ns.samples,
                                          grid=_parse_grid(ns.grid), seed=ns.seed))
        report["gap_argmax"] /= alpha
    else:
        report = {"eq_profit": dist.profit(users.n_users, spec)}
    flag, res, threshold = positive_profit_condition(users, spec, dist.producers)
    report.update(
        positive_profit=flag,
        q_alignment=res.value,
        q_threshold=threshold,
        run_config=_run_config(ns),
    )
    _write_text(render_json(report), ns.out)
    if converged and flag is not None:
        return _EXIT_OK
    print(f"note: alignment solve {res.status}, Q in [{res.value!r}, "
          f"{res.value + res.kkt_residual!r}], q_threshold {threshold!r}", file=sys.stderr)
    return _EXIT_NOCONV


def _cmd_nmf(ns) -> int:
    table = load_ratings_csv(ns.ratings)
    # The library's warnings (users dropped) become plain stderr lines, one per
    # warning on every call, whatever this process has shown before.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            res = nmf_factorize(table, NmfConfig(factors=ns.factors, epochs=ns.epochs,
                                                 seed=ns.seed))
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
    save_embeddings_csv(res.users, ns.out, user_ids=res.user_ids)
    report = {
        "n_users": res.users.n_users,
        "n_items": len(res.item_ids),
        "dropped_users": list(res.dropped_users),
        "final_objective": float(res.objective_trace[-1]),
        "run_config": _run_config(ns),
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
    p.add_argument("--seed", type=int, default=0, help="read by eq and verify only")
    p.add_argument("--out", help="output path (default stdout)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supply-eq",
        description="Supply-side equilibria of producer competition under "
        "personalized recommendations.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("nsw", help="best single-genre direction and its welfare value")
    _add_common(p, users_required=True)
    p.set_defaults(fn=_cmd_nsw)

    p = sub.add_parser("threshold", help="specialization threshold report")
    _add_common(p, users_required=True)
    p.set_defaults(fn=_cmd_threshold)

    p = sub.add_parser("eq", help="equilibrium CDF table and samples as CSV")
    _add_common(p, users_required=False)
    p.add_argument("--variant", required=True, choices=["onepop", "p2", "finitep", "infinite"])
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--producers", type=int, default=None, help="default 2; not for infinite")
    p.add_argument("--n-users", type=int, default=None, help="population size for onepop")
    p.add_argument("--theta", type=float, default=None, help="user angle for the planar variants")
    p.add_argument("--n", type=int, default=0, help="sample count")
    p.add_argument("--cdf-grid", type=int, default=0, help="CDF table size")
    p.add_argument("--samples-out", help="samples path (default stdout)")
    p.set_defaults(fn=_cmd_eq)

    # verify and profit share one report path and the flags that build its equilibrium.
    for cmd, about in (("verify", "numerical equilibrium verification report"),
                       ("profit", "equilibrium profit and positive-profit condition")):
        p = sub.add_parser(cmd, help=about)
        _add_common(p, users_required=True)
        p.add_argument("--variant", required=True, choices=["onepop", "p2", "finitep"])
        p.add_argument("--beta", type=float, default=2.0)
        p.add_argument("--producers", type=int, default=2)
        p.set_defaults(fn=_cmd_report)
    p = sub.choices["verify"]
    p.add_argument("--samples", type=int, default=100000,
                   help="Monte Carlo rounds for eq_profit_mc; deviations are priced against "
                   "exact CDFs, not samples")
    p.add_argument("--grid", default="200x200",
                   help="angles of the p2/finitep sweep, as AxR (R is only checked)")

    p = sub.add_parser("nmf", help="factorize a ratings CSV into embeddings")
    p.add_argument("--ratings", required=True, help="ratings CSV path")
    p.add_argument("--factors", type=int, required=True)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
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
        return ns.fn(ns)
    except (InputDataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except (np.linalg.LinAlgError, NumericalError) as exc:  # ValueErrors, but not the flags' fault
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except MemoryError as exc:  # numpy's is a private subclass
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
