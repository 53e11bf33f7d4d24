"""Output checks, each computed independently of the code under test.

A check takes the command's captured stdout and the paths of the files it
wrote (name -> path), recomputes what it can from public supply_eq functions, numpy and the
closed forms of the paper, and returns a list of failure messages (empty when
the output is right).  No tolerance here is tuned to let a known defect pass;
the known failures are listed in workloads.py and reported as failures.
"""

from __future__ import annotations

import json
import math

import numpy as np

from supply_eq import CostSpec, dual_norm, load_embeddings_csv, weighted_norm


def _num(v):
    if isinstance(v, str):
        return {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}[v]
    return float(v)


def _near(a, b, tol):
    return abs(a - b) <= tol


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _csv(text: str):
    """(header, float matrix) of a CSV with a header row and numeric body."""
    head, _, body = text.partition("\n")
    cols = head.split(",")
    vals = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float)
    return cols, vals.reshape(-1, len(cols))


def nsw(users: np.ndarray, q: float):
    def check(stdout, files):
        rep = json.loads(stdout)
        p = np.array(rep["direction"], dtype=float)
        n = users.shape[0]
        spec = CostSpec(q=q, beta=2.0)
        z = users @ p
        errs = []
        if np.any(p < 0) or not _near(weighted_norm(p, spec), 1.0, 1e-9):
            errs.append("direction is not a unit point of the cone-ball")
        if np.any(z <= 0):
            return errs + ["direction gives a user zero value"]
        # Frank-Wolfe gap: the linear oracle over the cone-ball is the dual norm.
        fw = dual_norm(users.T @ (1.0 / z), spec) - n
        if fw > 1e-9 * n:
            errs.append(f"Frank-Wolfe gap {fw:.3g} exceeds 1e-9 * N")
        if not _near(_num(rep["nsw_value"]), float(np.log(z).sum()), 1e-9 * max(1.0, n)):
            errs.append("nsw_value disagrees with sum log <p, u_i>")
        return errs

    return check


def threshold(users: np.ndarray, gap: float):
    def check(stdout, files):
        rep = json.loads(stdout)
        est, upper = _num(rep["beta_estimate"]), _num(rep["beta_upper"])
        errs = []
        if not est <= upper:
            errs.append(f"beta_estimate {est} above beta_upper {upper}")
        if users.shape[0] == 2:
            u1, u2 = users
            cos_t = float(u1 @ u2) / float(np.linalg.norm(u1) * np.linalg.norm(u2))
            exact = 2.0 / (1.0 - cos_t)
            if not _near(_num(rep["beta_star_closed"]), exact, 1e-9 * exact):
                errs.append(f"beta_star_closed {rep['beta_star_closed']} != 2/(1-cos t) = {exact}")
            if not _near(est, exact, gap):
                errs.append(f"beta_estimate {est} not within {gap} of 2/(1-cos t) = {exact}")
        return errs

    return check


def _alignment_bracket(users: np.ndarray):
    # Q = max_p min_i <p, u_i/|u_i|> over the Euclidean cone-ball.  Any
    # simplex weight w gives Q <= |sum w_i u~_i| (weak duality); the point
    # along the uniform mixture gives a feasible lower bound.
    un = users / np.linalg.norm(users, axis=1, keepdims=True)
    m = un.mean(axis=0)
    upper = float(np.linalg.norm(m))
    lower = float((un @ (m / upper)).min())
    return lower, upper


def profit(users: np.ndarray, producers: int, beta: float, eq_profit: float):
    def check(stdout, files):
        rep = json.loads(stdout)
        errs = []
        if _num(rep["eq_profit"]) != eq_profit:
            errs.append(f"eq_profit {rep['eq_profit']} != {eq_profit}")
        n = users.shape[0]
        thr = n ** (-producers / beta)
        if not _near(_num(rep["q_threshold"]), thr, 1e-12 * thr):
            errs.append(f"q_threshold {rep['q_threshold']} != N^(-P/beta) = {thr}")
        # The reported Q is attained by a feasible point, so it cannot exceed
        # the dual bound; the flag must agree with Q and with the bracket.
        qv = _num(rep["q_alignment"])
        lower, upper = _alignment_bracket(users)
        if qv > upper + 1e-12:
            errs.append(f"q_alignment {qv} above the dual bound {upper}")
        flag = rep["positive_profit"]
        if flag is not None and (flag != (qv < thr) or (flag and lower >= thr)
                                 or (not flag and upper < thr)):
            errs.append(f"positive_profit {flag} contradicts Q in [{lower}, {upper}] "
                        f"against {thr}")
        return errs

    return check


def verify_gap(at_most: float | None = None, at_least: float | None = None):
    def check(stdout, files):
        gap = _num(json.loads(stdout)["best_response_gap"])
        if at_most is not None and not gap <= at_most:
            return [f"best_response_gap {gap:.4g} above {at_most}"]
        if at_least is not None and not gap >= at_least:
            return [f"best_response_gap {gap:.4g} below {at_least}: a profitable "
                    "deviation was missed"]
        return []

    return check


def verify_profit(eq_profit: float):
    def check(stdout, files):
        rep = json.loads(stdout)
        errs = []
        if _num(rep["eq_profit"]) != eq_profit:
            errs.append(f"eq_profit {rep['eq_profit']} != {eq_profit}")
        mc, se = _num(rep["eq_profit_mc"]), _num(rep["eq_profit_mc_stderr"])
        if not _near(mc, eq_profit, 6.0 * se + 1e-3):
            errs.append(f"Monte Carlo profit {mc:.5g} +- {se:.2g} far from {eq_profit}")
        return errs

    return check


def _cdf_errs(text, axis, grid, x_max, law):
    """x_max None takes the grid end from the table; law None checks shape only."""
    cols, tab = _csv(text)
    if cols != [axis, "cdf"] or tab.shape[0] != grid:
        return [f"CDF table should have header {axis},cdf and {grid} rows"]
    x, f = tab[:, 0], tab[:, 1]
    x_max = x[-1] if x_max is None else x_max
    if np.abs(x - np.linspace(0.0, x_max, grid)).max() > 1e-12 * max(1.0, x_max):
        return ["CDF grid is not evenly spaced from 0"]
    if law is None:
        ok = f[0] == 0.0 and f[-1] == 1.0 and np.all(np.diff(f) >= 0) and np.all(f <= 1.0)
        return [] if ok else ["CDF is not a nondecreasing map from 0 to 1"]
    worst = float(np.abs(f - law(x)).max())
    return [] if worst <= 1e-12 else [f"CDF off its closed form by {worst:.3g}"]


def eq_p2(beta: float, grid: int, n: int, cdf_file: str, samples_file: str):
    radius = (2.0 / beta) ** (1.0 / beta)

    def check(stdout, files):
        errs = _cdf_errs(_read(files[cdf_file]), "angle", grid, math.pi / 2,
                         lambda x: np.sin(x) ** 2)
        cols, pts = _csv(_read(files[samples_file]))
        if cols != ["f0", "f1"] or pts.shape[0] != n:
            return errs + [f"samples should be {n} rows of f0,f1"]
        r = np.linalg.norm(pts, axis=1)
        if np.any(pts < 0) or np.abs(r - radius).max() > 1e-12:
            errs.append(f"samples leave the quarter circle of radius {radius}")
        return errs

    return check


def eq_finitep(producers: int, grid: int, n: int, cdf_file: str, samples_file: str):
    e = 2.0 / (producers - 1)

    def check(stdout, files):
        errs = _cdf_errs(_read(files[cdf_file]), "x", grid, 1.0,
                         lambda x: np.minimum(1.0, x ** e))
        cols, pts = _csv(_read(files[samples_file]))
        if cols != ["f0", "f1"] or pts.shape[0] != n:
            return errs + [f"samples should be {n} rows of f0,f1"]
        if np.any(pts < 0) or np.abs(pts[:, 0] ** e + pts[:, 1] ** e - 1.0).max() > 1e-12:
            errs.append(f"samples leave the curve x^{e:.4g} + y^{e:.4g} = 1")
        return errs

    return check


def eq_infinite(grid: int):
    def check(stdout, files):
        return _cdf_errs(stdout, "quality", grid, None, None)

    return check


def nmf(n_users: int, factors: int, sum_sq: float, out_file: str):
    def check(stdout, files):
        rep = json.loads(stdout)
        errs = []
        if not _num(rep["final_objective"]) < sum_sq:
            errs.append(f"final objective {rep['final_objective']} not below sum r^2 = {sum_sq}")
        if rep["n_users"] != n_users or rep["dropped_users"]:
            errs.append(f"expected {n_users} users and none dropped")
        users = load_embeddings_csv(files[out_file])
        if users.n_users != n_users or users.dim != factors:
            errs.append(f"output reloads as {users.n_users}x{users.dim}, "
                        f"expected {n_users}x{factors}")
        return errs

    return check
