"""Solvers: NSW ascent, minmax alignment, simplex active set."""

import decimal
import math
import os
import pathlib
import subprocess
import sys
from decimal import Decimal as Dec

import numpy as np
import pytest

import supply_eq
from supply_eq.geometry import CostSpec, NumericalError, UserSet, dual_norm, weighted_norm
from supply_eq.ingest import NmfConfig, load_ratings_csv, nmf_factorize
from supply_eq import optimize
from supply_eq.optimize import minmax_alignment, nsw_direction, simplex_logsum_max

SQ2 = math.sqrt(2.0)


def test_nsw_direction_basis_pair():
    res = nsw_direction(UserSet(np.eye(2)), CostSpec(q=2.0, beta=2.0))
    assert res.converged
    assert np.allclose(res.point, [1 / SQ2, 1 / SQ2], atol=1e-6)
    assert res.value == pytest.approx(2 * math.log(1 / SQ2), abs=1e-9)
    assert res.kkt_residual < 1e-6


def test_nsw_direction_weighted_lagrange():
    # Stationarity on the ellipse 4 p1^2 + p2^2 = 1 forces p2 = 2 p1.  The
    # weighted cost is the unit cost on users u / alpha, content alpha * p.
    alpha = np.array([2.0, 1.0])
    res = nsw_direction(UserSet(np.eye(2) / alpha), CostSpec(q=2.0, beta=2.0))
    assert res.converged
    assert np.allclose(res.point / alpha, [1 / (2 * SQ2), 1 / SQ2], atol=1e-6)


def test_nsw_direction_single_user():
    res = nsw_direction(UserSet(np.array([[3.0, 4.0]])), CostSpec(q=2.0, beta=2.0))
    assert np.allclose(res.point, [0.6, 0.8], atol=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_nsw_direction_random_instances_certified(seed):
    rng = np.random.default_rng(seed)
    users = UserSet(np.abs(rng.standard_normal((4, 3))) + 0.01)
    res = nsw_direction(users, CostSpec(q=2.0, beta=2.0))
    assert res.converged
    assert res.kkt_residual < 1e-6
    assert weighted_norm(res.point, CostSpec(q=2.0, beta=1.0)) == pytest.approx(1.0, abs=1e-9)


def test_nsw_q_one_grid_oracle():
    spec = CostSpec(q=1.0, beta=2.0)
    users = UserSet(np.array([[1.0, 0.2], [0.3, 1.0]]))
    res = nsw_direction(users, spec)
    # 1-d simplex sweep is an exhaustive oracle for q = 1 in the plane.
    t = np.linspace(1e-9, 1 - 1e-9, 200001)
    pts = np.stack([t, 1 - t], axis=1)
    vals = np.log(pts @ users.embeddings.T).sum(axis=1)
    assert res.value == pytest.approx(float(vals.max()), abs=1e-7)


def test_minmax_alignment_bisector():
    theta = math.pi / 3
    users = UserSet(np.array([[1.0, 0.0], [math.cos(theta), math.sin(theta)]]))
    res = minmax_alignment(users, CostSpec(q=2.0, beta=2.0))
    assert res.converged
    assert res.value == pytest.approx(math.cos(theta / 2), abs=1e-6)


def test_minmax_alignment_grid_oracle():
    rng = np.random.default_rng(5)
    users = UserSet(np.abs(rng.standard_normal((3, 2))) + 0.05)
    spec = CostSpec(q=2.0, beta=2.0)
    res = minmax_alignment(users, spec)
    phis = np.linspace(0.0, math.pi / 2, 100001)
    dirs = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    rows = users.embeddings / np.linalg.norm(users.embeddings, axis=1, keepdims=True)
    oracle = float(np.min(dirs @ rows.T, axis=1).max())
    assert res.value == pytest.approx(oracle, abs=1e-5)


def test_simplex_logsum_interior_optimum():
    eps = 0.01
    y = np.array([[1.0, eps], [eps, 1.0]])
    res = simplex_logsum_max(y)
    assert res.converged
    assert res.value == pytest.approx(2 * math.log(0.505), abs=1e-9)
    assert np.allclose(res.point, [0.5, 0.5], atol=1e-4)
    assert res.kkt_residual <= 1e-6


def test_simplex_logsum_vertex_optimum():
    y = np.array([[2.0, 2.0], [1.0, 1.0]])
    res = simplex_logsum_max(y)
    assert res.value == pytest.approx(2 * math.log(2.0), abs=1e-9)
    assert res.point[0] == pytest.approx(1.0, abs=1e-6)
    assert res.kkt_residual <= 1e-6


def test_simplex_logsum_gap_certifies():
    rng = np.random.default_rng(9)
    y = rng.random((6, 4)) + 0.05
    res = simplex_logsum_max(y)
    # Certified optimum: no simplex point can beat value + gap.
    trial = rng.random((2000, 6))
    trial /= trial.sum(axis=1, keepdims=True)
    vals = np.log(trial @ y).sum(axis=1)
    assert float(vals.max()) <= res.value + res.kkt_residual + 1e-12


@pytest.mark.parametrize("y, message", [
    (np.ones(3), "2-D"),
    (np.array([[1.0, -1.0]]), "nonnegative and finite"),
    (np.array([[1.0, np.inf]]), "nonnegative and finite"),
    (np.array([[1.0, 0.0], [2.0, 0.0]]), "column with no positive entry"),
])
def test_simplex_logsum_rejects_bad_input(y, message):
    with pytest.raises(ValueError, match=message):
        simplex_logsum_max(y)


def test_simplex_logsum_non_finite_values_are_a_numerical_error():
    # The CLI reports a NumericalError as exit 3, not as a usage error.
    with pytest.raises(NumericalError, match="nonnegative and finite"):
        simplex_logsum_max(np.array([[1.0, 2.0], [np.inf, 1.0]]))


def test_face_step_falls_back_to_the_vertex_direction(monkeypatch):
    # Least-squares solutions of zeros make every face step d = 0, which does
    # not ascend, so each step takes the fallback e_j - w: the iterates stay on
    # the simplex and still reach the certified optimum.
    y = np.array([[1.0, 0.2, 0.1], [0.1, 1.0, 0.3], [0.4, 0.1, 1.0]])
    exact = simplex_logsum_max(y)
    steps = []
    face_step = optimize._face_step

    def recorded(*args):
        w, status = face_step(*args)
        steps.append(w)
        return w, status

    monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, rcond=None: (np.zeros(a.shape[1]),))
    monkeypatch.setattr(optimize, "_face_step", recorded)
    res = simplex_logsum_max(y)
    assert res.converged and len(steps) == res.iters - 1 > 10
    for w in steps:
        assert np.all(w >= 0.0) and w.sum() == pytest.approx(1.0, abs=1e-15)
    assert res.value == pytest.approx(exact.value, abs=1e-8)


def test_nsw_direction_deterministic():
    users = UserSet(np.abs(np.random.default_rng(11).standard_normal((5, 4))) + 0.01)
    spec = CostSpec(q=2.0, beta=2.0)
    a = nsw_direction(users, spec)
    b = nsw_direction(users, spec)
    assert np.all(a.point == b.point) and a.value == b.value


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nsw_frank_wolfe_gap_certifies(q, weighted, seed):
    # The Frank-Wolfe gap recomputed from the returned point is the reported
    # residual, and it meets the 1e-9 * N an independent check asks for.
    rng = np.random.default_rng([seed, 17])
    n, d = [(4, 3), (30, 5), (200, 10)][seed]
    emb = np.abs(rng.standard_normal((n, d))) + 0.01
    users = UserSet(emb / (rng.random(d) + 0.5) if weighted else emb)
    spec = CostSpec(q=q, beta=2.0)
    res = nsw_direction(users, spec)
    p = res.point
    assert np.all(p >= 0)
    assert weighted_norm(p, spec) == pytest.approx(1.0, abs=1e-9)
    g = users.embeddings.T @ (1.0 / (users.embeddings @ p))
    assert dual_norm(g, spec) - g @ p <= res.kkt_residual <= 1e-9 * n
    assert res.converged and res.status == "converged"


# The benchmark's seeded sets, and three of default_rng(7).
_R0, _R7 = np.random.default_rng(0), np.random.default_rng(7)
_SETS = {"30x5": _R0.random((30, 5)), "200x10": _R0.random((200, 10)),
         **{f"rng7_{n}x{d}": _R7.random((n, d)) for n, d in ((10, 3), (20, 4), (30, 5))}}


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 7.0])
@pytest.mark.parametrize("name", list(_SETS))
def test_nsw_polish_never_raises_the_gap(name, q):
    # The Frank-Wolfe point alone has a gap of up to 1e-11; the finish takes
    # it to rounding, and never above what Frank-Wolfe left.
    U, spec = _SETS[name], CostSpec(q=q)
    x, iters, _ = optimize._nsw_frank_wolfe(U, spec)
    res = nsw_direction(UserSet(U), spec)
    assert res.kkt_residual <= optimize._fw_gap(U, x, spec)
    assert res.kkt_residual <= 1e-14 * len(U) and res.converged
    assert iters <= res.iters <= iters + 2


@pytest.mark.parametrize("theta", [0.005, 0.01, 0.02, 0.05, 0.075, 0.3, 1.0, 1.5])
def test_nsw_polish_reaches_the_bisector(theta):
    # Two unit users at q = 2 have the bisector as their Nash-welfare
    # direction.  Frank-Wolfe stops up to 2e-6 rad off it; the finish is
    # within a few ulps.  Near-parallel pairs check that it does not stop
    # where the gap first rounds to 0, about 1e-8 rad off.
    users = UserSet(np.array([[1.0, 0.0], [math.cos(theta), math.sin(theta)]]))
    res = nsw_direction(users, CostSpec(q=2.0))
    assert math.atan2(res.point[1], res.point[0]) == pytest.approx(0.5 * theta, abs=1e-16)


def test_nsw_q_inf_is_inverse_weights():
    # The all-ones point, which is 1 / alpha in the weighted coordinates.
    alpha = np.array([2.0, 0.5, 1.0])
    users = UserSet(np.array([[1.0, 0.0, 2.0], [0.3, 1.0, 0.0]]) / alpha)
    res = nsw_direction(users, CostSpec(q=math.inf, beta=2.0))
    assert np.array_equal(res.point / alpha, 1.0 / alpha)
    assert res.kkt_residual == 0.0 and res.converged


@pytest.mark.parametrize("seed", range(6))
def test_minmax_alignment_bracket_holds_grid_oracle(seed):
    rng = np.random.default_rng([seed, 23])
    users = UserSet(np.abs(rng.standard_normal((int(rng.integers(2, 9)), 2))) + 0.02)
    res = minmax_alignment(users, CostSpec(q=2.0, beta=2.0))
    phis = np.linspace(0.0, math.pi / 2, 100001)
    dirs = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    rows = users.embeddings / np.linalg.norm(users.embeddings, axis=1, keepdims=True)
    grid = float(np.min(dirs @ rows.T, axis=1).max())
    # In the plane the optimum bisects the two outermost users; the grid,
    # whose max may sit up to half a spacing off the kink, confirms it.
    angles = np.arctan2(rows[:, 1], rows[:, 0])
    oracle = math.cos(0.5 * (angles.max() - angles.min()))
    assert grid <= oracle <= grid + 0.5 * (phis[1] - phis[0])
    assert res.converged and res.kkt_residual <= 1e-8
    assert res.value <= oracle <= res.value + res.kkt_residual
    # Weak duality at the uniform dual weight.  Its norm is computed in
    # floats and may round below Q, so it gets the solver's declared relative
    # rounding bound 2(D + q + q*) ulps, here D = q = q* = 2.
    uniform = np.linalg.norm(rows.mean(axis=0)) * (1.0 + 2 * (2 + 2 + 2) * math.ulp(1.0))
    assert res.value + res.kkt_residual <= uniform
    assert float((rows @ res.point).min()) == pytest.approx(res.value, abs=1e-12)


def test_solver_status_reasons(monkeypatch):
    y = np.array([[2.0, 2.0], [1.0, 1.0]])
    assert simplex_logsum_max(y).status == "converged"
    # A vertex start on an interior optimum leaves a gap of about 98.
    y = np.array([[1.0, 0.01], [0.01, 1.0]])
    monkeypatch.setattr(optimize, "_MAX_ITERS", 1)
    capped = simplex_logsum_max(y)
    assert capped.status == "max_iters" and not capped.converged
    rng = np.random.default_rng(9)
    users = UserSet(rng.random((30, 5)))
    res = nsw_direction(users, CostSpec(q=2.0, beta=2.0))
    assert res.status == "max_iters" and not res.converged
    res = minmax_alignment(users, CostSpec(q=1.0, beta=2.0))
    assert res.status == "max_iters" and not res.converged and res.iters == 1


@pytest.mark.parametrize("seed", range(8))
def test_minmax_alignment_q1_matches_linear_program(seed):
    # At q = 1 the alignment value is the value of a matrix game; scipy's LP
    # solver gives an independent optimum.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng([seed, 29])
    n, d = int(rng.integers(1, 40)), int(rng.integers(1, 8))
    emb = np.abs(rng.standard_normal((n, d))) * (rng.random((n, d)) < 0.6)
    emb[np.all(emb == 0, axis=1), 0] = 1.0
    if seed % 2:  # weighted: the users divided by alpha
        emb = emb / (rng.random(d) + 0.3)
    spec = CostSpec(q=1.0, beta=2.0)
    res = minmax_alignment(UserSet(emb), spec)
    A = emb / emb.sum(axis=1)[:, None]  # <p, u~_i> = (A p)_i
    lp = linprog(
        np.r_[np.zeros(d), -1.0], A_ub=np.c_[-A, np.ones(n)], b_ub=np.zeros(n),
        A_eq=np.r_[np.ones(d), 0.0][None], b_eq=[1.0], bounds=[(0, None)] * d + [(None, None)],
    )
    oracle = -lp.fun
    assert res.converged and res.status == "converged" and res.kkt_residual <= 1e-8
    assert res.value - 1e-9 <= oracle <= res.value + res.kkt_residual + 1e-9
    assert np.all(res.point >= 0) and weighted_norm(res.point, spec) == pytest.approx(1.0)


@pytest.mark.parametrize("q", [1.0, math.inf])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_minmax_alignment_orthonormal_edge_norms(q, n):
    # Orthonormal users: Q is 1/N at q = 1 (p uniform on the simplex) and
    # 1 at q = inf (p the all-ones vector).
    res = minmax_alignment(UserSet(np.eye(n)), CostSpec(q=q, beta=2.0))
    assert res.value == pytest.approx(1.0 / n if q == 1.0 else 1.0, abs=1e-15)
    assert res.converged and res.kkt_residual <= 1e-15


def test_minmax_alignment_q_inf_is_inverse_weights():
    # The all-ones point, which is 1 / alpha in the weighted coordinates.
    alpha = np.array([2.0, 0.5, 1.0])
    emb = np.array([[1.0, 0.0, 2.0], [0.3, 1.0, 0.0], [1.0, 1.0, 1.0]]) / alpha
    spec = CostSpec(q=math.inf, beta=2.0)
    res = minmax_alignment(UserSet(emb), spec)
    assert np.array_equal(res.point / alpha, 1.0 / alpha)
    rows = emb / np.asarray(weighted_norm(emb, spec))[:, None]
    assert res.value == float(rows.sum(axis=1).min())
    assert res.converged and res.kkt_residual <= 1e-15


def _ratings_csv(path, seed, n_users=60, n_items=40, density=0.3):
    """A seeded ratings table: integer ratings 1-5 on a random density share
    of cells, and at least one rating per user (the benchmark's generator)."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n_users, n_items)) < density
    empty = ~mask.any(axis=1)
    mask[empty, rng.integers(0, n_items, size=int(empty.sum()))] = True
    rating = rng.integers(1, 6, size=(n_users, n_items))
    rows = [f"u{u},i{i},{rating[u, i]}" for u, i in zip(*np.nonzero(mask))]
    path.write_text("user_id,item_id,rating\n" + "\n".join(rows) + "\n")
    return path


@pytest.fixture(scope="module")
def nmf_users(tmp_path_factory):
    """seed -> the embeddings `nmf --factors 3 --epochs 50` writes for it."""
    tmp, cache = tmp_path_factory.mktemp("ratings"), {}

    def get(seed):
        if seed not in cache:
            table = load_ratings_csv(_ratings_csv(tmp / f"r{seed}.csv", seed))
            cache[seed] = nmf_factorize(table, NmfConfig(factors=3, epochs=50)).users
        return cache[seed]

    return get


def _grid_lower_bound(users, spec, steps=300):
    """max over a dense grid of directions p on the D = 3 cone-ball of
    min_i <p, u~_i>: every grid point is feasible, so this bounds Q below."""
    i, j = np.triu_indices(steps + 1)
    x = np.stack([i, j - i, steps - j], axis=1) / steps
    p = x / weighted_norm(x, spec)[:, None]
    rows = users.embeddings / weighted_norm(users.embeddings, spec)[:, None]
    return float((p @ rows.T).min(axis=1).max())


# 36 cases on 12 seeded tables plus seed 41, whose q = 2 solve the
# exponentiated-gradient loop left at 5,000 iterations with the bracket
# [0.68961378037, 0.68961379377] (width 1.3e-8).
@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("seed", [*range(12), 41])
def test_minmax_alignment_certifies_nmf_tables(nmf_users, seed, q):
    users = nmf_users(seed)
    spec = CostSpec(q=q, beta=2.0)
    res = minmax_alignment(users, spec)
    assert res.converged and res.status == "converged"
    # One Newton step past tol = 1e-8 leaves the bracket far narrower.
    assert res.kkt_residual <= 1e-10
    grid = _grid_lower_bound(users, spec)
    rows = users.embeddings / weighted_norm(users.embeddings, spec)[:, None]
    assert res.value - 1e-2 <= grid <= res.value + res.kkt_residual
    assert res.value + res.kkt_residual <= dual_norm(rows.mean(axis=0), spec)
    if seed == 41 and q == 2.0:
        assert res.value >= 0.68961378037


def _dual_oracle(u1, u2, q):
    """Q for at most two users in the current decimal context: the minimax
    dual min_t ||t u~1 + (1 - t) u~2||_q* by golden-section search, with u~
    the users normalized exactly."""
    qd, qs = Dec(repr(q)), Dec(repr(q)) / (Dec(repr(q)) - 1)

    def norm(v, e):
        return sum(abs(x) ** e for x in v) ** (1 / e)

    def unit(u):
        ud = [Dec(float(x)) for x in u]
        n = norm(ud, qd)
        return [x / n for x in ud]

    r1, r2 = unit(u1), unit(u2)

    def dual(t):
        return norm([t * x + (1 - t) * y for x, y in zip(r1, r2)], qs)

    lo, hi, g = Dec(0), Dec(1), (Dec(5).sqrt() - 1) / 2
    for _ in range(240):
        m1, m2 = hi - g * (hi - lo), lo + g * (hi - lo)
        lo, hi = (lo, m2) if dual(m1) <= dual(m2) else (m1, hi)
    return min(dual(lo), dual(hi), dual(Dec(0)), dual(Dec(1)))


_C, _S = math.cos(0.4), math.sin(0.4)
_EDGE_USERS = {
    "one_user": np.array([[0.3, 0.9]]),
    "duplicates": np.array([[0.3, 0.9], [0.3, 0.9], [0.6, 1.8]]),
    "near_parallel": np.array([[_C, _S], [math.cos(0.4 + 1e-9), math.sin(0.4 + 1e-9)]]),
    "zero_coordinates": np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]),
    "orthogonal": np.diag([2.0, 0.5, 1.0]),
}


@pytest.mark.parametrize("case", sorted(_EDGE_USERS))
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 7.0])
def test_minmax_alignment_edge_inputs_true_bracket(case, weighted, q):
    emb = _EDGE_USERS[case]
    if weighted:  # the users divided by alpha
        emb = emb / np.array([0.5, 2.0, 1.3])[: emb.shape[1]]
    spec = CostSpec(q=q, beta=2.0)
    res = minmax_alignment(UserSet(emb), spec)
    assert res.converged and res.kkt_residual <= 1e-8
    assert np.all(res.point >= 0)
    top = res.value + res.kkt_residual
    with decimal.localcontext(decimal.Context(prec=50)):
        if case == "orthogonal":
            # Q = max min_j p_j on the ball, at the uniform p = 3^(-1/q).
            oracle = 1 / Dec(3) ** (1 / Dec(repr(q)))
        else:
            oracle = _dual_oracle(emb[0], emb[-1], q)
        if case == "one_user" and q == 2.0 and not weighted:
            assert abs(oracle - 1) < Dec("1e-35")
        assert Dec(res.value) <= oracle <= Dec(top)


def test_minmax_alignment_bitwise_under_single_thread_blas():
    # The benchmark's 200x10 set at q = 2: the same bits whatever the BLAS
    # thread count.
    code = (
        "import numpy as np\n"
        "from supply_eq.geometry import CostSpec, UserSet\n"
        "from supply_eq.optimize import minmax_alignment\n"
        "rng = np.random.default_rng(0); rng.random((30, 5))\n"
        "r = minmax_alignment(UserSet(rng.random((200, 10))), CostSpec(q=2.0, beta=2.0))\n"
        "print(r.point.tobytes().hex(), r.value.hex(), r.kkt_residual.hex(), r.iters)\n"
    )
    src = str(pathlib.Path(supply_eq.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    single = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    rng = np.random.default_rng(0)
    rng.random((30, 5))
    r = minmax_alignment(UserSet(rng.random((200, 10))), CostSpec(q=2.0, beta=2.0))
    assert r.converged and r.iters < 50
    assert single == [r.point.tobytes().hex(), r.value.hex(), r.kkt_residual.hex(), str(r.iters)]
