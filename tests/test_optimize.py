"""Solvers: NSW ascent, minmax alignment, simplex EG."""

import math

import numpy as np
import pytest

from supply_eq.geometry import CostSpec, UserSet, weighted_norm
from supply_eq.optimize import (
    OptimizerConfig,
    minmax_alignment,
    nsw_direction,
    simplex_logsum_max,
)

SQ2 = math.sqrt(2.0)


def test_nsw_direction_basis_pair():
    res = nsw_direction(UserSet(np.eye(2)), CostSpec(q=2.0, beta=2.0))
    assert res.converged
    assert np.allclose(res.point, [1 / SQ2, 1 / SQ2], atol=1e-6)
    assert res.value == pytest.approx(2 * math.log(1 / SQ2), abs=1e-9)
    assert res.kkt_residual < 1e-6


def test_nsw_direction_weighted_lagrange():
    # Stationarity on the ellipse 4 p1^2 + p2^2 = 1 forces p2 = 2 p1.
    spec = CostSpec(q=2.0, beta=2.0, alpha=np.array([2.0, 1.0]))
    res = nsw_direction(UserSet(np.eye(2)), spec)
    assert res.converged
    assert np.allclose(res.point, [1 / (2 * SQ2), 1 / SQ2], atol=1e-6)


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


def test_simplex_logsum_early_accept():
    y = np.array([[2.0, 2.0], [1.0, 1.0]])
    res = simplex_logsum_max(y, early_accept=0.5)
    assert res.value >= 0.5


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tol=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)


def test_nsw_direction_deterministic():
    users = UserSet(np.abs(np.random.default_rng(11).standard_normal((5, 4))) + 0.01)
    spec = CostSpec(q=2.0, beta=2.0)
    a = nsw_direction(users, spec, OptimizerConfig(seed=3))
    b = nsw_direction(users, spec, OptimizerConfig(seed=3))
    assert np.all(a.point == b.point) and a.value == b.value
