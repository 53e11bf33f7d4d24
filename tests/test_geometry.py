"""Geometry layer: norms, duals, cost specs and two-user planes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supply_eq.geometry import (
    CostSpec,
    UserSet,
    angle_between,
    angle_pair,
    basis_pair,
    cost,
    dual_norm,
    dual_point,
    orthonormal_users,
    two_user_plane,
    weighted_norm,
)


def brute_dual(u, spec, n_grid=400000):
    # Independent oracle: max <u, p> over unit-ball directions of a dense
    # angle grid, valid for 2-d instances only.
    phis = np.linspace(0.0, math.pi / 2, n_grid)
    dirs = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    nrm = weighted_norm(dirs, spec)
    return float(np.max((dirs / nrm[:, None]) @ u))


def test_weighted_norm_hand_values():
    spec1 = CostSpec(q=1.0, beta=1.0)
    spec2 = CostSpec(q=2.0, beta=1.0)
    specinf = CostSpec(q=math.inf, beta=1.0)
    p = np.array([3.0, 4.0])
    assert weighted_norm(p, spec1) == pytest.approx(7.0)
    assert weighted_norm(p, spec2) == pytest.approx(5.0)
    assert weighted_norm(p, specinf) == pytest.approx(4.0)
    # A weighted cost ||alpha * p|| is the norm of the content alpha * p.
    assert weighted_norm(p * np.array([2.0, 0.5]), spec2) == pytest.approx(math.hypot(6.0, 2.0))


def test_weighted_norm_batched():
    spec = CostSpec(q=3.0, beta=2.0)
    pts = np.abs(np.random.default_rng(0).standard_normal((7, 4)))
    out = weighted_norm(pts, spec)
    assert out.shape == (7,)
    for row, v in zip(pts, out):
        assert v == pytest.approx(float(np.sum(row**3) ** (1 / 3)), rel=1e-12)


@pytest.mark.parametrize("alpha", [None, np.array([2.0, 0.5, 3.0])], ids=["unit", "weighted"])
def test_weighted_norm_q2_signs_bitwise(alpha):
    # At q = 2 the sign goes in the square: negative and -0.0 entries give the
    # same bits as their absolute values and as the explicit |w|^2 sum.  The
    # weighted case is the content alpha * p of the same draws.
    spec = CostSpec(q=2.0, beta=1.0)
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((9, 3)) * [1.0, 1e-3, 1e3]
    pts[0] = [-0.0, -1.5, 0.0]
    pts[1] = [-0.0, -0.0, -0.0]
    pts[2, 1] = -0.0
    if alpha is not None:
        pts = pts * alpha
    got = weighted_norm(pts, spec)
    w = np.abs(pts)
    ref = np.sqrt((w * w).sum(axis=-1))
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(got.view(np.uint64), weighted_norm(np.abs(pts), spec).view(np.uint64))
    for row, v in zip(pts, got):
        assert np.float64(weighted_norm(row, spec)).view(np.uint64) == np.float64(v).view(np.uint64)
    assert got[1] == 0.0 and not np.signbit(got[1])


def test_cost_is_norm_to_beta():
    spec = CostSpec(q=2.0, beta=4.0)
    pts = np.abs(np.random.default_rng(1).standard_normal((5, 2)))
    assert np.allclose(cost(pts, spec), weighted_norm(pts, spec) ** 4.0)


@pytest.mark.parametrize(
    "u,q,expected",
    [
        (np.array([1.0, 2.0]), 2.0, math.sqrt(5.0)),
        (np.array([1.0, 1.0]), 1.0, 1.0),
        (np.array([1.0, 1.0]), math.inf, 2.0),
        (np.array([2.0, 3.0]), 3.0, (2.0**1.5 + 3.0**1.5) ** (2.0 / 3.0)),
    ],
)
def test_dual_norm_closed_forms(u, q, expected):
    assert dual_norm(u, CostSpec(q=q, beta=1.0)) == pytest.approx(expected, rel=1e-12)


def test_dual_norm_matches_brute_force():
    spec = CostSpec(q=2.0, beta=1.0)
    u = np.array([1.0, 2.0])
    assert dual_norm(u, spec) == pytest.approx(brute_dual(u, spec), abs=1e-6)
    spec3 = CostSpec(q=3.0, beta=1.0)
    u2 = np.array([0.4, 1.1])
    assert dual_norm(u2, spec3) == pytest.approx(brute_dual(u2, spec3), abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.01, 10.0), min_size=2, max_size=5),
    st.lists(st.floats(0.0, 10.0), min_size=2, max_size=5),
    st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
)
def test_dual_norm_hoelder(uvals, pvals, q):
    d = min(len(uvals), len(pvals))
    u = np.array(uvals[:d])
    p = np.array(pvals[:d])
    spec = CostSpec(q=q, beta=1.0)
    lhs = float(u @ p)
    rhs = weighted_norm(p, spec) * dual_norm(u, spec) + 1e-9
    assert lhs <= rhs


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 50.0), st.sampled_from([1.0, 2.0, 4.0, math.inf]))
def test_dual_norm_scaling(c, q):
    u = np.array([0.3, 1.7, 0.2])
    spec = CostSpec(q=q, beta=1.0)
    assert dual_norm(c * u, spec) == pytest.approx(c * dual_norm(u, spec), rel=1e-10)


@pytest.mark.parametrize("alpha", [None, (0.5, 2.0, 1.0, 3.0, 0.25)])
@pytest.mark.parametrize("q", [1.0, 1.3, 2.0, 3.0, math.inf])
def test_dual_norm_stacked_bitwise_matches_row_loop(q, alpha):
    # One call over a stack gives, bit for bit, what one call per row gives:
    # for the dual norm, the norm and (1 < q < inf) the dual point.  The
    # weighted case runs on the users divided by alpha.
    U = np.random.default_rng(11).random((37, 5))
    U[3] = 0.0  # a zero row, and a row with zeros, stay exact too
    U[4, 1:] = 0.0
    if alpha is not None:
        U = U / np.array(alpha)
    spec = CostSpec(q=q, beta=1.0)
    kernels = [dual_norm, weighted_norm] + ([dual_point] if 1.0 < q < math.inf else [])
    for kernel in kernels:
        rows = U if kernel is not dual_point else np.delete(U, 3, axis=0)
        stacked = kernel(rows, spec)
        loop = np.array([kernel(row, spec) for row in rows])
        assert stacked.shape == loop.shape
        assert stacked.tobytes() == loop.tobytes(), kernel.__name__
        assert kernel(rows[:1], spec).tobytes() == loop[:1].tobytes()


@pytest.mark.parametrize("alpha", [None, (0.5, 2.0, 1.0, 3.0, 0.25)])
@pytest.mark.parametrize("q", [1.3, 2.0, 3.0])
def test_dual_point_has_unit_cost_and_attains_the_dual_norm(q, alpha):
    # The weighted case runs on the value vectors divided by alpha.
    V = np.random.default_rng(5).random((20, 5))
    V[0, 2:] = 0.0  # zero values get zero content
    if alpha is not None:
        V = V / np.array(alpha)
    spec = CostSpec(q=q, beta=1.0)
    P = dual_point(V, spec)
    assert np.all(P >= 0) and np.all(P[0, 2:] == 0)
    assert np.allclose(weighted_norm(P, spec), 1.0, rtol=1e-14)
    assert np.allclose((P * V).sum(axis=1), dual_norm(V, spec), rtol=1e-14)
    # No unit-cost point of a random sample scores higher.
    Q = np.random.default_rng(6).random((2000, 5))
    Q /= weighted_norm(Q, spec)[:, None]
    assert np.all(Q @ V.T <= (P * V).sum(axis=1) * (1 + 1e-14))


def test_dual_norm_stack_validation():
    spec = CostSpec(q=2.0, beta=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        dual_norm(np.array([[1.0, 0.0], [0.5, -0.1]]), spec)
    with pytest.raises(ValueError, match="non-finite"):
        dual_norm(np.array([[1.0, np.nan]]), spec)
    with pytest.raises(ValueError, match="at least one axis"):
        dual_norm(1.0, spec)


def test_user_set_validation():
    with pytest.raises(ValueError):
        UserSet(np.array([[1.0, -0.1]]))
    with pytest.raises(ValueError):
        UserSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        UserSet(np.zeros((0, 2)))
    us = UserSet(np.eye(3))
    assert us.n_users == 3 and us.dim == 3


def test_cost_spec_validation():
    with pytest.raises(ValueError):
        CostSpec(q=0.5)
    with pytest.raises(ValueError):
        CostSpec(beta=0.9)


def test_builders():
    assert np.all(basis_pair().embeddings == np.eye(2))
    pair = angle_pair(math.pi / 3).embeddings
    assert angle_between(pair[0], pair[1]) == pytest.approx(math.pi / 3, abs=1e-12)
    us = orthonormal_users(4)
    assert us.embeddings.shape == (4, 4)
    assert np.allclose(us.embeddings @ us.embeddings.T, np.eye(4))


def test_angle_pair_zero_is_homogeneous_pair():
    pair = angle_pair(0.0).embeddings
    assert np.all(pair[0] == pair[1])
    with pytest.raises(ValueError):
        angle_pair(2.0)


def test_two_user_plane_roundtrip():
    u1 = np.array([1.0, 0.0, 0.0])
    u2 = np.array([0.6, 0.8, 0.0])
    plane = two_user_plane(u1, u2)
    assert plane.theta_star == pytest.approx(math.acos(0.6), abs=1e-12)
    b = plane.basis
    assert np.allclose(b @ b.T, np.eye(2), atol=1e-12)
    # In-plane angle 0 is u1's direction; theta_star lands on u2's.
    assert np.allclose(plane.direction(0.0), u1, atol=1e-12)
    assert np.allclose(plane.direction(plane.theta_star), u2, atol=1e-12)
    xy = np.array([[0.2, 0.5], [1.0, 0.0]])
    amb = plane.embed(xy)
    assert amb.shape == (2, 3)
    assert np.allclose(amb @ b.T, xy, atol=1e-12)


def test_two_user_plane_rejects_dependence():
    with pytest.raises(ValueError):
        two_user_plane(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
