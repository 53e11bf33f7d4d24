"""Geometry layer: norms, duals, planes, and the induced two-user cost."""

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
    induced_cost,
    induced_cost_grad,
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
    speca = CostSpec(q=2.0, beta=1.0, alpha=np.array([2.0, 0.5]))
    assert weighted_norm(p, speca) == pytest.approx(math.hypot(6.0, 2.0))


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
    # same bits as their absolute values and as the explicit |w|^2 sum.
    spec = CostSpec(q=2.0, beta=1.0, alpha=alpha)
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((9, 3)) * [1.0, 1e-3, 1e3]
    pts[0] = [-0.0, -1.5, 0.0]
    pts[1] = [-0.0, -0.0, -0.0]
    pts[2, 1] = -0.0
    got = weighted_norm(pts, spec)
    w = np.abs(pts if alpha is None else pts * alpha)
    ref = np.sqrt((w * w).sum(axis=-1))
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(got.view(np.uint64), weighted_norm(np.abs(pts), spec).view(np.uint64))
    for row, v in zip(pts, got):
        assert np.float64(weighted_norm(row, spec)).view(np.uint64) == np.float64(v).view(np.uint64)
    assert got[1] == 0.0 and not np.signbit(got[1])


def test_cost_is_norm_to_beta():
    spec = CostSpec(q=2.0, beta=4.0, alpha=np.array([1.0, 3.0]))
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
    speca = CostSpec(q=3.0, beta=1.0, alpha=np.array([2.0, 0.7]))
    u2 = np.array([0.4, 1.1])
    assert dual_norm(u2, speca) == pytest.approx(brute_dual(u2, speca), abs=1e-6)


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
    with pytest.raises(ValueError):
        CostSpec(alpha=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        CostSpec(alpha=np.array([1.0, -2.0]))


def test_uniform_alpha_scalar():
    assert CostSpec().uniform_alpha() == 1.0
    assert CostSpec(alpha=np.array([3.0, 3.0])).uniform_alpha() == 3.0
    with pytest.raises(ValueError):
        CostSpec(alpha=np.array([1.0, 2.0])).uniform_alpha()


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


def _solve_plane_point(z, theta):
    # z = (x, x cos + y sin) inverts linearly; independent of the closed form.
    x = z[0]
    y = (z[1] - x * math.cos(theta)) / math.sin(theta)
    return np.array([x, y])


@pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 4, 1.2])
def test_induced_cost_matches_linear_solve(theta):
    # Sample p = mu1*u1 + mu2*u2 with mu >= 0 so z stays in the users' cone.
    spec = CostSpec(q=2.0, beta=3.0)
    rng = np.random.default_rng(2)
    u1 = np.array([1.0, 0.0])
    u2 = np.array([math.cos(theta), math.sin(theta)])
    for _ in range(20):
        mu = np.abs(rng.standard_normal(2)) + 0.05
        p = mu[0] * u1 + mu[1] * u2
        z = np.array([u1 @ p, u2 @ p])
        want = float(np.linalg.norm(_solve_plane_point(z, theta))) ** 3.0
        assert induced_cost(z, theta, spec) == pytest.approx(want, rel=1e-10)


def test_induced_cost_uniform_alpha_prefactor():
    theta = math.pi / 3
    z = np.array([0.7, 0.9])
    base = induced_cost(z, theta, CostSpec(q=2.0, beta=2.0))
    scaled = induced_cost(z, theta, CostSpec(q=2.0, beta=2.0, alpha=np.array([2.0, 2.0])))
    assert scaled == pytest.approx(4.0 * base, rel=1e-12)


def test_induced_cost_requires_euclidean():
    with pytest.raises(ValueError):
        induced_cost(np.array([1.0, 1.0]), math.pi / 3, CostSpec(q=3.0, beta=2.0))
    with pytest.raises(ValueError):
        induced_cost(
            np.array([1.0, 1.0]), math.pi / 3, CostSpec(q=2.0, beta=2.0, alpha=np.array([1.0, 2.0]))
        )


def test_induced_cost_rejects_points_outside_cone():
    # z2 far below z1*cos(theta) needs a negative second coordinate.
    with pytest.raises(ValueError):
        induced_cost(np.array([1.0, 0.0]), math.pi / 3, CostSpec(q=2.0, beta=2.0))


def test_induced_cost_grad_finite_differences():
    theta = 1.1
    spec = CostSpec(q=2.0, beta=3.5)
    rng = np.random.default_rng(3)
    u1 = np.array([1.0, 0.0])
    u2 = np.array([math.cos(theta), math.sin(theta)])
    for _ in range(10):
        mu = np.abs(rng.standard_normal(2)) + 0.2
        p = mu[0] * u1 + mu[1] * u2
        z = np.array([u1 @ p, u2 @ p])
        g = induced_cost_grad(z, theta, spec)
        h = 1e-6
        for k in range(2):
            dz = np.zeros(2)
            dz[k] = h
            num = (induced_cost(z + dz, theta, spec) - induced_cost(z - dz, theta, spec)) / (2 * h)
            assert g[k] == pytest.approx(num, rel=1e-5, abs=1e-7)


def test_induced_cost_grad_batched_shape():
    theta = 0.9
    spec = CostSpec(q=2.0, beta=2.0)
    zs = np.abs(np.random.default_rng(4).standard_normal((6, 2))) + 0.5
    out = induced_cost_grad(zs, theta, spec)
    assert out.shape == (6, 2)
    single = induced_cost_grad(zs[0], theta, spec)
    assert np.allclose(out[0], single)
