"""Solver unit tests: residuals, Jacobian, initialization, recovery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtm3d.geometry import (
    Box3D,
    CameraModel,
    KeypointSet,
    box_points_3d,
    project_points,
    rot_y,
    so3_exp,
    so3_log,
    so3_log_parts,
    wrap_to_pi,
)
from rtm3d.solver import (
    MEAN_CAR_DIMS,
    DivergedError,
    EnergyWeights,
    InsufficientConstraints,
    Priors,
    SolverConfig,
    _lm_steps,
    _rotation_prior_jacobian,
    _softmax_rows,
    initialize,
    jacobian_camera_point,
    residual_camera_point,
    residual_dimension,
    residual_rotation,
    solve,
    solve_batch,
    total_energy,
)
from rtm3d.synth import NoiseSpec, SceneSpec, apply_noise, default_camera, generate_scene

CAM = CameraModel(fx=721.5377, fy=721.5377, cx=609.5593, cy=172.854)


def _random_box(rng):
    dims = np.array([1.53, 1.62, 3.89]) + rng.normal(0.0, [0.13, 0.10, 0.41])
    t = np.array([rng.uniform(-8, 8), rng.uniform(1.3, 1.9), rng.uniform(6, 50)])
    return Box3D(dims=np.abs(dims) + 0.2, t=t, yaw=rng.uniform(-math.pi, math.pi))


def _keypoints_of(box, conf=None):
    pts = project_points(CAM, box_points_3d(box))
    conf = np.ones(9) if conf is None else conf
    return KeypointSet(pts=pts, conf=conf, visible=np.ones(9, dtype=bool))


def test_residual_zero_at_ground_truth():
    rng = np.random.default_rng(0)
    for _ in range(20):
        box = _random_box(rng)
        res = residual_camera_point(box, _keypoints_of(box), CAM)
        assert res.shape == (18,)
        np.testing.assert_allclose(res, 0.0, atol=1e-10)


def test_residual_masks_invisible_rows():
    rng = np.random.default_rng(1)
    box = _random_box(rng)
    kps = _keypoints_of(box)
    shifted = KeypointSet(
        pts=kps.pts + 3.0,
        conf=kps.conf,
        visible=np.array([True] * 5 + [False] * 4),
    )
    res = residual_camera_point(box, shifted, CAM)
    assert np.all(res[:10] != 0.0)
    np.testing.assert_allclose(res[10:], 0.0)


def test_jacobian_matches_finite_differences():
    from rtm3d.geometry import Twist, corner_offsets, exp_se3, rot_y

    rng = np.random.default_rng(2)
    box = _random_box(rng)
    kps = _keypoints_of(box)
    jac = jacobian_camera_point(box, CAM)
    assert jac.shape == (18, 9)
    eps = 1e-6
    r0 = rot_y(box.yaw)

    def perturbed(s):
        # Left-multiplicative pose perturbation plus a dimension step.
        delta = exp_se3(Twist(v=s[:3], w=s[3:6]))
        r = delta.r @ r0
        t = delta.r @ box.t + delta.t
        pts3d = corner_offsets(box.dims + s[6:]) @ r.T + t
        return (kps.pts - project_points(CAM, pts3d)).reshape(-1)

    for k in range(9):
        step = np.zeros(9)
        step[k] = eps
        fd = (perturbed(step) - perturbed(-step)) / (2 * eps)
        np.testing.assert_allclose(jac[:, k], fd, atol=1e-4)


def test_confidence_weight_softmax():
    w = _softmax_rows(np.ones(9))
    assert w.shape == (18,)
    np.testing.assert_allclose(w, 2.0 / 18.0)
    # Softmax is invariant to a constant shift of the confidences.
    rng = np.random.default_rng(3)
    conf = rng.uniform(0.1, 1.0, 9)
    np.testing.assert_allclose(_softmax_rows(conf), _softmax_rows(conf + 5.0), atol=1e-12)
    # Higher confidence gets higher weight.
    diag = _softmax_rows(np.linspace(0.1, 1.0, 9))[::2]
    assert np.all(np.diff(diag) > 0)


@given(st.floats(-1.4, 1.4), st.floats(-1.4, 1.4))
@settings(max_examples=200)
def test_residual_rotation_is_wrapped_difference(yaw, theta):
    res = residual_rotation(yaw, theta)
    assert res.shape == (3,)
    assert abs(np.linalg.norm(res) - abs(wrap_to_pi(theta - yaw))) < 1e-9


def test_residual_dimension():
    np.testing.assert_allclose(
        residual_dimension(np.array([1.5, 1.6, 3.9]), np.array([1.4, 1.7, 3.8])),
        [-0.1, 0.1, -0.1],
        atol=1e-12,
    )


def test_initialize_backprojects_center():
    rng = np.random.default_rng(4)
    for _ in range(10):
        box = _random_box(rng)
        priors = Priors(d_hat=box.dims.copy(), theta_hat=box.yaw, z_hat=box.t[2])
        r, t, dims = initialize(priors, _keypoints_of(box), CAM)
        np.testing.assert_allclose(dims, box.dims)
        center = box.t - [0.0, box.h / 2.0, 0.0]
        start = r @ np.zeros(3) + t - [0.0, dims[0] / 2.0, 0.0]
        np.testing.assert_allclose(start[2], center[2], atol=1e-9)
        np.testing.assert_allclose(start[:2], center[:2], atol=1e-6)


def test_initialize_without_depth_prior_uses_vertical_extent():
    rng = np.random.default_rng(5)
    box = _random_box(rng)
    priors = Priors(d_hat=box.dims.copy())
    r, t, dims = initialize(priors, _keypoints_of(box), CAM)

    # Similar triangles on the box height give a usable depth guess.
    assert 0.5 * box.t[2] < t[2] < 2.0 * box.t[2]


def test_solve_recovers_noiseless_box():
    rng = np.random.default_rng(6)
    for _ in range(20):
        box = _random_box(rng)
        kps = _keypoints_of(box)
        priors = Priors(d_hat=box.dims.copy(), theta_hat=box.yaw, z_hat=box.t[2])
        init = Box3D(
            dims=box.dims * rng.uniform(0.9, 1.1, 3),
            t=box.t + rng.uniform(-0.5, 0.5, 3),
            yaw=box.yaw + rng.uniform(-0.2, 0.2),
        )
        # The dimension prior pins the scale that projection alone leaves free.
        report = solve(kps, CAM, priors, EnergyWeights(), SolverConfig(init_box=init))
        assert report.converged
        np.testing.assert_allclose(report.box.t, box.t, atol=1e-6)
        np.testing.assert_allclose(report.box.dims, box.dims, atol=1e-6)
        assert abs(wrap_to_pi(report.box.yaw - box.yaw)) < 1e-6


def test_solve_requires_enough_keypoints():
    rng = np.random.default_rng(7)
    box = _random_box(rng)
    kps = _keypoints_of(box)
    few = KeypointSet(pts=kps.pts, conf=kps.conf, visible=np.array([True] * 4 + [False] * 5))
    with pytest.raises(InsufficientConstraints):
        solve(few, CAM, Priors())
    # With all three priors two visible keypoints suffice.
    two = KeypointSet(pts=kps.pts, conf=kps.conf, visible=np.array([True, True] + [False] * 7))
    report = solve(two, CAM, Priors(d_hat=box.dims.copy(), theta_hat=box.yaw, z_hat=box.t[2]))
    assert report.iterations >= 0


def test_total_energy_terms():
    rng = np.random.default_rng(8)
    box = _random_box(rng)
    kps = _keypoints_of(box)
    priors = Priors(d_hat=box.dims + 0.1, theta_hat=box.yaw + 0.05, z_hat=box.t[2])
    cost, terms = total_energy(box, kps, CAM, priors, EnergyWeights(w_d=2.0, w_r=3.0))
    assert set(terms) == {"camera_point", "dimension", "rotation"}
    assert cost == pytest.approx(
        terms["camera_point"] + terms["dimension"] + terms["rotation"]
    )
    assert terms["camera_point"] == pytest.approx(0.0, abs=1e-12)
    assert terms["dimension"] == pytest.approx(2.0 * 3 * 0.01, rel=1e-9)
    assert terms["rotation"] == pytest.approx(3.0 * 0.05**2, rel=1e-9)


def test_mean_car_dims_constant():
    np.testing.assert_allclose(MEAN_CAR_DIMS, [1.53, 1.62, 3.89])


def _rotation_residual(r, theta_hat):
    return so3_log(r.T @ rot_y(theta_hat))


def test_rotation_prior_jacobian_matches_finite_differences():
    # Closed form -J_l^{-1}(e) R^T against central differences of
    # Log(R^T R_y(theta_hat)) under a left perturbation Exp(dw) R.
    rng = np.random.default_rng(9)
    h = 1e-6
    cases = []
    for _ in range(50):
        theta_hat = rng.uniform(-math.pi, math.pi)
        e0 = rng.normal(size=3)
        e0 *= rng.uniform(0.0, 3.0) / np.linalg.norm(e0)
        cases.append((rot_y(theta_hat) @ so3_exp(-e0), theta_hat))
    # |e| below the Taylor threshold.
    theta_hat = 0.7
    cases.append((rot_y(theta_hat) @ so3_exp(np.array([1e-9, -2e-9, 5e-10])), theta_hat))
    cases.append((rot_y(theta_hat), theta_hat))
    r = np.array([c[0] for c in cases])
    thetas = np.array([c[1] for c in cases])
    jac = _rotation_prior_jacobian(r, thetas)
    e, theta, near_pi = so3_log_parts(r.transpose(0, 2, 1) @ rot_y(thetas))
    assert not near_pi.any()
    assert theta[-2] < 1e-8 and theta[-1] < 1e-8
    for (rk, th), ek, jk in zip(cases, e, jac):
        np.testing.assert_allclose(ek, _rotation_residual(rk, th), atol=1e-12)
        fd = np.empty((3, 3))
        for k in range(3):
            dw = np.zeros(3)
            dw[k] = h
            fd[:, k] = (
                _rotation_residual(so3_exp(dw) @ rk, th) - _rotation_residual(so3_exp(-dw) @ rk, th)
            ) / (2 * h)
        np.testing.assert_allclose(jk, fd, atol=1e-6)


def _noisy_objects(n, seed0):
    cam = default_camera()
    objects = []
    for i in range(n):
        scene = generate_scene(SceneSpec(n_objects=1, seed=seed0 + i), cam)
        noise = NoiseSpec(pixel_sigma=(0.0, 1.0, 2.0, 4.0)[i % 4], dropout=0.1)
        noisy = apply_noise(scene, noise, seed=i)
        objects.append((noisy[0].kps, scene[0].priors))
    return cam, objects


def test_solve_batch_matches_single_solves():
    cam, objects = _noisy_objects(320, 7000)
    kps = [k for k, _ in objects]
    priors = [p for _, p in objects]
    batch = solve_batch(kps, [cam] * len(kps), priors)
    solved = 0
    for k, p, b in zip(kps, priors, batch):
        try:
            single = solve(k, cam, p)
        except InsufficientConstraints:
            assert isinstance(b, InsufficientConstraints)
            continue
        solved += 1
        np.testing.assert_allclose(b.box.t, single.box.t, rtol=0, atol=1e-9)
        np.testing.assert_allclose(b.box.dims, single.box.dims, rtol=0, atol=1e-9)
        assert abs(wrap_to_pi(b.box.yaw - single.box.yaw)) <= 1e-9
        assert b.iterations == single.iterations and b.converged == single.converged
    assert solved >= 300


def test_nan_keypoint_fails_only_its_object():
    rng = np.random.default_rng(10)
    boxes = [_random_box(rng) for _ in range(3)]
    kps = [_keypoints_of(b) for b in boxes]
    pts = kps[1].pts.copy()
    pts[3, 0] = np.nan
    kps[1] = KeypointSet(pts=pts, conf=kps[1].conf, visible=kps[1].visible)
    priors = [Priors(d_hat=b.dims.copy(), theta_hat=b.yaw, z_hat=b.t[2]) for b in boxes]
    out = solve_batch(kps, [CAM] * 3, priors)
    assert isinstance(out[1], DivergedError)
    for i in (0, 2):
        np.testing.assert_allclose(out[i].box.t, boxes[i].t, atol=1e-6)
    with pytest.raises(DivergedError):
        solve(kps[1], CAM, priors[1])


@pytest.mark.parametrize("yaw", [-math.pi, math.pi, math.pi - 1e-7])
def test_solve_with_prior_yaw_at_pi(yaw):
    rng = np.random.default_rng(11)
    for _ in range(5):
        box = _random_box(rng)
        box = Box3D(dims=box.dims, t=box.t, yaw=yaw)
        priors = Priors(d_hat=box.dims.copy(), theta_hat=yaw, z_hat=box.t[2])
        report = solve(_keypoints_of(box), CAM, priors)
        np.testing.assert_allclose(report.box.t, box.t, atol=1e-6)
        np.testing.assert_allclose(report.box.dims, box.dims, atol=1e-6)
        assert abs(wrap_to_pi(report.box.yaw - box.yaw)) < 1e-6


def test_lm_steps_isolate_a_singular_system():
    # One singular system makes numpy reject the whole stack; the others
    # must still get their steps.
    jtj = np.stack([np.eye(9), np.zeros((9, 9)), 2.0 * np.eye(9)])
    grad = np.ones((3, 9))
    steps = _lm_steps(jtj, grad, np.zeros(3))
    np.testing.assert_allclose(steps[0], -1.0)
    assert np.isnan(steps[1]).all()
    np.testing.assert_allclose(steps[2], -0.5)
