"""Geometry unit tests: SO(3) maps, the box template and corners, projection,
angle helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtm3d import synth
from rtm3d.geometry import (
    BOX_TEMPLATE,
    MIN_DEPTH,
    AngleNearPi,
    BehindCamera,
    Box3D,
    CameraModel,
    KeypointSet,
    alpha_to_yaw,
    box_points,
    box_points_3d,
    corner_offsets,
    project_points,
    rot_y,
    so3_exp,
    so3_log,
    so3_log_parts,
    wrap_to_pi,
    yaw_to_alpha,
)
from rtm3d.solver import residual_camera_point

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@given(angles)
def test_wrap_to_pi_range(a):
    w = wrap_to_pi(a)
    assert -math.pi <= w <= math.pi
    assert abs(math.sin(w) - math.sin(a)) < 1e-9
    assert abs(math.cos(w) - math.cos(a)) < 1e-9


def test_rot_y_matches_so3_exp():
    for yaw in np.linspace(-3.0, 3.0, 17):
        np.testing.assert_allclose(rot_y(yaw), so3_exp(np.array([0.0, yaw, 0.0])), atol=1e-12)


@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
@settings(max_examples=200)
def test_so3_exp_log_roundtrip(w):
    w = np.asarray(w)
    if np.linalg.norm(w) > math.pi - 1e-3:
        w = w * (math.pi - 1e-3) / np.linalg.norm(w)
    r = so3_exp(w)
    np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(so3_log(r), w, atol=1e-9)


def test_so3_small_angle_taylor():
    w = np.array([1e-10, -2e-10, 5e-11])
    r = so3_exp(w)
    np.testing.assert_allclose(r, np.eye(3) + _skew(w), atol=1e-18)
    np.testing.assert_allclose(so3_log(r), w, atol=1e-18)


def _skew(w):
    return np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0.0]])


def test_so3_log_near_pi_raises():
    with pytest.raises(AngleNearPi):
        so3_log(rot_y(math.pi))


def test_rotation_maps_accept_stacks():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 5, 3))
    w[0, 0] = [1e-10, -2e-10, 5e-11]
    r = so3_exp(w)
    yaws = rng.uniform(-3.0, 3.0, size=6)
    np.testing.assert_array_equal(rot_y(yaws), [rot_y(y) for y in yaws])
    for i in range(4):
        for j in range(5):
            np.testing.assert_array_equal(r[i, j], so3_exp(w[i, j]))
            np.testing.assert_array_equal(so3_log(r)[i, j], so3_log(r[i, j]))
    stack = np.array([np.eye(3), rot_y(math.pi), rot_y(0.5)])
    with pytest.raises(AngleNearPi):
        so3_log(stack)
    vec, theta, near_pi = so3_log_parts(stack)
    assert near_pi.tolist() == [False, True, False]
    np.testing.assert_allclose(vec[2], [0.0, 0.5, 0.0], atol=1e-15)
    np.testing.assert_allclose(theta[[0, 2]], [0.0, 0.5], atol=1e-15)


def test_cor_matrix_layout():
    # Rows are the 8 corners, then the center, in camera axes (x, y, z),
    # which length, height and width scale.
    assert BOX_TEMPLATE.shape == (9, 3)
    # A bottom-anchored unit box: corners 0-3 at height 0, 4-7 at -1, each
    # top corner above its bottom corner.
    np.testing.assert_array_equal(BOX_TEMPLATE[:4, 1], 0.0)
    np.testing.assert_array_equal(BOX_TEMPLATE[4:8], BOX_TEMPLATE[:4] - [0.0, 1.0, 0.0])
    footprint = {tuple(row) for row in BOX_TEMPLATE[:4, ::2]}
    assert footprint == {(0.5, 0.5), (0.5, -0.5), (-0.5, -0.5), (-0.5, 0.5)}
    # The ninth row is the box center.
    np.testing.assert_array_equal(BOX_TEMPLATE[8], [0.0, -0.5, 0.0])
    dims = np.array([1.5, 1.6, 3.9])  # (h, w, l)
    np.testing.assert_array_equal(corner_offsets(dims), BOX_TEMPLATE * [3.9, 1.5, 1.6])


def test_box_points_center_and_extent():
    box = Box3D(dims=np.array([1.5, 1.6, 3.9]), t=np.array([1.0, 1.5, 10.0]), yaw=0.3)
    pts = box_points_3d(box)
    assert pts.shape == (9, 3)
    np.testing.assert_allclose(pts[8], box.t - [0.0, box.h / 2.0, 0.0], atol=1e-12)
    # Corner-to-center distance equals half the space diagonal.
    diag = np.linalg.norm(pts[:8] - pts[8], axis=1)
    np.testing.assert_allclose(diag, np.linalg.norm(box.dims) / 2.0, atol=1e-12)
    # Bottom face sits at t_y, top face at t_y - h.
    ys = sorted(set(np.round(pts[:8, 1], 9)))
    assert ys == [pytest.approx(box.t[1] - box.h), pytest.approx(box.t[1])]


def test_box_points_yaw_rotates_footprint():
    dims = np.array([1.5, 1.6, 3.9])
    base = box_points_3d(Box3D(dims=dims, t=np.zeros(3), yaw=0.0))
    rotated = box_points_3d(Box3D(dims=dims, t=np.zeros(3), yaw=0.7))
    np.testing.assert_allclose(rotated, base @ rot_y(0.7).T, atol=1e-12)
    # The batched form stacks the one-box form.
    boxes = [Box3D(dims=dims * s, t=[s, 1.5, 10.0 * s], yaw=s - 1.0) for s in (0.5, 1.0, 2.0)]
    stacked = box_points(
        np.array([b.dims for b in boxes]), np.array([b.t for b in boxes]), rot_y([b.yaw for b in boxes])
    )
    np.testing.assert_array_equal(stacked, [box_points_3d(b) for b in boxes])


def test_project_known_point():
    cam = CameraModel(fx=700.0, fy=710.0, cx=600.0, cy=180.0)
    uv = project_points(cam, np.array([2.0, -1.0, 10.0]))
    np.testing.assert_allclose(uv, [[600.0 + 700.0 * 0.2, 180.0 - 710.0 * 0.1]])


def test_project_behind_camera_raises():
    cam = CameraModel(fx=700.0, fy=700.0, cx=600.0, cy=180.0)
    with pytest.raises(BehindCamera):
        project_points(cam, np.array([0.0, 0.0, -1.0]))
    with pytest.raises(BehindCamera):
        project_points(cam, np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 0.0]]))
    # Depth exactly MIN_DEPTH, after the camera offset, is behind for every
    # caller of the pinhole kernel; the next double above it is in front.  A
    # yaw-0 box of width 1 with its bottom center at z = 0.5 has corners 1, 2,
    # 5 and 6 at z = 0.
    box = Box3D(dims=np.array([1.5, 1.0, 4.0]), t=np.array([0.0, 1.5, 0.5]), yaw=0.0)
    near = [1, 2, 5, 6]
    np.testing.assert_array_equal(box_points_3d(box)[near, 2], 0.0)
    kps = KeypointSet(pts=np.zeros((9, 2)), conf=np.ones(9), visible=np.ones(9, dtype=bool))
    for depth in (MIN_DEPTH, np.nextafter(MIN_DEPTH, 1.0)):
        cam = CameraModel(fx=700.0, fy=700.0, cx=600.0, cy=180.0, t_cam=np.array([0.0, 0.0, depth]))
        on_camera = np.zeros(3)
        pts, visible = synth._keypoints(cam, box.dims, box.t, box.yaw)
        assert not visible[near].any()
        if depth == MIN_DEPTH:
            with pytest.raises(BehindCamera):
                project_points(cam, on_camera)
            with pytest.raises(BehindCamera):
                residual_camera_point(box, kps, cam)
            # synth places a keypoint behind the camera at (0, 0).
            np.testing.assert_array_equal(pts[near], 0.0)
        else:
            assert np.isfinite(project_points(cam, on_camera)).all()
            assert np.isfinite(residual_camera_point(box, kps, cam)).all()
            assert (np.abs(pts[near, 0]) > 1e9).all()


def test_project_with_camera_translation():
    cam = CameraModel(fx=700.0, fy=700.0, cx=600.0, cy=180.0, t_cam=np.array([0.06, 0.0, 0.0]))
    uv = project_points(cam, np.array([0.0, 0.0, 10.0]))
    np.testing.assert_allclose(uv, [[600.0 + 700.0 * 0.006, 180.0]])


@given(angles, st.floats(-20.0, 20.0), st.floats(2.0, 80.0))
@settings(max_examples=200)
def test_alpha_yaw_roundtrip(yaw, x, z):
    t = np.array([x, 1.5, z])
    alpha = yaw_to_alpha(yaw, t)
    assert -math.pi <= alpha <= math.pi
    assert abs(wrap_to_pi(alpha_to_yaw(alpha, t) - yaw)) < 1e-9
