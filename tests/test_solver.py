"""Solver unit tests: residuals, Jacobian, initialization, recovery."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtm3d import solver
from rtm3d.geometry import (
    Box3D,
    CameraModel,
    KeypointSet,
    box_points_3d,
    project_points,
    wrap_to_pi,
)
from rtm3d.heatmaps import DIM_MEAN
from rtm3d.solver import (
    DivergedError,
    EnergyWeights,
    InsufficientConstraints,
    Priors,
    SolveInputs,
    SolverConfig,
    _Batch,
    _jacobians,
    _lm_steps,
    _residuals,
    _softmax_rows,
    _starts,
    camera_rows,
    initialize,
    jacobian_camera_point,
    residual_camera_point,
    residual_dimension,
    residual_rotation,
    solve,
    solve_arrays,
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
    from scipy.spatial.transform import Rotation  # a test-only oracle

    from rtm3d.geometry import corner_offsets, rot_y

    rng = np.random.default_rng(2)
    box = _random_box(rng)
    kps = _keypoints_of(box)
    jac = jacobian_camera_point(box, CAM)
    assert jac.shape == (18, 9)
    eps = 1e-6
    r0 = rot_y(box.yaw)

    def perturbed(s):
        # Left-multiplicative pose perturbation plus a dimension step.  Each
        # step moves one coordinate, so the twist (v, w) is the rotation
        # exp(w) followed by the translation v.
        delta = Rotation.from_rotvec(s[3:6]).as_matrix()
        r = delta @ r0
        t = delta @ box.t + s[:3]
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


@given(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
@settings(max_examples=200)
def test_residual_rotation_is_wrapped_difference(yaw, theta):
    res = residual_rotation(yaw, theta)
    assert np.ndim(res) == 0
    assert -math.pi <= res <= math.pi
    assert abs(wrap_to_pi(res - (theta - yaw))) < 1e-12


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
        yaw, t, dims = initialize(priors, _keypoints_of(box), CAM)
        assert yaw == box.yaw
        np.testing.assert_allclose(dims, box.dims)
        center = box.t - [0.0, box.h / 2.0, 0.0]
        start = t - [0.0, dims[0] / 2.0, 0.0]
        np.testing.assert_allclose(start[2], center[2], atol=1e-9)
        np.testing.assert_allclose(start[:2], center[:2], atol=1e-6)


def test_start_anchors_without_the_center_keypoint():
    # With the center keypoint dropped, the start back-projects exactly the
    # mean of the visible keypoints, kp[vis].mean(axis=0); with none visible,
    # the principal point.  Batched rows of every visible count match.
    rng = np.random.default_rng(12)
    cam = CameraModel(fx=700.0, fy=690.0, cx=600.0, cy=170.0, t_cam=[0.3, -0.02, 0.004])
    kps, priors = [], []
    for i in range(40):
        box = _random_box(rng)
        visible = np.zeros(9, dtype=bool)
        visible[rng.permutation(8)[: i % 9]] = True
        pts = _keypoints_of(box).pts + rng.normal(0.0, 3.0, (9, 2))
        kps.append(KeypointSet(pts=pts, conf=np.ones(9), visible=visible))
        priors.append(Priors(d_hat=box.dims.copy(), theta_hat=box.yaw, z_hat=box.t[2]))
    x = _starts(SolveInputs.stack(kps, priors), camera_rows([cam] * len(kps)), SolverConfig())
    for k, p, row in zip(kps, priors, x):
        u, v = k.pts[k.visible].mean(axis=0) if k.visible.any() else (cam.cx, cam.cy)
        zp = p.z_hat + cam.t_cam[2]
        want = np.r_[(u - cam.cx) * zp / cam.fx - cam.t_cam[0],
                     (v - cam.cy) * zp / cam.fy - cam.t_cam[1] + p.d_hat[0] / 2.0,
                     p.z_hat, p.theta_hat, p.d_hat]
        assert row.tobytes() == want.tobytes()
        yaw, t, dims = initialize(p, k, cam)
        assert np.r_[t, yaw, dims].tobytes() == want.tobytes()


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
    priors = Priors(d_hat=box.dims.copy(), theta_hat=box.yaw, z_hat=box.t[2])
    one = KeypointSet(pts=kps.pts, conf=kps.conf, visible=np.array([True] + [False] * 8))
    with pytest.raises(InsufficientConstraints):
        solve(one, CAM, priors)
    # With all three priors two visible keypoints suffice.
    two = KeypointSet(pts=kps.pts, conf=kps.conf, visible=np.array([True, True] + [False] * 7))
    report = solve(two, CAM, priors)
    assert report.iterations >= 0


def test_each_lm_exit():
    obj = generate_scene(SceneSpec(n_objects=3, seed=5))[0]
    cam = default_camera()
    # A flat gradient at the start: converged, with no iteration counted.
    at_truth = solve(obj.kps, cam, obj.priors, config=SolverConfig(init_box=obj.box))
    assert at_truth.iterations == 0 and at_truth.converged
    assert at_truth.final_cost == 0.0
    # The iteration cap.
    off = Box3D(dims=obj.box.dims * 1.05, t=obj.box.t + [0.3, 0.0, 1.0], yaw=obj.box.yaw + 0.1)
    capped = solve(obj.kps, cam, obj.priors, config=SolverConfig(max_iter=1, init_box=off))
    assert capped.iterations == 1 and not capped.converged
    # With both tolerances 0 only exhausted damping stops the fit.
    exhausted = solve(obj.kps, cam, obj.priors, config=SolverConfig(g_tol=0.0, step_tol=0.0))
    assert not exhausted.converged
    assert exhausted.iterations < SolverConfig().max_iter


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
    np.testing.assert_allclose(DIM_MEAN, [1.53, 1.62, 3.89])


def test_solver_jacobian_matches_finite_differences():
    # The weighted (22, 7) Jacobian over states (t, yaw, dims) against central
    # differences of the weighted residuals, with confidence weights, dropped
    # keypoints and both priors on.  Yaw within 1e-7 of +-pi and priors across
    # the wrap check that the rotation residual is smooth there.
    rng = np.random.default_rng(9)
    h = 1e-6
    cases = []
    for _ in range(30):
        box = _random_box(rng)
        cases.append((box.dims, box.t, box.yaw, wrap_to_pi(box.yaw + rng.uniform(-0.5, 0.5))))
    for yaw, prior in [
        (math.pi - 5e-8, math.pi - 5e-8),
        (-math.pi + 5e-8, -math.pi + 5e-8),
        (math.pi - 5e-8, -math.pi + 5e-8),
        (-math.pi + 5e-8, math.pi - 0.3),
        (math.pi - 0.01, -math.pi + 0.01),
    ]:
        box = _random_box(rng)
        cases.append((box.dims, box.t, yaw, prior))
    kps, priors = [], []
    for dims, t, yaw, prior in cases:
        k = _keypoints_of(Box3D(dims=dims, t=t, yaw=yaw), rng.uniform(0.2, 1.0, 9))
        visible = rng.uniform(size=9) > 0.2
        noisy = k.pts + rng.normal(0.0, 2.0, (9, 2))
        kps.append(KeypointSet(pts=noisy, conf=k.conf, visible=visible))
        priors.append(Priors(d_hat=dims * rng.uniform(0.9, 1.1, 3), theta_hat=prior, z_hat=t[2]))
    b = _Batch.of(SolveInputs.stack(kps, priors), camera_rows([CAM] * len(cases)),
                  EnergyWeights(w_d=2.0, w_r=3.0))
    x = np.array([np.r_[t, yaw, dims] for dims, t, yaw, _ in cases])
    gap = np.array([wrap_to_pi(prior - yaw) for _, _, yaw, prior in cases])
    np.testing.assert_allclose(_residuals(b, x)[0][:, 21], math.sqrt(3.0) * gap, atol=1e-12)
    jac = _jacobians(b, x)
    assert jac.shape == (len(cases), 22, 7)
    fd = np.empty_like(jac)
    for k in range(7):
        dx = np.zeros(7)
        dx[k] = h
        fd[..., k] = (_residuals(b, x + dx)[0] - _residuals(b, x - dx)[0]) / (2 * h)
    rel = np.abs(jac - fd) / np.maximum(np.abs(fd), 1.0)
    assert rel.max() < 1e-5
    np.testing.assert_array_equal(jac[:, 21, 3], -math.sqrt(3.0))


def _noisy_objects(n, seed0):
    cam = default_camera()
    objects = []
    for i in range(n):
        scene = generate_scene(SceneSpec(n_objects=1, seed=seed0 + i), cam)
        noise = NoiseSpec(pixel_sigma=(0.0, 1.0, 2.0, 4.0)[i % 4], dropout=0.1)
        noisy = apply_noise(scene, noise, seed=i)
        objects.append((noisy[0].kps, scene[0].priors))
    return cam, objects


def _solve_all(kps, cams, priors):
    return solve_arrays(SolveInputs.stack(kps, priors), camera_rows(cams))


def test_solve_batch_matches_single_solves():
    # Each row of a batched solve_arrays is bit-equal to the solve of its
    # object alone, with the yaw wrapped as Box3D wraps it.
    cam, objects = _noisy_objects(320, 7000)
    kps = [k for k, _ in objects]
    priors = [p for _, p in objects]
    fit = _solve_all(kps, [cam] * len(kps), priors)
    solved = 0
    for j, (k, p) in enumerate(zip(kps, priors)):
        try:
            single = solve(k, cam, p)
        except InsufficientConstraints:
            assert isinstance(fit.errors[j], InsufficientConstraints)
            continue
        assert fit.errors[j] is None
        solved += 1
        x = fit.x[j]
        assert _report_bits(single) == (
            np.r_[x[:3], x[4:], wrap_to_pi(x[3]), fit.cost[j], fit.terms[j]].tobytes(),
            ["camera_point", "dimension", "rotation"], fit.iterations[j], fit.converged[j],
        )
    assert solved >= 300


def _report_bits(r):
    """Every field of a SolveReport as bytes, so equal means bit-equal."""
    box = r.box
    floats = np.r_[box.t, box.dims, box.yaw, r.final_cost, list(r.term_costs.values())]
    return floats.tobytes(), list(r.term_costs), r.iterations, r.converged


def _row_bits(fit, rows):
    """Every field of the Fit rows ``rows`` as bytes, so equal means bit-equal."""
    return [a[rows].tobytes() for a in fit[:5]]


def test_solve_batch_keeps_input_order_around_underconstrained_objects():
    cam, objects = _noisy_objects(60, 8000)
    kps = [k for k, _ in objects]
    priors = [p for _, p in objects]
    want = _solve_all(kps, [cam] * len(kps), priors)
    assert not any(want.errors)
    # Every fourth object gets a copy with 0 or 1 visible keypoints before it.
    mixed_kps, mixed_priors, sparse = [], [], []
    for i, (k, p) in enumerate(zip(kps, priors)):
        if i % 4 == 0:
            visible = np.zeros(9, dtype=bool)
            visible[i % 9] = i % 8 == 0
            sparse.append(len(mixed_kps))
            mixed_kps.append(KeypointSet(pts=k.pts, conf=k.conf, visible=visible))
            mixed_priors.append(p)
        mixed_kps.append(k)
        mixed_priors.append(p)
    got = _solve_all(mixed_kps, [cam] * len(mixed_kps), mixed_priors)
    assert all(len(a) == len(mixed_kps) == len(kps) + 15 for a in got)
    assert all(isinstance(got.errors[i], InsufficientConstraints) for i in sparse)
    fitted = np.setdiff1d(np.arange(len(mixed_kps)), sparse)
    assert not any(got.errors[fitted])
    assert _row_bits(got, fitted) == _row_bits(want, slice(None))
    empty = _solve_all([], [], [])
    assert [a.shape for a in empty] == [(0, 7), (0,), (0,), (0,), (0, 3), (0,)]


def test_solve_arrays_chunk_size_changes_no_result(monkeypatch):
    # More objects than one chunk, among them objects that cannot start:
    # every field, errors included, is the same at chunks of 7 and of 256.
    cam, objects = _noisy_objects(solver.SOLVE_CHUNK + 20, 9000)
    kps = [k for k, _ in objects]
    priors = [p for _, p in objects]
    for i in range(0, len(kps), 25):
        # Every 50th object gets NaN keypoints (it diverges), the ones between
        # them at most one visible keypoint (too few to start).
        pts, visible = kps[i].pts.copy(), kps[i].visible.copy()
        if i % 50:
            visible[:8] = False
        else:
            pts[:, 0] = np.nan
        kps[i] = KeypointSet(pts=pts, conf=kps[i].conf, visible=visible)
    want = _solve_all(kps, [cam] * len(kps), priors)
    monkeypatch.setattr(solver, "SOLVE_CHUNK", 7)
    got = _solve_all(kps, [cam] * len(kps), priors)
    for name in ("x", "cost", "terms"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    np.testing.assert_array_equal(got.iterations, want.iterations)
    np.testing.assert_array_equal(got.converged, want.converged)
    errors = [[(type(e), str(e)) for e in fit.errors] for fit in (got, want)]
    assert errors[0] == errors[1]
    kinds = {kind for kind, _ in errors[0]}
    assert {type(None), InsufficientConstraints, DivergedError} <= kinds


def test_nan_keypoint_fails_only_its_object():
    rng = np.random.default_rng(10)
    boxes = [_random_box(rng) for _ in range(3)]
    kps = [_keypoints_of(b) for b in boxes]
    pts = kps[1].pts.copy()
    pts[3, 0] = np.nan
    kps[1] = KeypointSet(pts=pts, conf=kps[1].conf, visible=kps[1].visible)
    priors = [Priors(d_hat=b.dims.copy(), theta_hat=b.yaw, z_hat=b.t[2]) for b in boxes]
    out = _solve_all(kps, [CAM] * 3, priors)
    assert isinstance(out.errors[1], DivergedError)
    for i in (0, 2):
        assert out.errors[i] is None
        np.testing.assert_allclose(out.x[i, :3], boxes[i].t, atol=1e-6)
    with pytest.raises(DivergedError):
        solve(kps[1], CAM, priors[1])


@pytest.mark.parametrize(
    "yaw, prior",
    [pytest.param(y, y, id=str(y)) for y in (-math.pi, math.pi, math.pi - 1e-7)]
    + [pytest.param(math.pi - 0.01, -math.pi + 0.01, id="prior-across-the-wrap")],
)
def test_solve_with_prior_yaw_at_pi(yaw, prior):
    # An exact prior recovers the box.  The prior across the wrap is 0.02 rad
    # off, so it pulls the fit by millimeters, not as a prior 2 pi - 0.02 away.
    tol = 1e-6 if prior == yaw else 1e-2
    rng = np.random.default_rng(11)
    for _ in range(5):
        box = _random_box(rng)
        box = Box3D(dims=box.dims, t=box.t, yaw=yaw)
        kps = _keypoints_of(box)
        priors = Priors(d_hat=box.dims.copy(), theta_hat=prior, z_hat=box.t[2])
        report = solve(kps, CAM, priors)
        np.testing.assert_allclose(report.box.t, box.t, atol=tol)
        np.testing.assert_allclose(report.box.dims, box.dims, atol=tol)
        assert abs(wrap_to_pi(report.box.yaw - box.yaw)) < tol / 10
        # The prior counts by its wrapped distance: shifted by -2 pi, with the
        # solved box, whose yaw lies in (-pi, pi], as the start, it moves nothing.
        shifted = solve(
            kps,
            CAM,
            replace(priors, theta_hat=prior - 2 * math.pi),
            config=SolverConfig(init_box=report.box),
        )
        np.testing.assert_allclose(shifted.box.t, report.box.t, atol=1e-8)
        assert abs(wrap_to_pi(shifted.box.yaw - report.box.yaw)) < 1e-8


def test_lm_steps_isolate_a_singular_system():
    # One singular system makes numpy reject the whole stack; the others
    # must still get their steps.
    jtj = np.stack([np.eye(9), np.zeros((9, 9)), 2.0 * np.eye(9)])
    grad = np.ones((3, 9))
    steps = _lm_steps(jtj, grad, np.zeros(3))
    np.testing.assert_allclose(steps[0], -1.0)
    assert np.isnan(steps[1]).all()
    np.testing.assert_allclose(steps[2], -0.5)
