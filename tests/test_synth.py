"""Synthetic scene oracle tests: determinism, noise, serialization, encoding."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rtm3d.geometry import (SolveInputs, box_points, box_points_3d, pinhole, project_points, rot_y, wrap_to_pi,
                            yaw_to_alpha)
from rtm3d.heatmaps import DIM_MEAN, DIM_STD, DOWNSAMPLE, decode_objects
from rtm3d.kitti import parse_labels, parse_solve_inputs
from rtm3d.synth import (
    HEIGHT_RANGE,
    IMAGE_SIZE,
    NoiseSpec,
    SceneArrays,
    SceneSpec,
    apply_noise,
    blocks,
    default_camera,
    encode_headmaps,
    generate_scene,
    keypoints_sidecar_text,
    parse_scene_objects,
    scene_gt_text,
    scene_priors_text,
)


def test_generate_scene_deterministic():
    a = generate_scene(SceneSpec(seed=7))
    b = generate_scene(SceneSpec(seed=7))
    assert len(a) == len(b) == 3
    for oa, ob in zip(a, b):
        np.testing.assert_array_equal(oa.box.dims, ob.box.dims)
        np.testing.assert_array_equal(oa.box.t, ob.box.t)
        assert oa.box.yaw == ob.box.yaw
        np.testing.assert_array_equal(oa.kps.pts, ob.kps.pts)


def test_generate_scene_seeds_differ():
    a = generate_scene(SceneSpec(seed=1, n_objects=1))
    b = generate_scene(SceneSpec(seed=2, n_objects=1))
    assert not np.allclose(a[0].box.t, b[0].box.t)


def test_generate_scene_in_view():
    w, h = IMAGE_SIZE
    for seed in range(5):
        for obj in generate_scene(SceneSpec(seed=seed)):
            assert obj.kps.visible.all()
            assert np.all(obj.kps.pts[:, 0] >= 0) and np.all(obj.kps.pts[:, 0] < w)
            assert np.all(obj.kps.pts[:, 1] >= 0) and np.all(obj.kps.pts[:, 1] < h)


def test_scene_keypoints_are_projections():
    cam = default_camera()
    for obj in generate_scene(SceneSpec(seed=3), cam):
        np.testing.assert_allclose(
            obj.kps.pts, project_points(cam, box_points_3d(obj.box)), atol=1e-9
        )


def test_noiseless_priors_match_ground_truth():
    for obj in generate_scene(SceneSpec(seed=4)):
        np.testing.assert_allclose(obj.priors.d_hat, obj.box.dims)
        assert obj.priors.theta_hat == pytest.approx(obj.box.yaw)
        assert obj.priors.z_hat == pytest.approx(obj.box.t[2])


def test_apply_noise_zero_is_identity():
    scene = generate_scene(SceneSpec(seed=5))
    noisy = apply_noise(scene, NoiseSpec(), seed=9)
    for a, b in zip(scene, noisy):
        np.testing.assert_array_equal(a.kps.pts, b.kps.pts)
        np.testing.assert_array_equal(a.kps.visible, b.kps.visible)
        np.testing.assert_allclose(b.kps.conf, 1.0)


def test_apply_noise_perturbs_and_scores():
    scene = generate_scene(SceneSpec(seed=6))
    noisy = apply_noise(scene, NoiseSpec(pixel_sigma=2.0), seed=9)
    for a, b in zip(scene, noisy):
        assert not np.allclose(a.kps.pts, b.kps.pts)
        assert np.all(b.kps.conf <= 1.0) and np.all(b.kps.conf >= 0.05)
        # Larger displacement means lower reported confidence.
        d = np.linalg.norm(b.kps.pts - a.kps.pts, axis=1)
        order = np.argsort(d)
        assert np.all(np.diff(b.kps.conf[order]) <= 1e-12)


def test_apply_noise_dropout_marks_invisible():
    scene = generate_scene(SceneSpec(seed=7, n_objects=3))
    noisy = apply_noise(scene, NoiseSpec(dropout=0.5), seed=11)
    dropped = sum(int((~obj.kps.visible).sum()) for obj in noisy)
    assert dropped > 0
    for obj in noisy:
        assert np.all(obj.kps.conf[~obj.kps.visible] == 0.0)


def test_apply_noise_deterministic():
    scene = generate_scene(SceneSpec(seed=8))
    a = apply_noise(scene, NoiseSpec(pixel_sigma=1.0, dropout=0.2), seed=3)
    b = apply_noise(scene, NoiseSpec(pixel_sigma=1.0, dropout=0.2), seed=3)
    for oa, ob in zip(a, b):
        np.testing.assert_array_equal(oa.kps.pts, ob.kps.pts)
        np.testing.assert_array_equal(oa.kps.visible, ob.kps.visible)


def test_gt_text_is_valid_kitti():
    scene = generate_scene(SceneSpec(seed=9))
    labels = parse_labels(scene_gt_text(scene))
    assert len(labels) == len(scene)
    for lb, obj in zip(labels, scene):
        assert lb.type == "Car"
        np.testing.assert_allclose(lb.dimensions, obj.box.dims, atol=5e-3)
        np.testing.assert_allclose(lb.location, obj.box.t, atol=5e-3)
        assert abs(wrap_to_pi(lb.rotation_y - obj.box.yaw)) < 5e-3
        assert abs(wrap_to_pi(lb.alpha - yaw_to_alpha(obj.box.yaw, obj.box.t))) < 5e-3


def test_sidecar_roundtrip():
    scene = apply_noise(
        generate_scene(SceneSpec(seed=10)), NoiseSpec(pixel_sigma=1.0, dropout=0.3), seed=2
    )
    # Every field of the record the kitti reader returns, the camera rows
    # included, has the solver's shape and dtype and the scene's values.
    n = len(scene)
    back = parse_solve_inputs(scene_priors_text(scene), keypoints_sidecar_text(scene), default_camera())
    assert isinstance(back, SolveInputs)
    want = SolveInputs.stack([o.kps for o in scene], [o.priors for o in scene], [default_camera()] * n)
    shapes = {"kp": (n, 9, 2), "conf": (n, 9), "vis": (n, 9), "d_hat": (n, 3), "theta_hat": (n,),
              "z_hat": (n,), "cams": (n, 7)}
    assert list(shapes) == list(SolveInputs._fields)
    for name, shape in shapes.items():
        got, field = getattr(back, name), getattr(want, name)
        assert (got.shape, got.dtype) == (shape, bool if name == "vis" else np.float64), name
        np.testing.assert_allclose(got, field, atol=1e-6, err_msg=name)


def test_parse_scene_objects_pairs_priors_with_keypoints():
    scene = generate_scene(SceneSpec(seed=11))
    pairs = parse_scene_objects(scene_priors_text(scene), keypoints_sidecar_text(scene))
    assert len(pairs) == len(scene)
    for (kps, priors), obj in zip(pairs, scene):
        np.testing.assert_allclose(kps.pts, obj.kps.pts, atol=1e-6)
        np.testing.assert_allclose(priors.d_hat, obj.priors.d_hat, atol=1e-6)
        assert priors.theta_hat == pytest.approx(obj.priors.theta_hat, abs=1e-6)
        assert priors.z_hat == pytest.approx(obj.priors.z_hat, abs=1e-6)


def test_encode_decode_roundtrip_small():
    for seed in range(10):
        scene = generate_scene(SceneSpec(n_objects=1, seed=seed))
        maps = encode_headmaps(scene)
        objs = decode_objects(maps)
        assert len(objs) == 1
        obj, gt = objs[0], scene[0]
        assert np.abs(obj.kps.pts - gt.kps.pts).max() < 0.5
        assert abs(wrap_to_pi(obj.alpha_hat - yaw_to_alpha(gt.box.yaw, gt.box.t))) < 1e-9
        np.testing.assert_allclose(obj.d_hat, gt.box.dims, atol=1e-9)
        assert obj.z_hat == pytest.approx(gt.box.t[2], abs=1e-9)


def test_encode_headmaps_grid_shape():
    scene = generate_scene(SceneSpec(seed=12))
    maps = encode_headmaps(scene)
    assert maps.grid_shape == (IMAGE_SIZE[1] // 4, IMAGE_SIZE[0] // 4)
    assert maps.main.max() == 1.0
    assert maps.vertex.max() == 1.0


def _naive_draw(spec, camera):
    """One frame drawn the plain way, one box and one attempt at a time:
    the reference for :meth:`SceneArrays.draw`.  Returns the arrays of
    :class:`SceneArrays` and how many boxes ran out of draws."""
    rng = np.random.default_rng(spec.seed)
    f, c = np.array([camera.fx, camera.fy]), np.array([camera.cx, camera.cy])
    rows, unplaced = [], 0
    for _ in range(spec.n_objects):
        for _attempt in range(200):
            z = rng.normal(0.0, 1.0, size=3)
            while (np.abs(z) > 3.0).any():
                z = np.where(np.abs(z) > 3.0, rng.normal(0.0, 1.0, size=3), z)
            dims = DIM_MEAN + DIM_STD * z
            depth = rng.uniform(*spec.depth_range)
            lateral = rng.uniform(*spec.lateral_range)
            height = rng.uniform(*HEIGHT_RANGE)
            yaw = wrap_to_pi(rng.uniform(-math.pi, math.pi))
            t = np.array([lateral, height, depth])
            with np.errstate(divide="ignore", invalid="ignore"):
                uv, behind = pinhole(f, c, camera.t_cam, box_points(dims, t, rot_y(yaw)))
            pts = np.where(behind[:, None], 0.0, uv)
            visible = ~behind & ((pts >= 0) & (pts < np.array(IMAGE_SIZE))).all(axis=1)
            placed = bool(visible.all()) and len(set(map(tuple, np.floor(pts / DOWNSAMPLE).tolist()))) == 9
            if placed:
                break
        unplaced += not placed
        rows.append((dims, t, yaw, pts, np.where(visible, 1.0, 0.0), visible, dims, yaw, depth, placed))
    n = spec.n_objects
    shapes = ((3,), (3,), (), (9, 2), (9,), (9,), (3,), (), (), ())
    arrays = [np.array([r[i] for r in rows], dtype=bool if i in (5, 9) else float).reshape((n,) + shape)
              for i, shape in enumerate(shapes)]
    return arrays, unplaced


@pytest.mark.parametrize("frames, spec", [
    (200, SceneSpec(n_objects=5, seed=3000)),  # several blocks
    (3, SceneSpec(n_objects=0, seed=1)),
    (7, SceneSpec(n_objects=1, seed=1)),
    (3, SceneSpec(n_objects=20, seed=1)),
    (10, SceneSpec(n_objects=10, depth_range=(1.0, 3.0), seed=3)),  # every box runs out of draws
    # 96 of 100 boxes run out, and 4 frames have placed boxes beside them.
    (10, SceneSpec(n_objects=10, depth_range=(2.0, 6.0), seed=0)),
])
def test_block_draw_matches_the_naive_loop_bit_for_bit(frames, spec):
    camera = default_camera()
    got = [SceneArrays.draw(replace(spec, seed=spec.seed + b.start), camera, len(b))
           for b in blocks(frames, spec.n_objects)]
    want = [_naive_draw(replace(spec, seed=spec.seed + f), camera) for f in range(frames)]
    assert sum(s.unplaced() for s in got) == sum(u for _, u in want)
    for name, a, b in zip(SceneArrays._fields, zip(*got), zip(*(w for w, _ in want))):
        a, b = np.concatenate(a), np.concatenate(b)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    # The per-object API draws each frame alike.
    for f in (0, frames - 1):
        objects = generate_scene(replace(spec, seed=spec.seed + f), camera)
        assert np.array([o.kps.pts for o in objects]).reshape(-1, 9, 2).tobytes() == want[f][0][3].tobytes()
