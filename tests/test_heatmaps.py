"""Heatmap codec tests: targets, losses, fusion, peaks, orientation bins."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtm3d import heatmaps, synth
from rtm3d.cli import EXIT_OK, main
from rtm3d.heatmaps import (
    AREA_MAX,
    AREA_MIN,
    DIM_MEAN,
    DIM_STD,
    DOWNSAMPLE,
    FALLBACK_CONF,
    SIGMA_MAX,
    SIGMA_MIN,
    GroundTruthObject,
    HeadMaps,
    NonPositiveDimensionStandardization,
    adaptive_sigma,
    decode_objects,
    dimension_target,
    encode_objects,
    extract_peaks,
    focal_loss,
    group_keypoints,
    kfpn_fuse,
    multibin_decode,
    multibin_encode,
    read_headmaps,
    regression_losses,
    render_gaussian,
    write_headmaps,
    _bump_radius,
    _pool3_at,
)
from rtm3d.kitti import InputError
from rtm3d.synth import NoiseSpec, SceneArrays, SceneSpec, default_camera, encode_headmaps, generate_scene


def test_headmaps_zeros_planes():
    maps = HeadMaps.zeros(96, 320)
    assert maps.main.shape == (96, 320, 1)
    assert maps.vertex.shape == (96, 320, 9)
    assert maps.vertex_coord.shape == (96, 320, 18)
    assert maps.center_offset.shape == (96, 320, 2)
    assert maps.vertex_offset.shape == (96, 320, 2)
    assert maps.dims.shape == (96, 320, 3)
    assert maps.orientation.shape == (96, 320, 8)
    assert maps.depth.shape == (96, 320, 1)


def test_render_gaussian_peak_and_symmetry():
    hm = np.zeros((21, 21))
    render_gaussian(hm, (10, 10), sigma=4.0)
    assert hm[10, 10] == 1.0
    np.testing.assert_allclose(hm, hm[::-1, :], atol=1e-12)
    np.testing.assert_allclose(hm, hm[:, ::-1], atol=1e-12)
    # The denominator is 2*sigma, not 2*sigma^2.
    assert hm[10, 12] == pytest.approx(math.exp(-4.0 / 8.0))


def test_render_gaussian_max_compose():
    hm = np.zeros((11, 31))
    render_gaussian(hm, (10, 5), sigma=6.0)
    before = hm.copy()
    render_gaussian(hm, (20, 5), sigma=6.0)
    assert np.all(hm >= before - 1e-15)
    assert hm[5, 10] == 1.0 and hm[5, 20] == 1.0


def test_adaptive_sigma_clamps_and_scales():
    slope = (SIGMA_MAX - SIGMA_MIN) / (AREA_MAX - AREA_MIN)
    assert adaptive_sigma(100000.0) == pytest.approx(100000.0 * slope)
    assert adaptive_sigma(10 * AREA_MAX) == SIGMA_MAX
    assert adaptive_sigma(1.0) == SIGMA_MIN
    with pytest.raises(ValueError):
        adaptive_sigma(0.0)
    mid = 0.5 * (AREA_MAX + AREA_MIN)
    assert SIGMA_MIN <= adaptive_sigma(mid) <= SIGMA_MAX


def test_focal_loss_matches_naive():
    rng = np.random.default_rng(0)
    pred = rng.uniform(0.01, 0.99, size=(8, 8, 2))
    target = np.zeros((8, 8, 2))
    target[3, 4, 0] = 1.0
    target[1, 1, 1] = 1.0
    target[2, 2, 0] = 0.6
    total = 0.0
    n_pos = 0
    for i in range(8):
        for j in range(8):
            for c in range(2):
                p, y = pred[i, j, c], target[i, j, c]
                if y == 1.0:
                    total += (1 - p) ** 2 * math.log(p)
                    n_pos += 1
                else:
                    total += (1 - y) ** 4 * p**2 * math.log(1 - p)
    assert focal_loss(pred, target) == pytest.approx(-total / n_pos, abs=1e-12)


def test_focal_loss_no_positives_does_not_divide_by_zero():
    pred = np.full((4, 4, 1), 0.3)
    target = np.zeros((4, 4, 1))
    assert np.isfinite(focal_loss(pred, target))


def test_kfpn_identity_and_hand_value():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 7, 3))
    np.testing.assert_allclose(kfpn_fuse([x]), x, atol=0.0)
    a = np.full((1, 1, 1), 2.0)
    b = np.full((1, 1, 1), 0.0)
    fused = kfpn_fuse([a, b])
    # softmax(2, 0) = (0.8808, 0.1192); 2*0.8808 + 0*0.1192 = 1.7616.
    assert fused[0, 0, 0] == pytest.approx(1.7616, abs=1e-4)


def test_kfpn_fuse_bounded_by_inputs():
    rng = np.random.default_rng(2)
    full = rng.uniform(size=(8, 8, 1))
    half = np.kron(rng.uniform(size=(4, 4)), np.ones((2, 2)))[:, :, None]
    fused = kfpn_fuse([full, half])
    assert fused.shape == (8, 8, 1)
    assert np.all(fused >= np.minimum(full, half) - 1e-12)
    assert np.all(fused <= np.maximum(full, half) + 1e-12)
    with pytest.raises(ValueError):
        kfpn_fuse([full, rng.uniform(size=(4, 4, 1))])


def test_max_pool_equals_maximum_filter_bit_for_bit():
    from scipy import ndimage  # a test-only oracle

    rng = np.random.default_rng(5)
    for shape in [(1, 1), (1, 17), (17, 1), (2, 3), (24, 80), (96, 320, 3)]:
        # Few levels, so equal neighbours (plateaus) are common.
        maps = rng.integers(0, 4, size=shape) * 0.25
        maps = np.where(rng.uniform(size=shape) < 0.2, rng.uniform(size=shape), maps)
        planes = maps.reshape(shape[:2] + (-1,))
        # Pooled at every cell, in a shuffled order.
        ys, xs, cs = np.indices(planes.shape).reshape(3, -1)[:, rng.permutation(planes.size)]
        pooled = np.empty(planes.shape)
        pooled[ys, xs, cs] = _pool3_at(planes, ys, xs, cs)
        for c in range(planes.shape[2]):
            want = ndimage.maximum_filter(planes[:, :, c], size=3, mode="constant", cval=-np.inf)
            assert np.array_equal(pooled[:, :, c], want)


def test_extract_peaks_threshold_order_and_nms():
    m = np.zeros((9, 9, 1))
    m[2, 3, 0] = 0.9
    m[2, 4, 0] = 0.7  # suppressed: inside the 3x3 window of (3, 2)
    m[6, 6, 0] = 0.5
    m[8, 8, 0] = 0.05  # below threshold
    peaks = extract_peaks(m, threshold=0.1)
    assert peaks == [((3, 2), 0.9, 0), ((6, 6), 0.5, 0)]


def test_extract_peaks_topk_and_channels():
    m = np.zeros((9, 9, 2))
    m[1, 1, 0] = 0.6
    m[1, 5, 0] = 0.4
    m[5, 5, 1] = 0.8
    # topk applies per channel; results are globally score-sorted.
    peaks = extract_peaks(m, threshold=0.1, topk=1)
    assert peaks == [((5, 5), 0.8, 1), ((1, 1), 0.6, 0)]
    # At most topk per channel: none at all when topk is 0 or below.
    assert extract_peaks(m, threshold=0.1, topk=0) == []
    assert extract_peaks(m, threshold=0.1, topk=-1) == []


# ---------------------------------------------------------------------------
# Reference implementations, which the windowed renderer and the one-pass
# peak extraction must match: the full-grid bump and per-channel pooling.

HALF_SUBNORMAL_F32 = float(np.finfo(np.float32).smallest_subnormal) / 2.0


def _render_gaussian_full(heatmap, center, sigma):
    h, w = heatmap.shape
    cx, cy = int(round(center[0])), int(round(center[1]))
    ys, xs = np.mgrid[0:h, 0:w]
    bump = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma))
    np.maximum(heatmap, bump, out=heatmap)
    return heatmap


def _extract_peaks_per_channel(maps, threshold, topk=100):
    maps = np.asarray(maps, dtype=float)
    if maps.ndim == 2:
        maps = maps[:, :, None]
    p = np.pad(maps, [(1, 1), (1, 1), (0, 0)], constant_values=-np.inf)
    rows = np.maximum(np.maximum(p[:-2], p[1:-1]), p[2:])
    pooled = np.maximum(np.maximum(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])
    peaks = []
    for c in range(maps.shape[2]):
        plane = maps[:, :, c]
        ys, xs = np.nonzero((plane == pooled[:, :, c]) & (plane >= threshold))
        cand = sorted(zip(plane[ys, xs], ys, xs), key=lambda z: (-z[0], z[1], z[2]))
        kept = []
        for score, y, x in cand:
            if any(abs(y - ky) <= 1 and abs(x - kx) <= 1 for ky, kx in kept):
                continue
            kept.append((y, x))
            peaks.append(((int(x), int(y)), float(score), c))
            if len(kept) >= topk:
                break
    peaks.sort(key=lambda p: -p[1])
    return peaks


def _f32_bytes(a):
    return np.ascontiguousarray(a, dtype="<f4").tobytes()


@pytest.mark.parametrize("sigma", [1e-3, 0.75, 4.75, 50.0])
def test_render_gaussian_matches_full_grid_reference(sigma):
    h, w = 96, 320
    centers = [(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1), (0, 40), (w - 1, 40),
               (150, 0), (150, h - 1), (150, 40), (3, 2), (-5, 40), (w + 2, h + 2),
               (-100, 40), (150, -100), (w + 100, h + 100)]
    r = _bump_radius(sigma)
    for cx, cy in centers:
        got = render_gaussian(np.zeros((h, w)), (cx, cy), sigma)
        want = _render_gaussian_full(np.zeros((h, w)), (cx, cy), sigma)
        assert _f32_bytes(got) == _f32_bytes(want)
        inside = np.zeros((h, w), dtype=bool)
        inside[max(cy - r, 0):max(cy + r + 1, 0), max(cx - r, 0):max(cx + r + 1, 0)] = True
        # The window is drawn exactly; every cell outside it rounds to +0 in float32.
        assert np.array_equal(got[inside], want[inside])
        assert not got[~inside].any()
        assert np.all(want[~inside] < HALF_SUBNORMAL_F32)
    # Composed onto maps that already hold bumps and a subnormal-sized floor.
    rng = np.random.default_rng(6)
    for _ in range(5):
        floor = HALF_SUBNORMAL_F32 * rng.uniform(0.5, 2.0, size=(h, w))
        base = np.where(rng.uniform(size=(h, w)) < 0.5, floor, 0.0)
        got, want = base.copy(), base.copy()
        for _ in range(4):
            center = (rng.integers(-3, w + 3), rng.integers(-3, h + 3))
            s = sigma * rng.uniform(0.5, 1.0)
            render_gaussian(got, center, s)
            _render_gaussian_full(want, center, s)
        assert _f32_bytes(got) == _f32_bytes(want)


@pytest.mark.parametrize("n_objects, seed", [(1, 3), (5, 42), (20, 7)])
def test_encode_headmaps_f32_planes_match_full_grid_reference(n_objects, seed, monkeypatch):
    scenes = [generate_scene(SceneSpec(n_objects=n_objects, seed=seed + i)) for i in range(4)]
    got = [encode_headmaps(scene) for scene in scenes]
    monkeypatch.setattr(heatmaps, "render_gaussian", _render_gaussian_full)
    want = [encode_headmaps(scene) for scene in scenes]
    for a, b in zip(got, want):
        for name, _ in HeadMaps.PLANES:
            assert _f32_bytes(getattr(a, name)) == _f32_bytes(getattr(b, name)), name


def test_synth_headmaps_files_match_full_grid_reference(tmp_path, monkeypatch):
    spec = tmp_path / "scenes.cfg"
    spec.write_text("frames=3\nn_objects=5\nheadmaps=1\nseed=42\npixel_sigma=1\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", str(spec), str(a)]) == EXIT_OK
    monkeypatch.setattr(heatmaps, "render_gaussian", _render_gaussian_full)
    assert main(["synth", str(spec), str(b)]) == EXIT_OK
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert sum(p.suffix == ".rtmh" for p in files) == 3
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


# encode_objects on a 40 x 32 px image: an (H, W) = (8, 10) grid.
GRID = (8, 10)


def test_encode_objects_object_without_a_visible_keypoint_writes_nothing():
    pts = np.full((1, 9, 2), 10.0)
    maps = encode_objects(HeadMaps.zeros(*GRID), [[4.0, 4.0, 20.0, 16.0]], pts, np.zeros((1, 9), bool), DIM_MEAN[None],
                          [0.3], [12.0])
    for name, _ in HeadMaps.PLANES:
        assert not getattr(maps, name).any(), name


def test_encode_objects_off_grid_keypoint_gets_no_vertex_bump_or_offset():
    # Keypoint 0 lies left of the grid, keypoint 1 below it; the other seven
    # on seven distinct cells, none on a cell corner.
    on_grid = [[5.5 + 4 * k, 9.5 + k] for k in range(7)]
    pts = np.array([[[-3.0, 10.0], [30.0, 33.0]] + on_grid])
    dims = np.array([[1.6, 1.7, 4.0]])
    boxes = [[5.0, 6.0, 25.0, 18.0]]
    maps = encode_objects(HeadMaps.zeros(*GRID), boxes, pts, np.ones((1, 9), bool), dims, [0.3], [12.0])
    assert not maps.vertex[:, :, :2].any()
    cells = np.floor(pts[0, 2:] / DOWNSAMPLE).astype(int)
    for k, (x, y) in enumerate(cells.tolist(), start=2):
        assert maps.vertex[y, x, k] == 1.0
        np.testing.assert_array_equal(maps.vertex_offset[y, x], pts[0, k] / DOWNSAMPLE - [x, y])
    assert np.count_nonzero(maps.vertex_offset.any(axis=2)) == 7
    # The centre (15, 12) px is cell (3, 3); its planes are written all the same.
    assert maps.main[3, 3, 0] == 1.0
    np.testing.assert_array_equal(maps.center_offset[3, 3], [0.75, 0.0])
    np.testing.assert_array_equal(maps.vertex_coord[3, 3], (pts[0] / DOWNSAMPLE - [3, 3]).reshape(-1))
    np.testing.assert_array_equal(maps.dims[3, 3], (dims[0] - DIM_MEAN) / DIM_STD)
    np.testing.assert_array_equal(maps.orientation[3, 3], multibin_encode(0.3))
    assert maps.depth[3, 3, 0] == math.log(12.0)


@pytest.mark.parametrize("order", [[0, 1], [1, 0]])
def test_encode_objects_later_object_wins_a_shared_centre_cell(order):
    # Centres (15, 12) and (15.5, 13.5) px both fall in cell (3, 3).
    boxes = np.array([[5.0, 6.0, 25.0, 18.0], [13.0, 13.0, 18.0, 14.0]])
    pts = np.stack([np.full((9, 2), 9.0), np.full((9, 2), 26.0)])
    dims = np.array([[1.6, 1.7, 4.0], [1.4, 1.5, 3.6]])
    alpha, depth = np.array([0.3, -2.0]), np.array([12.0, 30.0])
    maps = encode_objects(HeadMaps.zeros(*GRID), boxes[order], pts[order], np.ones((2, 9), bool), dims[order],
                          alpha[order], depth[order])
    last = order[-1]
    np.testing.assert_array_equal(maps.vertex_coord[3, 3], (pts[last] / DOWNSAMPLE - [3, 3]).reshape(-1))
    np.testing.assert_array_equal(maps.dims[3, 3], (dims[last] - DIM_MEAN) / DIM_STD)
    np.testing.assert_array_equal(maps.orientation[3, 3], multibin_encode(alpha[last]))
    assert maps.depth[3, 3, 0] == math.log(depth[last])


def _assert_f32_is_the_f64_cast(narrow, wide):
    """Every plane of ``narrow`` is float32 and bit-equal to ``wide``'s cast,
    compared as uint32 so that -0 against +0 or differing NaNs cannot pass."""
    for name, _ in HeadMaps.PLANES:
        a, b = getattr(narrow, name), getattr(wide, name)
        assert a.dtype == np.float32 and b.dtype == np.float64, name
        assert np.array_equal(a.view(np.uint32), b.astype("<f4").view(np.uint32)), name


def test_encode_objects_in_float32_equals_the_float64_encoding_cast():
    # At 20 cars bumps overlap and centre cells are shared; noise and dropout
    # on every other scene move keypoints across cells and hide some of them.
    for i in range(200):
        scene = SceneArrays.draw(SceneSpec(n_objects=(1, 5, 20)[i % 3], seed=i), default_camera())
        if i % 2:
            scene = scene.noisy(NoiseSpec(pixel_sigma=1.0, dropout=0.3), seed=i)
        _assert_f32_is_the_f64_cast(scene.headmaps(HeadMaps.zeros(*synth.GRID, np.float32)), scene.headmaps())
    empty = SceneArrays.draw(SceneSpec(n_objects=0), default_camera())
    _assert_f32_is_the_f64_cast(empty.headmaps(HeadMaps.zeros(*synth.GRID, np.float32)), empty.headmaps())
    # An object with no visible keypoint.
    hidden = ([[4.0, 4.0, 20.0, 16.0]], np.full((1, 9, 2), 10.0), np.zeros((1, 9), bool), DIM_MEAN[None], [0.3], [12.0])
    _assert_f32_is_the_f64_cast(encode_objects(HeadMaps.zeros(*GRID, np.float32), *hidden),
                                encode_objects(HeadMaps.zeros(*GRID), *hidden))


def test_in_memory_head_maps_stay_float64_by_default():
    # Criterion 6 checks decoded priors to 1e-9 on these float64 maps.
    scene = generate_scene(SceneSpec(n_objects=5, seed=42))
    one = ([[4.0, 4.0, 20.0, 16.0]], np.full((1, 9, 2), 10.0), np.ones((1, 9), bool), DIM_MEAN[None], [0.3], [12.0])
    for maps in (HeadMaps.zeros(96, 320), encode_objects(HeadMaps.zeros(*GRID), *one), SceneArrays.of(scene).headmaps(),
                 encode_headmaps(scene)):
        assert {getattr(maps, name).dtype for name, _ in HeadMaps.PLANES} == {np.dtype(np.float64)}


def test_extract_peaks_matches_per_channel_reference():
    rng = np.random.default_rng(8)
    for shape in [(1, 1), (1, 9), (9, 1), (12, 17), (24, 40, 3), (40, 60, 9)]:
        # Rounded to 0.1, so plateaus and ties across channels are common.
        maps = np.round(rng.uniform(size=shape), 1)
        nan_maps = np.where(rng.uniform(size=shape) < 0.05, np.nan, maps)
        for m in (maps, nan_maps, maps.astype(np.float32)):
            for threshold in (0.0, 0.5, 0.9):
                for topk in (1, 3, 100):
                    want = _extract_peaks_per_channel(m, threshold, topk)
                    assert extract_peaks(m, threshold, topk) == want
    maps = encode_headmaps(generate_scene(SceneSpec(n_objects=5, seed=42)))
    for plane, threshold in ((maps.main, 0.4), (maps.vertex, 0.1), (maps.main[:, :, 0], 0.1)):
        for topk in (1, 3, 100):
            want = _extract_peaks_per_channel(plane, threshold, topk)
            assert want and extract_peaks(plane, threshold, topk) == want


def _peak_types(peaks):
    return [(type(x), type(y), type(score), type(c)) for (x, y), score, c in peaks]


def test_extract_peaks_float32_stack_equals_its_float64_widening():
    rng = np.random.default_rng(17)
    for shape in [(1, 1), (3, 3), (12, 17), (24, 40, 3), (40, 60, 9)]:
        # Few levels, so plateaus are common; float32(0.7) < 0.7 in float64.
        stack = (rng.integers(0, 5, size=shape) * 0.25).astype(np.float32)
        stack[rng.uniform(size=shape) < 0.1] = np.float32(0.7)
        stack[rng.uniform(size=shape) < 0.05] = np.nan
        stack.reshape(-1)[0] = np.float32(0.7)
        for threshold in (0.1, 0.5, 0.7):
            for topk in (1, 3, 100):
                got, want = extract_peaks(stack, threshold, topk), extract_peaks(stack.astype(float), threshold, topk)
                assert got == want
                assert _peak_types(got) == _peak_types(want) == [(int, int, float, int)] * len(want)
    lone = np.zeros((3, 3), np.float32)
    lone[1, 1] = 0.7
    assert extract_peaks(lone, 0.7) == [] and extract_peaks(lone, 0.6) == [((1, 1), float(np.float32(0.7)), 0)]
    # Non-float input is still read as float64.
    peaks = extract_peaks([[0, 1, 0], [0, 0, 0]], 0.5)
    assert peaks == [((1, 0), 1.0, 0)] and _peak_types(peaks) == [(int, int, float, int)]


def test_extract_peaks_nan_cell_vetoes_its_neighbours():
    m = np.zeros((7, 7))
    m[3, 3] = 0.9
    m[3, 4] = np.nan
    m[0, 0] = 0.5
    assert extract_peaks(m, 0.1) == [((0, 0), 0.5, 0)]


def _grouped(vertex_coord, vertex_peaks, maps=None):
    """The keypoints group_keypoints gives one main peak at cell (10, 10)."""
    maps = maps or HeadMaps.zeros(24, 24)
    maps.vertex_coord[10, 10, :] = np.asarray(vertex_coord, dtype=float).reshape(18)
    (obj,) = group_keypoints([((10, 10), 0.9, 0)], vertex_peaks, maps)
    return obj.kps


def test_group_keypoints_matches_nearest_same_channel_peak_within_radius():
    vc = np.zeros((9, 2))
    vc[4] = (1.5, -2.25)
    vc[5] = (-8.0, -8.0)
    vc[6] = np.nan
    maps = HeadMaps.zeros(24, 24)
    maps.vertex_offset[10, 12] = (0.25, 0.5)
    peaks = [
        ((14, 10), 0.5, 0),  # 4.0 cells from keypoint 0: matches
        ((15, 10), 0.9, 1),  # 5.0 cells from keypoint 1: too far
        ((10, 10), 0.8, 5),  # on keypoint 1's spot, but channel 5
        ((12, 10), 0.7, 2),  # keypoint 2: two peaks 2.0 cells away,
        ((8, 10), 0.6, 2),   # the first listed wins
        ((13, 10), 0.6, 3),  # keypoint 3: the nearer, later peak wins
        ((11, 10), 1.5, 3),
        ((10, 10), 0.8, 6),  # keypoint 6 regresses to NaN: never matches
    ]
    kps = _grouped(vc, peaks, maps)
    regressed = (np.array([10.0, 10.0]) + vc) * DOWNSAMPLE
    np.testing.assert_array_equal(kps.visible, [True, False, True, True] + [False] * 5)
    np.testing.assert_array_equal(kps.pts[0], np.array([14.0, 10.0]) * DOWNSAMPLE)
    np.testing.assert_array_equal(kps.pts[2], np.array([12.25, 10.5]) * DOWNSAMPLE)
    np.testing.assert_array_equal(kps.pts[3], np.array([11.0, 10.0]) * DOWNSAMPLE)
    np.testing.assert_array_equal(kps.conf[:4], [0.5, FALLBACK_CONF, 0.7, 1.0])
    for k in (1, 4, 5, 6, 7, 8):
        np.testing.assert_array_equal(kps.pts[k], regressed[k])
        assert kps.conf[k] == FALLBACK_CONF
    # Listed the other way round, the other equidistant peak wins.
    kps = _grouped(vc, [peaks[4], peaks[3]])
    np.testing.assert_array_equal(kps.pts[2], np.array([8.0, 10.0]) * DOWNSAMPLE)
    assert kps.conf[2] == 0.6


def test_group_keypoints_nan_regression_never_matches():
    vc = np.zeros((9, 2))
    vc[0] = (np.nan, 0.0)
    kps = _grouped(vc, [((10, 10), 0.8, 0), ((10, 10), 0.8, 1)])
    assert not kps.visible[0] and kps.conf[0] == FALLBACK_CONF
    assert kps.visible[1] and kps.conf[1] == 0.8


@given(st.floats(-math.pi + 1e-6, math.pi - 1e-6))
@settings(max_examples=300)
def test_multibin_roundtrip(alpha):
    code = multibin_encode(alpha)
    assert code.shape == (8,)
    from rtm3d.geometry import wrap_to_pi

    assert abs(wrap_to_pi(multibin_decode(code) - alpha)) < 1e-9


def test_multibin_code_layout():
    code = multibin_encode(-math.pi / 2)
    # Bin 0 is centered at -pi/2: residual sin/cos of zero.
    assert code[0] == 1.0 and code[1] == 0.0
    assert code[2] == pytest.approx(1.0) and code[3] == pytest.approx(0.0)


def test_dimension_target_and_error():
    dims = DIM_MEAN + 0.5 * DIM_STD
    np.testing.assert_allclose(dimension_target(dims), math.log(0.5), atol=1e-12)
    with pytest.raises(NonPositiveDimensionStandardization):
        dimension_target(DIM_MEAN)


def test_regression_losses_zero_at_exact_targets():
    maps = HeadMaps.zeros(24, 24)
    dims = DIM_MEAN + 0.8 * DIM_STD
    center = np.array([41.5, 42.25])
    # Spacing above one stride keeps every vertex in its own grid cell.
    vertex = center[None, :] + np.arange(9)[:, None] * [5.25, 3.5]
    cell = tuple(np.floor(center / 4).astype(int))
    cells = np.floor(vertex / 4).astype(int)
    cx, cy = cell
    maps.dims[cy, cx, :] = dimension_target(dims)
    maps.depth[cy, cx, 0] = math.log(17.0)
    maps.center_offset[cy, cx, :] = center / 4 - np.floor(center / 4)
    maps.vertex_coord[cy, cx, :] = ((vertex - center) / 4).reshape(-1)
    for k in range(9):
        vx, vy = cells[k]
        maps.vertex_offset[vy, vx, :] = vertex[k] / 4 - np.floor(vertex[k] / 4)
    gt = GroundTruthObject(
        cell=cell, dims=dims, depth=17.0, center_px=center,
        vertex_px=vertex, vertex_cells=cells,
    )
    terms = regression_losses(maps, [gt])
    for key, value in terms.items():
        assert value == pytest.approx(0.0, abs=1e-12), key


def _random_headmaps(seed, h, w):
    rng = np.random.default_rng(seed)
    maps = HeadMaps.zeros(h, w)
    for name, _ in HeadMaps.PLANES:
        plane = getattr(maps, name)
        plane[:] = rng.normal(size=plane.shape).astype(np.float32)
    return maps


def _assert_same_planes(a, b):
    for name, _ in HeadMaps.PLANES:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_headmaps_file_roundtrip(tmp_path):
    maps = _random_headmaps(4, 12, 16)
    path = tmp_path / "frame.rtmh"
    write_headmaps(path, maps)
    assert path.read_bytes()[:4] == b"RTMH"
    assert [p.name for p in tmp_path.iterdir()] == ["frame.rtmh"]
    back = read_headmaps(path)
    assert back.grid_shape == (12, 16)
    _assert_same_planes(back, maps)


def _written_headmaps(tmp_path):
    path = tmp_path / "frame.rtmh"
    write_headmaps(path, HeadMaps.zeros(4, 6))
    return path


def test_write_headmaps_rejects_a_plane_of_the_wrong_shape(tmp_path):
    maps = HeadMaps.zeros(4, 6)
    maps.main = np.zeros((4, 6, 2))
    path = tmp_path / "frame.rtmh"
    with pytest.raises(ValueError, match=re.escape("plane main is shaped (4, 6, 2), not (4, 6, 1)")):
        write_headmaps(path, maps)
    assert list(tmp_path.iterdir()) == []


def test_write_headmaps_failing_midway_keeps_the_old_file_and_leaves_no_other(tmp_path):
    path = _written_headmaps(tmp_path)
    data = path.read_bytes()
    maps = HeadMaps.zeros(4, 6)
    maps.depth = np.full((4, 6, 1), "not a number", dtype=object)  # fails after seven planes
    with pytest.raises(ValueError):
        write_headmaps(path, maps)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == data


def test_read_headmaps_keep_their_planes_when_the_path_is_rewritten(tmp_path):
    path = tmp_path / "frame.rtmh"
    first = _random_headmaps(21, 12, 16)
    write_headmaps(path, first)
    back = read_headmaps(path)
    write_headmaps(path, _random_headmaps(22, 5, 7))
    _assert_same_planes(back, first)
    assert read_headmaps(path).grid_shape == (5, 7)
    # Maps read from a path may be written back onto that same path.
    write_headmaps(path, back)
    again = read_headmaps(path)
    write_headmaps(path, again)
    _assert_same_planes(again, first)
    _assert_same_planes(read_headmaps(path), first)


def test_writing_into_read_planes_leaves_the_file_unchanged(tmp_path):
    path = tmp_path / "frame.rtmh"
    maps = _random_headmaps(23, 6, 8)
    write_headmaps(path, maps)
    data = path.read_bytes()
    back = read_headmaps(path)
    for name, _ in HeadMaps.PLANES:
        getattr(back, name)[:] = 7.0
    assert back.main[0, 0, 0] == back.depth[-1, -1, 0] == 7.0
    assert path.read_bytes() == data
    _assert_same_planes(read_headmaps(path), maps)


@pytest.mark.parametrize("h, w", [(0, 5), (4, 0), (0, 0)])
def test_headmaps_file_roundtrip_of_an_empty_grid(h, w, tmp_path):
    path = tmp_path / "frame.rtmh"
    write_headmaps(path, HeadMaps.zeros(h, w))
    assert path.read_bytes() == b"RTMH" + struct.pack("<II", h, w)
    back = read_headmaps(path)
    for name, c in HeadMaps.PLANES:
        assert getattr(back, name).shape == (h, w, c)
    assert back.grid_shape == (h, w) and decode_objects(back) == []


def test_read_headmaps_bad_magic_is_input_error(tmp_path):
    path = _written_headmaps(tmp_path)
    path.write_bytes(b"RTMX" + path.read_bytes()[4:])
    with pytest.raises(InputError, match=re.escape(f"{path}: bad magic")):
        read_headmaps(path)


@pytest.mark.parametrize(
    "size, what", [(10, "truncated header"), (12 + 4 * 24 * 5, "truncated plane vertex")]
)
def test_read_headmaps_truncated_file_is_input_error(size, what, tmp_path):
    path = _written_headmaps(tmp_path)
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(InputError, match=re.escape(f"{path}: {what}")):
        read_headmaps(path)


def test_read_headmaps_oversized_header_is_input_error(tmp_path):
    path = _written_headmaps(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[:4] + struct.pack("<II", 2**31, 2**31) + data[12:])
    with pytest.raises(InputError, match=re.escape(f"{path}: truncated plane main")):
        read_headmaps(path)


def test_read_headmaps_every_prefix_and_header_byte_corruption_is_input_error(tmp_path):
    maps = _random_headmaps(15, 2, 3)
    path = tmp_path / "frame.rtmh"
    write_headmaps(path, maps)
    data = path.read_bytes()
    assert len(data) == 12 + 4 * 2 * 3 * 44 == 1068
    _assert_same_planes(read_headmaps(path), maps)
    path.write_bytes(data + b"\xff")
    with pytest.raises(InputError, match=re.escape(f"{path}: 1 byte(s) past the last plane of a 2x3 grid")):
        read_headmaps(path)
    corrupt = [data[:n] for n in range(len(data))]
    for i in range(12):
        for byte in (0x00, 0xFF):
            if data[i] != byte:
                corrupt.append(data[:i] + bytes([byte]) + data[i + 1:])
    for bad in corrupt:
        path.write_bytes(bad)
        with pytest.raises(InputError, match=re.escape(f"{path}: ")):
            read_headmaps(path)


def _object_bits(obj):
    """Every field of a GroupedObject as (dtype, bytes), so equal means bit-equal."""
    values = (obj.center, obj.score, obj.category, obj.kps.pts, obj.kps.conf,
              obj.kps.visible, obj.d_hat, obj.alpha_hat, obj.z_hat)
    return [(np.asarray(v).dtype.str, np.asarray(v).tobytes()) for v in values]


@pytest.mark.parametrize("n_objects, seed", [(5, 42), (20, 7)])
def test_decode_of_read_float32_planes_equals_float64_bit_for_bit(n_objects, seed, tmp_path):
    for i in range(4):
        path = tmp_path / f"{i:06d}.rtmh"
        write_headmaps(path, encode_headmaps(generate_scene(SceneSpec(n_objects=n_objects, seed=seed + i))))
        maps = read_headmaps(path)
        assert {getattr(maps, name).dtype for name, _ in HeadMaps.PLANES} == {np.dtype("<f4")}
        wide = HeadMaps(**{name: getattr(maps, name).astype(float) for name, _ in HeadMaps.PLANES})
        got, want = decode_objects(maps), decode_objects(wide)
        assert len(got) == len(want) > 0
        for a, b in zip(got, want):
            assert _object_bits(a) == _object_bits(b)
