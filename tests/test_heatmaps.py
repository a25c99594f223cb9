"""Heatmap codec tests: targets, losses, fusion, peaks, orientation bins."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtm3d.heatmaps import (
    DIM_MEAN,
    DIM_STD,
    GaussianSpec,
    GroundTruthObject,
    HeadMaps,
    MultiTaskWeights,
    NonPositiveDimensionStandardization,
    adaptive_sigma,
    dimension_target,
    extract_peaks,
    focal_loss,
    kfpn_fuse,
    multibin_decode,
    multibin_encode,
    multitask_loss,
    read_headmaps,
    regression_losses,
    render_gaussian,
    resize_bilinear,
    write_headmaps,
    _max_pool3,
)


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
    assert maps.stride == 4


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
    spec = GaussianSpec()
    slope = (spec.sigma_max - spec.sigma_min) / (spec.a_max - spec.a_min)
    assert adaptive_sigma(100000.0, spec) == pytest.approx(100000.0 * slope)
    assert adaptive_sigma(10 * spec.a_max, spec) == spec.sigma_max
    assert adaptive_sigma(1.0, spec) == spec.sigma_min
    with pytest.raises(ValueError):
        adaptive_sigma(0.0, spec)
    mid = 0.5 * (spec.a_max + spec.a_min)
    assert spec.sigma_min <= adaptive_sigma(mid, spec) <= spec.sigma_max


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
    half = resize_bilinear(rng.uniform(size=(4, 4)), (8, 8))[:, :, None]
    fused = kfpn_fuse([full, half])
    assert fused.shape == (8, 8, 1)
    assert np.all(fused >= np.minimum(full, half) - 1e-12)
    assert np.all(fused <= np.maximum(full, half) + 1e-12)
    with pytest.raises(ValueError):
        kfpn_fuse([full, rng.uniform(size=(4, 4, 1))])


def test_resize_bilinear_identity_and_constant():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 9))
    np.testing.assert_allclose(resize_bilinear(x, (6, 9)), x, atol=1e-12)
    up = resize_bilinear(np.full((3, 3), 0.7), (9, 12))
    np.testing.assert_allclose(up, 0.7, atol=1e-12)


def test_resize_bilinear_matches_map_coordinates():
    from scipy import ndimage  # a test-only oracle

    rng = np.random.default_rng(4)
    cases = [((4, 4), (8, 8)), ((6, 9), (3, 20)), ((1, 5), (4, 11)), ((7, 1), (3, 2)), ((5, 5), (1, 1))]
    for in_shape, out_shape in cases:
        x = rng.normal(size=in_shape)
        axes = [np.linspace(0, n - 1, m) for n, m in zip(in_shape, out_shape)]
        want = ndimage.map_coordinates(x, np.meshgrid(*axes, indexing="ij"), order=1, mode="nearest")
        np.testing.assert_allclose(resize_bilinear(x, out_shape), want, rtol=0, atol=1e-12)


def test_max_pool_equals_maximum_filter_bit_for_bit():
    from scipy import ndimage  # a test-only oracle

    rng = np.random.default_rng(5)
    for shape in [(1, 1), (1, 17), (17, 1), (2, 3), (24, 80), (96, 320, 3)]:
        # Few levels, so equal neighbours (plateaus) are common.
        maps = rng.integers(0, 4, size=shape) * 0.25
        maps = np.where(rng.uniform(size=shape) < 0.2, rng.uniform(size=shape), maps)
        planes = maps.reshape(shape[:2] + (-1,))
        pooled = _max_pool3(maps).reshape(planes.shape)
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


def test_multitask_loss_weighting():
    terms = {
        "main": 1.0, "kpver": 2.0, "vertex_coord": 3.0, "dims": 4.0,
        "orientation": 5.0, "depth": 6.0, "center_offset": 7.0, "vertex_offset": 8.0,
    }
    w = MultiTaskWeights()
    expected = 1 + 2 + 3 + 4 + 0.5 * 5 + 0.1 * 6 + 0.5 * 7 + 0.5 * 8
    assert multitask_loss(terms, w) == pytest.approx(expected)
    assert multitask_loss({}) == 0.0


def test_headmaps_file_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    maps = HeadMaps.zeros(12, 16)
    for name, _ in HeadMaps.PLANES:
        plane = getattr(maps, name)
        plane[:] = rng.normal(size=plane.shape).astype(np.float32)
    path = tmp_path / "frame.rtmh"
    write_headmaps(path, maps)
    assert path.read_bytes()[:4] == b"RTMH"
    assert (tmp_path / "frame.rtmh.txt").exists()
    back = read_headmaps(path)
    assert back.grid_shape == (12, 16)
    for name, _ in HeadMaps.PLANES:
        np.testing.assert_array_equal(getattr(back, name), getattr(maps, name))
