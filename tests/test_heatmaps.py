"""Heatmap codec tests: targets, losses, fusion, peaks, orientation bins."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtm3d import synth
from rtm3d.cli import EXIT_OK, main
from rtm3d.heatmaps import (
    DIM_MEAN,
    DIM_STD,
    GaussianSpec,
    GroundTruthObject,
    HeadMaps,
    MultiTaskWeights,
    NonPositiveDimensionStandardization,
    adaptive_sigma,
    decode_objects,
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
    _bump_radius,
    _pool3_at,
)
from rtm3d.kitti import InputError
from rtm3d.synth import SceneSpec, encode_headmaps, generate_scene


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
    monkeypatch.setattr(synth, "render_gaussian", _render_gaussian_full)
    want = [encode_headmaps(scene) for scene in scenes]
    for a, b in zip(got, want):
        for name, _ in HeadMaps.PLANES:
            assert _f32_bytes(getattr(a, name)) == _f32_bytes(getattr(b, name)), name


def test_synth_headmaps_files_match_full_grid_reference(tmp_path, monkeypatch):
    spec = tmp_path / "scenes.cfg"
    spec.write_text("frames=3\nn_objects=5\nheadmaps=1\nseed=42\npixel_sigma=1\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", str(spec), str(a)]) == EXIT_OK
    monkeypatch.setattr(synth, "render_gaussian", _render_gaussian_full)
    assert main(["synth", str(spec), str(b)]) == EXIT_OK
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert sum(p.suffix == ".rtmh" for p in files) == 3
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


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


def test_extract_peaks_nan_cell_vetoes_its_neighbours():
    m = np.zeros((7, 7))
    m[3, 3] = 0.9
    m[3, 4] = np.nan
    m[0, 0] = 0.5
    assert extract_peaks(m, 0.1) == [((0, 0), 0.5, 0)]


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


def _written_headmaps(tmp_path):
    path = tmp_path / "frame.rtmh"
    write_headmaps(path, HeadMaps.zeros(4, 6))
    return path, tmp_path / "frame.rtmh.txt"


def test_read_headmaps_bad_magic_is_input_error(tmp_path):
    path, _ = _written_headmaps(tmp_path)
    path.write_bytes(b"RTMX" + path.read_bytes()[4:])
    with pytest.raises(InputError, match=re.escape(f"{path}: bad magic")):
        read_headmaps(path)


@pytest.mark.parametrize(
    "size, what", [(10, "truncated header"), (12 + 4 * 24 * 5, "truncated plane vertex")]
)
def test_read_headmaps_truncated_file_is_input_error(size, what, tmp_path):
    path, _ = _written_headmaps(tmp_path)
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(InputError, match=re.escape(f"{path}: {what}")):
        read_headmaps(path)


def test_read_headmaps_oversized_header_is_input_error(tmp_path):
    path, _ = _written_headmaps(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[:4] + struct.pack("<II", 2**31, 2**31) + data[12:])
    with pytest.raises(InputError, match=re.escape(f"{path}: truncated plane main")):
        read_headmaps(path)


@pytest.mark.parametrize(
    "line", ["vertex", "vertex nine", "vertex 9 extra", "vertex -9", "vertex 8", "bogus 3", "main 1"]
)
def test_read_headmaps_bad_sidecar_line_is_input_error(line, tmp_path):
    path, sidecar = _written_headmaps(tmp_path)
    lines = sidecar.read_text().splitlines()
    lines[1] = line
    sidecar.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match=re.escape(f"{sidecar}, line 2: expected 'name channels'")):
        read_headmaps(path)


def test_read_headmaps_sidecar_missing_plane_is_input_error(tmp_path):
    path, sidecar = _written_headmaps(tmp_path)
    sidecar.write_text("".join(line + "\n" for line in sidecar.read_text().splitlines()[:-1]))
    with pytest.raises(InputError, match=re.escape(f"{sidecar}: no line for plane depth")):
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
