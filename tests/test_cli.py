"""End-to-end command-line tests: synth, solve, eval, render-bev."""

import importlib.util
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import rtm3d
from rtm3d import evaluation, geometry, kitti, solver, synth
from rtm3d.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, main
from rtm3d.config import Settings, load_config
from rtm3d.geometry import wrap_to_pi, yaw_to_alpha
from rtm3d.kitti import InputError, KittiLabel, parse_label_file, parse_labels
from rtm3d.solver import EnergyWeights, InsufficientConstraints, SolverConfig, solve


@pytest.fixture
def dataset(tmp_path):
    spec = tmp_path / "scenes.cfg"
    spec.write_text("frames=3\nn_objects=2\nseed=5\n")
    data = tmp_path / "data"
    assert main(["synth", str(spec), str(data)]) == EXIT_OK
    return data


def test_synth_writes_expected_layout(dataset):
    for sub in ("calib", "label_2", "priors", "keypoints"):
        files = sorted(p.name for p in (dataset / sub).glob("*.txt"))
        assert files == ["000000.txt", "000001.txt", "000002.txt"]


def test_synth_headmaps_flag(tmp_path):
    spec = tmp_path / "scenes.cfg"
    spec.write_text("frames=1\nn_objects=1\nheadmaps=1\n")
    assert main(["synth", str(spec), str(tmp_path / "d")]) == EXIT_OK
    assert [p.name for p in (tmp_path / "d" / "headmaps").iterdir()] == ["000000.rtmh"]
    from rtm3d.heatmaps import decode_objects, read_headmaps

    maps = read_headmaps(tmp_path / "d" / "headmaps" / "000000.rtmh")
    assert len(decode_objects(maps)) == 1


def test_synth_headmaps_hold_at_most_one_frame_in_memory(tmp_path):
    # A frame is encoded in float32 and written without a cast, so the
    # traced peak stays within one frame's file bytes, with 1 MiB to spare.
    spec = tmp_path / "scenes.cfg"
    spec.write_text("frames=2\nn_objects=5\nheadmaps=1\nseed=42\n")
    assert main(["synth", str(spec), str(tmp_path / "warm")]) == EXIT_OK
    tracemalloc.start()
    try:
        assert main(["synth", str(spec), str(tmp_path / "d")]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 + 4 * 96 * 320 * 44 + 2**20


def test_synth_reused_planes_leave_no_residue(tmp_path):
    # rtm3d synth encodes every frame on one set of planes and zeroes again
    # only the windows and cells each frame drew.  Each file must equal a
    # fresh encode of its frame, and maps a library caller got earlier must
    # keep their values.
    from rtm3d.heatmaps import DOWNSAMPLE, HeadMaps, write_headmaps

    frames, spec = 8, tmp_path / "scenes.cfg"
    spec.write_text(f"frames={frames}\nn_objects=20\nseed=7\nheadmaps=1\n")
    scenes = [synth.SceneArrays.draw(synth.SceneSpec(n_objects=20, seed=7 + f), synth.default_camera())
              for f in range(frames)]
    # The frames hold what a leftover would show in: keypoint bumps clipped at
    # the grid edge (every bump reaches at least 13 cells from its cell), and
    # keypoints of two cars on one cell.
    grid_h, grid_w = synth.GRID
    cells = [[set(map(tuple, np.floor(p[v] / DOWNSAMPLE).astype(int).tolist())) for p, v in zip(s.pts, s.visible)]
             for s in scenes]
    assert any(min(x, y, grid_w - 1 - x, grid_h - 1 - y) < 13 for frame in cells for car in frame for x, y in car)
    assert any(a & b for frame in cells for i, a in enumerate(frame) for b in frame[i + 1:])
    early = scenes[0].headmaps(HeadMaps.zeros(*synth.GRID, np.float32))
    kept = {name: getattr(early, name).copy() for name, _ in HeadMaps.PLANES}
    assert main(["synth", str(spec), str(tmp_path / "d")]) == EXIT_OK
    for f, scene in enumerate(scenes):
        write_headmaps(tmp_path / "fresh.rtmh", scene.headmaps(HeadMaps.zeros(*synth.GRID, np.float32)))
        assert (tmp_path / "d" / "headmaps" / f"{f:06d}.rtmh").read_bytes() == (tmp_path / "fresh.rtmh").read_bytes()
    for name, _ in HeadMaps.PLANES:
        np.testing.assert_array_equal(getattr(early, name), kept[name])
    # In process: after each clear, the reused planes are all zero again.
    maps = HeadMaps.zeros(*synth.GRID, np.float32)
    for scene in scenes:
        assert scene.headmaps(maps) is maps and maps.drawn
        maps.clear()
        assert not maps.drawn
        assert all(not getattr(maps, name).any() for name, _ in HeadMaps.PLANES)


def test_synth_reports_boxes_that_ran_out_of_draws(tmp_path, capsys):
    # At depths of 1-3 m no draw keeps all nine keypoints in the image, so
    # every box is the last of its draws; the files are still written.
    spec = tmp_path / "scenes.cfg"
    spec.write_text("frames=10\nn_objects=10\ndepth_min=1\ndepth_max=3\nseed=3\n")
    assert main(["synth", str(spec), str(tmp_path / "near")]) == EXIT_OK
    err = capsys.readouterr().err
    assert err.startswith("rtm3d: 100 of 100 box(es) ran out of draws")
    assert len(list((tmp_path / "near" / "label_2").glob("*.txt"))) == 10
    spec.write_text("frames=3\nn_objects=5\nseed=3\n")
    assert main(["synth", str(spec), str(tmp_path / "normal")]) == EXIT_OK
    assert capsys.readouterr().err == ""


def _tree(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("spec", [
    # Every noise key set, over more boxes than one block; then a frame whose
    # boxes partly run out of draws, and head maps.
    "frames=13\nn_objects=7\npixel_sigma=1.0\ndropout=0.1\ndim_sigma=0.1\nyaw_sigma=0.1\n"
    "depth_rel_sigma=0.05\nseed=5\n",
    "frames=4\nn_objects=10\ndepth_min=2\ndepth_max=6\npixel_sigma=1.0\ndropout=0.1\nseed=0\n",
    "frames=7\nn_objects=5\npixel_sigma=1.0\ndropout=0.1\nyaw_sigma=0.1\nseed=42\nheadmaps=1\n",
], ids=["noise", "partly-exhausted", "headmaps"])
def test_synth_block_size_changes_no_byte(spec, tmp_path, monkeypatch, capsys):
    # One frame per block, the default, and the whole run as one block write
    # the same bytes and report the same count of boxes that ran out of draws.
    (tmp_path / "scenes.cfg").write_text(spec)
    keys = dict(line.split("=") for line in spec.split())
    assert len(synth.blocks(int(keys["frames"]), int(keys["n_objects"]))) > 1
    trees, reports = [], []
    for size in (synth.BLOCK_OBJECTS, 1, 10_000):
        monkeypatch.setattr(synth, "BLOCK_OBJECTS", size)
        assert main(["synth", str(tmp_path / "scenes.cfg"), str(tmp_path / f"d{size}")]) == EXIT_OK
        trees.append(_tree(tmp_path / f"d{size}"))
        reports.append(capsys.readouterr().err)
    assert trees[1] == trees[0] and trees[2] == trees[0]
    assert ("ran out of draws" in reports[0]) == ("depth_min" in keys)
    assert reports[1] == reports[0] and reports[2] == reports[0]


_SYNTH_KEYS = ["frames", "headmaps", "n_objects", "seed", "depth_min", "depth_max", "lateral_min",
               "lateral_max", "pixel_sigma", "dropout", "dim_sigma", "yaw_sigma", "depth_rel_sigma"]


@pytest.mark.parametrize("keys", [
    *([(k, v)] for k in _SYNTH_KEYS for v in ("-1", "0", "-0", "5e-324", "1e308", "-1e308")),
    [("lateral_min", "5"), ("lateral_max", "-5")],
    [("lateral_min", "-1e308"), ("lateral_max", "1e308")],
], ids=lambda keys: ",".join(f"{k}={v}" for k, v in keys))
def test_synth_spec_value_exits_2_or_writes_finite_files(keys, tmp_path, capsys):
    # Each finite value on its own, after 2 frames x 10 cars on lines 1-2:
    # the run exits 2 naming the spec file and the value's line, or exits 0
    # with no warning and every number it writes finite.
    spec, out = tmp_path / "scenes.cfg", tmp_path / "d"
    spec.write_text("frames=2\nn_objects=10\n" + "".join(f"{k}={v}\n" for k, v in keys))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["synth", str(spec), str(out)])
    assert not caught
    err = capsys.readouterr().err
    if code == EXIT_INPUT:
        lines = re.match(rf"rtm3d: input error: {re.escape(str(spec))}, line ([\d, ]+):", err)
        assert lines and {str(3 + i) for i in range(len(keys))} & set(lines[1].split(", "))
        assert not out.exists()
    else:
        assert code == EXIT_OK
        for path in out.rglob("*.txt"):
            assert not re.search("nan|inf", path.read_text(), re.IGNORECASE), path


def test_synth_rejects_unknown_keys(tmp_path):
    spec = tmp_path / "scenes.cfg"
    spec.write_text("frames=1\nbogus=3\n")
    assert main(["synth", str(spec), str(tmp_path / "d")]) == EXIT_INPUT


def test_solve_noiseless_matches_ground_truth(dataset, tmp_path):
    out = tmp_path / "results"
    assert main(["solve", str(dataset), str(out)]) == EXIT_OK
    for frame in ("000000", "000001", "000002"):
        gt = parse_label_file(dataset / "label_2" / f"{frame}.txt")
        res = parse_label_file(out / "data" / f"{frame}.txt")
        assert len(res) == len(gt)
        for g, r in zip(gt, res):
            # Noiseless inputs reproduce ground truth up to format rounding.
            np.testing.assert_allclose(r.location, g.location, atol=1e-4 + 5.1e-3)
            np.testing.assert_allclose(r.dimensions, g.dimensions, atol=1e-4 + 5.1e-3)
            assert abs(wrap_to_pi(r.rotation_y - g.rotation_y)) < 1e-4 + 5.1e-3
    assert (out / "solve_log.txt").exists()


def test_solve_is_deterministic_across_chunks(tmp_path, monkeypatch):
    # More objects than one solve chunk, so solve_arrays fits them in two chunks.
    frames = solver.SOLVE_CHUNK // 4 + 1
    spec = tmp_path / "scenes.cfg"
    spec.write_text(f"frames={frames}\nn_objects=4\npixel_sigma=1.0\ndropout=0.1\nseed=11\n")
    dataset = tmp_path / "data"
    assert main(["synth", str(spec), str(dataset)]) == EXIT_OK
    a, b, c, d = (tmp_path / name for name in "abcd")
    assert main(["solve", str(dataset), str(a)]) == EXIT_OK
    assert main(["solve", str(dataset), str(b)]) == EXIT_OK
    # --jobs is still accepted and changes no byte.
    assert main(["solve", str(dataset), str(c), "--jobs", "2"]) == EXIT_OK
    # Nor does the chunk size: each object's fit is independent of its batch.
    monkeypatch.setattr(solver, "SOLVE_CHUNK", 7)
    assert main(["solve", str(dataset), str(d)]) == EXIT_OK
    names = sorted(p.name for p in (a / "data").glob("*.txt"))
    assert len(names) == frames
    assert sum(len(parse_label_file(a / "data" / n)) for n in names) > solver.SOLVE_CHUNK
    for rel in ["solve_log.txt"] + [f"data/{n}" for n in names]:
        text = (a / rel).read_bytes()
        for other in (b, c, d):
            assert (other / rel).read_bytes() == text


def test_solve_writes_what_the_per_object_api_gives(tmp_path):
    # Noise and dropout, so that some center keypoints are dropped and some
    # objects are skipped: the array path of rtm3d solve writes, byte for
    # byte, the labels built from per-object solve reports.
    spec = tmp_path / "scenes.cfg"
    spec.write_text("frames=6\nn_objects=5\npixel_sigma=1.0\ndropout=0.75\nseed=3\n")
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(["synth", str(spec), str(data)]) == EXIT_OK
    assert main(["solve", str(data), str(out)]) == EXIT_OK
    skipped = 0
    for frame in (f"{i:06d}" for i in range(6)):
        cam = kitti.to_camera_model(kitti.parse_calib_file(data / "calib" / f"{frame}.txt"))
        objects = synth.parse_scene_objects(
            (data / "priors" / f"{frame}.txt").read_text(), (data / "keypoints" / f"{frame}.txt").read_text()
        )
        labels = []
        for k, p in objects:
            try:
                r = solve(k, cam, p)
            except InsufficientConstraints:
                skipped += 1
                continue
            vis = k.pts[k.visible]
            bbox = (*map(float, vis.min(axis=0)), *map(float, vis.max(axis=0)))
            box = r.box
            labels.append(kitti.KittiLabel("Car", 0.0, 0, yaw_to_alpha(box.yaw, box.t), bbox, (box.h, box.w, box.l),
                                           tuple(box.t), box.yaw, float(k.conf[k.visible].mean())))
        assert (out / "data" / f"{frame}.txt").read_text() == kitti.write_result_file(labels)
    assert skipped > 0


def test_solve_nan_keypoint_fails_one_object_and_writes_the_rest(dataset, tmp_path):
    kp_file = dataset / "keypoints" / "000001.txt"
    lines = kp_file.read_text().splitlines()
    values = lines[0].split()
    values[0] = "nan"
    lines[0] = " ".join(values)
    kp_file.write_text("\n".join(lines) + "\n")
    out = tmp_path / "results"
    assert main(["solve", str(dataset), str(out)]) == EXIT_INPUT
    for frame, count in (("000000", 2), ("000001", 1), ("000002", 2)):
        assert len(parse_label_file(out / "data" / f"{frame}.txt")) == count
    log = (out / "solve_log.txt").read_text()
    assert "000001 object 0: failed (non-finite cost)" in log
    assert "000001 object 1: iters=" in log


def test_solve_malformed_sidecar_line_is_input_error(dataset, tmp_path, capsys):
    kp_file = dataset / "keypoints" / "000001.txt"
    lines = kp_file.read_text().splitlines()
    lines[1] = " ".join(lines[1].split()[:26])
    kp_file.write_text("\n".join(lines) + "\n")
    assert main(["solve", str(dataset), str(tmp_path / "out")]) == EXIT_INPUT
    assert f"{kp_file}, line 2: 26 values, expected 27" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, text, where",
    [
        ("spec", "frames=abc\n", "line 1"),
        ("spec", "seed=3\nframes=-1\n", "line 2"),
        ("spec", "dropout=1.5\n", "line 1"),
        ("spec", "depth_min=-1\n", "line 1"),
        ("spec", "seed=3\ndepth_min=-1\n", "line 2"),
        ("spec", "depth_min=30\ndepth_max=20\n", "line 1, 2"),
        # Only the lateral range is at fault, not the keys set before it.
        ("spec", "frames=3\nn_objects=10\nseed=1\nlateral_min=5\nlateral_max=-5\n", "line 4, 5"),
        # depth_min=70 fails on its own, but not beside depth_max=80.
        ("spec", "depth_min=70\ndepth_max=80\nlateral_min=5\nlateral_max=-5\n", "line 3, 4"),
        ("spec", "n_objects=-2\n", "line 1"),
        ("spec", "depth_min=nan\n", "line 1"),
        ("spec", "seed=3\nyaw_sigma=inf\n", "line 2"),
        ("spec", "pixel_sigma=nan\n", "line 1"),
        ("spec", "headmaps=2\n", "line 1"),
        ("spec", "seed=3\nheadmaps=-1\n", "line 2"),
        ("config", "w_d=-1\n", "line 1"),
        ("config", "w_d=nan\n", "line 1"),
        ("config", "w_r=inf\n", "line 1"),
        ("config", "max_iter=-5\n", "line 1"),
        ("config", "max_iter=0\n", "line 1"),
        ("config", "g_tol=-1e-8\n", "line 1"),
        ("config", "w_d=2\nstep_tol=-1\n", "line 2"),
        ("config", "max_iter=50\nstep_tol=-1\n", "line 2"),
        ("calib", "P2: 0 0 609.5593 0 0 721.5377 172.854 0 0 0 1 0\n", "line 1"),
        ("calib", "P2: nan 0 609.5593 0 0 721.5377 172.854 0 0 0 1 0\n", "line 1"),
        ("calib", "# P2 below\nP2: 721.5 0 609.5 0 0 721.5 172.8 0 0 0 1 inf\n", "line 2"),
        # Not of the form K [I | t]: skew with P2[2, 2] = 2, P2[2, 0] = 0.3, P2[2, 2] = 2.
        ("calib", "P2: 700 5 600 0 0 700 170 0 0 0 2 0\n", "line 1"),
        ("calib", "P2: 700 0 600 0 0 700 170 0 0.3 0 1 0\n", "line 1"),
        ("calib", "P2: 700 0 600 0 0 700 170 0 0 0 2 0\n", "line 1"),
        ("priors", "Car 0.00 0\n", "line 1"),
        ("priors", "Car 0 0 0 0 0 0 0 -1.5 1.6 3.9 0 0 10 0\n" * 2, "object 0"),
        ("priors", "Car 0 0 0 0 0 0 0 1.5 1.6 3.9 0 0 10 0\nCar 0 0 0 0 0 0 0 1.5 1.6 3.9 0 0 0 0\n", "object 1"),
        ("priors", "Car 0 nan 0 0 0 0 0 1.5 1.6 3.9 0 0 10 0\n", "line 1"),
        ("priors", "Car 0 0 0 0 0 0 0 1.5 1.6 3.9 0 0 10 0\nCar 0 inf 0 0 0 0 0 1.5 1.6 3.9 0 0 10 0\n", "line 2"),
        ("priors", "Car 0 0 0 0 0 0 0 1.5 1.6 3.9 0 0 10 inf\n", "line 1"),
        ("result", "Car 0 nan 0 0 0 10 10 1.5 1.6 3.9 0 0 10 0 0.9\n", "line 1"),
        ("label", "Car 0 0 0 0 0 10 10 1.5 1.6 3.9 0 0 10 -inf\n", "line 1"),
        # Non-positive box dimensions, named where a label becomes a box.
        ("result", "Car 0 0 0 0 0 10 10 0 1.6 3.9 0 0 10 0 0.9\n", "line 1"),
        ("result", "Car 0 0 0 0 0 10 10 1.5 1.6 3.9 0 0 10 0 0.9\nCar 0 0 0 0 0 10 10 1.5 -1 3.9 0 0 10 0 0.9\n", "line 2"),
        ("result", "Car 0 0 0 0 0 10 10 1.5 1.6 0 0 0 10 0 0.9\n", "line 1"),
        ("label", "Car 0 0 0 0 0 10 10 0 1.6 3.9 0 0 10 0\n", "line 1"),
        ("label", "Car 0 0 0 0 0 10 10 1.5 1.6 3.9 0 0 10 0\nCar 0 0 0 0 0 10 10 1.5 -1 3.9 0 0 10 0\n", "line 2"),
        ("label", "DontCare -1 -1 -10 0 0 10 10 -1 -1 -1 -1000 -1000 -1000 -10\nCar 0 0 0 0 0 10 10 1.5 1.6 0 0 0 10 0\n", "line 2"),
        ("bev-result", "Car 0 0 0 0 0 10 10 0 1.6 3.9 0 0 10 0 0.9\n", "line 1"),
        ("bev-result", "Car 0 0 0 0 0 10 10 1.5 1.6 3.9 0 0 10 0 0.9\nCar 0 0 0 0 0 10 10 1.5 -1 3.9 0 0 10 0 0.9\n", "line 2"),
        ("bev-result", "Car 0 0 0 0 0 10 10 1.5 1.6 0 0 0 10 0 0.9\n", "line 1"),
        ("bev-label", "Car 0 0 0 0 0 10 10 0 1.6 3.9 0 0 10 0\n", "line 1"),
        ("bev-label", "Car 0 0 0 0 0 10 10 1.5 1.6 3.9 0 0 10 0\nCar 0 0 0 0 0 10 10 1.5 -1 3.9 0 0 10 0\n", "line 2"),
        ("bev-label", "DontCare -1 -1 -10 0 0 10 10 -1 -1 -1 -1000 -1000 -1000 -10\nCar 0 0 0 0 0 10 10 1.5 1.6 0 0 0 10 0\n", "line 2"),
        # Finite but absurd boxes: dimensions or location beyond 1e100 m.
        ("result", "Car 0 0 0 0 0 10 10 1e200 1e200 1e200 0 0 10 0 0.9\n", "line 1"),
        ("label", "Car 0 0 0 0 0 10 10 1.5 1.6 3.9 0 0 2e100 0\n", "line 1"),
        ("bev-result", "Car 0 0 0 0 0 10 10 1.5 1.6 3.9 -1e101 0 10 0 0.9\n", "line 1"),
        ("keypoints", "abc\n", "line 1"),
        ("keypoints", "1 2 1 " * 8 + "1 2\n", "line 1"),
        # Three well-formed lines against the priors file's two objects.
        ("keypoints", ("1 2 1 " * 9 + "\n") * 3, None),
    ],
)
def test_malformed_input_exits_2_and_names_its_file(kind, text, where, dataset, tmp_path, capsys):
    results = tmp_path / "res"
    bad = {
        "calib": dataset / "calib" / "000001.txt",
        "priors": dataset / "priors" / "000001.txt",
        "label": dataset / "label_2" / "000001.txt",
        "result": results / "data" / "000001.txt",
        "bev-label": dataset / "label_2" / "000001.txt",
        "bev-result": results / "data" / "000001.txt",
        "keypoints": dataset / "keypoints" / "000001.txt",
    }.get(kind, tmp_path / "bad.cfg")
    (results / "data").mkdir(parents=True)
    bad.write_text(text)
    out = tmp_path / "out"
    argv = {
        "spec": ["synth", str(bad), str(out)],
        "config": ["solve", str(dataset), str(out), "--config", str(bad)],
        "result": ["eval", str(results), str(dataset)],
        "label": ["eval", str(results), str(dataset)],
        "bev-result": ["render-bev", "--results", str(bad), str(tmp_path / "bev.svg")],
        "bev-label": ["render-bev", "--gt", str(bad), str(tmp_path / "bev.svg")],
    }.get(kind, ["solve", str(dataset), str(out)])
    assert main(argv) == EXIT_INPUT
    assert (f"{bad}, {where}: " if where else f"{bad}: ") in capsys.readouterr().err
    if kind == "spec":
        assert not out.exists()


@pytest.mark.parametrize("which", ["result", "label"])
@pytest.mark.parametrize("bbox, code", [("0 0 1e200 1e200", EXIT_INPUT), ("-1e100 -1e100 1e100 1e100", EXIT_OK)])
def test_eval_bounds_2d_boxes_under_warnings_as_errors(which, bbox, code, tmp_path):
    # A result or ground-truth 2D box of 1e200 px overflowed the 2D IoU's area
    # product, and eval exited 3 under -W error.  Beyond 1e100 px the line is
    # malformed, named by file and line; at the bound it scores without a warning.
    spec, data, results = tmp_path / "scenes.cfg", tmp_path / "data", tmp_path / "results"
    spec.write_text("frames=1\nn_objects=2\nseed=5\n")
    assert main(["synth", str(spec), str(data)]) == EXIT_OK
    assert main(["solve", str(data), str(results)]) == EXIT_OK
    bad = {"result": results / "data", "label": data / "label_2"}[which] / "000000.txt"
    for k, v in enumerate(bbox.split()):
        _set_field(bad, 0, 4 + k, v)
    env = {**os.environ, "PYTHONPATH": str(Path(rtm3d.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-W", "error", "-m", "rtm3d.cli", "eval", str(results), str(data)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == code, run.stderr
    if code == EXIT_INPUT:
        assert run.stderr == f"rtm3d: input error: {bad}, line 1: 2D box fields must lie within 1e+100 px, got " \
                             f"({', '.join(repr(float(v)) for v in bbox.split())})\n"


@pytest.fixture
def two_frames(tmp_path):
    spec = tmp_path / "scenes.cfg"
    spec.write_text("frames=2\nn_objects=2\nseed=5\n")
    data = tmp_path / "data"
    assert main(["synth", str(spec), str(data)]) == EXIT_OK
    return data


def _set_field(path, line, field, value):
    """Replace one whitespace-separated field of one line of a text file."""
    lines = path.read_text().splitlines()
    fields = lines[line].split()
    fields[field] = value
    lines[line] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "file, field, value, code",
    [
        # Sidecar fields: u of keypoint 0 (field 0) and its confidence (field 2).
        ("keypoints", 0, "inf", EXIT_INPUT),
        ("keypoints", 0, "nan", EXIT_INPUT),
        ("keypoints", 2, "nan", EXIT_INPUT),
        ("keypoints", 0, "1e308", EXIT_INPUT),
        ("keypoints", 2, "-1", EXIT_OK),
        ("keypoints", 2, "inf", EXIT_OK),
        # Priors fields: h (field 8), the depth z (field 13) and rotation_y (field 14).
        ("priors", 8, "1e308", EXIT_INPUT),
        ("priors", 13, "0.5", EXIT_INPUT),
        ("priors", 14, "1e308", EXIT_OK),
    ],
)
def test_solve_per_object_values_fail_only_their_object(file, field, value, code, two_frames, tmp_path):
    _set_field(two_frames / file / "000001.txt", 0, field, value)
    out = tmp_path / "out"
    assert main(["solve", str(two_frames), str(out)]) == code
    assert sorted(p.name for p in (out / "data").glob("*.txt")) == ["000000.txt", "000001.txt"]
    assert len(parse_label_file(out / "data" / "000000.txt")) == 2
    assert len(parse_label_file(out / "data" / "000001.txt")) == (2 if code == EXIT_OK else 1)
    # A depth prior of 0.5 m starts the box so near that a visible keypoint is behind the camera.
    reason = "a visible keypoint starts behind the camera" if (file, field) == ("priors", 13) else "non-finite cost"
    entry = "iters=" if code == EXIT_OK else f"failed ({reason})"
    log = (out / "solve_log.txt").read_text()
    assert f"000001 object 0: {entry}" in log and "000001 object 1: iters=" in log
    if (file, field) == ("priors", 14):
        # A yaw prior of 1e308 is reduced modulo 2 pi before the fit, which it used to stall.
        assert re.search(r"^000001 object 0: iters=\d+ cost=\S+ converged=True$", log, re.M), log


@pytest.mark.parametrize("file", ["keypoints", "priors"])
@pytest.mark.parametrize("layout", ["blank middle line", "crlf"])
def test_solve_reads_blank_lines_and_crlf(file, layout, two_frames, tmp_path):
    expected = tmp_path / "expected"
    assert main(["solve", str(two_frames), str(expected)]) == EXIT_OK
    path = two_frames / file / "000001.txt"
    lines = path.read_text().splitlines()
    if layout == "crlf":
        path.write_bytes("".join(line + "\r\n" for line in lines).encode())
    else:
        path.write_text(lines[0] + "\n  \n" + "".join(line + "\n" for line in lines[1:]))
    out = tmp_path / "out"
    assert main(["solve", str(two_frames), str(out)]) == EXIT_OK
    for rel in ("data/000000.txt", "data/000001.txt", "solve_log.txt"):
        assert (out / rel).read_bytes() == (expected / rel).read_bytes()


def test_solve_rejects_a_calibration_whose_camera_offset_overflows(dataset, tmp_path):
    # A finite P2 with tz = 1e308 gave an infinite camera offset: every object
    # of its frame failed with a non-finite cost, and under -W error the run
    # exited 3 on numpy's overflow warning.  It is malformed input, named by file.
    calib = dataset / "calib" / "000001.txt"
    _set_field(calib, 0, 12, "1e308")
    env = {**os.environ, "PYTHONPATH": str(Path(rtm3d.__file__).parents[1])}
    argv = ["solve", str(dataset), str(tmp_path / "out")]
    run = subprocess.run([sys.executable, "-W", "error", "-m", "rtm3d.cli", *argv], env=env,
                         capture_output=True, text=True)
    assert run.returncode == EXIT_INPUT, run.stderr
    offset = "(-inf, -inf, 1e+308)"
    assert run.stderr == f"rtm3d: input error: {calib}, line 1: P2 camera offset t = {offset} must be finite\n"


def test_solve_huge_depth_prior_fails_its_object_without_a_warning(two_frames, tmp_path, capsys):
    # The start back-projects the center keypoint at the depth prior, which
    # overflows at z = 1e308: the object fails and numpy prints nothing.
    _set_field(two_frames / "priors" / "000001.txt", 0, 13, "1e308")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(two_frames), str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == "rtm3d: input error: 1 object(s) failed; see solve_log.txt\n"
    assert len(parse_label_file(out / "data" / "000000.txt")) == 2
    assert len(parse_label_file(out / "data" / "000001.txt")) == 1
    log = (out / "solve_log.txt").read_text()
    assert "000001 object 0: failed (" in log and "000001 object 1: iters=" in log


@pytest.mark.parametrize("value, code", [("1e101", EXIT_INPUT), ("-1e100", EXIT_OK)])
def test_solve_bounds_priors_2d_boxes_as_it_bounds_labels(value, code, two_frames, tmp_path, capsys):
    # A priors line is a label line and follows the one parse rule: a 2D box
    # field beyond 1e100 px is malformed, named by file and line; at the bound
    # it is read, and the solver never reads the box.
    bad = two_frames / "priors" / "000001.txt"
    _set_field(bad, 1, 6, value)
    capsys.readouterr()
    assert main(["solve", str(two_frames), str(tmp_path / "out")]) == code
    bbox = ", ".join(repr(float(v)) for v in bad.read_text().splitlines()[1].split()[4:8])
    want = f"rtm3d: input error: {bad}, line 2: 2D box fields must lie within 1e+100 px, got ({bbox})\n"
    assert capsys.readouterr().err == (want if code == EXIT_INPUT else "")


def test_solve_parses_each_calibration_file_once(dataset, tmp_path, monkeypatch):
    # Calibrations are parsed once per distinct text: synth writes the same
    # text to every frame's file.
    calls = []
    parse = kitti.parse_calib
    monkeypatch.setattr(kitti, "parse_calib", lambda text, path: calls.append(path) or parse(text, path))
    calib = dataset / "calib" / "000000.txt"
    assert main(["solve", str(dataset), str(tmp_path / "a"), "--calib", str(calib)]) == EXIT_OK
    assert len(calls) == 1
    assert main(["solve", str(dataset), str(tmp_path / "b")]) == EXIT_OK
    assert calls[1:] == [calib]
    # Another text is parsed once more; the results are the same.
    other = dataset / "calib" / "000002.txt"
    other.write_text("# the same camera\n" + other.read_text())
    assert main(["solve", str(dataset), str(tmp_path / "c")]) == EXIT_OK
    assert calls[2:] == [calib, other]
    for frame in ("000000", "000001", "000002"):
        assert (tmp_path / "c" / "data" / f"{frame}.txt").read_bytes() == \
            (tmp_path / "a" / "data" / f"{frame}.txt").read_bytes()


@pytest.mark.parametrize(
    "case",
    ["no-input", "sidecar-without-priors", "priors-without-sidecar", "frame-without-calibration",
     "missing-calib-path", "no-frames", "p2-with-11-values"],
)
def test_solve_missing_input_is_input_error(case, dataset, tmp_path, capsys):
    # Each exits 2 before anything is solved, naming the path or frame at fault.
    argv, nope = ["solve", str(dataset), str(tmp_path / "out")], tmp_path / "nope"
    calib = dataset / "calib" / "000001.txt"
    if case == "no-input":
        argv[1], message = str(nope), f"{nope} must contain priors/ and keypoints/"
    elif case == "sidecar-without-priors":
        (dataset / "priors" / "000001.txt").unlink()
        message = f"missing priors file for keypoint sidecar {dataset / 'keypoints' / '000001.txt'}"
    elif case == "priors-without-sidecar":
        (dataset / "keypoints" / "000001.txt").unlink()
        message = "missing keypoint sidecar for frame 000001"
    elif case == "frame-without-calibration":
        calib.unlink()
        message = "missing calibration for frame 000001"
    elif case == "missing-calib-path":
        argv += ["--calib", str(nope)]
        message = f"calibration path {nope} does not exist"
    elif case == "no-frames":
        for path in [*(dataset / "priors").glob("*.txt"), *(dataset / "keypoints").glob("*.txt")]:
            path.unlink()
        message = f"no frames found under {dataset / 'priors'}"
    else:
        calib.write_text("P2: " + " ".join(["1"] * 11) + "\n")
        message = f"{calib}, line 1: P2 line has 11 values, expected 12"
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"rtm3d: input error: {message}\n"


@pytest.mark.parametrize("missing", ["results", "ground-truth"])
def test_eval_missing_input_is_input_error(missing, dataset, tmp_path, capsys):
    results, nope = tmp_path / "results", tmp_path / "nope"
    assert main(["solve", str(dataset), str(results)]) == EXIT_OK
    capsys.readouterr()
    if missing == "results":
        argv, message = [nope, dataset], f"results dir {nope} does not exist"
    else:
        argv, message = [results, nope], f"ground-truth dir {nope} does not exist"
    assert main(["eval", *map(str, argv)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"rtm3d: input error: {message}\n"


@pytest.mark.parametrize("command, blocked", [
    ("synth", "label_2/000001.txt"), ("synth", "calib/000000.txt"), ("solve", "data/000001.txt"),
    ("solve", "solve_log.txt"), ("eval", "metrics.txt"), ("render-bev", "bev.svg"),
])
def test_unwritable_output_exits_2_naming_the_path(command, blocked, dataset, tmp_path, capsys):
    # A directory where an output file goes: the command exits 2 and names it.
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    argv = {
        "synth": ["synth", str(tmp_path / "scenes.cfg"), str(out)],
        "solve": ["solve", str(dataset), str(out)],
        "eval": ["eval", str(dataset), str(dataset), "--out", str(out / blocked)],
        "render-bev": ["render-bev", "--gt", str(dataset / "label_2" / "000000.txt"), str(out / blocked)],
    }[command]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"rtm3d: input error: [Errno 21] Is a directory: '{out / blocked}'\n"


def test_solve_reads_config_file(dataset, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_iter=50\nw_d=2.0\n")
    out = tmp_path / "results"
    assert main(["solve", str(dataset), str(out), "--config", str(cfg)]) == EXIT_OK


def test_solve_unknown_config_key_is_input_error(dataset, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_iter=50\nbogus=1\n")
    assert main(["solve", str(dataset), str(tmp_path / "out"), "--config", str(cfg)]) == EXIT_INPUT
    assert f"{cfg}, line 2: unknown config key 'bogus'" in capsys.readouterr().err


def test_eval_reports_metrics(dataset, tmp_path, capsys):
    out = tmp_path / "results"
    main(["solve", str(dataset), str(out)])
    summary = tmp_path / "summary.txt"
    code = main(["eval", str(out), str(dataset), "--iou", "0.5", "--out", str(summary)])
    assert code == EXIT_OK
    report = summary.read_text()
    assert "interpolation=11point" in report
    values = dict(line.split("=") for line in report.strip().splitlines())
    assert float(values["ap_3d_moderate"]) == pytest.approx(1.0)
    assert float(values["ap_bev_moderate"]) == pytest.approx(1.0)
    # Alpha is rounded to two decimals on disk, so AOS is just below one.
    assert float(values["aos_moderate"]) == pytest.approx(1.0, abs=1e-3)
    for diff in ("easy", "hard"):
        assert f"ap_3d_{diff}" in values


def test_eval_single_difficulty_and_forty_point(dataset, tmp_path, capsys):
    out = tmp_path / "results"
    main(["solve", str(dataset), str(out)])
    code = main(["eval", str(out), str(dataset), "--difficulty", "hard", "--forty-point"])
    assert code == EXIT_OK
    report = capsys.readouterr().out
    assert "interpolation=40point" in report
    assert "ap_3d_hard" in report and "ap_3d_easy" not in report


def test_eval_and_render_bev_read_every_box_solve_writes(dataset, tmp_path):
    # Priors are unbounded, and the fit stays near a far depth prior: results
    # beyond 1e6 m are still boxes that eval and render-bev score and draw.
    for path in (dataset / "priors").glob("*.txt"):
        rows = [line.split() for line in path.read_text().splitlines()]
        path.write_text("".join(" ".join([*f[:13], "1e7", *f[14:]]) + "\n" for f in rows))
    out = tmp_path / "results"
    assert main(["solve", str(dataset), str(out)]) == EXIT_OK
    result = out / "data" / "000000.txt"
    assert min(float(line.split()[13]) for line in result.read_text().splitlines()) > 1e6
    assert main(["eval", str(out), str(dataset)]) == EXIT_OK
    gt = dataset / "label_2" / "000000.txt"
    assert main(["render-bev", "--results", str(result), "--gt", str(gt), str(tmp_path / "bev.svg")]) == EXIT_OK


def _mirror_labels(src: Path, dst: Path, cx: float):
    """Copy every label file of src to dst mirrored about the image column cx:
    x, rotation_y and alpha negated, the 2D box reflected."""
    dst.mkdir(parents=True)
    for path in src.glob("*.txt"):
        rows = [line.split() for line in path.read_text().splitlines()]
        for f in rows:
            f[4], f[6] = repr(2.0 * cx - float(f[6])), repr(2.0 * cx - float(f[4]))
            for k in (3, 11, 14):
                f[k] = repr(-float(f[k]))
        (dst / path.name).write_text("".join(" ".join(f) + "\n" for f in rows))


def test_eval_is_unchanged_by_mirroring(tmp_path):
    # Mirroring every result and ground-truth box about the principal point
    # leaves every line of metrics.txt as it was, at both IoU thresholds.
    spec = tmp_path / "scenes.cfg"
    spec.write_text("frames=8\nn_objects=5\nseed=42\npixel_sigma=2\ndropout=0.1\ndim_sigma=0.2\n"
                    "yaw_sigma=0.2\ndepth_rel_sigma=0.1\n")
    data, out = tmp_path / "data", tmp_path / "results"
    assert main(["synth", str(spec), str(data)]) == EXIT_OK
    assert main(["solve", str(data), str(out)]) == EXIT_OK
    cx = synth.default_camera().cx
    _mirror_labels(out / "data", tmp_path / "mirrored" / "data", cx)
    _mirror_labels(data / "label_2", tmp_path / "mirrored" / "label_2", cx)
    sides = {"plain": (out, data / "label_2"), "mirrored": (tmp_path / "mirrored", tmp_path / "mirrored" / "label_2")}
    for iou in ("0.5", "0.7"):
        reports = []
        for side, (results, gt) in sides.items():
            metrics = tmp_path / f"{side}_{iou}.txt"
            assert main(["eval", str(results), str(gt), "--iou", iou, "--out", str(metrics)]) == EXIT_OK
            reports.append(metrics.read_text().splitlines())
        assert reports[1] == reports[0]
        assert len({line.split("=")[1] for line in reports[0][2:]}) > 4  # the scores are not all alike


_CAR = "Car 0 0 0 0 0 10 10 1.5 1.6 3.9 0 0 10 0"
_DONTCARE = "DontCare -1 -1 -10 0 0 10 10 -1 -1 -1 -1000 -1000 -1000 -10"


@pytest.mark.parametrize(
    "which, text, message",
    [
        ("result", "Car 0 0 0\n", "line 1: expected 15 or 16 fields, got 4"),
        ("label", _CAR[:-1] + "abc\n", "line 1: expected a finite number, got 'abc'"),
        ("result", _CAR.replace("0 0 0 0 0 10", "0 0 nan 0 0 10") + " 0.9\n",
         "line 1: expected a finite number, got 'nan'"),
        ("label", _CAR.replace("1.5 1.6", "inf 1.6") + "\n", "line 1: expected a finite number, got 'inf'"),
        ("result", _CAR.replace("10 10", "10 1e101") + " 0.9\n",
         "line 1: 2D box fields must lie within 1e+100 px, got (0.0, 0.0, 10.0, 1e+101)"),
        ("result", _CAR.replace("1.5 1.6", "0 1.6") + " 0.9\n",
         "line 1: box dimensions must be positive, got h, w, l = (0.0, 1.6, 3.9)"),
        ("result", _CAR.replace("3.9 0 0 10", "3.9 2e100 0 10") + " 0.9\n",
         "line 1: box dimensions and location must lie within 1e+100 m, got h, w, l = (1.5, 1.6, 3.9), "
         "x, y, z = (2e+100, 0.0, 10.0)"),
        ("label", _CAR.replace("1.6 3.9", "1.6 -1") + "\n",
         "line 1: box dimensions must be positive, got h, w, l = (1.5, 1.6, -1.0)"),
        # Two faults in one file: a malformed line is named before a 2D box
        # beyond the bound, that before a 3D box, and the first line at fault wins.
        ("result", _CAR.replace("10 10", "10 1e200") + " 0.9\nCar 1 2\n", "line 2: expected 15 or 16 fields, got 3"),
        ("label", f"{_CAR.replace('1.5 1.6', '0 1.6')}\n{_DONTCARE}\n{_CAR[:-1]}x\n",
         "line 3: expected a finite number, got 'x'"),
        ("result", f"{_CAR.replace('1.5 1.6', '0 1.6')} 0.9\n{_CAR.replace('0 0 10 0', '0 0 1e101 0')} 0.9\n",
         "line 1: box dimensions must be positive, got h, w, l = (0.0, 1.6, 3.9)"),
        ("label", f"{_CAR.replace('1.5 1.6', '0 1.6')}\n{_CAR.replace('0 0 10 10', '-1e101 0 10 10')}\n",
         "line 2: 2D box fields must lie within 1e+100 px, got (-1e+101, 0.0, 10.0, 10.0)"),
    ],
)
def test_eval_names_each_malformed_label_as_the_label_api_does(which, text, message, dataset, tmp_path, capsys):
    # eval reads label tables, yet names the file, line and fault as
    # parse_labels and label_to_box3d name them; the messages are pinned.
    results = tmp_path / "results"
    assert main(["solve", str(dataset), str(results)]) == EXIT_OK
    bad = {"result": results / "data", "label": dataset / "label_2"}[which] / "000001.txt"
    bad.write_text(text)
    capsys.readouterr()
    assert main(["eval", str(results), str(dataset)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"rtm3d: input error: {bad}, {message}\n"


_VAN, _PEDESTRIAN = _CAR.replace("Car", "Van"), _CAR.replace("Car", "Pedestrian")


@pytest.mark.parametrize(
    "which, text, message",
    [
        # render-bev draws every row but DontCare, so it checks the box of a Van
        # or a Pedestrian too, where eval, which scores only Cars, reads the file.
        ("label", _VAN.replace("1.6 3.9", "0 3.9") + "\n",
         "line 1: box dimensions must be positive, got h, w, l = (1.5, 0.0, 3.9)"),
        ("result", _PEDESTRIAN.replace("1.6 3.9", "-0.5 3.9") + " 0.9\n",
         "line 1: box dimensions must be positive, got h, w, l = (1.5, -0.5, 3.9)"),
        ("label", _PEDESTRIAN.replace("3.9 0 0 10", "3.9 2e100 0 10") + "\n",
         "line 1: box dimensions and location must lie within 1e+100 m, got h, w, l = (1.5, 1.6, 3.9), "
         "x, y, z = (2e+100, 0.0, 10.0)"),
        ("result", _VAN.replace("3.9 0 0 10", "3.9 -1e101 0 10") + "\n",
         "line 1: box dimensions and location must lie within 1e+100 m, got h, w, l = (1.5, 1.6, 3.9), "
         "x, y, z = (-1e+101, 0.0, 10.0)"),
        # A DontCare region carries -1 dims and is not drawn.
        ("label", f"{_DONTCARE}\n{_VAN}\n", None),
        ("result", f"{_DONTCARE} 0.5\n{_PEDESTRIAN}\n", None),
        # A 2D box beyond 1e100 px is malformed on any line, DontCare included.
        ("label", _DONTCARE.replace("0 0 10 10", "0 0 10 1e101") + "\n",
         "line 1: 2D box fields must lie within 1e+100 px, got (0.0, 0.0, 10.0, 1e+101)"),
        ("result", _CAR.replace("0 0 10 10", "-2e100 0 10 10") + " 0.9\n",
         "line 1: 2D box fields must lie within 1e+100 px, got (-2e+100, 0.0, 10.0, 10.0)"),
        # Two faults in one file: a 2D box is named before a 3D box, and of two
        # 3D boxes the first line at fault.
        ("result", f"{_VAN.replace('1.5 1.6', '0 1.6')} 0.9\n{_CAR.replace('10 10', '10 1e200')} 0.9\n",
         "line 2: 2D box fields must lie within 1e+100 px, got (0.0, 0.0, 10.0, 1e+200)"),
        ("label", f"{_DONTCARE}\n{_VAN.replace('1.6 3.9', '1.6 -1')}\n{_PEDESTRIAN.replace('1.5 1.6', '0 1.6')}\n",
         "line 2: box dimensions must be positive, got h, w, l = (1.5, 1.6, -1.0)"),
    ],
)
def test_render_bev_names_each_malformed_label_as_the_label_api_does(which, text, message, dataset, tmp_path,
                                                                     capsys):
    # render-bev reads label tables, and names the file, line and fault as
    # parse_labels and label_to_box3d name them; the messages are pinned.
    results = tmp_path / "results"
    assert main(["solve", str(dataset), str(results)]) == EXIT_OK
    files = {"result": results / "data" / "000001.txt", "label": dataset / "label_2" / "000001.txt"}
    files[which].write_text(text)
    capsys.readouterr()
    code = main(["render-bev", "--results", str(files["result"]), "--gt", str(files["label"]),
                 str(tmp_path / "bev.svg")])
    assert capsys.readouterr().err == ("" if message is None else f"rtm3d: input error: {files[which]}, {message}\n")
    assert code == (EXIT_OK if message is None else EXIT_INPUT)
    if message and "2D box" not in message:
        # Each 3D box at fault is a Van's or a Pedestrian's, which eval never scores.
        assert main(["eval", str(results), str(dataset)]) == EXIT_OK


def test_eval_reads_dontcare_lines_blank_lines_and_crlf(dataset, tmp_path, capsys):
    results = tmp_path / "results"
    assert main(["solve", str(dataset), str(results)]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", str(results), str(dataset)]) == EXIT_OK
    before = capsys.readouterr().out
    for path in (dataset / "label_2" / "000001.txt", results / "data" / "000001.txt"):
        lines = path.read_text().splitlines()
        if "label_2" in str(path):
            lines.insert(1, _DONTCARE)  # far from every car: the scores stay
        path.write_bytes(("\r\n\r\n".join(lines) + "\r\n  \r\n").encode())
    assert main(["eval", str(results), str(dataset)]) == EXIT_OK
    assert capsys.readouterr().out == before
    labels = parse_labels(f"{_DONTCARE}\r\n\r\n{_CAR} 0.5\r\n \r\n", "labels.txt")
    assert labels == [
        KittiLabel("DontCare", -1.0, -1, -10.0, (0.0, 0.0, 10.0, 10.0), (-1.0, -1.0, -1.0), (-1000.0, -1000.0, -1000.0),
                   -10.0, None),
        KittiLabel("Car", 0.0, 0, 0.0, (0.0, 0.0, 10.0, 10.0), (1.5, 1.6, 3.9), (0.0, 0.0, 10.0), 0.0, 0.5),
    ]
    assert [lb.origin for lb in labels] == ["labels.txt, line 1", "labels.txt, line 3"]
    assert all(type(v) is float for lb in labels for v in (lb.truncated, lb.alpha, *lb.bbox, lb.rotation_y))
    assert type(labels[0].occluded) is int and labels[1].score == 0.5


def _output_digest():
    path = Path(__file__).parents[1] / "scripts" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flags", [(), ("--iou", "0.7"), ("--forty-point", "--difficulty", "hard")])
def test_eval_gives_the_curves_of_the_object_api_bit_for_bit(flags, tmp_path, monkeypatch):
    # The crowded set of output_digest.py: occlusion levels, truncation, a
    # Van, DontCare regions, Pedestrian results and results without a score.
    data, results = tmp_path / "data", tmp_path / "results" / "data"
    spec = tmp_path / "scenes.cfg"
    spec.write_text("frames=6\nn_objects=10\nseed=8\n")
    assert main(["synth", str(spec), str(data)]) == EXIT_OK
    results.mkdir(parents=True)
    rng, crowd = np.random.default_rng(8), _output_digest().crowd
    for path in sorted((data / "label_2").glob("*.txt")):
        gt, det = crowd(path.read_text(), rng)
        path.write_text(gt)
        (results / path.name).write_text(det)
    got = []
    evaluate_tables = evaluation.evaluate_tables
    with monkeypatch.context() as m:
        m.setattr(evaluation, "evaluate_tables", lambda *a, **k: got.append(evaluate_tables(*a, **k)) or got[-1])
        assert main(["eval", str(results), str(data), *flags, "--out", str(tmp_path / "metrics.txt")]) == EXIT_OK
    iou = float(flags[1]) if flags[:1] == ("--iou",) else 0.5
    names = ["hard"] if "hard" in flags else ["easy", "moderate", "hard"]
    want = evaluation.evaluate(
        {p.stem: [evaluation.DetectionRecord.from_label(lb) for lb in parse_label_file(p)] for p in results.iterdir()},
        {p.stem: parse_label_file(p) for p in (data / "label_2").iterdir()},
        [evaluation.DifficultyFilter.by_name(name) for name in names], iou,
        n_points=40 if "--forty-point" in flags else 11)
    (curves,) = got
    assert curves.keys() == want.keys()
    for name in names:
        assert list(curves[name]) == ["3d", "bev", "2d", "aos"] == list(want[name])
        for metric, curve in curves[name].items():
            other = want[name][metric]
            assert curve.ap == other.ap
            for a, b in ((curve.recall, other.recall), (curve.precision, other.precision)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert sum(curve.ap > 0 for c in curves.values() for curve in c.values()) >= 3
    printed = (tmp_path / "metrics.txt").read_text()
    for key, metric in (("ap_3d", "3d"), ("ap_bev", "bev"), ("aos", "aos"), ("ap_2d", "2d")):
        assert f"{key}_hard={want['hard'][metric].ap:.6f}\n" in printed


def test_eval_rejects_bad_iou(dataset, tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["eval", str(tmp_path), str(dataset), "--iou", "0.6"])
    assert e.value.code == EXIT_USAGE


def test_render_bev_deterministic(dataset, tmp_path):
    out = tmp_path / "results"
    main(["solve", str(dataset), str(out)])
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    args = [
        "render-bev",
        "--results", str(out / "data" / "000000.txt"),
        "--gt", str(dataset / "label_2" / "000000.txt"),
    ]
    assert main(args + [str(svg1)]) == EXIT_OK
    assert main(args + [str(svg2)]) == EXIT_OK
    body = svg1.read_text()
    assert body == svg2.read_text()
    assert body.startswith("<svg ") and body.rstrip().endswith("</svg>")
    assert "#2e8b2e" in body and "#2e5bd7" in body


def test_render_bev_missing_file_is_input_error(tmp_path):
    code = main(["render-bev", "--gt", str(tmp_path / "nope.txt"), str(tmp_path / "o.svg")])
    assert code == EXIT_INPUT


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == EXIT_USAGE


def test_log_env_var(dataset, tmp_path, monkeypatch):
    monkeypatch.setenv("RTM3D_LOG", "debug")
    assert main(["solve", str(dataset), str(tmp_path / "out")]) == EXIT_OK


def test_config_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nmax_iter = 7\n\nw_d=0.5\n")
    values = Settings(path, {"max_iter": int, "w_d": float})
    assert values == {"max_iter": 7, "w_d": 0.5}
    assert values.lines == {"max_iter": 2, "w_d": 4}
    path.write_text("not a pair\n")
    with pytest.raises(InputError, match="line 1: expected key=value"):
        Settings(path, {})


def test_load_config_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("max_iter=7\nw_r=0.7\ng_tol=1e-6\n")
    weights, solver = load_config(path)
    assert weights == EnergyWeights(w_r=0.7)
    assert solver == SolverConfig(max_iter=7, g_tol=1e-6)
    assert weights.w_d == EnergyWeights().w_d and solver.step_tol == SolverConfig().step_tol
    for key in ("init_box", "lm_lambda0"):
        path.write_text(f"{key}=1\n")
        with pytest.raises(InputError, match=f"line 1: unknown config key '{key}'"):
            load_config(path)


def _outputs(root: Path) -> dict:
    """synth (plain and with head maps), solve, then eval and render-bev of
    the results and of the crowded set of output_digest.py, each exiting 0,
    under root: every file's bytes by its path under root."""
    root.mkdir()
    (root / "scenes.cfg").write_text("frames=3\nn_objects=6\nseed=5\npixel_sigma=1\ndropout=0.1\n")
    (root / "scenes_hm.cfg").write_text("frames=2\nn_objects=3\nseed=5\nheadmaps=1\n")
    data, results, crowded = root / "data", root / "results", root / "crowded"
    for argv in (["synth", root / "scenes.cfg", data], ["synth", root / "scenes_hm.cfg", root / "data_hm"],
                 ["solve", data, results]):
        assert main(list(map(str, argv))) == EXIT_OK, argv
    (crowded / "label_2").mkdir(parents=True)
    (crowded / "data").mkdir()
    rng = np.random.default_rng(3)
    for path in sorted((data / "label_2").glob("*.txt")):
        gt, det = _output_digest().crowd(path.read_text(), rng)
        (crowded / "label_2" / path.name).write_text(gt)
        (crowded / "data" / path.name).write_text(det)
    sets = {"plain": (results / "data", data / "label_2"), "crowded": (crowded / "data", crowded / "label_2")}
    for name, (res, gt) in sets.items():
        for argv in (["eval", res, gt, "--out", root / f"metrics_{name}.txt"],
                     ["render-bev", "--results", res / "000000.txt", "--gt", gt / "000000.txt", root / f"{name}.svg"]):
            assert main(list(map(str, argv))) == EXIT_OK, argv
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_no_command_builds_a_record_per_line(tmp_path, monkeypatch):
    # Each command reads and writes its lines as arrays: with the per-object
    # records made unconstructible, every run still exits 0 and writes the same bytes.
    want = _outputs(tmp_path / "free")

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a command built a {type(self).__name__}")

    for record in (kitti.KittiLabel, geometry.Box3D, evaluation.DetectionRecord, synth.SceneObject,
                   geometry.KeypointSet):
        monkeypatch.setattr(record, "__init__", refuse)
    with pytest.raises(AssertionError, match="built a Box3D"):
        geometry.Box3D(np.ones(3), np.zeros(3), 0.0)
    assert _outputs(tmp_path / "refused") == want


def test_import_loads_no_scipy():
    code = (
        "import sys, rtm3d.cli, rtm3d.heatmaps\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(rtm3d.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_heatmaps_import_loads_no_solver():
    # The package __init__ imports the solver itself, so the package is
    # registered bare: this checks what heatmaps and its imports load.
    code = (
        "import sys, types\n"
        f"sys.modules['rtm3d'] = types.ModuleType('rtm3d'); sys.modules['rtm3d'].__path__ = {rtm3d.__path__!r}\n"
        "import rtm3d.heatmaps\n"
        "print(sorted(m for m in sys.modules if m.startswith('rtm3d')))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "['rtm3d', 'rtm3d.geometry', 'rtm3d.heatmaps', 'rtm3d.kitti']"


def test_cli_import_loads_only_what_every_command_uses():
    # Each command imports its own modules, and the package loads its
    # top-level names on first use: importing the CLI, as each rtm3d process
    # does, loads neither the solver nor synth, head maps or evaluation.
    code = "import sys, rtm3d.cli\nprint(sorted(m for m in sys.modules if m.startswith('rtm3d')))"
    env = {**os.environ, "PYTHONPATH": str(Path(rtm3d.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "['rtm3d', 'rtm3d.cli', 'rtm3d.geometry', 'rtm3d.kitti']"


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("solve", ["cli", "config", "geometry", "kitti", "solver"]),
        ("solve --config", ["cli", "config", "geometry", "kitti", "solver"]),
        ("eval", ["cli", "evaluation", "geometry", "kitti"]),
        ("render-bev", ["bev_svg", "cli", "evaluation", "geometry", "kitti"]),
        ("synth", ["cli", "config", "geometry", "heatmaps", "kitti", "synth"]),
        ("synth headmaps=1", ["cli", "config", "geometry", "heatmaps", "kitti", "synth"]),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(command, loaded, dataset, tmp_path):
    # Each run in a fresh interpreter, as rtm3d runs: solve reads its input
    # formats through kitti and loads neither synth nor heatmaps, and synth,
    # with head maps or without, loads no solver.
    results, cfg = tmp_path / "results", tmp_path / "solve.cfg"
    assert main(["solve", str(dataset), str(results)]) == EXIT_OK
    cfg.write_text("max_iter=50\n")
    spec, spec_hm = tmp_path / "scenes.cfg", tmp_path / "scenes_hm.cfg"
    spec.write_text("frames=2\nn_objects=2\nseed=5\n")
    spec_hm.write_text("frames=2\nn_objects=2\nseed=5\nheadmaps=1\n")
    frame = "000000.txt"
    argv = {
        "solve": ["solve", dataset, tmp_path / "out"],
        "solve --config": ["solve", dataset, tmp_path / "out", "--config", cfg],
        "eval": ["eval", results, dataset],
        "render-bev": ["render-bev", "--results", results / "data" / frame, "--gt", dataset / "label_2" / frame,
                       tmp_path / "bev.svg"],
        "synth": ["synth", spec, tmp_path / "synth"],
        "synth headmaps=1": ["synth", spec_hm, tmp_path / "synth_hm"],
    }[command]
    code = (
        "import sys\nfrom rtm3d.cli import main\nassert main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('rtm3d')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(rtm3d.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-W", "error", "-c", code, *map(str, argv)], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == str(["rtm3d"] + [f"rtm3d.{m}" for m in loaded])


def test_package_priors_load_only_geometry():
    # The per-object records live in geometry, and the solver imports them
    # from there: rtm3d.Priors loads no solver.
    code = "import rtm3d, sys; rtm3d.Priors; print(sorted(m for m in sys.modules if m.startswith('rtm3d')))"
    env = {**os.environ, "PYTHONPATH": str(Path(rtm3d.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout.strip() == "['rtm3d', 'rtm3d.geometry']"
    for name in ("Priors", "SolveInputs", "camera_rows"):
        assert getattr(solver, name) is getattr(geometry, name)


def test_end_to_end_script_runs_from_a_checkout(tmp_path):
    script = Path(__file__).parents[1] / "scripts" / "end_to_end.sh"
    env = {**os.environ, "PYTHONPATH": str(Path(rtm3d.__file__).parents[1])}
    subprocess.run(["sh", str(script), str(tmp_path)], env=env, capture_output=True, check=True)
    assert "ap_3d_moderate=" in (tmp_path / "metrics.txt").read_text()
    assert (tmp_path / "frame000000_bev.svg").read_text().startswith("<svg")
