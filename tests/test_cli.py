"""End-to-end command-line tests: synth, solve, eval, render-bev."""

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
from rtm3d import kitti, solver, synth
from rtm3d.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, main
from rtm3d.config import Settings, load_config
from rtm3d.geometry import wrap_to_pi
from rtm3d.kitti import InputError, parse_label_file
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
            labels.append(kitti.box3d_to_label(r.box, bbox=bbox, score=float(k.conf[k.visible].mean())))
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
        # Priors fields: h (field 8) and rotation_y (field 14).
        ("priors", 8, "1e308", EXIT_INPUT),
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


def test_solve_parses_each_calibration_file_once(dataset, tmp_path, monkeypatch):
    calls = []
    parse = kitti.parse_calib_file
    monkeypatch.setattr(kitti, "parse_calib_file", lambda path: calls.append(path) or parse(path))
    calib = dataset / "calib" / "000000.txt"
    assert main(["solve", str(dataset), str(tmp_path / "a"), "--calib", str(calib)]) == EXIT_OK
    assert len(calls) == 1
    assert main(["solve", str(dataset), str(tmp_path / "b")]) == EXIT_OK
    assert len(calls) == 1 + 3


def test_solve_missing_input_is_input_error(tmp_path):
    assert main(["solve", str(tmp_path / "nope"), str(tmp_path / "out")]) == EXIT_INPUT


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


def test_end_to_end_script_runs_from_a_checkout(tmp_path):
    script = Path(__file__).parents[1] / "scripts" / "end_to_end.sh"
    env = {**os.environ, "PYTHONPATH": str(Path(rtm3d.__file__).parents[1])}
    subprocess.run(["sh", str(script), str(tmp_path)], env=env, capture_output=True, check=True)
    assert "ap_3d_moderate=" in (tmp_path / "metrics.txt").read_text()
    assert (tmp_path / "frame000000_bev.svg").read_text().startswith("<svg")
