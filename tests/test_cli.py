"""End-to-end command-line tests: synth, solve, eval, render-bev."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rtm3d
from rtm3d import cli, kitti
from rtm3d.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, SOLVE_CHUNK, main
from rtm3d.config import Settings, load_config
from rtm3d.geometry import wrap_to_pi
from rtm3d.kitti import InputError, parse_label_file
from rtm3d.solver import EnergyWeights, SolverConfig


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
    assert (tmp_path / "d" / "headmaps" / "000000.rtmh").exists()
    from rtm3d.heatmaps import decode_objects, read_headmaps

    maps = read_headmaps(tmp_path / "d" / "headmaps" / "000000.rtmh")
    assert len(decode_objects(maps)) == 1


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
    # More objects than one solve chunk, so the run spans two solve_batch calls.
    frames = SOLVE_CHUNK // 4 + 1
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
    monkeypatch.setattr(cli, "SOLVE_CHUNK", 7)
    assert main(["solve", str(dataset), str(d)]) == EXIT_OK
    names = sorted(p.name for p in (a / "data").glob("*.txt"))
    assert len(names) == frames
    assert sum(len(parse_label_file(a / "data" / n)) for n in names) > SOLVE_CHUNK
    for rel in ["solve_log.txt"] + [f"data/{n}" for n in names]:
        text = (a / rel).read_bytes()
        for other in (b, c, d):
            assert (other / rel).read_bytes() == text


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
        ("priors", "Car 0.00 0\n", "line 1"),
        ("priors", "Car 0 0 0 0 0 0 0 -1.5 1.6 3.9 0 0 10 0\n" * 2, "object 0"),
        ("priors", "Car 0 nan 0 0 0 0 0 1.5 1.6 3.9 0 0 10 0\n", "line 1"),
        ("priors", "Car 0 0 0 0 0 0 0 1.5 1.6 3.9 0 0 10 0\nCar 0 inf 0 0 0 0 0 1.5 1.6 3.9 0 0 10 0\n", "line 2"),
        ("priors", "Car 0 0 0 0 0 0 0 1.5 1.6 3.9 0 0 10 inf\n", "line 1"),
        ("result", "Car 0 nan 0 0 0 10 10 1.5 1.6 3.9 0 0 10 0 0.9\n", "line 1"),
        ("label", "Car 0 0 0 0 0 10 10 1.5 1.6 3.9 0 0 10 -inf\n", "line 1"),
    ],
)
def test_malformed_input_exits_2_and_names_its_file(kind, text, where, dataset, tmp_path, capsys):
    results = tmp_path / "res"
    bad = {
        "calib": dataset / "calib" / "000001.txt",
        "priors": dataset / "priors" / "000001.txt",
        "label": dataset / "label_2" / "000001.txt",
        "result": results / "data" / "000001.txt",
    }.get(kind, tmp_path / "bad.cfg")
    (results / "data").mkdir(parents=True)
    bad.write_text(text)
    out = tmp_path / "out"
    argv = {
        "spec": ["synth", str(bad), str(out)],
        "config": ["solve", str(dataset), str(out), "--config", str(bad)],
        "result": ["eval", str(results), str(dataset)],
        "label": ["eval", str(results), str(dataset)],
    }.get(kind, ["solve", str(dataset), str(out)])
    assert main(argv) == EXIT_INPUT
    assert f"{bad}, {where}: " in capsys.readouterr().err
    if kind == "spec":
        assert not out.exists()


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


def test_end_to_end_script_runs_from_a_checkout(tmp_path):
    script = Path(__file__).parents[1] / "scripts" / "end_to_end.sh"
    env = {**os.environ, "PYTHONPATH": str(Path(rtm3d.__file__).parents[1])}
    subprocess.run(["sh", str(script), str(tmp_path)], env=env, capture_output=True, check=True)
    assert "ap_3d_moderate=" in (tmp_path / "metrics.txt").read_text()
    assert (tmp_path / "frame000000_bev.svg").read_text().startswith("<svg")
