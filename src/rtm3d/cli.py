"""Command-line front door: synth | solve | eval | render-bev."""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

# Each command imports its modules when it runs.  solve loads synth, and with it
# heatmaps, for the sidecar reader and keypoint_boxes only.
from . import kitti
from .geometry import wrap_to_pi
from .kitti import InputError

log = logging.getLogger("rtm3d")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _setup_logging():
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("RTM3D_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    from . import heatmaps, synth
    from .config import load_synth_spec

    frames, with_headmaps, scene_spec, noise = load_synth_spec(args.spec)
    out = Path(args.out)
    for sub in ("calib", "label_2", "priors", "keypoints") + (("headmaps",) if with_headmaps else ()):
        (out / sub).mkdir(parents=True, exist_ok=True)
    camera = synth.default_camera()
    calib_text = kitti.write_calib(kitti.camera_to_calib(camera))
    unplaced = 0
    for frame in range(frames):
        seed = scene_spec.seed + frame
        scene = synth.SceneArrays.draw(replace(scene_spec, seed=seed), camera)
        unplaced += scene.unplaced()
        noisy = scene.noisy(noise, seed=seed + 1_000_003)
        name = f"{frame:06d}"
        (out / "calib" / f"{name}.txt").write_text(calib_text)
        (out / "label_2" / f"{name}.txt").write_text(scene.gt_text())
        (out / "priors" / f"{name}.txt").write_text(noisy.priors_text())
        (out / "keypoints" / f"{name}.txt").write_text(noisy.sidecar_text())
        if with_headmaps:
            # Encoded in the file's float32, so the write needs no cast (README "Head maps").
            heatmaps.write_headmaps(out / "headmaps" / f"{name}.rtmh", scene.headmaps(np.float32))
    print(f"wrote {frames} synthetic frame(s) to {out}")
    if unplaced:
        print(f"rtm3d: {unplaced} of {frames * scene_spec.n_objects} box(es) ran out of draws: not all nine "
              "keypoints visible on distinct head-map cells", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve


def _result_lines(inputs: SolveInputs, x: np.ndarray) -> list[str]:
    """Result label lines of fitted states x (N, 7): each box with the image
    box of its visible keypoints and, as its score, their mean confidence."""
    from .synth import keypoint_boxes

    # One object at a time, so that each mean sums in the N = 1 order.
    score = [float(c[v].mean()) for c, v in zip(inputs.conf, inputs.vis)]
    yaw = [wrap_to_pi(v) for v in x[:, 3].tolist()]  # the written box's yaw, as Box3D wraps it
    return kitti.car_lines(x[:, 4:], x[:, :3], yaw, keypoint_boxes(inputs.kp, inputs.vis), score)


def _log_entry(error, skipped, iterations, cost, converged) -> str:
    """One object's line in solve_log.txt, after its frame and index."""
    if skipped:
        return f"skipped ({error})"
    if error is not None:
        return f"failed ({error})"
    return f"iters={iterations} cost={cost:.3e} converged={converged}"


def cmd_solve(args) -> int:
    from . import synth
    from .config import load_config
    from .solver import (
        EnergyWeights,
        InsufficientConstraints,
        SolveInputs,
        SolverConfig,
        camera_rows,
        solve_arrays,
    )

    weights, solver_cfg = load_config(args.config) if args.config else (EnergyWeights(), SolverConfig())
    in_dir = Path(args.input)
    priors_dir = in_dir / "priors"
    kp_dir = in_dir / "keypoints"
    calib_dir = Path(args.calib) if args.calib else in_dir / "calib"
    if not priors_dir.is_dir() or not kp_dir.is_dir():
        raise InputError(f"{in_dir} must contain priors/ and keypoints/")
    if not calib_dir.exists():
        raise InputError(f"calibration path {calib_dir} does not exist")

    out = Path(args.out)
    (out / "data").mkdir(parents=True, exist_ok=True)
    # Parse every frame once into arrays, then solve all objects in one call.
    frames, parts, cam_parts = [], [], []  # frame ids; their inputs and camera rows
    cameras = {}  # calib path -> camera row, so a shared --calib file is parsed once
    for priors_path in sorted(priors_dir.glob("*.txt")):
        frame = priors_path.stem
        kp_path = kp_dir / f"{frame}.txt"
        if not kp_path.exists():
            raise InputError(f"missing keypoint sidecar for frame {frame}")
        calib_path = calib_dir if calib_dir.is_file() else calib_dir / f"{frame}.txt"
        if not calib_path.exists():
            raise InputError(f"missing calibration for frame {frame}")
        if calib_path not in cameras:
            cameras[calib_path] = camera_rows([kitti.to_camera_model(kitti.parse_calib_file(calib_path))])
        objects = synth.parse_scene_inputs(priors_path.read_text(), kp_path.read_text(), kp_path, priors_path)
        frames.append(frame)
        parts.append(objects)
        cam_parts.append(np.repeat(cameras[calib_path], len(objects.kp), axis=0))
    if not frames:
        raise InputError(f"no frames found under {priors_dir}")
    inputs = SolveInputs(*map(np.concatenate, zip(*parts)))
    cams = np.concatenate(cam_parts)

    t0 = time.perf_counter()
    fit = solve_arrays(inputs, cams, weights, solver_cfg)
    solve_s = time.perf_counter() - t0
    skipped = [isinstance(e, InsufficientConstraints) for e in fit.errors]
    failed = sum(e is not None for e in fit.errors) - sum(skipped)
    fitted = len(cams) - sum(skipped)

    ok = np.array([e is None for e in fit.errors], dtype=bool)
    results = _result_lines(inputs.take(ok), fit.x[ok])
    # Frame k holds objects ends[k]:ends[k + 1]; its fitted ones are result lines written[k]:written[k + 1].
    ends = np.cumsum([0] + [len(p.kp) for p in parts])
    written = np.r_[0, np.cumsum(ok)][ends].tolist()
    for frame, start, end in zip(frames, written, written[1:]):
        (out / "data" / f"{frame}.txt").write_text("".join(results[start:end]))
    names = (f"{frame} object {i}" for frame, p in zip(frames, parts) for i in range(len(p.kp)))
    entries = map(_log_entry, fit.errors, skipped, fit.iterations.tolist(), fit.cost.tolist(),
                  fit.converged.tolist())
    (out / "solve_log.txt").write_text("".join(f"{name}: {e}\n" for name, e in zip(names, entries)))
    ms = 1000.0 * solve_s / fitted if fitted else 0.0
    print(f"solved {len(frames)} frame(s); solve time {ms:.3f} ms/object (over fitted objects)")
    if failed:
        print(f"rtm3d: input error: {failed} object(s) failed; see solve_log.txt", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _load_frames(directory: Path, parse):
    return {path.stem: parse(path) for path in sorted(directory.glob("*.txt"))}


def cmd_eval(args) -> int:
    from . import evaluation

    results_dir = Path(args.results)
    if (results_dir / "data").is_dir():
        results_dir = results_dir / "data"
    gt_dir = Path(args.gt)
    if (gt_dir / "label_2").is_dir():
        gt_dir = gt_dir / "label_2"
    if not results_dir.is_dir():
        raise InputError(f"results dir {results_dir} does not exist")
    if not gt_dir.is_dir():
        raise InputError(f"ground-truth dir {gt_dir} does not exist")

    det_frames = _load_frames(
        results_dir,
        lambda p: [evaluation.DetectionRecord.from_label(lb) for lb in kitti.parse_label_file(p)],
    )
    gt_frames = _load_frames(gt_dir, kitti.parse_label_file)
    missing = sorted(set(gt_frames) - set(det_frames))
    extra = sorted(set(det_frames) - set(gt_frames))
    for frame in missing:
        log.info("frame %s has ground truth but no results", frame)
    for frame in extra:
        log.info("frame %s has results but no ground truth", frame)

    difficulties = [args.difficulty] if args.difficulty else ["easy", "moderate", "hard"]
    n_points = 40 if args.forty_point else 11
    filters = [evaluation.DifficultyFilter.by_name(name) for name in difficulties]
    curves = evaluation.evaluate(det_frames, gt_frames, filters, args.iou, n_points=n_points)
    lines = [f"interpolation={n_points}point", f"iou_threshold={args.iou}"]
    for name in difficulties:
        for key, metric in (("ap_3d", "3d"), ("ap_bev", "bev"), ("aos", "aos"), ("ap_2d", "2d")):
            lines.append(f"{key}_{name}={curves[name][metric].ap:.6f}")
    report = "".join(line + "\n" for line in lines)
    print(report, end="")
    if args.out:
        Path(args.out).write_text(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# render-bev


def cmd_render_bev(args) -> int:
    from . import bev_svg

    def boxes_of(path):
        p = Path(path)
        if not p.exists():
            raise InputError(f"{p} does not exist")
        return [kitti.label_to_box3d(lb) for lb in kitti.parse_label_file(p) if not lb.is_dontcare]

    results = boxes_of(args.results) if args.results else []
    gts = boxes_of(args.gt) if args.gt else []
    svg = bev_svg.render_bev_svg(results, gts)
    Path(args.out).write_text(svg)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rtm3d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate synthetic scenes")
    p_synth.add_argument("spec", help="key=value scene spec file")
    p_synth.add_argument("out", help="output directory")

    p_solve = sub.add_parser("solve", help="recover 3D boxes from keypoint files")
    p_solve.add_argument("input", help="directory with priors/ keypoints/ (and calib/)")
    p_solve.add_argument("out", help="output directory for KITTI result files")
    p_solve.add_argument("--calib", default=None, help="calib file or directory")
    p_solve.add_argument("--config", default=None, help="key=value config file")
    p_solve.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="ignored: the solve runs serially; kept so existing scripts still parse",
    )

    p_eval = sub.add_parser("eval", help="compute AP/AOS metrics")
    p_eval.add_argument("results", help="results directory (or its data/ parent)")
    p_eval.add_argument("gt", help="ground-truth label directory")
    p_eval.add_argument("--iou", type=float, choices=[0.5, 0.7], default=0.5)
    p_eval.add_argument(
        "--difficulty", choices=["easy", "moderate", "hard"], default=None
    )
    p_eval.add_argument("--forty-point", action="store_true", help="40-point AP")
    p_eval.add_argument("--out", default=None, help="summary file path")

    p_render = sub.add_parser("render-bev", help="render a bird's-eye-view SVG")
    p_render.add_argument("--results", default=None, help="result label file")
    p_render.add_argument("--gt", default=None, help="ground-truth label file")
    p_render.add_argument("out", help="output SVG path")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synth": cmd_synth,
        "solve": cmd_solve,
        "eval": cmd_eval,
        "render-bev": cmd_render_bev,
    }
    try:
        return handlers[args.command](args)
    except (InputError, OSError) as e:
        print(f"rtm3d: input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:  # pragma: no cover - defensive
        log.exception("internal error")
        print(f"rtm3d: internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
