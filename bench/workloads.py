"""The benchmark's three workloads: inputs, timed rounds and output checks.

Each workload builds its inputs in ``setup``, runs one whole round of the
program in ``round`` and checks a round's outputs in ``check`` against
``reference``.  Rounds of one run see the same inputs, so a later round
must reproduce the first round's ``digest``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference as ref

SRC = Path("src").resolve()


class BenchError(RuntimeError):
    """The program failed in a way the benchmark cannot account for."""


def _run(argv: list, what: str) -> tuple[float, str]:
    """Run ``argv`` with the checkout's sources on the path; (wall s, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), RTM3D_LOG="error")
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}: {proc.stderr.strip()}")
    return wall, proc.stdout


def cli(*args) -> float:
    """Run ``python -m rtm3d.cli`` with the checkout's sources; its wall time in s."""
    args = [str(a) for a in args]
    return _run([sys.executable, "-m", "rtm3d.cli", *args], "rtm3d " + " ".join(args))[0]


def import_probe() -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import rtm3d.cli"], env=env, check=True)
    return time.perf_counter() - t0


def write_spec(path: Path, spec: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{k}={v}\n" for k, v in spec.items()))
    return path


def read_frames(directory: Path) -> dict:
    return {p.stem: ref.parse_label_text(p.read_text()) for p in sorted(directory.glob("*.txt"))}


def digest_files(directory: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(directory.glob("*")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def printed_metrics(path: Path) -> dict:
    """The ``key=value`` lines that ``rtm3d eval --out`` writes."""
    return dict(line.split("=", 1) for line in path.read_text().split())


def check_metrics_file(path: Path, det_frames: dict, gt_frames: dict) -> list[str]:
    """``rtm3d eval`` output against the reference evaluator, and AOS <= AP_2d."""
    printed = printed_metrics(path)
    want = ref.evaluate(det_frames, gt_frames, iou=float(printed["iou_threshold"]))
    problems = []
    for key, value in want.items():
        if key not in printed:
            problems.append(f"{path.name}: {key} missing")
        elif abs(float(printed[key]) - value) > 1.5e-6:
            problems.append(f"{path.name}: {key}={printed[key]}, reference {value:.6f}")
    for diff in ref.DIFFICULTIES:
        if float(printed.get(f"aos_{diff}", 0)) > float(printed.get(f"ap_2d_{diff}", 0)) + 1e-12:
            problems.append(f"{path.name}: aos_{diff} exceeds ap_2d_{diff}")
    return problems


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.scene_seed = 1000 * seed

    def setup(self, dest: Path) -> dict:
        """Build the inputs in ``dest``; what the set-up measured."""
        raise NotImplementedError

    def round(self, inputs: Path, out: Path) -> dict:
        raise NotImplementedError

    def check(self, inputs: Path, out: Path, result: dict) -> tuple[int, int, list[str]]:
        """(operations attempted, failed, problems) of one round."""
        raise NotImplementedError

    def digest(self, inputs: Path, out: Path, result: dict) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class KittiPipeline(Workload):
    """The fixed CLI workload: synth -> solve --jobs 2 -> eval, all difficulties."""

    name = "kitti-pipeline"
    frames, objects = 200, 5

    def spec(self) -> dict:
        return {"frames": self.frames, "n_objects": self.objects, "pixel_sigma": 1.0,
                "dropout": 0.1, "seed": self.scene_seed}

    def setup(self, dest):
        write_spec(dest / "scenes.cfg", self.spec())
        import_probe()
        return {}

    def round(self, inputs, out):
        ds, res = out / "dataset", out / "results"
        synth_s = cli("synth", inputs / "scenes.cfg", ds)
        solve_s = cli("solve", ds, res, "--jobs", 2)
        eval_s = cli("eval", res, ds, "--out", out / "metrics.txt")
        return {"synth_s": synth_s, "solve_s": solve_s, "eval_s": eval_s,
                "wall": synth_s + solve_s + eval_s, "synth_frames": self.frames,
                "ap_3d_moderate": float(printed_metrics(out / "metrics.txt")["ap_3d_moderate"])}

    def check(self, inputs, out, result):
        ds, res = out / "dataset", out / "results" / "data"
        problems, attempted, failed, tilted = [], 0, 0, 0
        gt_errs = []
        for kp_path in sorted((ds / "keypoints").glob("*.txt")):
            frame = kp_path.stem
            kps = ref.parse_keypoint_text(kp_path.read_text())
            gts = ref.parse_label_text((ds / "label_2" / f"{frame}.txt").read_text())
            res_path = res / f"{frame}.txt"
            results = ref.parse_label_text(res_path.read_text()) if res_path.exists() else []
            p2 = ref.parse_p2((ds / "calib" / f"{frame}.txt").read_text())
            attempted += len(kps)
            failed += max(len(kps) - len(results), 0)
            if len(results) != len(kps):
                problems.append(f"frame {frame}: {len(kps)} keypoint lines, {len(results)} result lines")
                continue
            for i, ((uv, conf), gt, det) in enumerate(zip(kps, gts, results)):
                e_gt, e_det = _reproj_rms(p2, uv, conf, gt), _reproj_rms(p2, uv, conf, det)
                gt_errs.append(e_gt)
                bound = e_gt + _format_allowance(p2, conf, det)
                if e_det <= bound:
                    continue
                # ``solve`` writes only the yaw of its optimum and drops any
                # pitch and roll, which an under-determined pose takes on to
                # fit the noise.  Such a box breaks the bound only through
                # that tilt, so some tilt of the written box must meet it.
                e_tilt = _tilted_rms(p2, uv, conf, det)
                if e_tilt <= bound:
                    tilted += 1
                else:
                    problems.append(f"frame {frame} object {i}: reprojection {e_det:.3f} px "
                                    f"({e_tilt:.3f} px at best tilt), ground truth {e_gt:.3f} px")
        result["worse_than_truth_until_tilted"] = tilted
        # With sigma = 1 px noise the true boxes must fit their keypoints; a
        # larger figure means the checker's own projection is wrong.
        if not gt_errs or float(np.mean(gt_errs)) > 3.0:
            problems.append(f"reference projection disagrees with the keypoints: {np.mean(gt_errs):.2f} px")
        problems += check_metrics_file(out / "metrics.txt", read_frames(res), read_frames(ds / "label_2"))
        return attempted, failed, problems

    def digest(self, inputs, out, result):
        return digest_files(out / "results" / "data") + (out / "metrics.txt").read_text()


_FIELDS = ("h", "w", "l", "x", "y", "z", "ry")


def _keypoints(p2, box: dict) -> np.ndarray:
    return ref.project_p2(p2, ref.box_points(*(box[k] for k in _FIELDS)))


def _weighted_rms(conf, err_px) -> float:
    """RMS over the visible keypoints, weighted as the solver weighs them
    (softmax of the confidences)."""
    vis = conf > 0
    w = np.exp(conf[vis])
    return math.sqrt(float((w * err_px[vis] ** 2).sum() / w.sum()))


def _reproj_rms(p2, uv, conf, box: dict) -> float:
    return _weighted_rms(conf, np.linalg.norm(uv - _keypoints(p2, box), axis=1))


def _tilted_rms(p2, uv, conf, box: dict) -> float:
    """Least weighted RMS reprojection error of ``box`` under some pitch and
    roll (each within 0.5 rad) about its bottom centre."""
    from scipy.optimize import least_squares

    vis = conf > 0
    sw = np.sqrt(np.exp(conf[vis]) / np.exp(conf[vis]).sum())[:, None]
    dims = [box[k] for k in _FIELDS]

    def residual(tilt):
        return (sw * (uv[vis] - ref.project_p2(p2, ref.box_points(*dims, *tilt))[vis])).ravel()

    best = math.inf
    for start in ((0.0, 0.0), (0.1, 0.1), (0.1, -0.1), (-0.1, 0.1), (-0.1, -0.1)):
        fit = least_squares(residual, start, bounds=([-0.5, -0.5], [0.5, 0.5]))
        best = min(best, math.sqrt(2.0 * fit.cost))
    return best


def _format_allowance(p2, conf, box: dict, step: float = 0.005) -> float:
    """How far, to first order, rounding each written field by up to ``step``
    can move the keypoints (weighted RMS of per-keypoint bounds, px)."""
    base = _keypoints(p2, box)
    bound = np.zeros(9)
    for k in _FIELDS:
        moved = dict(box)
        moved[k] += step
        bound += np.linalg.norm(_keypoints(p2, moved) - base, axis=1)
    return 1.05 * _weighted_rms(conf, bound) + 0.01


# ---------------------------------------------------------------------------


class CrowdedEval(Workload):
    """``rtm3d eval`` over crowded frames with jittered detections."""

    name = "crowded-eval"
    frames, objects = 40, 20
    image_w, image_h = 1280.0, 384.0
    miss_rate = 0.1
    false_positives = 3
    dontcare = 2

    def spec(self) -> dict:
        return {"frames": self.frames, "n_objects": self.objects, "seed": self.scene_seed}

    def setup(self, dest):
        import_probe()
        synth_s = cli("synth", write_spec(dest / "scenes.cfg", self.spec()), dest / "dataset")
        rng = np.random.default_rng(self.seed)
        (dest / "detections" / "data").mkdir(parents=True)
        for label_path in sorted((dest / "dataset" / "label_2").glob("*.txt")):
            p2 = ref.parse_p2((dest / "dataset" / "calib" / label_path.name).read_text())
            gt_lines, det_lines = self._frame(label_path.read_text(), p2, rng)
            label_path.write_text(gt_lines)
            (dest / "detections" / "data" / label_path.name).write_text(det_lines)
        return {"synth_s": synth_s, "synth_frames": self.frames}

    def _frame(self, gt_text: str, p2, rng) -> tuple[str, str]:
        """Ground truth with occlusion levels and DontCare regions, and detections.

        Detections jitter each car's position, yaw and size; some cars are
        missed, and false positives sit beside real cars, some of them
        inside a DontCare region.
        """
        lines = gt_text.splitlines()
        cars = ref.parse_label_text(gt_text)
        out_gt = []
        for line, car in zip(lines, cars):
            fields = line.split()
            fields[2] = str(self._occlusion(car, cars))
            out_gt.append(" ".join(fields))
        dets = []
        for car in cars:
            if rng.uniform() < self.miss_rate:
                continue
            box = dict(car)
            box["x"] += rng.normal(0.0, 0.25)
            box["y"] += rng.normal(0.0, 0.05)
            box["z"] += rng.normal(0.0, 0.4)
            for k in ("h", "w", "l"):
                box[k] *= 1.0 + rng.normal(0.0, 0.05)
            box["ry"] = _wrap(box["ry"] + rng.normal(0.0, 0.15))
            bbox = np.array(car["bbox"]) + rng.normal(0.0, 2.0, size=4)
            dets.append((box, tuple(bbox), rng.uniform(0.3, 1.0)))
        for k in range(self.false_positives):
            car = cars[rng.integers(len(cars))]
            box = dict(car)
            side = rng.choice([-1.0, 1.0])
            box["x"] += side * (car["w"] + rng.uniform(0.5, 2.0))
            box["z"] += rng.uniform(-1.0, 1.0)
            box["ry"] = _wrap(box["ry"] + rng.uniform(-0.5, 0.5))
            bbox = self._image_box(p2, box)
            if bbox is None:
                continue
            dets.append((box, bbox, rng.uniform(0.05, 0.7)))
            if k < self.dontcare:
                # A DontCare region over this false positive: it must be ignored.
                grown = (bbox[0] - 3, bbox[1] - 3, bbox[2] + 3, bbox[3] + 3)
                out_gt.append("DontCare -1 -1 -10 " + " ".join(f"{v:.2f}" for v in grown)
                              + " -1 -1 -1 -1000 -1000 -1000 -10")
        det_lines = []
        for box, bbox, score in dets:
            alpha = _wrap(box["ry"] - math.atan2(box["x"], box["z"]))
            vals = [alpha, *bbox, box["h"], box["w"], box["l"], box["x"], box["y"], box["z"], box["ry"], score]
            det_lines.append("Car 0.00 0 " + " ".join(f"{v:.2f}" for v in vals))
        return "".join(s + "\n" for s in out_gt), "".join(s + "\n" for s in det_lines)

    @staticmethod
    def _occlusion(car: dict, cars: list) -> int:
        """KITTI-style level from the share of the 2D box that nearer cars cover."""
        l, t, r, b = car["bbox"]
        area = max((r - l) * (b - t), 1e-9)
        covered = 0.0
        for other in cars:
            if other is not car and other["z"] < car["z"]:
                ol, ot, orr, ob = other["bbox"]
                covered = max(covered, max(min(r, orr) - max(l, ol), 0) * max(min(b, ob) - max(t, ot), 0) / area)
        return 0 if covered < 0.1 else 1 if covered < 0.5 else 2

    def _image_box(self, p2, box):
        pts = ref.box_points(box["h"], box["w"], box["l"], box["x"], box["y"], box["z"], box["ry"])
        if np.any(pts[:, 2] < 1.0):
            return None
        uv = ref.project_p2(p2, pts)
        left, right = np.clip([uv[:, 0].min(), uv[:, 0].max()], 0, self.image_w - 1)
        top, bottom = np.clip([uv[:, 1].min(), uv[:, 1].max()], 0, self.image_h - 1)
        if right - left < 2 or bottom - top < 2:
            return None
        return (float(left), float(top), float(right), float(bottom))

    def round(self, inputs, out):
        out.mkdir(parents=True, exist_ok=True)
        eval_s = cli("eval", inputs / "detections", inputs / "dataset", "--out", out / "metrics.txt")
        return {"eval_s": eval_s, "wall": eval_s,
                "ap_3d_moderate": float(printed_metrics(out / "metrics.txt")["ap_3d_moderate"])}

    def check(self, inputs, out, result):
        problems = check_metrics_file(
            out / "metrics.txt",
            read_frames(inputs / "detections" / "data"),
            read_frames(inputs / "dataset" / "label_2"),
        )
        return self.frames, 0, problems

    def digest(self, inputs, out, result):
        return (out / "metrics.txt").read_text()


def _wrap(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


# ---------------------------------------------------------------------------


class HeadmapDecode(Workload):
    """The paper's path: ``rtm3d synth headmaps=1``, then, in one child
    process, read_headmaps -> decode_objects -> yaw prior -> solve.

    The fixed block (five cars per frame, scene seed 42, the same in every
    run) holds the cars lost to the grouping fault; the seeded block holds
    one car per frame, where no other car's regression cells can collide.
    """

    name = "headmap-decode"
    fixed_frames, fixed_objects, fixed_seed = 16, 5, 42
    seeded_frames = 16
    # A recovered box lies within these of its ground truth (metres, radians).
    tol_t, tol_dims, tol_yaw = 1e-3, 1e-3, 1e-3

    def blocks(self) -> dict:
        return {
            "fixed": {"frames": self.fixed_frames, "n_objects": self.fixed_objects,
                      "seed": self.fixed_seed, "headmaps": 1},
            "seeded": {"frames": self.seeded_frames, "n_objects": 1,
                       "seed": self.scene_seed, "headmaps": 1},
        }

    def setup(self, dest):
        for block, spec in self.blocks().items():
            write_spec(dest / f"{block}.cfg", spec)
        import_probe()
        return {}

    def round(self, inputs, out):
        blocks = {block: out / block for block in self.blocks()}
        synth_s = sum(cli("synth", inputs / f"{block}.cfg", d) for block, d in blocks.items())
        # Read, decode and solve in a child process, so that its resident set
        # is the program's and not the benchmark's.
        _, stdout = _run([sys.executable, __file__, *map(str, blocks.values())], "head-map decode")
        decoded = json.loads(stdout)
        boxes = {block: decoded[str(d)]["boxes"] for block, d in blocks.items()}
        decode_s = sum(v["decode_s"] for v in decoded.values())
        solve_times = [t for v in decoded.values() for t in v["solve_times"]]
        solve_s = sum(solve_times)
        frames = self.fixed_frames + self.seeded_frames
        return {"synth_s": synth_s, "decode_s": decode_s, "solve_s": solve_s, "solve_times": solve_times,
                "wall": synth_s + decode_s + solve_s, "synth_frames": frames, "boxes": boxes}

    def check(self, inputs, out, result):
        """Every lost car must be explained by the grouping fault: some other
        car's head-map points collide with its own (see ``_collide``)."""
        problems, attempted, failed = [], 0, 0
        for block, frames in result["boxes"].items():
            for frame, boxes in frames.items():
                gts = ref.parse_label_text((out / block / "label_2" / f"{frame}.txt").read_text())
                kps = ref.parse_keypoint_text((out / block / "keypoints" / f"{frame}.txt").read_text())
                points = [_grid_points(gt, kp) for gt, kp in zip(gts, kps)]
                lost = self.unrecovered(gts, boxes)
                attempted += len(gts)
                failed += len(lost)
                for i in lost:
                    if not any(_collide(points[i], points[j]) for j in range(len(gts)) if j != i):
                        problems.append(f"{block} frame {frame}: car {i} not recovered, "
                                        "and no other car's head-map points collide with its own")
        return attempted, failed, problems

    @classmethod
    def unrecovered(cls, gts: list, boxes: list) -> list[int]:
        """Indices of ground-truth cars no solved box reproduces within
        tolerance; each box may recover one car."""
        free = list(range(len(boxes)))
        lost = []
        for i, g in enumerate(gts):
            hit = None
            for j in free:
                b = boxes[j]
                if (
                    math.dist(b[:3], (g["x"], g["y"], g["z"])) <= cls.tol_t
                    and max(abs(b[3] - g["h"]), abs(b[4] - g["w"]), abs(b[5] - g["l"])) <= cls.tol_dims
                    and abs(_wrap(b[6] - g["ry"])) <= cls.tol_yaw
                ):
                    hit = j
                    break
            if hit is None:
                lost.append(i)
            else:
                free.remove(hit)
        return lost

    def digest(self, inputs, out, result):
        return repr(sorted((b, f, [tuple(round(v, 9) for v in x) for x in bs])
                           for b, fr in result["boxes"].items() for f, bs in fr.items()))


# The head maps' stride and grid (cells), and the grouping match radius
# (cells), as ``rtm3d synth headmaps=1`` and ``heatmaps.GroupingConfig`` set them.
HM_STRIDE, HM_GRID, HM_MATCH_RADIUS = 4, (320, 96), 4.0


def _grid_points(gt: dict, kp) -> tuple:
    """A car's points on the head-map grid: its main-centre cell (from the
    centre of its 2D box), the cells of its visible keypoints by channel, and
    all nine keypoints in grid units."""
    uv, conf = kp
    left, top, right, bottom = gt["bbox"]
    top_cell = np.array(HM_GRID) - 1
    centre = np.clip(np.floor(np.array([left + right, top + bottom]) / (2 * HM_STRIDE)), 0, top_cell)
    cells = {}
    for k in range(9):
        cell = np.floor(uv[k] / HM_STRIDE)
        if conf[k] > 0 and np.all((cell >= 0) & (cell <= top_cell)):
            cells[k] = tuple(cell)
    return centre, cells, uv / HM_STRIDE


def _collide(a: tuple, b: tuple) -> bool:
    """Whether car ``b``'s head-map points can corrupt the decode of car ``a``:
    their main-centre peaks share a 3x3 peak window (one is suppressed, or
    both write ``vertex_coord`` at one cell); a visible keypoint cell of ``a``
    is one of ``b``'s on any channel (both write the shared ``vertex_offset``
    plane); or a keypoint peak of ``b`` lies within the match radius of ``a``'s
    regressed keypoint on the same channel (grouping may take it)."""
    (centre_a, cells_a, kps_a), (centre_b, cells_b, _) = a, b
    return (
        np.abs(centre_a - centre_b).max() <= 1
        or bool(set(cells_a.values()) & set(cells_b.values()))
        or any(math.dist(kps_a[k], cell) <= HM_MATCH_RADIUS for k, cell in cells_b.items())
    )


def headmap_priors(obj, cam):
    """Solver priors of a decoded object: the yaw prior turns ``alpha_hat``
    into a global yaw along the ray of the decoded centre keypoint."""
    from rtm3d.geometry import alpha_to_yaw
    from rtm3d.solver import Priors

    u = obj.kps.pts[8, 0]
    x = (u - cam.cx) / cam.fx * (obj.z_hat + cam.t_cam[2]) - cam.t_cam[0]
    yaw = alpha_to_yaw(obj.alpha_hat, np.array([x, 0.0, obj.z_hat]))
    return Priors(d_hat=obj.d_hat, theta_hat=yaw, z_hat=obj.z_hat)


def decode_and_solve(block_dir: Path) -> tuple[dict, float, list]:
    """Per frame, the solved boxes as (x, y, z, h, w, l, yaw); the time spent
    reading and decoding; and each object's prior-plus-solve time."""
    from rtm3d import heatmaps, kitti
    from rtm3d.solver import InsufficientConstraints, solve

    boxes, decode_s, solve_times = {}, 0.0, []
    for hm_path in sorted((block_dir / "headmaps").glob("*.rtmh")):
        frame = hm_path.stem
        t0 = time.perf_counter()
        cam = kitti.to_camera_model(kitti.parse_calib_file(block_dir / "calib" / f"{frame}.txt"))
        objs = heatmaps.decode_objects(heatmaps.read_headmaps(hm_path))
        decode_s += time.perf_counter() - t0
        boxes[frame] = []
        for obj in objs:
            t0 = time.perf_counter()
            try:
                box = solve(obj.kps, cam, headmap_priors(obj, cam)).box
            except InsufficientConstraints:
                continue
            finally:
                solve_times.append(time.perf_counter() - t0)
            boxes[frame].append((*box.t, *box.dims, box.yaw))
    return boxes, decode_s, solve_times


WORKLOADS = {w.name: w for w in (KittiPipeline, CrowdedEval, HeadmapDecode)}


if __name__ == "__main__":
    # ``python3 bench/workloads.py BLOCK_DIR...`` (with the sources on
    # PYTHONPATH): decode and solve each block's head maps, printed as JSON.
    print(json.dumps({d: dict(zip(("boxes", "decode_s", "solve_times"), decode_and_solve(Path(d))))
                      for d in sys.argv[1:]}))
