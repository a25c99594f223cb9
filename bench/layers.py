"""The traced run: spans around each call into an ``rtm3d`` module, and probes
that time each module's public functions on the workload's inputs.

``replay`` runs one round of the workload in process: ``rtm3d.cli.main`` for
each CLI stage, and ``decode_and_solve`` for the head maps.  With tracing on,
``Tracer.patched`` wraps the public functions of the traced modules wherever
the package refers to them, so that every call gets a span (name, start,
end, parent, run id) kept in memory and written out at the end; a layer's
self time is its spans' time less their children's.  ``probe`` then fills
every per-layer metric from small timed loops over the same inputs, so each
metric exists on every workload.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from workloads import (
    BenchError,
    CrowdedEval,
    HeadmapDecode,
    KittiPipeline,
    cli,
    decode_and_solve,
    import_probe,
)

# Modules whose public functions (those they define, not named ``_*``) get
# spans, and single functions beside them: ``solve`` and ``yaw_to_alpha`` are
# what the CLI imports from its lower layers, ``alpha_to_yaw`` what the
# head-map decode adds.  Geometry and the LM internals run per iteration and
# stay untraced.
TRACED_MODULES = ("synth", "kitti", "evaluation", "heatmaps")
TRACED_FUNCTIONS = (("solver", "solve"), ("geometry", "yaw_to_alpha"), ("geometry", "alpha_to_yaw"))


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent)

    @contextlib.contextmanager
    def patched(self):
        """With tracing on, route every reference the ``rtm3d`` modules hold
        to a traced function through ``call``; restore them on exit."""
        if not self.enabled:
            yield
            return
        traced = {}
        for layer in TRACED_MODULES:
            mod = importlib.import_module(f"rtm3d.{layer}")
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    traced[fn] = f"{layer}.{name}"
        for layer, name in TRACED_FUNCTIONS:
            traced[getattr(importlib.import_module(f"rtm3d.{layer}"), name)] = f"{layer}.{name}"
        wrappers = {fn: self._wrap(label, fn) for fn, label in traced.items()}
        saved = []
        for mod in [m for k, m in sys.modules.items() if k == "rtm3d" or k.startswith("rtm3d.")]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        try:
            yield
        finally:
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    def _wrap(self, label: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(label, fn, *args, **kwargs)
        return wrapper

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = {}
        for (name, t0, t1, _), c in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (t1 - t0 - c)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"id": i, "name": n, "start": t0, "end": t1, "parent": p, "run": self.run_id}
            for i, (n, t0, t1, p) in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows))


# ---------------------------------------------------------------------------
# One round in process


def run_cli(*args) -> None:
    """``rtm3d.cli.main`` in this process, its printed report discarded."""
    from rtm3d import cli as rtm3d_cli

    argv = [str(a) for a in args]
    with contextlib.redirect_stdout(io.StringIO()):
        code = rtm3d_cli.main(argv)
    if code != 0:
        raise BenchError(f"rtm3d {' '.join(argv)} returned {code}")


def replay(wl, tr: Tracer, inputs: Path, out: Path) -> dict:
    """One round of ``wl`` in process (``solve`` with one job); returns the
    inputs the probes use."""
    with tr.patched():
        if isinstance(wl, KittiPipeline):
            ds = out / "dataset"
            tr.call("cli.synth", run_cli, "synth", inputs / "scenes.cfg", ds)
            tr.call("cli.solve", run_cli, "solve", ds, out / "results", "--jobs", 1)
            tr.call("cli.eval", run_cli, "eval", out / "results", ds, "--out", out / "metrics.txt")
            return {"dataset": ds, "spec": wl.spec(), "det": out / "results" / "data", "gt": ds / "label_2"}
        if isinstance(wl, CrowdedEval):
            # The synth of the workload's set-up, then its timed eval.
            tr.call("cli.synth", run_cli, "synth", inputs / "scenes.cfg", out / "dataset")
            tr.call("cli.eval", run_cli, "eval", inputs / "detections", inputs / "dataset",
                    "--out", out / "metrics.txt")
            return {"dataset": inputs / "dataset", "spec": wl.spec(), "det": inputs / "detections" / "data",
                    "gt": inputs / "dataset" / "label_2"}
        if isinstance(wl, HeadmapDecode):
            for block in wl.blocks():
                tr.call("cli.synth", run_cli, "synth", inputs / f"{block}.cfg", out / block)
                tr.call("bench.decode", decode_and_solve, out / block)
            # The evaluation probes score the probe's own ``solve`` of this block.
            return {"dataset": out / "fixed", "spec": wl.blocks()["fixed"], "det": None,
                    "gt": out / "fixed" / "label_2"}
    raise ValueError(wl.name)


# ---------------------------------------------------------------------------
# Probes


def _per_call(fn, items, repeats=1) -> float:
    """Mean seconds per call of ``fn(*item)`` over ``items``."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        for item in items:
            fn(*item)
    return (time.perf_counter() - t0) / (repeats * len(items))


def _quantile(values, q) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def probe(ctx: dict, work: Path, seed: int) -> dict:
    """Every per-layer metric, measured on the workload's inputs in ``ctx``."""
    from rtm3d import evaluation, kitti, synth
    from rtm3d.geometry import box_points_3d, project_points, so3_exp, so3_log

    ds, spec = ctx["dataset"], ctx["spec"]
    m = {}

    # cli: interpreter start plus package import, and --jobs scaling of solve.
    m["cli.import_s"] = (statistics.median(import_probe() for _ in range(3)), "s")
    m["cli.solve_jobs1_s"] = (cli("solve", ds, work / "jobs1", "--jobs", 1), "s")
    m["cli.solve_jobs2_s"] = (cli("solve", ds, work / "jobs2", "--jobs", 2), "s")

    # synth, on the workload's first scenes.
    camera = synth.default_camera()
    noise = synth.NoiseSpec(pixel_sigma=float(spec.get("pixel_sigma", 0.0)),
                            dropout=float(spec.get("dropout", 0.0)))
    n_frames = min(8, spec["frames"])
    specs = [synth.SceneSpec(seed=spec["seed"] + f, n_objects=spec["n_objects"]) for f in range(n_frames)]
    m["synth.generate_scene_ms"] = (1e3 * _per_call(synth.generate_scene, [(s, camera) for s in specs]), "ms")
    scenes = [synth.generate_scene(s, camera) for s in specs]
    m["synth.apply_noise_ms"] = (1e3 * _per_call(lambda sc: synth.apply_noise(sc, noise, seed=1), [(sc,) for sc in scenes]), "ms")
    m["synth.write_text_ms"] = (1e3 * _per_call(
        lambda sc: (synth.scene_gt_text(sc), synth.scene_priors_text(sc), synth.keypoints_sidecar_text(sc)),
        [(sc,) for sc in scenes]), "ms")
    enc_scenes = scenes[:3]
    t0 = time.perf_counter()
    maps = [synth.encode_headmaps(sc, camera) for sc in enc_scenes]
    m["synth.encode_headmaps_ms"] = (1e3 * (time.perf_counter() - t0) / len(enc_scenes), "ms")
    prior_files = sorted((ds / "priors").glob("*.txt"))[:20]
    texts = [(p.read_text(), (ds / "keypoints" / p.name).read_text()) for p in prior_files]
    m["synth.parse_scene_objects_ms"] = (1e3 * _per_call(synth.parse_scene_objects, texts, 3), "ms")

    m.update(_probe_heatmaps(enc_scenes, maps, camera, work, seed))
    m.update(_probe_kitti(ds))
    m.update(_probe_solver(ds))

    # geometry: the calls the solver's rotation prior and projection make.
    rng = np.random.default_rng(seed)
    ws = [(w,) for w in rng.normal(0.0, 0.6, size=(500, 3))]
    m["geometry.so3_exp_us"] = (1e6 * _per_call(so3_exp, ws, 4), "us")
    rs = [(so3_exp(w),) for (w,) in ws]
    m["geometry.so3_log_us"] = (1e6 * _per_call(so3_log, rs, 4), "us")
    boxes = [kitti.label_to_box3d(lb) for p in sorted((ds / "label_2").glob("*.txt"))[:40]
             for lb in kitti.parse_label_file(p) if not lb.is_dontcare]
    pts = [(camera, box_points_3d(b)) for b in boxes]
    m["geometry.project_points_us"] = (1e6 * _per_call(project_points, pts, 10), "us")

    det = ctx["det"] or work / "jobs1" / "data"
    m.update(_probe_evaluation(det, ctx["gt"], evaluation, kitti))
    return m


def _probe_heatmaps(scenes, maps, camera, work: Path, seed: int) -> dict:
    from rtm3d import heatmaps, kitti

    m = {}
    gh, gw = maps[0].grid_shape
    rng = np.random.default_rng(seed)
    cells = [(np.zeros((gh, gw)), (int(rng.integers(gw)), int(rng.integers(gh))), 1.0 + 3.0 * rng.uniform())
             for _ in range(50)]
    m["heatmaps.render_gaussian_us"] = (1e6 * _per_call(heatmaps.render_gaussian, cells, 2), "us")
    bumps = sum(1 + int(o.kps.visible.sum()) for sc in scenes for o in sc if o.kps.n_visible)
    m["heatmaps.bumps_per_frame"] = (bumps / len(scenes), "count")
    # The probe frames laid out as a head-map block: headmaps/ and calib/.
    block = work / "headmap_probe"
    (block / "headmaps").mkdir(parents=True)
    (block / "calib").mkdir()
    calib = kitti.write_calib(kitti.camera_to_calib(camera))
    paths = []
    for i in range(len(maps)):
        (block / "calib" / f"{i:06d}.txt").write_text(calib)
        paths.append(block / "headmaps" / f"{i:06d}.rtmh")
    m["heatmaps.write_headmaps_ms"] = (1e3 * _per_call(heatmaps.write_headmaps, list(zip(paths, maps))), "ms")
    m["heatmaps.bytes_per_frame"] = (float(np.mean([p.stat().st_size for p in paths])), "bytes")
    m["heatmaps.read_headmaps_ms"] = (1e3 * _per_call(heatmaps.read_headmaps, [(p,) for p in paths]), "ms")
    cfg = heatmaps.GroupingConfig()
    t_peaks = t_group = 0.0
    n_peaks = 0
    for hm in maps:
        t0 = time.perf_counter()
        main = heatmaps.extract_peaks(hm.main, cfg.main_threshold, cfg.topk)
        vertex = heatmaps.extract_peaks(hm.vertex, cfg.keypoint_threshold, cfg.topk)
        t1 = time.perf_counter()
        heatmaps.group_keypoints(main, vertex, hm, cfg)
        t_group += time.perf_counter() - t1
        t_peaks += t1 - t0
        n_peaks += len(main) + len(vertex)
    m["heatmaps.extract_peaks_ms"] = (1e3 * t_peaks / len(maps), "ms")
    m["heatmaps.peaks_per_frame"] = (n_peaks / len(maps), "count")
    m["heatmaps.group_keypoints_ms"] = (1e3 * t_group / len(maps), "ms")
    m["heatmaps.decode_objects_ms"] = (1e3 * _per_call(heatmaps.decode_objects, [(hm,) for hm in maps]), "ms")
    boxes, _, _ = decode_and_solve(block)
    total = lost = 0
    for i, sc in enumerate(scenes):
        gts = [dict(zip(("x", "y", "z", "h", "w", "l", "ry"), (*o.box.t, *o.box.dims, o.box.yaw))) for o in sc]
        total += len(gts)
        lost += len(HeadmapDecode.unrecovered(gts, boxes[f"{i:06d}"]))
    m["heatmaps.recovered_ratio"] = ((total - lost) / total, "ratio")
    m["heatmaps.recovered_base"] = (float(total), "count")
    return m


def _probe_kitti(ds: Path) -> dict:
    from rtm3d import kitti

    labels = [(p,) for p in sorted((ds / "label_2").glob("*.txt"))]
    calibs = [(p,) for p in sorted((ds / "calib").glob("*.txt"))]
    parsed = [(kitti.parse_label_file(p),) for (p,) in labels]
    return {
        "kitti.parse_labels_us": (1e6 * _per_call(kitti.parse_label_file, labels, 2), "us"),
        "kitti.parse_calib_file_us": (1e6 * _per_call(kitti.parse_calib_file, calibs, 2), "us"),
        "kitti.write_result_file_us": (1e6 * _per_call(kitti.write_result_file, parsed, 2), "us"),
    }


def _probe_solver(ds: Path, max_objects: int = 300, micro_objects: int = 40) -> dict:
    from rtm3d import kitti, solver, synth
    from rtm3d.solver import EnergyWeights, InsufficientConstraints

    items = []  # (kps, priors, camera, ground-truth box)
    for p in sorted((ds / "priors").glob("*.txt")):
        cam = kitti.to_camera_model(kitti.parse_calib_file(ds / "calib" / p.name))
        objs = synth.parse_scene_objects(p.read_text(), (ds / "keypoints" / p.name).read_text())
        gts = [kitti.label_to_box3d(lb) for lb in kitti.parse_label_file(ds / "label_2" / p.name)
               if not lb.is_dontcare]
        items += [(kps, pri, cam, gt) for (kps, pri), gt in zip(objs, gts)]
        if len(items) >= max_objects:
            break
    items = items[:max_objects]
    times, iters, skipped = [], [], 0
    for kps, pri, cam, _ in items:
        t0 = time.perf_counter()
        try:
            report = solver.solve(kps, cam, pri)
        except InsufficientConstraints:
            skipped += 1
            continue
        times.append(time.perf_counter() - t0)
        iters.append(report.iterations)
    micro = items[:micro_objects]
    w = EnergyWeights()
    return {
        "solver.solve_ms_p50": (1e3 * _quantile(times, 0.5), "ms"),
        "solver.solve_ms_p90": (1e3 * _quantile(times, 0.9), "ms"),
        "solver.iterations_mean": (float(np.mean(iters)), "count"),
        "solver.iterations_p90": (_quantile(iters, 0.9), "count"),
        "solver.skipped": (float(skipped), "count"),
        "solver.initialize_us": (1e6 * _per_call(solver.initialize, [(p, k, c) for k, p, c, _ in micro], 10), "us"),
        "solver.residual_camera_point_us": (
            1e6 * _per_call(solver.residual_camera_point, [(b, k, c) for k, _, c, b in micro], 10), "us"),
        "solver.jacobian_camera_point_us": (
            1e6 * _per_call(solver.jacobian_camera_point, [(b, c) for _, _, c, b in micro], 10), "us"),
        "solver.residual_rotation_us": (
            1e6 * _per_call(solver.residual_rotation, [(b.yaw, p.theta_hat) for _, p, _, b in micro], 10), "us"),
        "solver.total_energy_us": (
            1e6 * _per_call(solver.total_energy, [(b, k, c, p, w) for k, p, c, b in micro], 10), "us"),
    }


def _probe_evaluation(det_dir: Path, gt_dir: Path, evaluation, kitti) -> dict:
    dets = {p.stem: [evaluation.DetectionRecord.from_label(lb) for lb in kitti.parse_label_file(p)]
            for p in sorted(det_dir.glob("*.txt"))}
    gts = {p.stem: kitti.parse_label_file(p) for p in sorted(gt_dir.glob("*.txt"))}
    diff = evaluation.DifficultyFilter.moderate()
    m = {}
    for metric in ("3d", "bev", "2d"):
        t0 = time.perf_counter()
        evaluation.average_precision(dets, gts, 0.5, diff, metric=metric)
        m[f"evaluation.average_precision_{metric}_ms"] = (1e3 * (time.perf_counter() - t0), "ms")
    t0 = time.perf_counter()
    evaluation.aos(dets, gts, diff)
    m["evaluation.aos_ms"] = (1e3 * (time.perf_counter() - t0), "ms")
    pairs, box_pairs = [], []
    for frame, gt_labels in gts.items():
        cars = [g for g in gt_labels if g.type == "Car"]
        frame_dets = [d for d in dets.get(frame, []) if d.category == "Car"]
        pairs.append(len(cars) * len(frame_dets))
        if len(box_pairs) < 2000:
            box_pairs += [(d, g, kitti.label_to_box3d(g)) for d in frame_dets for g in cars]
    m["evaluation.pairs_per_frame"] = (float(np.mean(pairs)), "count")
    m["evaluation.bev_iou_us"] = (1e6 * _per_call(evaluation.bev_iou, [(d.box, b) for d, _, b in box_pairs]), "us")
    m["evaluation.iou_3d_us"] = (1e6 * _per_call(evaluation.iou_3d, [(d.box, b) for d, _, b in box_pairs]), "us")
    m["evaluation.box_2d_iou_us"] = (
        1e6 * _per_call(evaluation.box_2d_iou, [(d.bbox, g.bbox) for d, g, _ in box_pairs], 5), "us")
    return m


def trace(wl, inputs: Path, work: Path, run_id: str) -> tuple[dict, dict, Tracer]:
    """A warm-up round, then untraced, traced and again untraced rounds,
    then the probes.

    The first round in a process pays for first calls, so it is left out.
    The untraced wall time is the mean of the rounds either side of the
    traced one, so that a slow drift of the machine cancels.
    """
    def timed(tracer: Tracer, out: Path):
        t0 = time.perf_counter()
        ctx = tracer.call("bench.round", replay, wl, tracer, inputs, out)
        return time.perf_counter() - t0, ctx

    timed(Tracer(run_id, enabled=False), work / "warmup")
    before, _ = timed(Tracer(run_id, enabled=False), work / "untraced0")
    traced = Tracer(run_id, enabled=True)
    traced_s, _ = timed(traced, work / "traced")
    after, ctx = timed(Tracer(run_id, enabled=False), work / "untraced1")
    untraced_s = (before + after) / 2.0
    probe_dir = work / "probe"
    probe_dir.mkdir(parents=True, exist_ok=True)
    metrics = probe(ctx, probe_dir, wl.seed)
    summary = {
        "self_s": {k: round(v, 6) for k, v in sorted(traced.self_times().items())},
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "overhead_s": traced_s - untraced_s,
        "spans": len(traced.spans),
    }
    return metrics, summary, traced
