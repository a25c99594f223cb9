"""Hash every output the byte-identity checks compare, one line per group.

Usage: PYTHONPATH=src python3 scripts/output_digest.py OUTDIR

Runs the CLI in process on fixed workloads under OUTDIR and prints one
``<group> <sha256>`` line per output group.  Run it on two checkouts and
diff the printed lines: a change that keeps every output byte-identical
prints the same lines.  The groups are:

- ``fixed-*``: the fixed workload (200 frames x 5 cars, sigma 1 px,
  dropout 0.1, seed 42): the synth files, the result files plus
  ``solve_log.txt``, ``metrics.txt`` with no flags, ``--iou 0.7``,
  ``--forty-point`` and ``--difficulty easy``, and the render-bev SVG of
  frame 000000;
- ``sparse-*``: 30 frames x 5 cars at dropout 0.8, seed 7, where many
  objects have too few keypoints;
- ``empty-*``: 3 frames with no objects;
- ``priors-noise-*``: 30 frames x 5 cars, seed 11, with every noise key
  set (sigma 1 px, dropout 0.1, and dimension, yaw and relative depth
  noise on the priors);
- ``exhausted-*``: 10 frames x 10 cars at depths 1-3 m, seed 3, where every
  box runs out of its 200 draws: 38 keep a keypoint behind the camera at
  (0, 0), and solve skips 77 for too few visible keypoints;
- ``mixed-*``: 10 frames x 10 cars at depths 2-6 m, seed 0, where 96 boxes
  run out of their draws and 4 frames hold both placed boxes and boxes that
  ran out;
- ``crowded-*``: the inputs, ``metrics.txt`` under the four flag sets of
  eval alone, and the render-bev SVG of frame 000000, of 12 frames x 10 cars
  (seed 21) whose ground truth :func:`crowd` rewrites: occlusion levels 0-2,
  truncation up to 0.45, every fifth car a Van and a DontCare region per
  frame, with jittered results, some of them Pedestrians or without a
  score, and a false positive on each DontCare region;
- ``headmaps-*``: the ``.rtmh`` files (the only files under ``headmaps/``)
  of two ``headmaps=1`` blocks (16 x 5, seed 42; 8 x 20, seed 7, sigma 1,
  dropout 0.1), so equal lines mean unchanged ``.rtmh`` bytes.  The
  second block's ``pixel_sigma`` and ``dropout`` change neither its
  ``.rtmh`` bytes nor its ``decode`` line, since ``rtm3d synth`` encodes
  the noiseless scene; a change that encodes noisy maps changes both;
- ``decode``: every :func:`rtm3d.heatmaps.decode_objects` field (type,
  dtype and bytes) of both blocks;
- ``fit-*``, printed after ``decoded-objects``: the
  :class:`rtm3d.solver.Fit` of one :func:`rtm3d.solver.solve_arrays` call
  per dataset (fixed, sparse, priors-noise and exhausted, every object read
  as ``rtm3d solve`` reads it) and per prior weights (w_d, w_r) of (1, 1),
  (2, 3) and (0, 0): each array field by dtype, shape and bytes, and each
  error by type and message.  These check the solver bit for bit, below
  the rounding of the result files.

Each group hash also covers the exit codes of the commands behind it.
Imports only the standard library, numpy and ``rtm3d``, and of ``rtm3d``
only names that predate the ``fit-*`` group, so this script also runs
against older checkouts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

from rtm3d import cli, heatmaps, kitti
from rtm3d.geometry import SolveInputs
from rtm3d.solver import EnergyWeights, solve_arrays

FIXED = "frames=200\nn_objects=5\npixel_sigma=1.0\ndropout=0.1\nseed=42\n"
SPARSE = "frames=30\nn_objects=5\npixel_sigma=1.0\ndropout=0.8\nseed=7\n"
EMPTY = "frames=3\nn_objects=0\nseed=42\n"
PRIORS_NOISE = ("frames=30\nn_objects=5\npixel_sigma=1.0\ndropout=0.1\ndim_sigma=0.1\n"
                "yaw_sigma=0.1\ndepth_rel_sigma=0.05\nseed=11\n")
EXHAUSTED = "frames=10\nn_objects=10\ndepth_min=1\ndepth_max=3\nseed=3\n"
MIXED = "frames=10\nn_objects=10\ndepth_min=2\ndepth_max=6\nseed=0\n"
CROWDED = "frames=12\nn_objects=10\nseed=21\n"
FIT_WEIGHTS = ((1.0, 1.0), (2.0, 3.0), (0.0, 0.0))
HEADMAP_BLOCKS = {
    "headmaps-16x5": "frames=16\nn_objects=5\nseed=42\nheadmaps=1\n",
    "headmaps-8x20": "frames=8\nn_objects=20\npixel_sigma=1.0\ndropout=0.1\nseed=7\nheadmaps=1\n",
}


def run(*argv: str) -> bytes:
    """Exit code of ``rtm3d argv``, with its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return f"exit {code}\n".encode()


def file_hash(paths, root: Path, extra: bytes = b"") -> str:
    """SHA-256 over each file's path relative to ``root`` and its bytes."""
    h = hashlib.sha256(extra)
    for path in sorted(paths):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root)}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def tree_hash(root: Path, extra: bytes = b"") -> str:
    return file_hash((p for p in root.rglob("*") if p.is_file()), root, extra)


def pipeline(out: Path, name: str, spec: str) -> dict:
    """synth, solve and eval (four flag sets) of one spec under ``out/name``."""
    work = out / name
    work.mkdir(parents=True)
    (work / "scenes.cfg").write_text(spec)
    data, results = work / "dataset", work / "results"
    groups = {
        f"{name}-synth": tree_hash(data, run("synth", str(work / "scenes.cfg"), str(data))),
        f"{name}-solve": tree_hash(results, run("solve", str(data), str(results))),
    }
    return {**groups, **metrics_hashes(work, name, results, data)}


def metrics_hashes(work: Path, name: str, results: Path, data: Path) -> dict:
    """eval of ``results`` against ``data`` under four flag sets: each metrics.txt's hash."""
    groups = {}
    for flag, args in (("", ()), ("-iou0.7", ("--iou", "0.7")),
                       ("-forty-point", ("--forty-point",)),
                       ("-easy", ("--difficulty", "easy"))):
        metrics = work / f"metrics{flag}.txt"
        code = run("eval", str(results), str(data), *args, "--out", str(metrics))
        groups[f"{name}-metrics{flag}"] = file_hash([metrics], work, code)
    return groups


def crowd(label_text: str, rng: np.random.Generator) -> tuple[str, str]:
    """Ground truth and results of one frame from its synthetic label text:
    the cars get occlusion levels 0-2 and some truncation, every fifth one
    becomes a Van, and a DontCare region is added.  Most cars get a jittered
    result, some of them a Pedestrian or without a score (15 fields), and a
    false positive lies on the DontCare region."""
    gt, det = [], []
    for k, line in enumerate(label_text.splitlines()):
        kind, *fields = line.split()
        v = [float(x) for x in fields]
        v[0], v[1] = (0.0, 0.1, 0.3, 0.45)[k % 4], k % 3
        gt.append(("Van" if k % 5 == 4 else kind, v))
        if rng.uniform() < 0.85:
            d = [0.0, 0, v[2] + rng.normal(0.0, 0.2), *(b + rng.normal(0.0, 3.0) for b in v[3:7]),
                 v[7] * rng.uniform(0.9, 1.1), *v[8:10], v[10] + rng.normal(0.0, 0.3), v[11] + rng.normal(0.0, 0.1),
                 v[12] + rng.normal(0.0, 0.5), v[13] + rng.normal(0.0, 0.2)]
            det.append(("Pedestrian" if k % 6 == 5 else "Car", d + ([] if k % 4 == 3 else [rng.uniform(0.05, 1.0)])))
    left, top = rng.uniform(0.0, 1100.0), rng.uniform(120.0, 300.0)
    gt.append(("DontCare", [-1, -1, -10, left, top, left + 80, top + 50, -1, -1, -1, -1000, -1000, -1000, -10]))
    det.append(("Car", [0, 0, 0, left + 4, top + 4, left + 76, top + 46, 1.5, 1.6, 3.9, 40.0, 1.6, 70.0, 0.5, 0.5]))
    return tuple("".join(f"{kind} {v[0]:.2f} {int(v[1])} " + " ".join(f"{x:.2f}" for x in v[2:]) + "\n"
                         for kind, v in rows) for rows in (gt, det))


def crowded(out: Path) -> dict:
    """The ``crowded-*`` groups: synth, then :func:`crowd` on every frame, then
    eval, and render-bev of frame 000000."""
    work = out / "crowded"
    work.mkdir(parents=True)
    (work / "scenes.cfg").write_text(CROWDED)
    data, results = work / "dataset", work / "results"
    code = run("synth", str(work / "scenes.cfg"), str(data))
    (results / "data").mkdir(parents=True)
    rng = np.random.default_rng(21)
    for path in sorted((data / "label_2").glob("*.txt")):
        gt, det = crowd(path.read_text(), rng)
        path.write_text(gt)
        (results / "data" / path.name).write_text(det)
    inputs = file_hash(list(work.rglob("*.txt")), work, code)
    svg = work / "frame000000_bev.svg"
    code = run("render-bev", "--results", str(results / "data" / "000000.txt"),
               "--gt", str(data / "label_2" / "000000.txt"), str(svg))
    return {"crowded-inputs": inputs, **metrics_hashes(work, "crowded", results, data),
            "crowded-bev": file_hash([svg], work, code)}


def fit_hashes(name: str, data: Path) -> dict:
    """SHA-256 of every field of the solve_arrays Fit of ``data``, per weight setting."""
    parts = []
    for priors in sorted((data / "priors").glob("*.txt")):
        camera = kitti.to_camera_model(kitti.parse_calib_file(data / "calib" / priors.name))
        parts.append(kitti.parse_solve_inputs(priors.read_text(), (data / "keypoints" / priors.name).read_text(),
                                              camera))
    inputs = SolveInputs(*map(np.concatenate, zip(*parts)))
    groups = {}
    for w_d, w_r in FIT_WEIGHTS:
        fit = solve_arrays(inputs, EnergyWeights(w_d=w_d, w_r=w_r))
        h = hashlib.sha256()
        for field, a in zip(fit._fields, fit):
            if field == "errors":
                h.update("".join(f"{type(e).__name__} {e}\0" for e in a).encode())
            else:
                h.update(f"{field} {a.dtype.str} {a.shape}\0".encode())
                h.update(a.tobytes())
        groups[f"fit-{name}-w{w_d:g},{w_r:g}"] = h.hexdigest()
    return groups


def decode_hash(blocks) -> tuple[str, int]:
    """SHA-256 over every field of every decoded object, and the object count."""
    h, count = hashlib.sha256(), 0
    for block in blocks:
        for path in sorted((block / "headmaps").glob("*.rtmh")):
            for obj in heatmaps.decode_objects(heatmaps.read_headmaps(path)):
                count += 1
                kps = obj.kps
                values = [getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name != "kps"]
                for v in values + [kps.pts, kps.conf, kps.visible]:
                    # Arrays and numpy scalars by dtype and bytes, the rest by repr.
                    if hasattr(v, "tobytes"):
                        h.update(f"{type(v).__name__} {v.dtype.str} {v.shape}\0".encode())
                        h.update(v.tobytes())
                    else:
                        h.update(f"{type(v).__name__} {v!r}\0".encode())
    return h.hexdigest(), count


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 1
    groups = pipeline(out, "fixed", FIXED)
    svg = out / "fixed" / "frame000000_bev.svg"
    code = run("render-bev", "--results", str(out / "fixed/results/data/000000.txt"),
               "--gt", str(out / "fixed/dataset/label_2/000000.txt"), str(svg))
    groups["fixed-bev"] = file_hash([svg], out, code)
    groups.update(pipeline(out, "sparse", SPARSE))
    groups.update(pipeline(out, "empty", EMPTY))
    groups.update(pipeline(out, "priors-noise", PRIORS_NOISE))
    groups.update(pipeline(out, "exhausted", EXHAUSTED))
    groups.update(pipeline(out, "mixed", MIXED))
    groups.update(crowded(out))
    blocks = []
    for name, spec in HEADMAP_BLOCKS.items():
        block = out / name
        block.mkdir()
        (block / "scenes.cfg").write_text(spec)
        code = run("synth", str(block / "scenes.cfg"), str(block / "data"))
        groups[name] = tree_hash(block / "data" / "headmaps", code)
        blocks.append(block / "data")
    groups["decode"], count = decode_hash(blocks)
    for group, digest in groups.items():
        print(f"{group} {digest}")
    print(f"decoded-objects {count}")
    for name in ("fixed", "sparse", "priors-noise", "exhausted"):
        for group, digest in fit_hashes(name, out / name / "dataset").items():
            print(f"{group} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
