"""Typed key=value settings files: the solve config and the synth spec.

One ``key=value`` per line; blank lines and ``#`` comments are skipped.
Each value is converted to its key's type (a float must be finite), and
the dataclasses a file fills are built once from it, so every error names
the file and line.
"""

from __future__ import annotations

import math
from dataclasses import fields
from pathlib import Path

from .kitti import InputError

__all__ = ["Settings", "load_config", "load_synth_spec"]


class Settings(dict):
    """The typed values of one key=value file by key; ``lines`` maps each
    key to the line that set it, the last one when set twice."""

    def __init__(self, path, types: dict):
        super().__init__()
        self.path, self.lines = path, {}
        for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            where = f"{path}, line {line_no}"
            key, eq, value = (part.strip() for part in stripped.partition("="))
            if not eq:
                raise InputError(f"{where}: expected key=value, got {line!r}")
            if key not in types:
                raise InputError(f"{where}: unknown config key {key!r}")
            try:
                self[key] = types[key](value)
            except ValueError:
                raise InputError(f"{where}: bad value {value!r} for {key}") from None
            if not math.isfinite(self[key]):
                raise InputError(f"{where}: {key} must be finite, got {value!r}")
            self.lines[key] = line_no

    def build(self, cls, keys, make=dict):
        """``cls(**make(given))``, where ``given`` holds the values this file
        sets for ``keys``.  Its ValueError becomes an InputError naming the
        lines left after dropping each key, last line first, for as long as
        the rest still fail.  A value at fault on its own is named alone."""
        given = {k: self[k] for k in keys if k in self}
        try:
            return cls(**make(given))
        except ValueError:
            pass

        def error_of(subset):
            try:
                cls(**make({k: given[k] for k in subset}))
            except ValueError as e:
                return e

        order = at = sorted(given, key=self.lines.get)
        for key in reversed(order):  # keeps a lone failing key: the defaults pass
            if error_of(rest := [k for k in at if k != key]):
                at = rest
        raise InputError(f"{self.path}, line {', '.join(str(self.lines[k]) for k in at)}: {error_of(at)}")


def _numeric_fields(cls) -> dict:
    """Name -> type of each field of ``cls`` with an int or float default."""
    return {f.name: type(f.default) for f in fields(cls) if type(f.default) in (int, float)}


def load_config(path) -> tuple[EnergyWeights, SolverConfig]:
    """Energy weights and solver settings of a ``rtm3d solve --config`` file:
    ``w_d``, ``w_r``, ``max_iter``, ``g_tol`` and ``step_tol``.  A key the
    file does not set keeps its dataclass default."""
    from .solver import EnergyWeights, SolverConfig  # here, so that a synth run loads no solver

    groups = [(cls, _numeric_fields(cls)) for cls in (EnergyWeights, SolverConfig)]
    s = Settings(path, {k: t for _, keys in groups for k, t in keys.items()})
    weights, solver = (s.build(cls, keys) for cls, keys in groups)
    return weights, solver


def load_synth_spec(path) -> tuple[int, bool, SceneSpec, NoiseSpec]:
    """Frame count, whether to write head maps, and the first frame's scene
    spec and the noise spec of a ``rtm3d synth`` spec file.  Frame i takes
    the scene seed ``seed + i``.  A key the file does not set keeps its
    default: 1 frame, no head maps, else the dataclass default."""
    from .synth import NoiseSpec, SceneSpec  # here, so that a solve run loads neither synth nor heatmaps

    noise_keys = _numeric_fields(NoiseSpec)
    scene_keys = {"n_objects": int, "seed": int, "depth_min": float, "depth_max": float,
                  "lateral_min": float, "lateral_max": float}
    s = Settings(path, {"frames": int, "headmaps": int, **scene_keys, **noise_keys})
    default = SceneSpec()
    depth, lateral = default.depth_range, default.lateral_range
    scene = s.build(
        SceneSpec,
        scene_keys,
        lambda v: dict(
            n_objects=v.get("n_objects", default.n_objects),
            depth_range=(v.get("depth_min", depth[0]), v.get("depth_max", depth[1])),
            lateral_range=(v.get("lateral_min", lateral[0]), v.get("lateral_max", lateral[1])),
            seed=v.get("seed", default.seed),
        ),
    )
    noise = s.build(NoiseSpec, noise_keys)
    frames = s.get("frames", 1)
    if frames < 0:
        raise InputError(f"{path}, line {s.lines['frames']}: frames must be non-negative")
    if s.get("headmaps", 0) not in (0, 1):
        raise InputError(f"{path}, line {s.lines['headmaps']}: headmaps must be 0 or 1")
    return frames, bool(s.get("headmaps", 0)), scene, noise
