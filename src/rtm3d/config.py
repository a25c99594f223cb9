"""Run configuration: line-based key=value files with CLI overrides."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .kitti import InputError

__all__ = ["RunConfig", "load_config", "parse_config_text"]


@dataclass
class RunConfig:
    # Prior-term weights of the solve energy.
    w_d: float = 1.0
    w_r: float = 1.0
    # Optimizer settings.
    max_iter: int = 100
    g_tol: float = 1e-8
    step_tol: float = 1e-10


def _entries(text: str, source):
    """(line number, key, value) per key=value line; blank and # lines skipped."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InputError(f"{source}, line {line_no}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        yield line_no, key.strip(), value.strip()


def parse_config_text(text: str, source="config") -> dict:
    return {key: value for _, key, value in _entries(text, source)}


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Config from an optional key=value file plus explicit overrides; a
    ``None`` override keeps the file's or the default value."""
    cfg = RunConfig()
    types = {f.name: type(getattr(cfg, f.name)) for f in fields(RunConfig)}
    if path is not None:
        for line_no, key, value in _entries(Path(path).read_text(), path):
            if key not in types:
                raise InputError(f"{path}, line {line_no}: unknown config key {key!r}")
            try:
                setattr(cfg, key, types[key](value))
            except ValueError:
                raise InputError(f"{path}, line {line_no}: bad value {value!r} for {key}") from None
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
        setattr(cfg, key, types[key](str(value)))
    return cfg
