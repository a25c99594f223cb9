"""Monocular 3D box recovery from nine projected keypoints.

Subpackages: geometry (the box model, per-object records, projection and
rotations), solver (the energy, its Jacobians and the LM fit), heatmaps
(dense-map encode/decode and losses), kitti (label, calibration, priors
and keypoint-sidecar I/O), synth (synthetic scene oracle), evaluation
(rotated IoU, AP, AOS), bev_svg and cli (rendering and the command line).
"""

import importlib

# The package's top-level names, each loaded from its module on first use,
# so that importing one submodule (rtm3d.kitti, say) loads no other.
_EXPORTS = {
    "Box3D": "geometry",
    "CameraModel": "geometry",
    "KeypointSet": "geometry",
    "EnergyWeights": "solver",
    "Priors": "geometry",
    "SolveReport": "solver",
    "solve": "solver",
}
__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
