"""Monocular 3D box recovery from nine projected keypoints.

Subpackages: geometry (the box model, projection and rotations), solver
(energy minimization over position, yaw and dimensions), heatmaps
(dense-map encode/decode and losses), kitti (label/calib I/O), synth
(synthetic scene oracle), evaluation (rotated IoU, AP, AOS), bev_svg and
cli (rendering and the command line).
"""

from .geometry import Box3D, CameraModel, KeypointSet
from .solver import EnergyWeights, Priors, SolveReport, solve

__all__ = [
    "Box3D",
    "CameraModel",
    "EnergyWeights",
    "KeypointSet",
    "Priors",
    "SolveReport",
    "solve",
]

__version__ = "0.1.0"
