"""Energy minimization recovering a 3D box from 9 image keypoints.

Every object carries all three priors: dimensions, yaw and center depth.
The objective stacks a confidence-weighted reprojection term over the
nine keypoints with soft priors on dimensions and yaw; the depth prior
only seeds the start, since the energy has no depth term.  It is
minimized by Levenberg-Marquardt over the pose KITTI can write: the
bottom-center translation t, the yaw about the camera y axis, and the
three dimensions.  That is the ground-plane subgroup of SE(3), so every
step is additive and the state is the written box.

This module holds the energy, whose residual blocks ``_ENERGY`` lists, its
Jacobians and the LM; the input records (:class:`Priors`,
:class:`SolveInputs`) are :mod:`rtm3d.geometry`'s.  One LM loop serves
every caller.  :func:`solve_arrays`, the one batch API, fits N objects at
once from one :class:`SolveInputs` (keypoints, priors and camera rows
stacked), with states (N, 7) ordered (t, yaw, dims) and their residuals,
Jacobians and normal equations stacked along the first axis;
:func:`solve` is its N = 1 case, reported as a :class:`SolveReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    BOX_TEMPLATE,
    DIM_OF_AXIS,
    BehindCamera,
    Box3D,
    CameraModel,
    KeypointSet,
    Priors,
    SolveInputs,
    _skew,
    box_points,
    box_points_3d,
    camera_rows,
    pinhole,
    rot_y,
)

__all__ = [
    "DivergedError",
    "EnergyWeights",
    "Fit",
    "InsufficientConstraints",
    "SolveReport",
    "SolverConfig",
    "initialize",
    "jacobian_camera_point",
    "residual_camera_point",
    "residual_rotation",
    "solve",
    "solve_arrays",
    "total_energy",
]

# Visible keypoints an object needs: with all three priors, two pin the box.
MIN_VISIBLE = 2

# Levenberg-Marquardt damping: its start, and the value past which an object
# stops as being at a (numerical) local minimum.
LM_LAMBDA0 = 1e-3
LM_LAMBDA_MAX = 1e12

# Objects per batch of :func:`solve_arrays`, which fits more as consecutive
# chunks of this size; bounds its working memory.  256 is the largest power of
# two at which solving the 200 x 5 benchmark workload peaks below the memory of
# synthesizing it; one batch of all 1000 objects peaks above it.  The chunk
# size changes no result: no object's fit depends on its batch.
SOLVE_CHUNK = 256

_I3 = np.eye(3)
# The camera axis that each of dims (h, w, l) scales, and the corner template
# (9, 1, 3) with its columns in dims order.
_AXIS_OF_DIM = np.argsort(DIM_OF_AXIS)
_TEMPLATE_BY_DIM = BOX_TEMPLATE[:, None, _AXIS_OF_DIM]
# Columns of the (v, w, dims) Jacobian that a state (t, yaw, dims) keeps:
# v is t, w_y becomes the yaw column, w_x and w_z are dropped.
_STATE_COLS = [0, 1, 2, 4, 6, 7, 8]


class InsufficientConstraints(ValueError):
    """Fewer than :data:`MIN_VISIBLE` keypoints are visible."""


class DivergedError(RuntimeError):
    """Optimization produced a non-finite cost."""


@dataclass(frozen=True)
class EnergyWeights:
    """Relative weights of the dimension and rotation prior terms."""

    w_d: float = 1.0
    w_r: float = 1.0

    def __post_init__(self):
        if self.w_d < 0 or self.w_r < 0:
            raise ValueError("energy weights must be non-negative")


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 100
    g_tol: float = 1e-8
    step_tol: float = 1e-10
    # Start box for every object of a solve; None starts from the priors.
    init_box: Box3D | None = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (self.g_tol >= 0 and self.step_tol >= 0):
            raise ValueError("g_tol and step_tol must be non-negative")


@dataclass(frozen=True)
class SolveReport:
    box: Box3D
    iterations: int
    final_cost: float
    converged: bool
    term_costs: dict


def _softmax_rows(conf: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of (..., 9) confidences, repeated per u/v row."""
    e = np.exp(conf - conf.max(axis=-1, keepdims=True))
    return np.repeat(e / e.sum(axis=-1, keepdims=True), 2, axis=-1)


def _root_weights(inputs: SolveInputs) -> np.ndarray:
    """Root confidence weights (N, 18) of the reprojection rows, zero on invisible ones."""
    return np.sqrt(_softmax_rows(inputs.conf)) * np.repeat(inputs.vis, 2, axis=1)


# ---------------------------------------------------------------------------
# Stacked residuals and Jacobians


def _jacobian_cp(f: np.ndarray, t_cam: np.ndarray, r: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Analytic (N, 18, 9) Jacobian of the reprojection residual.

    Columns 0-5 differentiate w.r.t. a left-multiplied twist (v, w); columns
    6-8 w.r.t. the dimensions.  Each keypoint's 2x9 block is
    -J_pinhole @ [I, -skew(P), R diag(c_j) S], with P the camera-frame point
    before the projection-matrix offset, c_j the keypoint's corner template
    row and S the map from dims (h, w, l) to the camera axes they scale.
    """
    p = pts + t_cam
    z = p[..., 2]
    jp = np.zeros(z.shape + (2, 3))
    jp[..., 0, 0], jp[..., 1, 1] = f[..., 0] / z, f[..., 1] / z
    jp[..., 2] = -f * p[..., :2] / z[..., None] ** 2
    m = np.empty(pts.shape + (9,))
    m[..., 0:3] = _I3
    m[..., 3:6] = _skew(-pts)
    m[..., 6:9] = r[:, None, :, _AXIS_OF_DIM] * _TEMPLATE_BY_DIM
    return ((-jp) @ m).reshape(len(p), -1, 9)


def _camera_point_jacobian(inputs, sqrt_w, weights, x, r, pts) -> np.ndarray:
    """Weighted (N, 18, 7) Jacobian of the reprojection rows over (t, yaw, dims)."""
    j = _jacobian_cp(inputs.cams[:, None, 0:2], inputs.cams[:, None, 4:7], r, pts)
    # Turning by yaw about the bottom center is the twist w = e_y with
    # v = -(e_y x t), which keeps t: the yaw column is J_wy - J_v (e_y x t).
    j[..., 4] += x[:, None, 0] * j[..., 2] - x[:, None, 2] * j[..., 0]
    return sqrt_w[..., None] * j[..., _STATE_COLS]


# The energy as residual blocks in row order, (name, rows, residual, jacobian), each weighted.  A residual
# maps (inputs, root confidence weights, weights, x, the keypoints projected from x) to N x rows values, and a
# Jacobian maps (inputs, root confidence weights, weights, x, rotations, box points) to (N, rows, 7).
_DIM_ROWS, _YAW_ROW = np.eye(7)[4:], np.eye(7)[3:4]  # dims and yaw of x, as rows over x
_ENERGY = (
    ("camera_point", 18,
     lambda inputs, sqrt_w, weights, x, uv:
         sqrt_w * np.where(inputs.vis[..., None], inputs.kp - uv, 0.0).reshape(sqrt_w.shape),
     _camera_point_jacobian),
    ("dimension", 3,
     lambda inputs, sqrt_w, weights, x, uv: math.sqrt(weights.w_d) * (inputs.d_hat - x[:, 4:]),
     lambda inputs, sqrt_w, weights, x, r, pts: -math.sqrt(weights.w_d) * _DIM_ROWS),
    ("rotation", 1,
     lambda inputs, sqrt_w, weights, x, uv: math.sqrt(weights.w_r) * residual_rotation(x[:, 3], inputs.theta_hat),
     lambda inputs, sqrt_w, weights, x, r, pts: -math.sqrt(weights.w_r) * _YAW_ROW),
)
# Each block's name and first row, and the energy's row count.
_NAMES = [name for name, _, _, _ in _ENERGY]
*_OFFSETS, _ROWS = np.cumsum([0] + [rows for _, rows, _, _ in _ENERGY]).tolist()


def _residuals(inputs: SolveInputs, sqrt_w: np.ndarray, weights: EnergyWeights, x: np.ndarray):
    """Weighted residuals (N, _ROWS) of states x = (t, yaw, dims), given the
    objects' root confidence weights (:func:`_root_weights`); which objects
    have a visible keypoint behind the camera; and the rotations (N, 3, 3)
    and box points (N, 9, 3) of x, which :func:`_jacobians` takes."""
    res = np.empty((len(x), _ROWS))
    r = rot_y(x[:, 3])
    pts = box_points(x[:, 4:], x[:, :3], r)
    cams = inputs.cams[:, None]
    uv, behind = pinhole(cams[..., 0:2], cams[..., 2:4], cams[..., 4:7], pts)
    for (_, rows, residual, _), a in zip(_ENERGY, _OFFSETS):
        res[:, a:a + rows] = residual(inputs, sqrt_w, weights, x, uv).reshape(len(x), rows)
    return res, (inputs.vis & behind).any(axis=1), r, pts


def _jacobians(inputs: SolveInputs, sqrt_w: np.ndarray, weights: EnergyWeights, x: np.ndarray,
               r: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Weighted (N, _ROWS, 7) Jacobian of :func:`_residuals` at states x, whose
    rotations r and box points pts :func:`_residuals` returned."""
    jac = np.empty((len(x), _ROWS, 7))
    for (_, rows, _, jacobian), a in zip(_ENERGY, _OFFSETS):
        jac[:, a:a + rows] = jacobian(inputs, sqrt_w, weights, x, r, pts)
    return jac


# ---------------------------------------------------------------------------
# Public single-object energy terms


def residual_camera_point(box: Box3D, kps: KeypointSet, cam: CameraModel) -> np.ndarray:
    """Stacked measured-minus-projected keypoint residual, invisible rows zeroed."""
    f, c = np.array([cam.fx, cam.fy]), np.array([cam.cx, cam.cy])
    uv, behind = pinhole(f, c, cam.t_cam, box_points_3d(box))
    if (kps.visible & behind).any():
        raise BehindCamera("a visible keypoint projects behind the camera")
    return np.where(kps.visible[:, None], kps.pts - uv, 0.0).ravel()


def jacobian_camera_point(box: Box3D, cam: CameraModel) -> np.ndarray:
    """Analytic 18x9 Jacobian of :func:`residual_camera_point`."""
    pts = box_points_3d(box)[None]
    return _jacobian_cp(np.array([cam.fx, cam.fy]), cam.t_cam, rot_y(box.yaw)[None], pts)[0]


def residual_rotation(yaw, theta_hat):
    """Yaw prior minus yaw wrapped to [-pi, pi): the solver's rotation
    residual before weighting.  Takes scalars or arrays."""
    return (theta_hat - yaw + math.pi) % (2.0 * math.pi) - math.pi


def total_energy(
    box: Box3D, kps: KeypointSet, cam: CameraModel, priors: Priors, weights: EnergyWeights
) -> tuple[float, dict]:
    """Weighted sum of squared residual terms plus a per-term breakdown."""
    inputs = SolveInputs.stack([kps], [priors], [cam])
    res, behind, _, _ = _residuals(inputs, _root_weights(inputs), weights, np.r_[box.t, box.yaw, box.dims][None])
    if behind[0]:
        raise BehindCamera("a visible keypoint projects behind the camera")
    terms = dict(zip(_NAMES, np.add.reduceat(res * res, _OFFSETS, axis=1)[0].tolist()))
    return sum(terms.values()), terms


# ---------------------------------------------------------------------------
# Levenberg-Marquardt


def _reduce_yaw_priors(inputs: SolveInputs) -> SolveInputs:
    """Each yaw prior modulo 2 pi, exact and a no-op below 2 pi: a prior of 1e308 would absorb every step."""
    return inputs._replace(theta_hat=np.fmod(inputs.theta_hat, 2.0 * math.pi))


def _starts(inputs: SolveInputs, config: SolverConfig) -> np.ndarray:
    """Start states (N, 7) = (t, yaw, dims): ``config.init_box`` for every
    object, else the priors' yaw and dimensions, with the box center
    back-projected through the pinhole at the depth prior from the center
    keypoint, else the mean visible keypoint, else the principal point."""
    n = len(inputs.kp)
    if config.init_box is not None:
        box = config.init_box
        return np.tile(np.r_[box.t, box.yaw, box.dims], (n, 1))
    vis, cams = inputs.vis, inputs.cams
    count = vis.sum(axis=1)[:, None]
    # Summed along axis 1, in the order of each object's own kp[vis].mean(axis=0).
    mean = np.where(vis[..., None], inputs.kp, 0.0).sum(axis=1) / np.maximum(count, 1)
    anchor = np.where(vis[:, 8, None], inputs.kp[:, 8], np.where(count > 0, mean, cams[:, 2:4]))
    zp = inputs.z_hat + cams[:, 6]
    x = np.empty((n, 7))
    x[:, :2] = (anchor - cams[:, 2:4]) * zp[:, None] / cams[:, 0:2] - cams[:, 4:6]
    # The center sits half a height above the bottom-face anchor (y points down).
    x[:, 1] += inputs.d_hat[:, 0] / 2.0
    x[:, 2], x[:, 3], x[:, 4:] = inputs.z_hat, inputs.theta_hat, inputs.d_hat
    return x


def initialize(
    priors: Priors, kps: KeypointSet, cam: CameraModel
) -> tuple[float, np.ndarray, np.ndarray]:
    """Initial yaw, bottom-center translation and dimensions of one object:
    the N = 1 case of the solver's start."""
    x = _starts(_reduce_yaw_priors(SolveInputs.stack([kps], [priors], [cam])), SolverConfig())[0]
    return float(x[3]), x[:3], x[4:]


def _lm_steps(jtj: np.ndarray, grad: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Damped Gauss-Newton steps (N, K) of (N, K, K) systems; NaN rows where
    the system is singular."""
    a, b = jtj + lam[:, None, None] * np.eye(jtj.shape[-1]), -grad[..., None]
    try:
        return np.linalg.solve(a, b)[..., 0]
    except np.linalg.LinAlgError:
        # One singular system fails the whole stack: solve each on its own.
        steps = np.full(grad.shape, np.nan)
        for i in range(len(a)):
            try:
                steps[i] = np.linalg.solve(a[i], b[i])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return steps


class Fit(NamedTuple):
    """What :func:`solve_arrays` found for N objects, in input order."""

    x: np.ndarray  # (N, 7) final states (t, yaw, dims)
    iterations: np.ndarray  # (N,) LM iterations
    cost: np.ndarray  # (N,) final costs
    converged: np.ndarray  # (N,) whether each stopped converged
    terms: np.ndarray  # (N, len(_ENERGY)) final costs, one column per block of _ENERGY
    errors: np.ndarray  # (N,) objects: what kept each from starting, else None


def _start_error(inputs: SolveInputs, i: int, behind: bool) -> Exception:
    n_visible = int(inputs.vis[i].sum())
    if n_visible < MIN_VISIBLE:
        p = Priors(d_hat=inputs.d_hat[i], theta_hat=float(inputs.theta_hat[i]),
                   z_hat=float(inputs.z_hat[i]))
        return InsufficientConstraints(f"{n_visible} visible keypoints with priors {p} are not enough")
    if behind:
        return BehindCamera("a visible keypoint starts behind the camera")
    return DivergedError("non-finite cost")


def solve_arrays(
    inputs: SolveInputs,
    weights: EnergyWeights = EnergyWeights(),
    config: SolverConfig = SolverConfig(),
) -> Fit:
    """Levenberg-Marquardt over (t, yaw, dims) for N objects in one loop.

    Each object keeps its own damping, iteration count and done flag, and
    follows the same sequence of trials as it would alone: a rejected trial
    multiplies its damping by 10 and is retried on the next pass with the
    same Jacobian.  A trial is rejected when its cost is not lower or not
    finite, and when it puts a visible keypoint behind the camera.  Each
    way an object stops has one site, marked ``stop:``: a gradient below
    ``g_tol`` (gtol), an accepted step shorter than ``step_tol`` (step),
    damping past ``LM_LAMBDA_MAX`` (damping) and ``max_iter`` (max_iter).

    An object that cannot start gets its error in ``Fit.errors``:
    :class:`InsufficientConstraints` (fewer than :data:`MIN_VISIBLE` visible
    keypoints), else :class:`BehindCamera` (a visible keypoint starts behind
    the camera), else :class:`DivergedError` (a non-finite start cost).
    """
    n = len(inputs.kp)
    if n > SOLVE_CHUNK:
        chunks = [solve_arrays(inputs.take(slice(i, i + SOLVE_CHUNK)), weights, config)
                  for i in range(0, n, SOLVE_CHUNK)]
        return Fit(*map(np.concatenate, zip(*chunks)))
    inputs = _reduce_yaw_priors(inputs)
    sqrt_w = _root_weights(inputs)
    with np.errstate(all="ignore"):
        x = _starts(inputs, config)
        res, behind, r, pts = _residuals(inputs, sqrt_w, weights, x)
        cost = (res * res).sum(axis=1)
        # An accepted trial has a finite cost, so only the start can lack one.
        stuck = (inputs.vis.sum(axis=1) < MIN_VISIBLE) | behind | ~np.isfinite(cost)
        lam = np.full(n, LM_LAMBDA0)
        iters = np.zeros(n, dtype=int)
        converged = np.zeros(n, dtype=bool)
        jtj, grad = np.empty((n, 7, 7)), np.empty((n, 7))

        def begin(i: np.ndarray) -> np.ndarray:
            """Begin an iteration for objects ``i`` (sorted); return those that step."""
            i = i[iters[i] < config.max_iter]  # stop: max_iter
            if not i.size:
                return i
            jac = _jacobians(inputs.take(i), sqrt_w[i], weights, x[i], r[i], pts[i])
            jac_t = jac.transpose(0, 2, 1)
            jtj[i], grad[i] = jac_t @ jac, (jac_t @ res[i][..., None])[..., 0]
            flat = np.abs(grad[i]).max(axis=1) < config.g_tol
            converged[i[flat]] = True  # stop: gtol, not counted as an iteration
            i = i[~flat]
            iters[i] += 1
            return i

        live = begin(np.flatnonzero(~stuck))
        while live.size:
            if (exhausted := lam[live] > LM_LAMBDA_MAX).any():
                ex = live[exhausted]
                # stop: damping, at a (numerical) local minimum
                converged[ex] = np.abs(grad[ex]).max(axis=1) < math.sqrt(config.g_tol)
                live = live[~exhausted]
                if not live.size:
                    break
            i, lam_i = live, lam[live]
            # A damped step.  A singular system gives a NaN step, whose cost
            # is not finite.
            step = _lm_steps(jtj[i], grad[i], lam_i)
            x_new = x[i] + step
            x_new[:, 4:] = np.maximum(x_new[:, 4:], 1e-2)
            res_new, behind_new, r_new, pts_new = _residuals(inputs.take(i), sqrt_w[i], weights, x_new)
            cost_new = (res_new * res_new).sum(axis=1)
            ok = ~behind_new & np.isfinite(cost_new) & (cost_new < cost[i])
            lam[i] = np.where(ok, np.maximum(lam_i / 10.0, 1e-12), lam_i * 10.0)
            acc = i[ok]
            x[acc], res[acc], cost[acc], r[acc], pts[acc] = x_new[ok], res_new[ok], cost_new[ok], r_new[ok], pts_new[ok]
            small = np.sqrt((step[ok] ** 2).sum(axis=1)) < config.step_tol
            converged[acc[small]] = True  # stop: step
            # Rejected objects retry with the same Jacobian; moved ones begin
            # anew.  The two sets are disjoint, so sorting merges them.
            live = np.sort(np.concatenate([i[~ok], begin(acc[~small])]))

        terms = np.add.reduceat(res * res, _OFFSETS, axis=1)
    errors = np.full(n, None, dtype=object)
    for i in np.flatnonzero(stuck):
        errors[i] = _start_error(inputs, i, behind[i])
    return Fit(x, iters, cost, converged, terms, errors)


def solve(
    kps: KeypointSet,
    cam: CameraModel,
    priors: Priors,
    weights: EnergyWeights = EnergyWeights(),
    config: SolverConfig = SolverConfig(),
) -> SolveReport:
    """Levenberg-Marquardt over (t, yaw, dims) for one object: the N = 1
    case of :func:`solve_arrays`, whose error for the object it raises."""
    fit = solve_arrays(SolveInputs.stack([kps], [priors], [cam]), weights, config)
    if fit.errors[0] is not None:
        raise fit.errors[0]
    x = fit.x[0]
    return SolveReport(Box3D(dims=x[4:], t=x[:3], yaw=x[3]), int(fit.iterations[0]), float(fit.cost[0]),
                       bool(fit.converged[0]), dict(zip(_NAMES, fit.terms[0].tolist())))
