"""Energy minimization recovering a 3D box from 9 image keypoints.

Every object carries all three priors: dimensions, yaw and center depth.
The objective stacks a confidence-weighted reprojection term over the
nine keypoints with soft priors on dimensions and yaw; the depth prior
only seeds the start, since the energy has no depth term.  It is
minimized by Levenberg-Marquardt over the pose KITTI can write: the
bottom-center translation t, the yaw about the camera y axis, and the
three dimensions.  That is the ground-plane subgroup of SE(3), so every
step is additive and the state is the written box.

One LM loop serves every caller.  :func:`solve_arrays`, the one batch
API, fits N objects at once from stacked arrays (:class:`SolveInputs`),
with states (N, 7) ordered (t, yaw, dims), residuals (N, 22), Jacobians
(N, 22, 7) and normal equations (N, 7, 7) stacked along the first axis;
:func:`solve` is its N = 1 case, reported as a :class:`SolveReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import (
    BOX_TEMPLATE,
    DIM_OF_AXIS,
    BehindCamera,
    Box3D,
    CameraModel,
    KeypointSet,
    _skew,
    box_points,
    box_points_3d,
    pinhole,
    rot_y,
)

__all__ = [
    "DivergedError",
    "EnergyWeights",
    "Fit",
    "InsufficientConstraints",
    "Priors",
    "SolveInputs",
    "SolveReport",
    "SolverConfig",
    "camera_rows",
    "initialize",
    "jacobian_camera_point",
    "residual_camera_point",
    "residual_dimension",
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
# The camera axis that each of dims (h, w, l) scales.
_AXIS_OF_DIM = np.argsort(DIM_OF_AXIS)
# Columns of the (v, w, dims) Jacobian that a state (t, yaw, dims) keeps:
# v is t, w_y becomes the yaw column, w_x and w_z are dropped.
_STATE_COLS = [0, 1, 2, 4, 6, 7, 8]


class InsufficientConstraints(ValueError):
    """Fewer than :data:`MIN_VISIBLE` keypoints are visible."""


class DivergedError(RuntimeError):
    """Optimization produced a non-finite cost."""


@dataclass(frozen=True)
class Priors:
    """Per-object priors, all three required: dimensions (h, w, l), yaw and
    center depth.  The dimension and yaw priors are soft energy terms; the
    depth prior seeds the start only."""

    d_hat: np.ndarray
    theta_hat: float
    z_hat: float

    def __post_init__(self):
        d = np.asarray(self.d_hat, dtype=float).reshape(3)
        if np.any(d <= 0):
            raise ValueError("dimension prior must be positive")
        object.__setattr__(self, "d_hat", d)
        if self.z_hat <= 0:
            raise ValueError("depth prior must be positive")


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


class SolveInputs(NamedTuple):
    """The keypoints and priors of N objects stacked along the first axis,
    as :func:`solve_arrays` takes them."""

    kp: np.ndarray  # (N, 9, 2) measured keypoints
    conf: np.ndarray  # (N, 9) keypoint confidences in [0, 1]
    vis: np.ndarray  # (N, 9) keypoint visibility
    d_hat: np.ndarray  # (N, 3) dimension priors
    theta_hat: np.ndarray  # (N,) yaw priors
    z_hat: np.ndarray  # (N,) depth priors

    @staticmethod
    def stack(kps: Sequence[KeypointSet], priors: Sequence[Priors]) -> "SolveInputs":
        n = len(kps)
        return SolveInputs(
            kp=np.array([k.pts for k in kps], dtype=float).reshape(n, 9, 2),
            conf=np.array([k.conf for k in kps], dtype=float).reshape(n, 9),
            vis=np.array([k.visible for k in kps], dtype=bool).reshape(n, 9),
            d_hat=np.array([p.d_hat for p in priors], dtype=float).reshape(n, 3),
            theta_hat=np.array([p.theta_hat for p in priors], dtype=float),
            z_hat=np.array([p.z_hat for p in priors], dtype=float),
        )

    def take(self, rows) -> "SolveInputs":
        return SolveInputs(*(a[rows] for a in self))


def camera_rows(cams: Sequence[CameraModel]) -> np.ndarray:
    """Rows (N, 7) of fx, fy, cx, cy and t_cam, one per camera."""
    return np.array([(c.fx, c.fy, c.cx, c.cy, *c.t_cam) for c in cams], dtype=float).reshape(-1, 7)


class _Batch(NamedTuple):
    """Inputs of N objects stacked along the first axis."""

    f: np.ndarray  # (N, 1, 2) focal lengths
    c: np.ndarray  # (N, 1, 2) principal points
    t_cam: np.ndarray  # (N, 1, 3) projection-matrix offsets
    kp: np.ndarray  # (N, 9, 2) measured keypoints
    vis: np.ndarray  # (N, 9) keypoint visibility
    sqrt_w: np.ndarray  # (N, 18) root confidence weights, zero on invisible rows
    d_hat: np.ndarray  # (N, 3) dimension priors
    theta_hat: np.ndarray  # (N,) yaw priors
    sqrt_wd: np.ndarray  # (N, 1) root dimension weights
    sqrt_wr: np.ndarray  # (N,) root rotation weights

    @staticmethod
    def of(inputs: SolveInputs, cams: np.ndarray, weights: EnergyWeights) -> "_Batch":
        n = len(inputs.kp)
        return _Batch(
            f=cams[:, None, 0:2],
            c=cams[:, None, 2:4],
            t_cam=cams[:, None, 4:7],
            kp=inputs.kp,
            vis=inputs.vis,
            sqrt_w=np.sqrt(_softmax_rows(inputs.conf)) * np.repeat(inputs.vis, 2, axis=1),
            d_hat=inputs.d_hat,
            theta_hat=inputs.theta_hat,
            sqrt_wd=np.full((n, 1), math.sqrt(weights.w_d)),
            sqrt_wr=np.full(n, math.sqrt(weights.w_r)),
        )

    def take(self, idx: np.ndarray) -> "_Batch":
        """Rows ``idx`` (sorted, unique) of every input."""
        return self if len(idx) == len(self.kp) else _Batch(*(a[idx] for a in self))


# ---------------------------------------------------------------------------
# Stacked residuals and Jacobians


def _residual_cp(f, c, t_cam, kp, vis, pts) -> tuple[np.ndarray, np.ndarray]:
    """Measured-minus-projected residuals (N, 18) with invisible rows zeroed,
    and which objects have a visible keypoint behind the camera."""
    uv, behind = pinhole(f, c, t_cam, pts)
    res = np.where(vis[..., None], kp - uv, 0.0)
    return res.reshape(len(pts), 18), np.any(vis & behind, axis=1)


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
    m[..., 6:9] = r[:, None, :, _AXIS_OF_DIM] * BOX_TEMPLATE[:, None, _AXIS_OF_DIM]
    return ((-jp) @ m).reshape(len(p), 18, 9)


def _residuals(b: _Batch, x: np.ndarray):
    """Weighted residuals (N, 22) of states x = (t, yaw, dims), and which
    objects have a visible keypoint behind the camera."""
    res = np.empty((len(x), 22))
    pts = box_points(x[:, 4:], x[:, :3], rot_y(x[:, 3]))
    res_cp, behind = _residual_cp(b.f, b.c, b.t_cam, b.kp, b.vis, pts)
    res[:, :18] = b.sqrt_w * res_cp
    res[:, 18:21] = b.sqrt_wd * residual_dimension(x[:, 4:], b.d_hat)
    res[:, 21] = b.sqrt_wr * residual_rotation(x[:, 3], b.theta_hat)
    return res, behind


def _jacobians(b: _Batch, x: np.ndarray) -> np.ndarray:
    """Weighted (N, 22, 7) Jacobian of :func:`_residuals`."""
    t, r = x[:, :3], rot_y(x[:, 3])
    j = _jacobian_cp(b.f, b.t_cam, r, box_points(x[:, 4:], t, r))
    # Turning by yaw about the bottom center is the twist w = e_y with
    # v = -(e_y x t), which keeps t: the yaw column is J_wy - J_v (e_y x t).
    j[..., 4] += t[:, None, 0] * j[..., 2] - t[:, None, 2] * j[..., 0]
    jac = np.zeros((len(x), 22, 7))
    jac[:, :18] = b.sqrt_w[..., None] * j[..., _STATE_COLS]
    jac[:, 18:21, 4:] = -b.sqrt_wd[..., None] * _I3
    jac[:, 21, 3] = -b.sqrt_wr
    return jac


# ---------------------------------------------------------------------------
# Public single-object energy terms


def residual_camera_point(box: Box3D, kps: KeypointSet, cam: CameraModel) -> np.ndarray:
    """Stacked measured-minus-projected keypoint residual, invisible rows zeroed."""
    pts = box_points_3d(box)[None]
    f, c = np.array([cam.fx, cam.fy]), np.array([cam.cx, cam.cy])
    res, behind = _residual_cp(f, c, cam.t_cam, kps.pts[None], kps.visible[None], pts)
    if behind[0]:
        raise BehindCamera("a visible keypoint projects behind the camera")
    return res[0]


def jacobian_camera_point(box: Box3D, cam: CameraModel) -> np.ndarray:
    """Analytic 18x9 Jacobian of :func:`residual_camera_point`."""
    pts = box_points_3d(box)[None]
    return _jacobian_cp(np.array([cam.fx, cam.fy]), cam.t_cam, rot_y(box.yaw)[None], pts)[0]


def residual_dimension(dims: np.ndarray, d_hat: np.ndarray) -> np.ndarray:
    """Dimension prior minus dimensions: the solver's dimension residual
    before weighting.  Takes (3,) or stacked (N, 3) arrays."""
    return d_hat - dims


def residual_rotation(yaw, theta_hat):
    """Yaw prior minus yaw wrapped to [-pi, pi): the solver's rotation
    residual before weighting.  Takes scalars or arrays."""
    return (theta_hat - yaw + math.pi) % (2.0 * math.pi) - math.pi


def _term_sums(res: np.ndarray) -> np.ndarray:
    """Camera-point, dimension and rotation costs (N, 3) of weighted residuals (N, 22)."""
    return np.add.reduceat(res * res, [0, 18, 21], axis=1)


def _term_costs(sums: np.ndarray) -> list:
    """The rows of :func:`_term_sums` as dicts by term name."""
    return [dict(zip(("camera_point", "dimension", "rotation"), row)) for row in sums.tolist()]


def total_energy(
    box: Box3D, kps: KeypointSet, cam: CameraModel, priors: Priors, weights: EnergyWeights
) -> tuple[float, dict]:
    """Weighted sum of squared residual terms plus a per-term breakdown."""
    b = _Batch.of(SolveInputs.stack([kps], [priors]), camera_rows([cam]), weights)
    res, behind = _residuals(b, np.r_[box.t, box.yaw, box.dims][None])
    if behind[0]:
        raise BehindCamera("a visible keypoint projects behind the camera")
    (terms,) = _term_costs(_term_sums(res))
    return sum(terms.values()), terms


# ---------------------------------------------------------------------------
# Levenberg-Marquardt


def _starts(inputs: SolveInputs, cams: np.ndarray, config: SolverConfig) -> np.ndarray:
    """Start states (N, 7) = (t, yaw, dims): ``config.init_box`` for every
    object, else the priors' yaw and dimensions, with the box center
    back-projected through the pinhole at the depth prior from the center
    keypoint, else the mean visible keypoint, else the principal point."""
    n = len(inputs.kp)
    if config.init_box is not None:
        box = config.init_box
        return np.tile(np.r_[box.t, box.yaw, box.dims], (n, 1))
    vis = inputs.vis
    count = vis.sum(axis=1)[:, None]
    # Summed along axis 1, in the order of each object's own kp[vis].mean(axis=0).
    mean = np.where(vis[..., None], inputs.kp, 0.0).sum(axis=1) / np.maximum(count, 1)
    anchor = np.where(vis[:, 8, None], inputs.kp[:, 8], np.where(count > 0, mean, cams[:, 2:4]))
    zp = inputs.z_hat + cams[:, 6]
    x = np.empty((n, 7))
    x[:, 0] = (anchor[:, 0] - cams[:, 2]) * zp / cams[:, 0] - cams[:, 4]
    # The center sits half a height above the bottom-face anchor (y points down).
    x[:, 1] = (anchor[:, 1] - cams[:, 3]) * zp / cams[:, 1] - cams[:, 5] + inputs.d_hat[:, 0] / 2.0
    x[:, 2], x[:, 3], x[:, 4:] = inputs.z_hat, inputs.theta_hat, inputs.d_hat
    return x


def initialize(
    priors: Priors, kps: KeypointSet, cam: CameraModel
) -> tuple[float, np.ndarray, np.ndarray]:
    """Initial yaw, bottom-center translation and dimensions of one object:
    the N = 1 case of the solver's start."""
    x = _starts(SolveInputs.stack([kps], [priors]), camera_rows([cam]), SolverConfig())[0]
    return priors.theta_hat, x[:3], x[4:]


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
    terms: np.ndarray  # (N, 3) final camera-point, dimension and rotation costs
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
    cams: np.ndarray,
    weights: EnergyWeights = EnergyWeights(),
    config: SolverConfig = SolverConfig(),
) -> Fit:
    """Levenberg-Marquardt over (t, yaw, dims) for N objects in one loop;
    ``cams`` holds each object's :func:`camera_rows` row.

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
        chunks = [solve_arrays(inputs.take(slice(i, i + SOLVE_CHUNK)), cams[i:i + SOLVE_CHUNK], weights, config)
                  for i in range(0, n, SOLVE_CHUNK)]
        return Fit(*map(np.concatenate, zip(*chunks)))
    b = _Batch.of(inputs, cams, weights)
    with np.errstate(all="ignore"):
        x = _starts(inputs, cams, config)
        res, behind = _residuals(b, x)
        cost = np.sum(res * res, axis=1)
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
            jac = _jacobians(b.take(i), x[i])
            jac_t = jac.transpose(0, 2, 1)
            jtj[i], grad[i] = jac_t @ jac, (jac_t @ res[i][..., None])[..., 0]
            flat = np.abs(grad[i]).max(axis=1) < config.g_tol
            converged[i[flat]] = True  # stop: gtol, not counted as an iteration
            i = i[~flat]
            iters[i] += 1
            return i

        live = begin(np.flatnonzero(~stuck))
        while live.size:
            exhausted = lam[live] > LM_LAMBDA_MAX
            ex = live[exhausted]
            # stop: damping, at a (numerical) local minimum
            converged[ex] = np.abs(grad[ex]).max(axis=1) < math.sqrt(config.g_tol)
            i = live[~exhausted]
            if not i.size:
                break
            # A damped step.  A singular system gives a NaN step, whose cost
            # is not finite.
            step = _lm_steps(jtj[i], grad[i], lam[i])
            x_new = x[i] + step
            x_new[:, 4:] = np.maximum(x_new[:, 4:], 1e-2)
            res_new, behind_new = _residuals(b.take(i), x_new)
            cost_new = np.sum(res_new * res_new, axis=1)
            ok = ~behind_new & np.isfinite(cost_new) & (cost_new < cost[i])
            lam[i] = np.where(ok, np.maximum(lam[i] / 10.0, 1e-12), lam[i] * 10.0)
            acc = i[ok]
            x[acc], res[acc], cost[acc] = x_new[ok], res_new[ok], cost_new[ok]
            small = np.linalg.norm(step[ok], axis=1) < config.step_tol
            converged[acc[small]] = True  # stop: step
            # Rejected objects retry with the same Jacobian; moved ones begin
            # anew.  The two sets are disjoint, so sorting merges them.
            live = np.sort(np.concatenate([i[~ok], begin(acc[~small])]))

        terms = _term_sums(res)
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
    fit = solve_arrays(SolveInputs.stack([kps], [priors]), camera_rows([cam]), weights, config)
    if fit.errors[0] is not None:
        raise fit.errors[0]
    x = fit.x[0]
    return SolveReport(Box3D(dims=x[4:], t=x[:3], yaw=x[3]), int(fit.iterations[0]), float(fit.cost[0]),
                       bool(fit.converged[0]), _term_costs(fit.terms)[0])
