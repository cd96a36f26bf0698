"""Synthetic desk-scale scenarios: scene, trajectory, depth, loop candidates.

A scenario is a room built from analytic primitives (axis-aligned boxes
and infinite planes), a ground-truth camera loop through it, depth frames
ray-cast exactly from the ground-truth poses, a drifting odometry
trajectory (per-step twist noise), and a labeled set of loop candidates:
true ones perturbed within a stated noise bound, false ones violating the
ground truth by a wide margin.

All randomness is drawn from counter-based streams keyed by (seed, tag),
so adding a new consumer never shifts the numbers an existing one sees.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import ParseError
from .geometry import Pose
from .ingest import write_tum_trajectory
from .posegraph import Trajectory, graph_from_odometry
from .sifting import LoopCandidate
from .surfels import CameraModel, DepthFrame, write_depth_raw, write_intrinsics

DEPTH_SCALE = 1000.0  # exported raw depth is in millimeters

_FMT = "%.17g"


# ---------------------------------------------------------------------------
# scene primitives and exact ray casting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisBox:
    lo: tuple
    hi: tuple


@dataclass(frozen=True)
class Plane:
    anchor: tuple
    normal: tuple


def default_scene():
    """A 6x6x3 m room with four interior boxes."""
    return [
        AxisBox((-3.0, -3.0, 0.0), (3.0, 3.0, 3.0)),
        AxisBox((-2.4, -2.4, 0.0), (-1.5, -1.3, 1.2)),
        AxisBox((1.3, -2.5, 0.0), (2.4, -1.2, 0.9)),
        AxisBox((-2.5, 1.1, 0.0), (-1.2, 2.2, 1.5)),
        AxisBox((1.1, 1.3, 0.0), (2.4, 2.5, 0.8)),
    ]


def _ray_box(origins, dirs, box, eps=1e-9):
    """Nearest positive hit parameter per ray (inf for a miss).

    The camera may sit inside the box: then the exit face is the hit.
    """
    lo = np.asarray(box.lo, dtype=float)
    hi = np.asarray(box.hi, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t1 = (lo - origins) * inv
        t2 = (hi - origins) * inv
    # rays parallel to a slab: inside -> (-inf, inf), outside -> no overlap
    lowest = np.minimum(t1, t2)
    highest = np.maximum(t1, t2)
    parallel = dirs == 0.0
    inside = (origins >= lo) & (origins <= hi)
    lowest = np.where(parallel, np.where(inside, -np.inf, np.inf), lowest)
    highest = np.where(parallel, np.where(inside, np.inf, -np.inf), highest)
    tn = lowest.max(axis=-1)
    tf = highest.min(axis=-1)
    hit = (tf >= tn) & (tf > eps)
    t = np.where(tn > eps, tn, tf)
    return np.where(hit & (t > eps), t, np.inf)


def _ray_plane(origins, dirs, plane, eps=1e-9):
    n = np.asarray(plane.normal, dtype=float)
    a = np.asarray(plane.anchor, dtype=float)
    denom = dirs @ n
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((a - origins) @ n) / denom
    valid = (np.abs(denom) > 1e-12) & (t > eps)
    return np.where(valid, t, np.inf)


def render_synthetic_depth(
    scene, pose: Pose, camera: CameraModel, index: int = 0,
    depth_noise: float = 0.0, rng=None,
) -> DepthFrame:
    """Exact analytic depth of the scene from ``pose`` (camera-to-world).

    Ray parameters are measured against the unit-z camera ray, so the
    stored image is true z-depth; pixels that hit nothing are zero.
    """
    W, H = camera.width, camera.height
    us, vs = np.meshgrid(np.arange(W), np.arange(H))
    dirs_cam = np.stack(
        [(us - camera.cx) / camera.fx, (vs - camera.cy) / camera.fy, np.ones_like(us, dtype=float)],
        axis=-1,
    ).reshape(-1, 3)
    dirs_world = geo.quat_rotate(pose.q[None, :], dirs_cam)
    origin = np.broadcast_to(pose.t, dirs_world.shape)

    depth = np.full(W * H, np.inf)
    for prim in scene:
        if isinstance(prim, AxisBox):
            t = _ray_box(origin, dirs_world, prim)
        elif isinstance(prim, Plane):
            t = _ray_plane(origin, dirs_world, prim)
        else:
            raise TypeError(f"unknown primitive {type(prim).__name__}")
        depth = np.minimum(depth, t)

    depth = np.where(np.isfinite(depth), depth, 0.0).reshape(H, W)
    if depth_noise > 0.0:
        if rng is None:
            raise ValueError("depth_noise requires an rng")
        depth = np.where(depth > 0, np.maximum(depth + rng.normal(0, depth_noise, depth.shape), 1e-3), 0.0)
    return DepthFrame(depth, camera, index)


def scene_surface_distance(scene, points: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest primitive surface."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    best = np.full(len(points), np.inf)
    for prim in scene:
        if isinstance(prim, AxisBox):
            lo = np.asarray(prim.lo)
            hi = np.asarray(prim.hi)
            d = np.maximum(lo - points, points - hi)
            outside = np.linalg.norm(np.maximum(d, 0.0), axis=-1)
            inside = -np.min(np.abs(d), axis=-1)  # distance to nearest face when inside
            dist = np.where(np.all(d <= 0.0, axis=-1), -inside, outside)
        elif isinstance(prim, Plane):
            n = np.asarray(prim.normal, dtype=float)
            n = n / np.linalg.norm(n)
            dist = np.abs((points - np.asarray(prim.anchor)) @ n)
        else:
            raise TypeError(f"unknown primitive {type(prim).__name__}")
        best = np.minimum(best, dist)
    return best


# ---------------------------------------------------------------------------
# scenario generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    frames: int = 200
    width: int = 320
    height: int = 240
    focal: float = 250.0
    path_radius: float = 1.2
    path_height: float = 1.4
    revolutions: int = 2  # laps around the room; revisits enable loops everywhere
    sigma_odo_rot: float = 0.001  # rad per step
    sigma_odo_trans: float = 0.002  # meters per step
    n_true_loops: int = 10
    n_false_loops: int = 5
    true_noise_trans: float = 0.02  # max translation offset of a true loop
    true_noise_rot_deg: float = 1.0
    # fraction of true loops drawn from the top of the noise band
    # (0.6..1.0 of the bound) instead of uniformly from zero; models
    # registrations of mixed quality that all report the same confidence
    true_noise_mix: float = 0.0
    # gross but in-view wrong: larger offsets throw fragments out of the
    # cameras' view and the score loses contrast, not gains it
    false_offset_trans: tuple = (0.3, 0.8)
    false_offset_rot_deg: tuple = (10.0, 30.0)
    min_loop_gap: int = 60
    depth_noise: float = 0.0

    def camera(self) -> CameraModel:
        return CameraModel(
            self.focal, self.focal,
            (self.width - 1) / 2.0, (self.height - 1) / 2.0,
            self.width, self.height,
        )


@dataclass
class Scenario:
    scene: list
    gt_trajectory: Trajectory
    noisy_trajectory: Trajectory
    frames: list
    candidates: list  # (LoopCandidate, label) pairs
    seed: int | None = None
    config: ScenarioConfig | None = None
    odometry_information: np.ndarray | None = None

    def labels(self) -> dict:
        return {cand.id: label for cand, label in self.candidates}

    def loop_candidates(self) -> list:
        return [cand for cand, _ in self.candidates]


def scenario_graph(scenario: Scenario):
    """Odometry pose graph of the scenario's tracking trajectory."""
    info = scenario.odometry_information
    return graph_from_odometry(scenario.noisy_trajectory, info if info is not None else 1.0)


def stream(seed: int, tag: str) -> np.random.Generator:
    """Independent counter-based random stream for (seed, tag)."""
    key = zlib.crc32(tag.encode("utf-8"))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, key])))


def _path_pose(theta: float, phase: float, cfg: ScenarioConfig) -> Pose:
    pos = np.array(
        [
            cfg.path_radius * np.cos(theta),
            cfg.path_radius * np.sin(theta),
            cfg.path_height + 0.1 * np.sin(2.0 * phase),
        ]
    )
    yaw = theta + 0.25 * np.sin(2.0 * phase)
    # camera axes: x right, y down, z forward; look radially outward
    x_axis = np.array([np.sin(yaw), -np.cos(yaw), 0.0])
    y_axis = np.array([0.0, 0.0, -1.0])
    z_axis = np.array([np.cos(yaw), np.sin(yaw), 0.0])
    R = np.stack([x_axis, y_axis, z_axis], axis=-1)
    base = Pose(geo.matrix_to_quat(R), pos)
    pitch = 0.12 * np.sin(3.0 * phase)
    return geo.compose(base, geo.exp(np.array([pitch, 0.0, 0.0, 0.0, 0.0, 0.0])))


def _bounded_offset(rng, max_trans: float, max_rot_rad: float, band=(0.0, 1.0)) -> Pose:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    angle = rng.uniform(band[0] * max_rot_rad, band[1] * max_rot_rad)
    trans = rng.uniform(band[0] * max_trans, band[1] * max_trans)
    return Pose(geo.rotvec_to_quat(axis * angle), direction * trans)


def _ranged_offset(rng, trans_range, rot_range_rad) -> Pose:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(*rot_range_rad)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return Pose(geo.rotvec_to_quat(axis * angle), direction * rng.uniform(*trans_range))


def generate(config: ScenarioConfig, seed: int) -> Scenario:
    """Deterministic scenario for (config, seed)."""
    if config.frames < 1:
        raise ValueError("scenario needs at least one frame")
    n = config.frames
    scene = default_scene()
    camera = config.camera()

    gt_poses = []
    for i in range(n):
        theta = 2.0 * np.pi * config.revolutions * i / n
        gt_poses.append(_path_pose(theta, theta, config))
    gt = Trajectory.from_poses(gt_poses)

    depth_rng = stream(seed, "depth-noise") if config.depth_noise > 0 else None
    frames = [
        render_synthetic_depth(scene, p, camera, index=i,
                               depth_noise=config.depth_noise, rng=depth_rng)
        for i, p in enumerate(gt_poses)
    ]

    odo = stream(seed, "odometry")
    noisy_poses = [gt_poses[0]]
    for i in range(n - 1):
        rel = geo.compose(geo.inverse(gt_poses[i]), gt_poses[i + 1])
        noise = geo.exp(
            np.concatenate(
                [odo.normal(0.0, config.sigma_odo_rot, 3), odo.normal(0.0, config.sigma_odo_trans, 3)]
            )
        )
        noisy_poses.append(geo.compose(noisy_poses[-1], geo.compose(rel, noise)))
    noisy = Trajectory.from_poses(noisy_poses)

    # candidate endpoints: pair each anchor with its revisit one revolution
    # later, spreading anchors over the sequence so loops constrain the
    # whole chain; every pair keeps a gap above min_loop_gap.  False loops
    # reuse true-loop anchor slots (a mis-registered revisit), so neither
    # group gets structurally privileged endpoints.
    period = n // max(1, config.revolutions)
    if period <= config.min_loop_gap:
        raise ValueError(
            f"revisit period {period} does not exceed min_loop_gap {config.min_loop_gap}; "
            "use more frames or fewer revolutions"
        )
    head = max(1, n - period - 1)
    n_true = config.n_true_loops
    true_pairs = []
    for m in range(n_true):
        # +0.5 keeps anchors off the gauge-fixed first node
        a = int(((m + 0.5) * head) // max(1, n_true + 1))
        true_pairs.append((a, a + period))
    false_pairs = []
    for m in range(config.n_false_loops):
        slot = (m * n_true) // max(1, config.n_false_loops)
        false_pairs.append(true_pairs[slot] if true_pairs else (0, period))
    pairs = true_pairs + false_pairs

    rot_max = np.deg2rad(config.true_noise_rot_deg)
    # candidates report the registration method's nominal accuracy (1/bound^2
    # per axis); with a quality mix that is the good band, which the sloppy
    # half silently exceeds (confidently wrong loops)
    nominal = 0.25 if config.true_noise_mix > 0 else 1.0
    info = np.diag([1.0 / max(nominal * rot_max, 1e-4) ** 2] * 3
                   + [1.0 / max(nominal * config.true_noise_trans, 1e-4) ** 2] * 3)
    true_rng = stream(seed, "loops-true")
    false_rng = stream(seed, "loops-false")
    false_rot = tuple(np.deg2rad(v) for v in config.false_offset_rot_deg)

    n_sloppy = int(round(config.true_noise_mix * config.n_true_loops))
    # interleave sloppy slots across the anchor spread (odd slots first)
    slot_order = list(range(1, config.n_true_loops, 2)) + list(range(0, config.n_true_loops, 2))
    sloppy_slots = set(slot_order[:n_sloppy])
    candidates = []
    for idx, (a, b) in enumerate(pairs):
        rel_gt = geo.compose(geo.inverse(gt.pose(a)), gt.pose(b))
        if idx < config.n_true_loops:
            if n_sloppy > 0:
                band = (0.6, 1.0) if idx in sloppy_slots else (0.0, 0.25)
            else:
                band = (0.0, 1.0)
            offset = _bounded_offset(true_rng, config.true_noise_trans, rot_max, band=band)
            label = True
        else:
            offset = _ranged_offset(false_rng, config.false_offset_trans, false_rot)
            label = False
        meas = geo.compose(rel_gt, offset)
        candidates.append(
            (LoopCandidate(id=idx, kind="frame", endpoints=(a, b), measurement=meas,
                           information=info), label)
        )

    if config.sigma_odo_rot > 0 and config.sigma_odo_trans > 0:
        odo_info = np.diag(
            [1.0 / config.sigma_odo_rot**2] * 3 + [1.0 / config.sigma_odo_trans**2] * 3
        )
    else:
        odo_info = np.eye(6)
    return Scenario(scene, gt, noisy, frames, candidates, seed=seed, config=config,
                    odometry_information=odo_info)


# ---------------------------------------------------------------------------
# scenario directory export (a dataset manifest plus ground truth)
# ---------------------------------------------------------------------------

def write_candidates_csv(path, candidates) -> None:
    """Information matrices are stored as their rotation/translation block
    scales (ours are isotropic per block)."""
    with open(path, "w") as f:
        f.write("id,kind,from,to,tx,ty,tz,qx,qy,qz,qw,info_rot,info_trans,label\n")
        for cand, label in candidates:
            qw, qx, qy, qz = cand.measurement.q
            t = cand.measurement.t
            i_rot = float(cand.information[0, 0])
            i_trans = float(cand.information[3, 3])
            f.write(
                "%d,%s,%d,%d," % (cand.id, cand.kind, cand.endpoints[0], cand.endpoints[1])
                + ",".join(_FMT % v for v in [t[0], t[1], t[2], qx, qy, qz, qw])
                + ",%s,%s,%d\n" % (_FMT % i_rot, _FMT % i_trans, 1 if label else 0)
            )


def read_candidates_csv(path):
    out = []
    with open(path) as f:
        header = f.readline()
        if not header.startswith("id,"):
            raise ParseError(f"{path}:1: missing candidates header")
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            parts = line.strip().split(",")
            if len(parts) != 14:
                raise ParseError(f"{path}:{lineno}: expected 14 fields, got {len(parts)}")
            try:
                cid = int(parts[0])
                kind = parts[1]
                a, b = int(parts[2]), int(parts[3])
                tx, ty, tz, qx, qy, qz, qw = (float(v) for v in parts[4:11])
                i_rot, i_trans = float(parts[11]), float(parts[12])
                label = bool(int(parts[13]))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            cand = LoopCandidate(
                id=cid, kind=kind, endpoints=(a, b),
                measurement=Pose(np.array([qw, qx, qy, qz]), np.array([tx, ty, tz])),
                information=np.diag([i_rot] * 3 + [i_trans] * 3),
            )
            out.append((cand, label))
    return out


def write_scene(path, scene) -> None:
    with open(path, "w") as f:
        for prim in scene:
            if isinstance(prim, AxisBox):
                f.write("box " + " ".join(_FMT % v for v in (*prim.lo, *prim.hi)) + "\n")
            elif isinstance(prim, Plane):
                f.write("plane " + " ".join(_FMT % v for v in (*prim.anchor, *prim.normal)) + "\n")
            else:
                raise TypeError(f"unknown primitive {type(prim).__name__}")


def read_scene(path):
    scene = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "box" and len(parts) == 7:
                vals = [float(v) for v in parts[1:]]
                scene.append(AxisBox(tuple(vals[:3]), tuple(vals[3:])))
            elif parts[0] == "plane" and len(parts) == 7:
                vals = [float(v) for v in parts[1:]]
                scene.append(Plane(tuple(vals[:3]), tuple(vals[3:])))
            else:
                raise ParseError(f"{path}:{lineno}: unknown scene line {line.strip()!r}")
    return scene


def export_scenario(scenario: Scenario, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    depth_dir = os.path.join(out_dir, "depth")
    os.makedirs(depth_dir, exist_ok=True)
    camera = scenario.frames[0].camera
    write_intrinsics(os.path.join(out_dir, "intrinsics.txt"), camera, DEPTH_SCALE)
    for frame in scenario.frames:
        write_depth_raw(
            frame.depth, os.path.join(depth_dir, "frame_%06d.raw" % frame.index), DEPTH_SCALE
        )
    write_tum_trajectory(scenario.gt_trajectory, os.path.join(out_dir, "gt.txt"))
    write_tum_trajectory(scenario.noisy_trajectory, os.path.join(out_dir, "noisy.txt"))
    write_candidates_csv(os.path.join(out_dir, "candidates.csv"), scenario.candidates)
    write_scene(os.path.join(out_dir, "scene.txt"), scenario.scene)
    with open(os.path.join(out_dir, "manifest.txt"), "w") as f:
        f.write("depth_dir=depth\n")
        f.write("intrinsics=intrinsics.txt\n")
        f.write("depth_scale=%s\n" % (_FMT % DEPTH_SCALE))
        f.write("trajectory=noisy.txt\n")
        f.write("gt_trajectory=gt.txt\n")
        f.write("candidates=candidates.csv\n")
        f.write("scene=scene.txt\n")
        if scenario.odometry_information is not None:
            info = scenario.odometry_information
            f.write("odo_info_rot=%s\n" % (_FMT % info[0, 0]))
            f.write("odo_info_trans=%s\n" % (_FMT % info[3, 3]))
