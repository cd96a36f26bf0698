"""Dense model fusion with surfels, organized as rigid fragments.

Depth frames are back-projected and fused into surfel maps.  Each surfel
carries four fields: a position, a normal and a radius, which the
consistency score reads, and a weight (the number of observations fused
into it), which fusion averages with.  Fusion of a
whole sequence goes through fragments: blocks of k consecutive frames
fused in the reference frame of the block, so that a trajectory update
only requires moving each fragment rigidly instead of re-fusing
everything.  Cross-fragment surfels are never re-merged; that is the
accepted approximation.

Maps are plain struct-of-arrays containers; once built they are treated
as immutable and fuse_frame returns a new map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .errors import ParseError
from .geometry import Pose

MIN_RADIUS = 1e-3  # meters
MAX_RADIUS = 0.1

# association gate: reject if |z_obs - z_surfel| exceeds max of these
DEPTH_TOL_ABS = 0.02
DEPTH_TOL_REL = 0.02


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics; pixel (u, v) rays are ((u-cx)/fx, (v-cy)/fy, 1)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):  # rejects NaN too
            raise ValueError("focal lengths must be positive and finite")
        if not (np.isfinite(self.cx) and np.isfinite(self.cy)):
            raise ValueError("principal point must be finite")
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")


@dataclass
class DepthFrame:
    """One depth image in meters (0 = invalid) plus intrinsics and index."""

    depth: np.ndarray
    camera: CameraModel
    index: int

    def __post_init__(self):
        self.depth = np.asarray(self.depth, dtype=float)
        if self.depth.shape != (self.camera.height, self.camera.width):
            raise ValueError(
                f"depth shape {self.depth.shape} does not match camera "
                f"{self.camera.height}x{self.camera.width}"
            )
        if not np.all(np.isfinite(self.depth)):
            raise ValueError("depth image contains non-finite values")
        if np.any(self.depth < 0):
            raise ValueError("depth image contains negative values")


class SurfelMap:
    """Surfels as parallel arrays; cheap to transform and concatenate."""

    __slots__ = ("positions", "normals", "weights", "radii")

    def __init__(self, positions, normals, weights, radii):
        self.positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        self.normals = np.asarray(normals, dtype=float).reshape(-1, 3)
        self.weights = np.asarray(weights, dtype=float).reshape(-1)
        self.radii = np.asarray(radii, dtype=float).reshape(-1)
        n = len(self.positions)
        for name in ("normals", "weights", "radii"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"field {name} has wrong length")

    @classmethod
    def empty(cls) -> "SurfelMap":
        return cls(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0), np.zeros(0))

    def __len__(self) -> int:
        return len(self.positions)

    def copy(self) -> "SurfelMap":
        return SurfelMap(
            self.positions.copy(), self.normals.copy(), self.weights.copy(), self.radii.copy(),
        )

    def transformed(self, pose: Pose) -> "SurfelMap":
        """Rigidly move every surfel by the given pose."""
        q = pose.q[None, :]
        return SurfelMap(
            geo.quat_rotate(q, self.positions) + pose.t,
            geo.quat_rotate(q, self.normals),
            self.weights.copy(), self.radii.copy(),
        )

    @staticmethod
    def concatenate(maps) -> "SurfelMap":
        maps = list(maps)
        if not maps:
            return SurfelMap.empty()
        return SurfelMap(
            np.concatenate([m.positions for m in maps]),
            np.concatenate([m.normals for m in maps]),
            np.concatenate([m.weights for m in maps]),
            np.concatenate([m.radii for m in maps]),
        )


@dataclass
class Fragment:
    """A k-frame sub-map fused in the coordinates of its reference frame.

    ``local_poses`` keeps each member frame's pose relative to the
    reference frame; loop expansion needs those intra-fragment relations.
    """

    id: int
    first: int
    last: int
    ref_frame: int
    surfels: SurfelMap
    local_poses: dict = field(default_factory=dict)

    @property
    def frame_count(self) -> int:
        return self.last - self.first + 1


# ---------------------------------------------------------------------------
# back-projection and normals
# ---------------------------------------------------------------------------

def backproject_grid(frame: DepthFrame, stride: int = 1):
    """Sample pixel centers on a stride grid; returns (us, vs, z, points_cam)
    for valid samples only."""
    cam = frame.camera
    us = np.arange(0, cam.width, stride)
    vs = np.arange(0, cam.height, stride)
    uu, vv = np.meshgrid(us, vs)
    z = frame.depth[vv, uu]
    valid = z > 0
    uu, vv, z = uu[valid], vv[valid], z[valid]
    x = (uu - cam.cx) / cam.fx * z
    y = (vv - cam.cy) / cam.fy * z
    return uu, vv, z, np.stack([x, y, z], axis=-1)


def _normals_at(frame: DepthFrame, uu, vv):
    """Camera-frame normals from central differences of the depth image.

    Samples without two valid in-bounds neighbors per axis, or sitting on a
    depth discontinuity, come back flagged invalid.
    """
    cam = frame.camera
    d = frame.depth
    ok = (uu >= 1) & (uu < cam.width - 1) & (vv >= 1) & (vv < cam.height - 1)
    n = np.zeros((len(uu), 3))
    if not ok.any():
        return n, ok

    u, v = uu[ok], vv[ok]
    z_l, z_r = d[v, u - 1], d[v, u + 1]
    z_u, z_d = d[v - 1, u], d[v + 1, u]
    z_c = d[v, u]
    jump = np.maximum(0.05, 0.05 * z_c)
    good = (
        (z_l > 0) & (z_r > 0) & (z_u > 0) & (z_d > 0)
        & (np.abs(z_r - z_l) < jump) & (np.abs(z_d - z_u) < jump)
    )

    def point(uc, vc, zc):
        return np.stack([(uc - cam.cx) / cam.fx * zc, (vc - cam.cy) / cam.fy * zc, zc], axis=-1)

    dpdu = 0.5 * (point(u + 1, v, z_r) - point(u - 1, v, z_l))
    dpdv = 0.5 * (point(u, v + 1, z_d) - point(u, v - 1, z_u))
    raw = np.cross(dpdu, dpdv)
    norm = np.linalg.norm(raw, axis=-1)
    good &= norm > 1e-12
    raw = raw / np.where(norm > 1e-12, norm, 1.0)[:, None]

    # orient toward the camera (origin of the camera frame)
    center = point(u, v, z_c)
    flip = np.einsum("ij,ij->i", raw, center) > 0
    raw[flip] *= -1.0

    n[ok] = raw
    ok2 = ok.copy()
    ok2[ok] = good
    return n, ok2


def fuse_frame(map_: SurfelMap, frame: DepthFrame, pose: Pose, stride: int = 2) -> SurfelMap:
    """Fuse one depth frame taken at ``pose`` (camera-to-world) into the map.

    Valid samples that land within a pixel and within depth tolerance of an
    existing surfel update it by weighted averaging; the rest become new
    surfels.  Returns a new map.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    cam = frame.camera
    uu, vv, z_obs, pts_cam = backproject_grid(frame, stride)
    normals_cam, ok = _normals_at(frame, uu, vv)
    uu, vv, z_obs = uu[ok], vv[ok], z_obs[ok]
    pts_cam, normals_cam = pts_cam[ok], normals_cam[ok]

    R_q = pose.q[None, :]
    pts_w = geo.quat_rotate(R_q, pts_cam) + pose.t
    normals_w = geo.quat_rotate(R_q, normals_cam)

    f_mean = 0.5 * (cam.fx + cam.fy)
    radii = np.clip(z_obs / f_mean * stride * np.sqrt(2.0), MIN_RADIUS, MAX_RADIUS)

    # observation bins on the stride grid, keyed by sample pixel
    nbu = (cam.width + stride - 1) // stride
    sample_bins = (vv // stride) * nbu + (uu // stride)
    bin_slot = {int(b): k for k, b in enumerate(sample_bins)}

    matched_surfel = np.full(len(uu), -1, dtype=np.intp)
    if len(map_) > 0:
        inv = geo.inverse(pose)
        sp_cam = geo.quat_rotate(inv.q[None, :], map_.positions) + inv.t
        sz = sp_cam[:, 2]
        front = sz > 1e-6
        su = np.where(front, sp_cam[:, 0] / np.where(front, sz, 1.0) * cam.fx + cam.cx, -10.0)
        sv = np.where(front, sp_cam[:, 1] / np.where(front, sz, 1.0) * cam.fy + cam.cy, -10.0)
        # snap to the nearest sample-grid pixel; associate when within 1 px
        gu = np.round(su / stride).astype(np.int64) * stride
        gv = np.round(sv / stride).astype(np.int64) * stride
        inb = front & (gu >= 0) & (gu < cam.width) & (gv >= 0) & (gv < cam.height)
        close = (np.abs(su - gu) <= 1.0) & (np.abs(sv - gv) <= 1.0)
        cand = np.flatnonzero(inb & close)
        if len(cand):
            cb = (gv[cand] // stride) * nbu + (gu[cand] // stride)
            slots = np.array([bin_slot.get(int(b), -1) for b in cb], dtype=np.intp)
            have = slots >= 0
            cand, cb, slots = cand[have], cb[have], slots[have]
            dz = np.abs(sz[cand] - z_obs[slots])
            tol = np.maximum(DEPTH_TOL_ABS, DEPTH_TOL_REL * z_obs[slots])
            pass_tol = dz < tol
            cand, slots, dz = cand[pass_tol], slots[pass_tol], dz[pass_tol]
            if len(cand):
                order = np.lexsort((dz, slots))
                slots_sorted = slots[order]
                first = np.ones(len(order), dtype=bool)
                first[1:] = slots_sorted[1:] != slots_sorted[:-1]
                matched_surfel[slots_sorted[first]] = cand[order][first]

    out = map_.copy()
    upd = matched_surfel >= 0
    if upd.any():
        si = matched_surfel[upd]
        w = out.weights[si][:, None]
        out.positions[si] = (w * out.positions[si] + pts_w[upd]) / (w + 1.0)
        n_sum = w * out.normals[si] + np.where(
            np.einsum("ij,ij->i", out.normals[si], normals_w[upd])[:, None] < 0,
            -normals_w[upd],
            normals_w[upd],
        )
        n_len = np.linalg.norm(n_sum, axis=-1, keepdims=True)
        out.normals[si] = np.where(n_len > 1e-12, n_sum / np.where(n_len > 0, n_len, 1.0),
                                   out.normals[si])
        out.radii[si] = ((w[:, 0] * out.radii[si]) + radii[upd]) / (w[:, 0] + 1.0)
        out.weights[si] += 1.0

    new = ~upd
    if new.any():
        fresh = SurfelMap(pts_w[new], normals_w[new], np.ones(new.sum()), radii[new])
        out = SurfelMap.concatenate([out, fresh])
    return out


# ---------------------------------------------------------------------------
# fragments
# ---------------------------------------------------------------------------

def build_fragments(frames, trajectory, k: int, stride: int = 2) -> list:
    """Split the sequence into ceil(N/k) blocks and fuse each in the
    coordinates of its middle frame.  Poses come from ``trajectory`` keyed
    by frame index."""
    if k < 1:
        raise ValueError("fragment size k must be >= 1")
    frames = list(frames)
    for fr in frames:
        if fr.index not in trajectory:
            raise ValueError(f"trajectory has no pose for frame {fr.index}")
    fragments = []
    n = len(frames)
    for fid, start in enumerate(range(0, n, k)):
        block = frames[start:min(start + k, n)]
        ref_pos = start + (len(block) - 1) // 2
        ref_frame = frames[ref_pos].index
        anchor_inv = geo.inverse(trajectory.pose(ref_frame))
        local_poses = {}
        fused = SurfelMap.empty()
        for fr in block:
            local = geo.compose(anchor_inv, trajectory.pose(fr.index))
            local_poses[fr.index] = local
            fused = fuse_frame(fused, fr, local, stride=stride)
        fragments.append(
            Fragment(fid, block[0].index, block[-1].index, ref_frame, fused, local_poses)
        )
    return fragments


def assemble_model(fragments, trajectory) -> SurfelMap:
    """Place each fragment rigidly at its reference frame's updated pose.

    No cross-fragment re-fusion happens; runtime is linear in surfel count.
    """
    parts = []
    for frag in fragments:
        if frag.ref_frame not in trajectory:
            raise ValueError(
                f"trajectory has no pose for reference frame {frag.ref_frame} "
                f"of fragment {frag.id}"
            )
        parts.append(frag.surfels.transformed(trajectory.pose(frag.ref_frame)))
    return SurfelMap.concatenate(parts)


def fragment_consistent_trajectory(fragments, trajectory):
    """Member-frame poses implied by rigid fragment placement.

    Each frame keeps its fusion-time pose relative to its fragment's
    reference frame, which itself sits at the updated trajectory pose.
    This is the camera-side counterpart of assemble_model: scoring an
    assembled model against these poses measures inter-fragment alignment
    without charging the frozen intra-fragment geometry to every
    evaluation.
    """
    from .posegraph import Trajectory  # local import: posegraph imports nothing back

    ids = []
    poses = []
    for frag in fragments:
        if frag.ref_frame not in trajectory:
            raise ValueError(
                f"trajectory has no pose for reference frame {frag.ref_frame} "
                f"of fragment {frag.id}"
            )
        anchor = trajectory.pose(frag.ref_frame)
        for frame_id in sorted(frag.local_poses):
            ids.append(frame_id)
            poses.append(geo.compose(anchor, frag.local_poses[frame_id]))
    order = np.argsort(np.asarray(ids, dtype=np.int64), kind="stable")
    return Trajectory([ids[k] for k in order], [poses[k] for k in order])


# ---------------------------------------------------------------------------
# I/O: PLY export, raw depth, intrinsics text
# ---------------------------------------------------------------------------

def write_ply(map_: SurfelMap, path) -> None:
    """ASCII PLY with x y z nx ny nz red green blue per vertex; surfels
    carry no colour, so every vertex is grey 128."""
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {len(map_)}\n")
        for prop in ("x", "y", "z", "nx", "ny", "nz"):
            f.write(f"property float {prop}\n")
        for prop in ("red", "green", "blue"):
            f.write(f"property uchar {prop}\n")
        f.write("end_header\n")
        for p, n in zip(map_.positions, map_.normals):
            f.write(
                "%.9g %.9g %.9g %.9g %.9g %.9g 128 128 128\n"
                % (p[0], p[1], p[2], n[0], n[1], n[2])
            )


def read_ply(path) -> SurfelMap:
    """Positions and normals from the ASCII PLY layout written by
    write_ply; the colour columns are skipped."""
    with open(path) as f:
        line = f.readline().strip()
        if line != "ply":
            raise ParseError(f"{path}: not a PLY file")
        count = None
        while True:
            line = f.readline()
            if not line:
                raise ParseError(f"{path}: truncated header")
            if line.startswith("element vertex"):
                try:
                    count = int(line.split()[2])
                except (IndexError, ValueError):
                    raise ParseError(f"{path}: bad vertex count {line.strip()!r}") from None
            if line.strip() == "end_header":
                break
        if count is None:
            raise ParseError(f"{path}: missing vertex element")
        try:
            data = np.loadtxt(f, ndmin=2) if count else np.zeros((0, 9))
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None
    if data.shape != (count, 9):
        raise ParseError(f"{path}: expected {count} rows of 9 values, got {data.shape}")
    return SurfelMap(data[:, 0:3], data[:, 3:6], np.ones(count), np.full(count, 0.01))


def write_depth_raw(depth_m: np.ndarray, path, depth_scale: float) -> None:
    """Write depth in meters as row-major little-endian uint16 of
    ``depth * depth_scale`` units; zeros stay zero (invalid)."""
    raw = np.round(np.asarray(depth_m, dtype=float) * depth_scale)
    raw = np.clip(raw, 0, 65535).astype("<u2")
    raw.tofile(path)


def read_depth_raw(path, camera: CameraModel, depth_scale: float) -> np.ndarray:
    raw = np.fromfile(path, dtype="<u2")
    expected = camera.width * camera.height
    if raw.size != expected:
        raise ValueError(
            f"{path}: has {raw.size} pixels, intrinsics say {camera.height}x{camera.width}"
        )
    return raw.reshape(camera.height, camera.width).astype(float) / depth_scale


def write_intrinsics(path, camera: CameraModel, depth_scale: float) -> None:
    with open(path, "w") as f:
        f.write(
            "%.17g %.17g %.17g %.17g %d %d %.17g\n"
            % (camera.fx, camera.fy, camera.cx, camera.cy, camera.width, camera.height, depth_scale)
        )


def read_intrinsics(path):
    """Camera and depth scale from one line ``fx fy cx cy width height
    depth-scale``; a malformed line or an invalid camera is a ParseError
    naming the file."""
    with open(path) as f:
        parts = f.read().split()
    if len(parts) != 7:
        raise ParseError(
            f"{path}: expected 7 fields 'fx fy cx cy width height depth-scale', got {len(parts)}"
        )
    try:
        fx, fy, cx, cy = (float(v) for v in parts[:4])
        width, height = int(parts[4]), int(parts[5])
        depth_scale = float(parts[6])
        camera = CameraModel(fx, fy, cx, cy, width, height)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return camera, depth_scale
