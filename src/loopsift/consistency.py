"""Map-versus-observation consistency scoring.

The scorer renders the expected depth of the fused model from every frame
pose (z-buffer splatting of surfel disks) and compares it against the
observed depth image.  Per compared pixel the penalty is a truncated
squared error normalized by a depth-dependent stereo noise model:

    penalty = min(((z_obs - z_rendered) / sigma(z_obs))^2, trunc)
    sigma(z) = 0.0012 + 0.0019 * (z - 0.4)^2

A frame's score is the mean penalty over its valid observation pixels
(pixels the model does not cover contribute zero), and the total score is
the sum over frames.  Lower is better; zero means every compared pixel
agrees within noise.  The scorer is deterministic and depends only on
relative geometry, so moving the map and trajectory by one common rigid
transform leaves the score unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .geometry import Pose
from .surfels import CameraModel, SurfelMap

TRUNCATION = 16.0
MAX_RADIUS_PX = 4.0  # cap on a splatted disk's footprint radius
NEAR = 0.05  # meters; surfels closer to the camera are not rendered


def depth_noise_sigma(z: np.ndarray) -> np.ndarray:
    """Axial noise magnitude of a stereo depth sensor at range z meters."""
    z = np.asarray(z, dtype=float)
    return 0.0012 + 0.0019 * (z - 0.4) ** 2


@dataclass
class RenderedDepth:
    width: int
    height: int
    depth: np.ndarray  # meters; 0 where no surfel covers the pixel


@dataclass
class ConsistencyScore:
    value: float
    per_frame: list  # (frame index, score) pairs, one per scored frame
    pixels_evaluated: int


def render_depth(map_: SurfelMap, pose: Pose, camera: CameraModel) -> RenderedDepth:
    """Expected depth of the map seen from ``pose`` (camera-to-world).

    Every front-facing surfel splats onto the pixels inside its projected
    radius footprint; each covered pixel takes the depth of the surfel's
    tangent disk along that pixel's ray, and the nearest depth wins.
    Back-facing surfels (normal turned away beyond 90 degrees) are skipped.
    """
    W, H = camera.width, camera.height
    if len(map_) == 0:
        return RenderedDepth(W, H, np.zeros((H, W)))

    inv = geo.inverse(pose)
    p = geo.quat_rotate(inv.q[None, :], map_.positions) + inv.t
    n = geo.quat_rotate(inv.q[None, :], map_.normals)

    z = p[:, 2]
    facing = np.einsum("ij,ij->i", n, p) < 0.0  # normal points back at camera
    keep = (z > NEAR) & facing
    p, n = p[keep], n[keep]
    z = z[keep]
    if len(p) == 0:
        return RenderedDepth(W, H, np.zeros((H, W)))

    f_mean = 0.5 * (camera.fx + camera.fy)
    r_px = np.minimum(f_mean * map_.radii[keep] / z, MAX_RADIUS_PX)
    u = p[:, 0] / z * camera.fx + camera.cx
    v = p[:, 1] / z * camera.fy + camera.cy
    inb = (u > -MAX_RADIUS_PX - 1) & (u < W + MAX_RADIUS_PX) & \
          (v > -MAX_RADIUS_PX - 1) & (v < H + MAX_RADIUS_PX)
    p, n, z, r_px, u, v = p[inb], n[inb], z[inb], r_px[inb], u[inb], v[inb]
    if len(p) == 0:
        return RenderedDepth(W, H, np.zeros((H, W)))

    ui = np.round(u).astype(np.int64)
    vi = np.round(v).astype(np.int64)
    n_dot_p = np.einsum("ij,ij->i", n, p)
    span = 2.0 * map_.radii[keep][inb]  # clamp disk depth to its own extent

    # group surfels by integer footprint radius (a handful of values) and
    # splat each group's circle offsets with gather-free batch arithmetic;
    # out-of-bounds pixels fall into a trash slot past the buffer end
    zbuf = np.full(W * H + 1, np.inf)
    half = np.ceil(r_px).astype(np.int64)  # complete: |offset| <= ceil covers reach
    dx0 = (ui - camera.cx) / camera.fx
    dy0 = (vi - camera.cy) / camera.fy
    inv_fx = 1.0 / camera.fx
    inv_fy = 1.0 / camera.fy

    for radius in np.unique(half):
        g = half == radius
        reach = (r_px[g] + 0.5) ** 2
        nx, ny, nz = n[g, 0], n[g, 1], n[g, 2]
        ndp, zc, sp = n_dot_p[g], z[g], span[g]
        gx0, gy0 = dx0[g], dy0[g]
        gui, gvi = ui[g], vi[g]
        lo, hi = zc - sp, zc + sp
        r_int = int(radius)
        for du in range(-r_int, r_int + 1):
            for dv in range(-r_int, r_int + 1):
                d2 = du * du + dv * dv
                if d2 > (radius + 0.5) ** 2:
                    continue
                sel = d2 <= reach
                dx = gx0 + du * inv_fx
                dy = gy0 + dv * inv_fy
                denom = nx * dx + ny * dy + nz
                safe = np.abs(denom) > 1e-6
                zd = np.where(safe, ndp / np.where(safe, denom, 1.0), zc)
                zd = np.maximum(np.minimum(np.maximum(zd, lo), hi), NEAR)
                px = gui + du
                py = gvi + dv
                ok = sel & (px >= 0) & (px < W) & (py >= 0) & (py < H)
                idx = np.where(ok, py * W + px, W * H)
                np.minimum.at(zbuf, idx, zd)

    out = zbuf[: W * H].reshape(H, W)
    return RenderedDepth(W, H, np.where(np.isfinite(out), out, 0.0))


class DepthConsistencyScorer:
    """Callable scorer; swap in an alternative with the same signature to
    change how maps are judged."""

    def score_frame(self, map_: SurfelMap, frame, pose: Pose):
        rendered = render_depth(map_, pose, frame.camera)
        obs = frame.depth
        valid = obs > 0
        n_valid = int(valid.sum())
        compared = valid & (rendered.depth > 0)
        n_comp = int(compared.sum())
        if n_valid == 0 or n_comp == 0:
            return 0.0, n_comp
        zo = obs[compared]
        zr = rendered.depth[compared]
        pen = np.minimum(((zo - zr) / depth_noise_sigma(zo)) ** 2, TRUNCATION)
        return float(pen.sum() / n_valid), n_comp

    def __call__(self, map_: SurfelMap, frames, trajectory) -> ConsistencyScore:
        if not frames:
            raise ValueError("cannot score against an empty frame list")
        per_frame = []
        total = 0.0
        pixels = 0
        for frame in frames:
            if frame.index not in trajectory:
                raise ValueError(f"trajectory has no pose for frame {frame.index}")
            score, n_comp = self.score_frame(map_, frame, trajectory.pose(frame.index))
            per_frame.append((frame.index, score, n_comp))
            total += score
            pixels += n_comp
        return ConsistencyScore(total, per_frame, pixels)


def score_map(map_: SurfelMap, frames, trajectory) -> ConsistencyScore:
    """Score with the default depth-consistency scorer."""
    return DepthConsistencyScorer()(map_, frames, trajectory)
