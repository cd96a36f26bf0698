"""Loaders for real-dataset artifacts.

Everything the pipeline consumes from disk goes through here: TUM-format
trajectories, fragment registration logs (three-int header plus a 4x4
homogeneous matrix per entry), raw 16-bit depth sequences described by a
manifest, and the manifest itself (plain key=value lines).  Loaders fail
loudly with the file and position; nothing is silently defaulted, and the
depth scale in particular is always explicit.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .geometry import Pose
from .posegraph import DEFAULT_LOOP_INFO_SCALE, Trajectory
from .sifting import FRAGMENT_LOOP, LoopCandidate
from .surfels import CameraModel, DepthFrame, read_depth_raw, read_intrinsics

_FMT = "%.17g"


# ---------------------------------------------------------------------------
# TUM trajectory text format
# ---------------------------------------------------------------------------

def load_tum_trajectory(path) -> Trajectory:
    """One pose per non-comment line: timestamp tx ty tz qx qy qz qw.

    Node ids are assigned by line order.  Quaternions get renormalized; a
    norm off by more than 1e-3 draws a warning.
    """
    poses = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 8:
                raise ParseError(f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
            try:
                _, tx, ty, tz, qx, qy, qz, qw = (float(v) for v in parts)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            q = np.array([qw, qx, qy, qz])
            norm = np.linalg.norm(q)
            if norm == 0.0:
                raise ParseError(f"{path}:{lineno}: zero quaternion")
            if abs(norm - 1.0) > 1e-3:
                warnings.warn(
                    f"{path}:{lineno}: quaternion norm {norm:.6f} deviates from 1; renormalizing"
                )
            poses.append(Pose(q, np.array([tx, ty, tz])))
    if not poses:
        raise ParseError(f"{path}: no poses found (empty or comment-only file)")
    return Trajectory.from_poses(poses)


def write_tum_trajectory(trajectory: Trajectory, path) -> None:
    """Inverse of load_tum_trajectory; node ids become timestamps."""
    with open(path, "w") as f:
        for node_id, p in trajectory:
            qw, qx, qy, qz = p.q
            f.write(
                (_FMT % node_id) + " "
                + " ".join(_FMT % v for v in [p.t[0], p.t[1], p.t[2], qx, qy, qz, qw])
                + "\n"
            )


# ---------------------------------------------------------------------------
# fragment registration log (header "id_i id_j total" + 4x4 matrix rows)
# ---------------------------------------------------------------------------

def load_match_log(path):
    """Fragment-loop candidates from a registration log, and the log's
    fragment count (None for an empty log).

    Each entry is five lines: ``id_i id_j total`` then the four rows of the
    homogeneous matrix mapping fragment j's frame into fragment i's;
    ``total`` is the number of fragments the log was registered on.  A
    rotation block off orthonormal by more than 1e-3, a ``total`` that
    differs from the first entry's, or a fragment id outside ``0..total-1``
    fails, naming the entry.
    """
    information = np.eye(6) * DEFAULT_LOOP_INFO_SCALE
    with open(path) as f:
        lines = [ln for ln in (raw.strip() for raw in f) if ln]
    if len(lines) % 5 != 0:
        raise ParseError(
            f"{path}: {len(lines)} non-empty lines; entries are 5 lines each "
            "(header + 4 matrix rows)"
        )
    out = []
    total = None
    for entry, k in enumerate(range(0, len(lines), 5)):
        header = lines[k].split()
        if len(header) != 3:
            raise ParseError(f"{path}: entry {entry}: header needs 3 integers, got {lines[k]!r}")
        try:
            i, j, entry_total = (int(v) for v in header)
        except ValueError:
            raise ParseError(f"{path}: entry {entry}: non-integer header {lines[k]!r}") from None
        rows = []
        for r in range(4):
            fields = lines[k + 1 + r].split()
            if len(fields) != 4:
                raise ParseError(
                    f"{path}: entry {entry}: matrix row {r} has {len(fields)} fields, expected 4"
                )
            try:
                rows.append([float(v) for v in fields])
            except ValueError as exc:
                raise ParseError(f"{path}: entry {entry}: {exc}") from None
        T = np.array(rows)
        if np.max(np.abs(T[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > 1e-6:
            raise ParseError(f"{path}: entry {entry}: last matrix row is not [0 0 0 1]")
        R = T[:3, :3]
        if np.max(np.abs(R @ R.T - np.eye(3))) > 1e-3 or np.linalg.det(R) < 0:
            raise ParseError(
                f"{path}: entry {entry}: rotation block deviates from orthonormal beyond 1e-3"
            )
        total = entry_total if total is None else total
        if entry_total != total:
            raise ParseError(
                f"{path}: entry {entry}: total {entry_total} differs from entry 0's {total}"
            )
        if not (0 <= i < total and 0 <= j < total):
            raise ParseError(
                f"{path}: entry {entry}: fragment ids {i} {j} outside 0..{total - 1}"
            )
        out.append(
            LoopCandidate(
                id=entry, kind=FRAGMENT_LOOP, endpoints=(i, j),
                measurement=Pose.from_matrix(T), information=information,
            )
        )
    return out, total


def write_match_log(candidates, path, total: int | None = None) -> None:
    if total is None:
        total = 1 + max(
            (max(c.endpoints) for c in candidates), default=0
        )
    with open(path, "w") as f:
        for cand in candidates:
            i, j = cand.endpoints
            f.write(f"{i} {j} {total}\n")
            T = cand.measurement.to_matrix()
            for r in range(4):
                f.write(" ".join(_FMT % v for v in T[r]) + "\n")


# ---------------------------------------------------------------------------
# dataset manifest + depth sequences
# ---------------------------------------------------------------------------

@dataclass
class DatasetManifest:
    root: str
    depth_files: list
    depth_scale: float
    camera: CameraModel
    trajectory_path: str
    posegraph_path: str | None = None
    matches_path: str | None = None
    extras: dict = field(default_factory=dict)


def load_manifest(path) -> DatasetManifest:
    """Parse key=value lines; relative paths resolve against the manifest
    directory.  Keys: depth_dir, intrinsics, depth_scale, trajectory, and
    optional posegraph / matches; unknown keys land in ``extras``."""
    root = os.path.dirname(os.path.abspath(path))
    values = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()

    def resolve(rel):
        return rel if os.path.isabs(rel) else os.path.join(root, rel)

    for key in ("depth_dir", "intrinsics", "depth_scale", "trajectory"):
        if key not in values:
            raise ParseError(f"{path}: missing required key {key!r}")

    intr_path = resolve(values.pop("intrinsics"))
    if not os.path.exists(intr_path):
        raise ParseError(f"{path}: intrinsics file {intr_path} does not exist")
    camera, intr_scale = read_intrinsics(intr_path)

    try:
        depth_scale = float(values.pop("depth_scale"))
    except ValueError:
        raise ParseError(f"{path}: depth_scale is not a number") from None
    if depth_scale <= 0:
        raise ParseError(f"{path}: depth_scale must be positive")
    if abs(depth_scale - intr_scale) > 1e-9:
        warnings.warn(
            f"{path}: manifest depth_scale {depth_scale} differs from intrinsics "
            f"file value {intr_scale}; using the manifest value"
        )

    depth_dir = resolve(values.pop("depth_dir"))
    if not os.path.isdir(depth_dir):
        raise ParseError(f"{path}: depth_dir {depth_dir} is not a directory")
    depth_files = sorted(
        os.path.join(depth_dir, fn) for fn in os.listdir(depth_dir) if fn.endswith(".raw")
    )
    if not depth_files:
        raise ParseError(f"{path}: no .raw depth files in {depth_dir}")

    traj_path = resolve(values.pop("trajectory"))
    if not os.path.exists(traj_path):
        raise ParseError(f"{path}: trajectory file {traj_path} does not exist")

    posegraph_path = None
    if "posegraph" in values:
        posegraph_path = resolve(values.pop("posegraph"))
        if not os.path.exists(posegraph_path):
            raise ParseError(f"{path}: posegraph file {posegraph_path} does not exist")
    matches_path = None
    if "matches" in values:
        matches_path = resolve(values.pop("matches"))
        if not os.path.exists(matches_path):
            raise ParseError(f"{path}: match log {matches_path} does not exist")

    return DatasetManifest(
        root=root, depth_files=depth_files, depth_scale=depth_scale, camera=camera,
        trajectory_path=traj_path, posegraph_path=posegraph_path,
        matches_path=matches_path, extras=values,
    )


def load_depth_sequence(manifest: DatasetManifest) -> list:
    """Depth frames in meters from the manifest's raw files; raw zeros stay
    invalid."""
    frames = []
    for index, path in enumerate(manifest.depth_files):
        try:
            depth = read_depth_raw(path, manifest.camera, manifest.depth_scale)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        frames.append(DepthFrame(depth, manifest.camera, index))
    return frames
