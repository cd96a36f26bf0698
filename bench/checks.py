"""Correctness checks and quality metrics of one ``loopsift sift`` output.

Every check reads only the run's output directory, the run's inputs and
the ground truth the benchmark made for the run's seed; none involves a
time.  The final score is recomputed with an independent implementation
of the rule stated in the ``loopsift.consistency`` docstring (disk-ray
depth, nearest depth wins, truncated penalty with sigma(z), mean over
valid pixels, sum over frames); it calls neither ``render_depth`` nor
``score_frame``.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

# constants of the scoring rule (loopsift.consistency defaults)
TRUNCATION = 16.0
MAX_RADIUS_PX = 4.0
NEAR = 0.05

# The recomputed final score must match the exact one in trace.csv within
# SCORE_RTOL of it.  The two implementations place surfels through
# different float operations (4x4 matrices here, quaternions there) and
# agree to about 1e-13 of the score.  A pixel whose projection lies on a
# rounding boundary may still land on its neighbour in one of them; that
# moves a frame's mean penalty by at most TRUNCATION / valid pixels, which
# is at most 5e-5 of the final score on these workloads (80x60 frames,
# score about 64).  SCORE_RTOL allows about two such pixels there, and
# more on the larger frames of the other workloads.
SCORE_RTOL = 1e-4
# report.txt prints scores with 6 decimals
REPORT_ATOL = 5.01e-7
# trajectory_after.txt against the benchmark's own re-optimization with the
# accepted loops (same optimizer, graph and loops; edge order and input
# rounding differ at 1e-15)
TRAJ_ATOL_M = 1e-6

OUTPUT_FILES = ("ranking.csv", "trace.csv", "accepted.txt", "report.txt",
                "trajectory_after.txt", "model_after.ply")


@dataclass
class CheckResult:
    failures: list = field(default_factory=list)  # "check: detail"
    metrics: dict = field(default_factory=dict)  # name -> value
    attempted: int = 0
    failed: int = 0
    info: dict = field(default_factory=dict)  # diagnostics for the run's log

    def fail(self, check: str, detail: str) -> None:
        self.failures.append(f"{check}: {detail}")


# ---------------------------------------------------------------------------
# readers of the program's outputs
# ---------------------------------------------------------------------------

def quat_matrix(qw, qx, qy, qz) -> np.ndarray:
    w, x, y, z = np.array([qw, qx, qy, qz], dtype=float) / math.sqrt(qw**2 + qx**2 + qy**2 + qz**2)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def read_tum(path) -> list:
    """4x4 camera-to-world matrix per pose, in line order
    (``stamp tx ty tz qx qy qz qw``)."""
    poses = []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            _, tx, ty, tz, qx, qy, qz, qw = (float(v) for v in parts)
            T = np.eye(4)
            T[:3, :3], T[:3, 3] = quat_matrix(qw, qx, qy, qz), (tx, ty, tz)
            poses.append(T)
    return poses


def read_ply_positions(path) -> np.ndarray:
    with open(path) as f:
        count = None
        for line in f:
            if line.startswith("element vertex"):
                count = int(line.split()[2])
            if line.strip() == "end_header":
                break
        values = np.array(f.read().split(), dtype=float)
    return values.reshape(count, 9)[:, :3]


def read_ranking(path) -> list:
    """(unit id, single-loop score) per row, best first."""
    with open(path) as f:
        f.readline()
        return [(int(row[1]), float(row[2]))
                for row in (line.strip().split(",") for line in f if line.strip())]


def read_trace(path) -> list:
    """(unit id, tentative score, accepted) per greedy step."""
    with open(path) as f:
        f.readline()
        return [(int(row[0]), float(row[3]), row[4] == "1")
                for row in (line.strip().split(",") for line in f if line.strip())]


def read_accepted(path) -> list:
    with open(path) as f:
        return [int(line) for line in f if line.strip()]


_TRACE_ROW = re.compile(r"^\s*\d+\s+(\d+)\s+\S+\s+\S+\s+(yes|no)(?:\s+\((.*)\))?\s*$")


def read_report(path) -> dict:
    """Baseline and final score, accepted list and each greedy step's note."""
    out = {"notes": []}
    with open(path) as f:
        for line in f:
            if line.startswith("baseline score"):
                out["baseline"] = float(line.split(":")[1])
            elif line.startswith("final score"):
                out["final"] = float(line.split(":")[1])
            elif line.startswith("accepted"):
                listed = line.split("[", 1)[1].rsplit("]", 1)[0]
                out["accepted"] = [int(v) for v in listed.split(",") if v.strip()]
            else:
                m = _TRACE_ROW.match(line)
                if m:
                    out["notes"].append((int(m.group(1)), m.group(3) or ""))
    return out


# ---------------------------------------------------------------------------
# ground-truth comparisons
# ---------------------------------------------------------------------------

def aligned_rmse(est: np.ndarray, ref: np.ndarray) -> float:
    """Translational RMSE after the least-squares rigid fit of est onto ref."""
    mu_e, mu_r = est.mean(axis=0), ref.mean(axis=0)
    U, _, Vt = np.linalg.svd((ref - mu_r).T @ (est - mu_e))
    S = np.diag([1.0, 1.0, np.sign(np.linalg.det(U @ Vt))])
    aligned = (est - mu_e) @ (U @ S @ Vt).T + mu_r
    return float(np.sqrt(np.mean(np.sum((aligned - ref) ** 2, axis=1))))


def scene_distance(points: np.ndarray, scene) -> np.ndarray:
    """Distance from each point to the nearest analytic box or plane surface."""
    best = np.full(len(points), np.inf)
    for prim in scene:
        if hasattr(prim, "lo"):
            lo, hi = np.asarray(prim.lo), np.asarray(prim.hi)
            below, above = lo - points, points - hi
            outside = np.linalg.norm(np.maximum(np.maximum(below, above), 0.0), axis=1)
            inside = np.minimum(-below, -above).min(axis=1)  # to the nearest face
            dist = np.where(inside >= 0.0, inside, outside)
        else:
            n = np.asarray(prim.normal, dtype=float)
            dist = np.abs((points - np.asarray(prim.anchor)) @ (n / np.linalg.norm(n)))
        best = np.minimum(best, dist)
    return best


# ---------------------------------------------------------------------------
# independent score
# ---------------------------------------------------------------------------

def pose_matrix(pose) -> np.ndarray:
    T = np.eye(4)
    T[:3, :3] = quat_matrix(*pose.q)
    T[:3, 3] = pose.t
    return T


def render(parts, camera) -> np.ndarray:
    """z-buffer of surfel disks. ``parts`` holds camera-frame (points,
    normals, radii) blocks; each front-facing surfel covers the pixels
    within its projected radius (+0.5 px) and gives each the depth of its
    tangent disk along the pixel ray, clamped to +-2 radii."""
    W, H = camera.width, camera.height
    p = np.concatenate([b[0] for b in parts])
    n = np.concatenate([b[1] for b in parts])
    rad = np.concatenate([b[2] for b in parts])
    z = p[:, 2]
    keep = (z > NEAR) & (np.sum(n * p, axis=1) < 0.0)
    p, n, rad, z = p[keep], n[keep], rad[keep], z[keep]
    r_px = np.minimum(0.5 * (camera.fx + camera.fy) * rad / z, MAX_RADIUS_PX)
    ui = np.rint(p[:, 0] / z * camera.fx + camera.cx).astype(np.int64)
    vi = np.rint(p[:, 1] / z * camera.fy + camera.cy).astype(np.int64)
    near_image = (ui >= -5) & (ui <= W + 4) & (vi >= -5) & (vi <= H + 4)
    p, n, rad, z, r_px, ui, vi = (a[near_image] for a in (p, n, rad, z, r_px, ui, vi))
    ndp = np.sum(n * p, axis=1)
    reach = (r_px + 0.5) ** 2
    zbuf = np.full(W * H, np.inf)
    r = int(MAX_RADIUS_PX)
    for du in range(-r, r + 1):
        for dv in range(-r, r + 1):
            px, py = ui + du, vi + dv
            sel = ((du * du + dv * dv) <= reach) & (px >= 0) & (px < W) & (py >= 0) & (py < H)
            if not sel.any():
                continue
            dx = (px[sel] - camera.cx) / camera.fx
            dy = (py[sel] - camera.cy) / camera.fy
            ns, zs, span = n[sel], z[sel], 2.0 * rad[sel]
            denom = ns[:, 0] * dx + ns[:, 1] * dy + ns[:, 2]
            ok = np.abs(denom) > 1e-6
            zd = np.where(ok, ndp[sel] / np.where(ok, denom, 1.0), zs)
            zd = np.maximum(np.clip(zd, zs - span, zs + span), NEAR)
            np.minimum.at(zbuf, py[sel] * W + px[sel], zd)
    return np.where(np.isfinite(zbuf), zbuf, 0.0).reshape(H, W)


def frame_penalty(observed: np.ndarray, rendered: np.ndarray) -> float:
    valid = observed > 0
    compared = valid & (rendered > 0)
    if not compared.any():
        return 0.0
    zo, zr = observed[compared], rendered[compared]
    sigma = 0.0012 + 0.0019 * (zo - 0.4) ** 2
    return float(np.minimum(((zo - zr) / sigma) ** 2, TRUNCATION).sum() / valid.sum())


def independent_score(fragments, trajectory, frames) -> float:
    """Score of the fragment map placed at ``trajectory`` (4x4 matrices by
    node id) against ``frames``.

    Fragment g is seen from frame i of fragment f through the single
    transform (A_f . L_i)^-1 . A_g, with A the updated anchor pose and L
    the frame's fusion-time pose in its fragment.
    """
    anchors = {frag.id: trajectory[frag.ref_frame] for frag in fragments}
    owner = {i: frag for frag in fragments for i in frag.local_poses}
    total = 0.0
    for frame in frames:
        frag = owner[frame.index]
        cam_inv = np.linalg.inv(anchors[frag.id] @ pose_matrix(frag.local_poses[frame.index]))
        parts = []
        for g in fragments:
            M = cam_inv @ anchors[g.id]
            R, t = M[:3, :3], M[:3, 3]
            parts.append((g.surfels.positions @ R.T + t, g.surfels.normals @ R.T, g.surfels.radii))
        total += frame_penalty(frame.depth, render(parts, frame.camera))
    return total


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def load_check_inputs(wl, input_dir):
    """Fragments and scored frames as the sift builds them from its inputs."""
    from loopsift.ingest import load_tum_trajectory
    from loopsift.surfels import DepthFrame, build_fragments, read_depth_raw, read_intrinsics

    camera, scale = read_intrinsics(os.path.join(input_dir, "intrinsics.txt"))
    depth_dir = os.path.join(input_dir, "depth")
    names = sorted(fn for fn in os.listdir(depth_dir) if fn.endswith(".raw"))
    frames = [DepthFrame(read_depth_raw(os.path.join(depth_dir, fn), camera, scale), camera, i)
              for i, fn in enumerate(names)]
    trajectory = load_tum_trajectory(os.path.join(input_dir, wl.trajectory_file))
    fragments = build_fragments(frames, trajectory, k=wl.k, stride=wl.stride)
    return fragments, frames[:: wl.score_every]


def reoptimized_positions(truth, fragments, accepted) -> np.ndarray:
    """Camera positions of the input graph optimized with the accepted
    units' loops, added in acceptance order as the greedy pass does."""
    from loopsift.posegraph import optimize
    from loopsift.sifting import FRAGMENT_LOOP, expand_fragment_loop

    by_id = {c.id: c for c in truth.candidates}
    edges = []
    for unit in accepted:
        cand = by_id[unit]
        members = expand_fragment_loop(cand, fragments) if cand.kind == FRAGMENT_LOOP else [cand]
        edges.extend(m.edge() for m in members)
    result = optimize(truth.graph, edges)
    return np.stack([p.t for p in result.trajectory.poses])


def check_outputs(out_dir, truth, fragments, score_frames) -> CheckResult:
    """Run every check on one sift output directory.

    ``fragments`` and ``score_frames`` are rebuilt by the caller from the
    run's inputs with the sift's own flags.
    """
    res = CheckResult()
    missing = [f for f in OUTPUT_FILES if not os.path.exists(os.path.join(out_dir, f))]
    if missing:
        res.fail("outputs-present", f"missing {', '.join(missing)}")
        return res

    ranking = read_ranking(os.path.join(out_dir, "ranking.csv"))
    trace = read_trace(os.path.join(out_dir, "trace.csv"))
    accepted = read_accepted(os.path.join(out_dir, "accepted.txt"))
    report = read_report(os.path.join(out_dir, "report.txt"))

    # operations: one evaluation per ranked unit and one per greedy step
    res.attempted = len(ranking) + len(trace)
    notes = [note for _, note in report["notes"]]
    res.failed = (sum(1 for _, score in ranking if not math.isfinite(score))
                  + sum(1 for note in notes if note not in ("", "no improvement")))
    if len(notes) != len(trace):
        res.fail("report-trace", f"report.txt lists {len(notes)} greedy steps, "
                                  f"trace.csv {len(trace)}")

    unknown = [i for i in accepted if i not in truth.labels]
    false = [i for i in accepted if i in truth.labels and not truth.labels[i]]
    true_accepted = sum(1 for i in accepted if truth.labels.get(i))
    if unknown or false:
        res.fail("no-false-accepted", f"accepted false {false}, unknown {unknown}")
    if true_accepted == 0:
        res.fail("true-accepted", "no true loop accepted")
    res.info["accepted"] = accepted

    trace_accepted = [i for i, _, ok in trace if ok]
    if not accepted == report.get("accepted") == trace_accepted:
        res.fail("accepted-consistent",
                 f"accepted.txt {accepted}, report.txt {report.get('accepted')}, "
                 f"trace.csv {trace_accepted}")

    baseline, final = report.get("baseline", math.nan), report.get("final", math.nan)
    if not final < baseline:
        res.fail("score-improves", f"final {final} not below baseline {baseline}")
    acc_scores = [s for _, s, ok in trace if ok]
    incumbent, margins = baseline, []  # how far each false unit stayed from acceptance
    for unit, score, ok in trace:
        if truth.labels.get(unit) is False:
            margins.append((score - incumbent) / abs(incumbent))
        incumbent = score if ok else incumbent
    res.info["false_margin"] = min(margins, default=math.inf)
    # the exact final score: the last accepted step's tentative score
    exact_final = acc_scores[-1] if acc_scores else baseline
    if not abs(exact_final - final) <= REPORT_ATOL:
        res.fail("report-final", f"report.txt final {final}, trace.csv {exact_final!r}")

    scores = [s for _, s in ranking]
    if any(b < a for a, b in zip(scores, scores[1:])):
        res.fail("ranking-order", "ranking.csv scores decrease")
    if any(b >= a for a, b in zip(acc_scores, acc_scores[1:])):
        res.fail("acceptance-order", f"accepted scores not strictly falling: {acc_scores}")

    after = read_tum(os.path.join(out_dir, "trajectory_after.txt"))
    if len(after) != truth.frame_count:
        res.fail("trajectory-length", f"{len(after)} poses for {truth.frame_count} frames")
        return res
    positions = np.stack([T[:3, 3] for T in after])
    gt = np.stack([p.t for p in truth.gt_trajectory.poses])
    rmse_after = aligned_rmse(positions, gt)
    rmse_input = aligned_rmse(np.stack([p.t for p in truth.input_trajectory.poses]), gt)
    if not rmse_after <= rmse_input:
        res.fail("rmse-not-worse", f"after {rmse_after:.6g} m above input {rmse_input:.6g} m")

    if not unknown:
        dev = float(np.max(np.abs(reoptimized_positions(truth, fragments, accepted) - positions)))
        res.info["trajectory_dev_m"] = dev
        if not dev <= TRAJ_ATOL_M:
            res.fail("trajectory-matches-accepted",
                     f"trajectory_after.txt is {dev:.3g} m from the graph optimized "
                     f"with loops {accepted}")

    recomputed = independent_score(fragments, after, score_frames)
    res.info["score"] = (exact_final, recomputed)
    if not abs(recomputed - exact_final) <= SCORE_RTOL * abs(exact_final):
        res.fail("score-recompute", f"recomputed {recomputed!r}, trace.csv {exact_final!r}")

    model = read_ply_positions(os.path.join(out_dir, "model_after.ply"))
    res.metrics = {
        "true_loops_accepted": float(true_accepted),
        "traj_rmse_mm": 1000.0 * rmse_after,
        "smd_mm": 1000.0 * float(np.mean(scene_distance(model, truth.scene))),
    }
    return res
