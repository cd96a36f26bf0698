"""Evaluation machinery: loop precision/recall, PR curves, trajectory RMSE,
and surface mean distance.

Loop labels derive from ground truth: a candidate counts as true when its
measurement deviates from the ground-truth relative pose by less than
0.1 m and 5 degrees.  Precision and recall follow the usual convention
with one stated edge case: an empty accepted set scores 100% precision at
0% recall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import geometry as geo
from .posegraph import Trajectory

TRUE_LOOP_TRANS_TOL = 0.1  # meters
TRUE_LOOP_ROT_TOL_DEG = 5.0


def derive_labels(candidates, gt_trajectory: Trajectory,
                  trans_tol: float = TRUE_LOOP_TRANS_TOL,
                  rot_tol_deg: float = TRUE_LOOP_ROT_TOL_DEG) -> dict:
    """Ground-truth agreement labels for frame-loop candidates."""
    labels = {}
    for cand in candidates:
        a, b = cand.endpoints
        rel_gt = geo.compose(geo.inverse(gt_trajectory.pose(a)), gt_trajectory.pose(b))
        dev = geo.compose(geo.inverse(rel_gt), cand.measurement)
        labels[cand.id] = bool(
            np.linalg.norm(dev.t) < trans_tol
            and np.degrees(dev.rotation_angle()) < rot_tol_deg
        )
    return labels


def precision_recall(accepted, labels: dict):
    """(precision %, recall %) of the accepted set against the labeled
    candidate universe; empty accepted set reports (100, 0)."""
    accepted = list(accepted)
    for loop_id in accepted:
        if loop_id not in labels:
            raise ValueError(f"loop {loop_id} has no ground-truth label")
    total_true = sum(1 for v in labels.values() if v)
    if not accepted:
        return 100.0, 0.0
    tp = sum(1 for loop_id in accepted if labels[loop_id])
    precision = 100.0 * tp / len(accepted)
    recall = 100.0 * tp / total_true if total_true else 100.0
    return precision, recall


def pr_curve(ranking, labels: dict):
    """Precision/recall while sweeping a cut-point down the ranking.

    Returns one (recall %, precision %) point per ranking prefix; the last
    point sits at 100% recall with the overall candidate precision.
    """
    if not ranking:
        raise ValueError("ranking is empty")
    for loop_id, _ in ranking:
        if loop_id not in labels:
            raise ValueError(f"loop {loop_id} has no ground-truth label")
    total_true = sum(1 for loop_id, _ in ranking if labels[loop_id])
    points = []
    tp = 0
    for k, (loop_id, _) in enumerate(ranking, start=1):
        tp += bool(labels[loop_id])
        precision = 100.0 * tp / k
        recall = 100.0 * tp / total_true if total_true else 100.0
        points.append((recall, precision))
    return points


def write_pr_curve_csv(path, ranking, labels: dict, accepted=()) -> None:
    """PR curve with per-row loop id and an accepted marker column."""
    accepted = set(accepted)
    points = pr_curve(ranking, labels)
    with open(path, "w") as f:
        f.write("recall,precision,loop_id,accepted\n")
        for (recall, precision), (loop_id, _) in zip(points, ranking):
            f.write("%.17g,%.17g,%d,%d\n" % (recall, precision, loop_id, loop_id in accepted))


def trajectory_rmse(estimate: Trajectory, gt: Trajectory, align: bool = True) -> float:
    """RMSE over translational residuals, optionally after closed-form
    rigid alignment of the estimate onto the ground truth."""
    if set(estimate.ids) != set(gt.ids):
        raise ValueError("trajectories cover different node ids")
    est = np.stack([estimate.pose(i).t for i in sorted(estimate.ids)])
    ref = np.stack([gt.pose(i).t for i in sorted(estimate.ids)])
    if align and len(est) >= 2:
        mu_e = est.mean(axis=0)
        mu_r = ref.mean(axis=0)
        W = (ref - mu_r).T @ (est - mu_e)
        U, _, Vt = np.linalg.svd(W)
        S = np.eye(3)
        if np.linalg.det(U @ Vt) < 0:
            S[2, 2] = -1.0
        R = U @ S @ Vt
        est = (R @ (est - mu_e).T).T + mu_r
    return float(np.sqrt(np.mean(np.sum((est - ref) ** 2, axis=-1))))


def surface_mean_distance(model, gt_surface) -> float:
    """Mean distance from model surfel positions to the ground-truth
    surface: analytic when given scene primitives, nearest-neighbor when
    given a point set.  One-directional (model to ground truth)."""
    if len(model) == 0:
        raise ValueError("model has no surfels")
    points = model.positions
    if isinstance(gt_surface, np.ndarray) or (
        isinstance(gt_surface, (list, tuple))
        and len(gt_surface) > 0
        and not hasattr(gt_surface[0], "__dataclass_fields__")
    ):
        ref = np.asarray(gt_surface, dtype=float).reshape(-1, 3)
        if len(ref) == 0:
            raise ValueError("ground-truth point set is empty")
        dists, _ = cKDTree(ref).query(points, k=1)
        return float(np.mean(dists))
    from .synth import scene_surface_distance

    return float(np.mean(scene_surface_distance(gt_surface, points)))


@dataclass
class MetricsReport:
    """The headline numbers of one run, in the shape of the result tables:
    trajectory error, surface error, map consistency, loop precision and
    recall, and candidate counts before/after sifting.  A number the
    inputs cannot give (no loop labels, no ground truth) is None and
    reads ``-``."""

    precision: float | None
    recall: float | None
    trajectory_rmse: float | None = None
    smd: float | None = None
    consistency: float | None = None
    loops_before: int = 0
    loops_after: int = 0

    def __post_init__(self):
        for value in (self.precision, self.recall):
            if value is not None and not 0.0 <= value <= 100.0:
                raise ValueError("precision/recall must be percentages in [0, 100]")

    @staticmethod
    def _fmt(value, pattern="%.6g"):
        return "-" if value is None else pattern % value

    def to_text(self) -> str:
        rows = [
            ("traj. RMSE (m)", self._fmt(self.trajectory_rmse)),
            ("SMD (m)", self._fmt(self.smd)),
            ("consistency", self._fmt(self.consistency)),
            ("precision (%)", self._fmt(self.precision, "%.1f")),
            ("recall (%)", self._fmt(self.recall, "%.1f")),
            ("loops", "before %d / after %d" % (self.loops_before, self.loops_after)),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join("%-*s  %s" % (width, name, val) for name, val in rows) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("metric,value\n")
            f.write("traj_rmse_m,%s\n" % self._fmt(self.trajectory_rmse, "%.17g"))
            f.write("smd_m,%s\n" % self._fmt(self.smd, "%.17g"))
            f.write("consistency,%s\n" % self._fmt(self.consistency, "%.17g"))
            f.write("precision_pct,%s\n" % self._fmt(self.precision, "%.17g"))
            f.write("recall_pct,%s\n" % self._fmt(self.recall, "%.17g"))
            f.write("loops_before,%d\n" % self.loops_before)
            f.write("loops_after,%d\n" % self.loops_after)
