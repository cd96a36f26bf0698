import numpy as np
import pytest

from loopsift import evaluation as ev
from loopsift import geometry as geo
from loopsift import synth
from loopsift.geometry import Pose
from loopsift.posegraph import Trajectory
from loopsift.surfels import SurfelMap


def map_from_points(points):
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    return SurfelMap(points, np.tile([0.0, 0.0, -1.0], (n, 1)), np.ones(n), np.full(n, 0.01))


class TestPrecisionRecall:
    def test_all_true_accepted(self):
        labels = {0: True, 1: True, 2: True, 3: False}
        assert ev.precision_recall([0, 1, 2], labels) == (100.0, 100.0)

    def test_empty_accepted_convention(self):
        labels = {0: True, 1: False}
        assert ev.precision_recall([], labels) == (100.0, 0.0)

    def test_arithmetic(self):
        labels = {k: k < 10 for k in range(20)}  # 10 true
        accepted = [0, 1, 2, 15]  # TP=3 FP=1
        precision, recall = ev.precision_recall(accepted, labels)
        assert precision == pytest.approx(75.0)
        assert recall == pytest.approx(30.0)

    def test_permutation_invariant(self):
        labels = {k: k % 2 == 0 for k in range(8)}
        a = ev.precision_recall([0, 3, 4], labels)
        b = ev.precision_recall([4, 0, 3], labels)
        assert a == b

    def test_unlabeled_id_rejected(self):
        with pytest.raises(ValueError):
            ev.precision_recall([5], {0: True})


class TestPrCurve:
    def test_all_true(self):
        ranking = [(k, float(k)) for k in range(4)]
        labels = {k: True for k in range(4)}
        points = ev.pr_curve(ranking, labels)
        assert all(p == pytest.approx(100.0) for _, p in points)
        assert points[-1][0] == pytest.approx(100.0)

    def test_single_false_last_drops_at_end(self):
        ranking = [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]
        labels = {0: True, 1: True, 2: True, 3: False}
        points = ev.pr_curve(ranking, labels)
        assert [p for _, p in points[:3]] == [pytest.approx(100.0)] * 3
        assert points[2][0] == pytest.approx(100.0)  # all true found
        assert points[3][1] == pytest.approx(75.0)  # precision drops only at the end

    def test_matches_exhaustive_prefix_oracle(self):
        rng = np.random.default_rng(5)
        labels = {k: bool(rng.integers(0, 2)) for k in range(5)}
        labels[0] = True  # at least one true
        order = rng.permutation(5)
        ranking = [(int(i), float(k)) for k, i in enumerate(order)]
        points = ev.pr_curve(ranking, labels)
        total_true = sum(labels.values())
        for k in range(1, 6):
            prefix = [i for i, _ in ranking[:k]]
            tp = sum(labels[i] for i in prefix)
            assert points[k - 1][1] == pytest.approx(100.0 * tp / k)
            assert points[k - 1][0] == pytest.approx(100.0 * tp / total_true)

    def test_final_point_is_candidate_precision(self):
        labels = {0: True, 1: False, 2: True, 3: False, 4: False}
        ranking = [(k, float(k)) for k in range(5)]
        points = ev.pr_curve(ranking, labels)
        assert points[-1][0] == pytest.approx(100.0)
        assert points[-1][1] == pytest.approx(100.0 * 2 / 5)

    def test_csv_export(self, tmp_path):
        labels = {0: True, 1: False}
        ranking = [(0, 1.0), (1, 2.0)]
        path = tmp_path / "pr.csv"
        ev.write_pr_curve_csv(path, ranking, labels, accepted=[0])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "recall,precision,loop_id,accepted"
        assert lines[1].endswith(",0,1")
        assert lines[2].endswith(",1,0")


class TestTrajectoryRmse:
    def test_identical_is_zero(self):
        traj = Trajectory.from_poses([Pose(t=np.array([k, 0.0, 0.0])) for k in range(5)])
        assert ev.trajectory_rmse(traj, traj, align=False) == 0.0

    def test_alignment_removes_gauge(self):
        rng = np.random.default_rng(8)
        poses = [Pose(geo.rotvec_to_quat(rng.normal(0, 0.4, 3)), rng.normal(0, 2, 3))
                 for _ in range(10)]
        gt = Trajectory.from_poses(poses)
        g = Pose(geo.rotvec_to_quat(np.array([0.3, 0.1, -0.2])), np.array([4.0, -1.0, 2.0]))
        moved = gt.transformed(g)
        assert ev.trajectory_rmse(moved, gt, align=True) < 1e-9
        assert ev.trajectory_rmse(moved, gt, align=False) > 1.0

    def test_two_pose_displacement(self):
        gt = Trajectory.from_poses([Pose(), Pose(t=np.array([1.0, 0.0, 0.0]))])
        est = Trajectory.from_poses(
            [Pose(), Pose(t=np.array([1.0, 0.1, 0.0]))]
        )
        out = ev.trajectory_rmse(est, gt, align=False)
        assert out == pytest.approx(np.sqrt(0.01 / 2), abs=1e-12)

    def test_align_never_worse(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            gt = Trajectory.from_poses(
                [Pose(geo.rotvec_to_quat(rng.normal(0, 0.3, 3)), rng.normal(0, 1, 3))
                 for _ in range(8)]
            )
            est = Trajectory.from_poses(
                [Pose(p.q, p.t + rng.normal(0, 0.2, 3)) for _, p in gt]
            )
            aligned = ev.trajectory_rmse(est, gt, align=True)
            raw = ev.trajectory_rmse(est, gt, align=False)
            assert aligned <= raw + 1e-12

    def test_id_mismatch_rejected(self):
        a = Trajectory.from_poses([Pose(), Pose()])
        b = Trajectory([3, 4], [Pose(), Pose()])
        with pytest.raises(ValueError):
            ev.trajectory_rmse(a, b)


class TestSurfaceMeanDistance:
    def test_points_on_plane(self):
        plane = synth.Plane((0.0, 0.0, 2.0), (0.0, 0.0, 1.0))
        pts = np.column_stack([np.linspace(-1, 1, 20), np.linspace(-1, 1, 20), np.full(20, 2.0)])
        assert ev.surface_mean_distance(map_from_points(pts), [plane]) < 1e-9

    def test_offset_plane(self):
        plane = synth.Plane((0.0, 0.0, 2.0), (0.0, 0.0, 1.0))
        pts = np.column_stack([np.zeros(10), np.arange(10.0), np.full(10, 2.25)])
        assert ev.surface_mean_distance(map_from_points(pts), [plane]) == pytest.approx(0.25, abs=1e-9)

    def test_matches_brute_force_point_set(self):
        rng = np.random.default_rng(12)
        model_pts = rng.uniform(-2, 2, (100, 3))
        gt_pts = rng.uniform(-2, 2, (200, 3))
        fast = ev.surface_mean_distance(map_from_points(model_pts), gt_pts)
        brute = np.mean(
            [np.min(np.linalg.norm(gt_pts - p, axis=1)) for p in model_pts]
        )
        assert fast == pytest.approx(brute, abs=1e-12)

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            ev.surface_mean_distance(SurfelMap.empty(), np.zeros((5, 3)))


class TestDeriveLabels:
    def test_agrees_with_synth_labels(self):
        cfg = synth.ScenarioConfig(frames=40, width=32, height=24, focal=25.0,
                                   n_true_loops=3, n_false_loops=2, min_loop_gap=15)
        scn = synth.generate(cfg, seed=6)
        derived = ev.derive_labels(scn.loop_candidates(), scn.gt_trajectory)
        assert derived == scn.labels()


class TestMetricsReport:
    def test_text_layout(self):
        report = ev.MetricsReport(
            precision=100.0, recall=30.0, trajectory_rmse=0.052, smd=0.018,
            consistency=77.6, loops_before=2135, loops_after=34,
        )
        text = report.to_text()
        assert "traj. RMSE" in text
        assert "SMD" in text
        assert "before 2135 / after 34" in text
        assert "100.0" in text

    def test_csv(self, tmp_path):
        report = ev.MetricsReport(precision=75.0, recall=30.0, loops_before=4, loops_after=3)
        path = tmp_path / "metrics.csv"
        report.write_csv(path)
        content = path.read_text()
        assert "precision_pct,75" in content
        assert "traj_rmse_m,-" in content

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            ev.MetricsReport(precision=120.0, recall=0.0)
