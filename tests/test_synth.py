import numpy as np
import pytest

from loopsift import geometry as geo
from loopsift import synth
from loopsift.cli import load_inputs
from loopsift.geometry import Pose
from loopsift.ingest import load_depth_sequence
from loopsift.surfels import CameraModel


SMALL = synth.ScenarioConfig(
    frames=40, width=64, height=48, focal=50.0,
    n_true_loops=3, n_false_loops=2, min_loop_gap=15,
)


def small_camera():
    return CameraModel(fx=4.0, fy=4.0, cx=1.5, cy=1.5, width=4, height=4)


class TestRenderSyntheticDepth:
    def test_single_plane_exact(self):
        cam = CameraModel(fx=50.0, fy=50.0, cx=15.5, cy=11.5, width=32, height=24)
        scene = [synth.Plane((0.0, 0.0, 2.0), (0.0, 0.0, -1.0))]
        frame = synth.render_synthetic_depth(scene, Pose.identity(), cam)
        assert np.max(np.abs(frame.depth - 2.0)) == 0.0

    def test_empty_scene_all_invalid(self):
        cam = small_camera()
        frame = synth.render_synthetic_depth([], Pose.identity(), cam)
        assert np.all(frame.depth == 0.0)

    def test_camera_inside_box_matches_hand_ray_cast(self):
        # 16-ray oracle: camera at the center of a 2x2x2 box, all six faces
        # one unit away; each ray hits the face its dominant direction picks
        cam = small_camera()
        box = synth.AxisBox((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
        frame = synth.render_synthetic_depth([box], Pose.identity(), cam)
        for v in range(4):
            for u in range(4):
                d = np.array([(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, 1.0])
                # exact slab exit: t = min over axes of (sign-matched face)/|d|
                t_exit = np.inf
                for axis in range(3):
                    if d[axis] > 0:
                        t_exit = min(t_exit, 1.0 / d[axis])
                    elif d[axis] < 0:
                        t_exit = min(t_exit, -1.0 / d[axis])
                assert frame.depth[v, u] == pytest.approx(t_exit, abs=1e-12)

    def test_nearest_primitive_wins(self):
        cam = small_camera()
        scene = [
            synth.Plane((0.0, 0.0, 3.0), (0.0, 0.0, -1.0)),
            synth.Plane((0.0, 0.0, 1.5), (0.0, 0.0, -1.0)),
        ]
        frame = synth.render_synthetic_depth(scene, Pose.identity(), cam)
        assert np.max(np.abs(frame.depth - 1.5)) == 0.0


class TestSceneSurfaceDistance:
    def test_point_on_box_face(self):
        box = synth.AxisBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
        d = synth.scene_surface_distance([box], np.array([[1.0, 1.0, 0.0]]))
        assert d[0] == pytest.approx(0.0, abs=1e-12)

    def test_point_inside_box(self):
        box = synth.AxisBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
        d = synth.scene_surface_distance([box], np.array([[1.0, 1.0, 0.3]]))
        assert d[0] == pytest.approx(0.3, abs=1e-12)

    def test_point_outside_box(self):
        box = synth.AxisBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        d = synth.scene_surface_distance([box], np.array([[2.0, 2.0, 1.0]]))
        assert d[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_plane_distance(self):
        plane = synth.Plane((0.0, 0.0, 1.0), (0.0, 0.0, 2.0))  # non-unit normal ok
        d = synth.scene_surface_distance([plane], np.array([[5.0, -3.0, 1.7]]))
        assert d[0] == pytest.approx(0.7, abs=1e-12)


class TestGenerate:
    def test_deterministic(self):
        a = synth.generate(SMALL, seed=13)
        b = synth.generate(SMALL, seed=13)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.depth, fb.depth)
        for (ida, pa), (idb, pb) in zip(a.noisy_trajectory, b.noisy_trajectory):
            assert ida == idb
            assert np.array_equal(pa.q, pb.q) and np.array_equal(pa.t, pb.t)
        for (ca, la), (cb, lb) in zip(a.candidates, b.candidates):
            assert la == lb and ca.endpoints == cb.endpoints
            assert np.array_equal(ca.measurement.q, cb.measurement.q)

    def test_different_seeds_differ(self):
        a = synth.generate(SMALL, seed=1)
        b = synth.generate(SMALL, seed=2)
        same = all(
            np.array_equal(pa.t, pb.t)
            for (_, pa), (_, pb) in zip(a.noisy_trajectory, b.noisy_trajectory)
        )
        assert not same

    def test_zero_odometry_noise_keeps_gt(self):
        cfg = synth.ScenarioConfig(
            frames=20, width=32, height=24, focal=25.0,
            sigma_odo_rot=0.0, sigma_odo_trans=0.0,
            n_true_loops=2, n_false_loops=1, min_loop_gap=8,
        )
        scn = synth.generate(cfg, seed=5)
        for (_, pa), (_, pb) in zip(scn.noisy_trajectory, scn.gt_trajectory):
            assert np.max(np.abs(pa.to_matrix() - pb.to_matrix())) < 1e-9

    def test_drift_grows_with_noise(self):
        cfg = synth.ScenarioConfig(
            frames=120, width=32, height=24, focal=25.0,
            n_true_loops=2, n_false_loops=1, min_loop_gap=30,
        )
        scn = synth.generate(cfg, seed=3)
        errs = [
            np.linalg.norm(scn.noisy_trajectory.pose(i).t - scn.gt_trajectory.pose(i).t)
            for i in scn.gt_trajectory.ids
        ]
        assert errs[0] == 0.0
        assert max(errs) > 0.0
        # average late error exceeds average early error (random-walk growth)
        third = len(errs) // 3
        assert np.mean(errs[-third:]) > np.mean(errs[:third])

    def test_label_bounds_hold(self):
        scn = synth.generate(SMALL, seed=21)
        cfg = scn.config
        gt = scn.gt_trajectory
        for cand, label in scn.candidates:
            a, b = cand.endpoints
            rel_gt = geo.compose(geo.inverse(gt.pose(a)), gt.pose(b))
            dev = geo.compose(geo.inverse(rel_gt), cand.measurement)
            dt = np.linalg.norm(dev.t)
            dr = np.degrees(dev.rotation_angle())
            if label:
                assert dt <= cfg.true_noise_trans + 1e-12
                assert dr <= cfg.true_noise_rot_deg + 1e-9
            else:
                assert dt > 5 * cfg.true_noise_trans or dr > 5 * cfg.true_noise_rot_deg

    def test_loop_gap_respected(self):
        scn = synth.generate(SMALL, seed=9)
        for cand, _ in scn.candidates:
            assert abs(cand.endpoints[1] - cand.endpoints[0]) > SMALL.min_loop_gap

    def test_frames_rendered_from_gt(self):
        scn = synth.generate(SMALL, seed=2)
        redone = synth.render_synthetic_depth(
            scn.scene, scn.gt_trajectory.pose(7), scn.frames[7].camera, index=7
        )
        assert np.array_equal(scn.frames[7].depth, redone.depth)

    def test_zero_frames_rejected(self):
        from dataclasses import replace

        with pytest.raises(ValueError):
            synth.generate(replace(SMALL, frames=0), seed=1)

    def test_streams_are_independent(self):
        a = synth.stream(3, "alpha").normal(size=4)
        b = synth.stream(3, "beta").normal(size=4)
        a2 = synth.stream(3, "alpha").normal(size=4)
        assert np.array_equal(a, a2)
        assert not np.array_equal(a, b)


class TestScenarioRoundTrip:
    def test_export_import(self, tmp_path):
        scn = synth.generate(SMALL, seed=17)
        out = tmp_path / "scenario"
        synth.export_scenario(scn, out)

        expected = {"intrinsics.txt", "gt.txt", "noisy.txt", "candidates.csv",
                    "scene.txt", "manifest.txt", "depth"}
        assert expected <= {p.name for p in out.iterdir()}
        assert len(list((out / "depth").glob("*.raw"))) == SMALL.frames

        back = load_inputs(out)
        frames = load_depth_sequence(back.manifest)
        assert len(frames) == len(scn.frames)
        # depth quantized to millimeters on disk
        for fa, fb in zip(scn.frames, frames):
            assert np.max(np.abs(fa.depth - fb.depth)) <= 0.5 / synth.DEPTH_SCALE + 1e-12
        for traj, traj_back in ((scn.noisy_trajectory, back.trajectory),
                                (scn.gt_trajectory, back.gt_trajectory)):
            for (_, pa), (_, pb) in zip(traj, traj_back):
                assert np.max(np.abs(pa.to_matrix() - pb.to_matrix())) < 1e-9
        assert back.labels == scn.labels()
        for (ca, _), cb in zip(scn.candidates, back.candidates):
            assert ca.endpoints == cb.endpoints
            assert np.max(np.abs(ca.measurement.to_matrix() - cb.measurement.to_matrix())) < 1e-12
            assert np.max(np.abs(ca.information - cb.information)) < 1e-9
        assert back.scene == scn.scene
        for edge in back.graph.edges:
            assert np.max(np.abs(edge.information - scn.odometry_information)) < 1e-9

    def test_rerun_byte_identical(self, tmp_path):
        for name in ("one", "two"):
            synth.export_scenario(synth.generate(SMALL, seed=4), tmp_path / name)
        a = (tmp_path / "one" / "candidates.csv").read_bytes()
        b = (tmp_path / "two" / "candidates.csv").read_bytes()
        assert a == b
