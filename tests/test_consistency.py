import numpy as np
import pytest

from loopsift import consistency as cons
from loopsift import geometry as geo
from loopsift import surfels as sf
from loopsift.geometry import Pose
from loopsift.posegraph import Trajectory


CAM = sf.CameraModel(fx=100.0, fy=100.0, cx=8.0, cy=6.0, width=17, height=13)


def single_surfel_map(position, normal, radius):
    return sf.SurfelMap(
        np.array([position], dtype=float),
        np.array([normal], dtype=float),
        np.ones(1), np.array([radius], dtype=float),
    )


class TestRenderDepth:
    def test_single_surfel_on_axis(self):
        map_ = single_surfel_map([0, 0, 2.0], [0, 0, -1.0], 0.05)
        out = cons.render_depth(map_, Pose.identity(), CAM)
        assert out.depth[6, 8] == pytest.approx(2.0, abs=1e-12)

    def test_empty_map(self):
        out = cons.render_depth(sf.SurfelMap.empty(), Pose.identity(), CAM)
        assert np.all(out.depth == 0.0)

    def test_z_buffer_nearest_wins(self):
        near = single_surfel_map([0, 0, 1.0], [0, 0, -1.0], 0.03)
        far = single_surfel_map([0, 0, 3.0], [0, 0, -1.0], 0.09)
        map_ = sf.SurfelMap.concatenate([far, near])
        out = cons.render_depth(map_, Pose.identity(), CAM)
        assert out.depth[6, 8] == pytest.approx(1.0, abs=1e-12)

    def test_back_facing_skipped(self):
        map_ = single_surfel_map([0, 0, 2.0], [0, 0, 1.0], 0.05)
        out = cons.render_depth(map_, Pose.identity(), CAM)
        assert np.all(out.depth == 0.0)

    def test_slanted_plane_depth_is_exact(self):
        # disk depth along the pixel ray, not the center depth
        normal = np.array([-1.0, 0.0, -1.0]) / np.sqrt(2.0)
        map_ = single_surfel_map([0, 0, 2.0], normal, 0.08)
        out = cons.render_depth(map_, Pose.identity(), CAM)
        # pixel one to the right of center: ray (1/fx, 0, 1); plane x + z = 2
        # depth satisfies d/fx + d = 2 -> d = 2 fx / (fx + 1)
        expected = 2.0 * CAM.fx / (CAM.fx + 1.0)
        assert out.depth[6, 9] == pytest.approx(expected, abs=1e-9)


def make_plane_scene(camera=None, n_frames=3, depth=2.0):
    camera = camera or CAM
    frames = []
    poses = []
    for k in range(n_frames):
        img = np.full((camera.height, camera.width), float(depth))
        frames.append(sf.DepthFrame(img, camera, k))
        poses.append(Pose(t=np.array([0.03 * k, 0.0, 0.0])))
    traj = Trajectory.from_poses(poses)
    fused = sf.SurfelMap.empty()
    for fr, p in zip(frames, poses):
        fused = sf.fuse_frame(fused, fr, p, stride=2)
    return fused, frames, traj


class TestScoreMap:
    def test_self_consistency_on_plane_toy(self):
        fused, frames, traj = make_plane_scene()
        score = cons.score_map(fused, frames, traj)
        assert score.value < 0.1
        assert score.pixels_evaluated > 0

    def test_forced_violation_hits_truncation(self):
        fused, frames, traj = make_plane_scene()
        moved = fused.transformed(Pose(t=np.array([0.0, 0.0, -1.0])))
        score = cons.score_map(moved, frames, traj)
        expected = 0.0
        for (idx, val, n_comp), frame in zip(score.per_frame, frames):
            n_valid = int((frame.depth > 0).sum())
            covered_fraction = n_comp / n_valid
            expected += cons.TRUNCATION * covered_fraction
            assert val == pytest.approx(cons.TRUNCATION * covered_fraction, abs=1e-9)
        assert score.value == pytest.approx(expected, abs=1e-6)
        assert all(val > 0 for _, val, _ in score.per_frame)

    def test_hand_computed_two_by_two(self):
        # frozen hand-computed oracle over 4 pixels:
        #   camera fx=fy=2, cx=cy=0.5, 2x2 image; surfels sit exactly on the
        #   pixel rays at depths 1, 2, 3, 4; observations 1.1, 2.0, 2.5, 0.
        #   sigma(1.1) = 0.0012 + 0.0019*0.49   -> (0.1/sigma)^2 > 16 -> 16
        #   sigma(2.0): exact match             -> 0
        #   sigma(2.5) = 0.0012 + 0.0019*4.41   -> (0.5/sigma)^2 > 16 -> 16
        #   fourth pixel invalid (z=0)          -> excluded
        #   frame score = (16 + 0 + 16) / 3 valid pixels = 32/3
        cam = sf.CameraModel(fx=2.0, fy=2.0, cx=0.5, cy=0.5, width=2, height=2)
        positions = []
        for (u, v), z in zip([(0, 0), (1, 0), (0, 1), (1, 1)], [1.0, 2.0, 3.0, 4.0]):
            positions.append([(u - 0.5) / 2.0 * z, (v - 0.5) / 2.0 * z, z])
        map_ = sf.SurfelMap(
            np.array(positions),
            np.tile([0.0, 0.0, -1.0], (4, 1)),
            np.ones(4),
            np.array([0.2, 0.4, 0.6, 0.8]),
        )
        obs = np.array([[1.1, 2.0], [2.5, 0.0]])
        frame = sf.DepthFrame(obs, cam, 0)
        score = cons.score_map(map_, [frame], Trajectory.from_poses([Pose.identity()]))
        assert score.value == pytest.approx(32.0 / 3.0, abs=1e-12)
        assert score.pixels_evaluated == 3

    def test_rigid_invariance(self):
        fused, frames, traj = make_plane_scene()
        base = cons.score_map(fused, frames, traj)
        g = Pose(geo.rotvec_to_quat(np.array([0.2, -0.3, 0.1])), np.array([5.0, -1.0, 2.0]))
        moved = cons.score_map(fused.transformed(g), frames, traj.transformed(g))
        assert moved.value == pytest.approx(base.value, abs=1e-6)

    def test_truncation_bounds_score(self):
        fused, frames, traj = make_plane_scene()
        moved = fused.transformed(Pose(t=np.array([0.5, 0.5, -0.7])))
        score = cons.score_map(moved, frames, traj)
        per_frame_bound = cons.TRUNCATION
        for _, val, _ in score.per_frame:
            assert 0.0 <= val <= per_frame_bound + 1e-12
        assert score.value <= cons.TRUNCATION * len(frames)

    def test_deterministic(self):
        fused, frames, traj = make_plane_scene()
        a = cons.score_map(fused, frames, traj)
        b = cons.score_map(fused, frames, traj)
        assert a.value == b.value
        assert a.per_frame == b.per_frame

    def test_value_is_sum_of_breakdown(self):
        fused, frames, traj = make_plane_scene()
        score = cons.score_map(fused, frames, traj)
        assert score.value == pytest.approx(sum(v for _, v, _ in score.per_frame), abs=1e-9)

    def test_empty_frame_list_rejected(self):
        fused, _, traj = make_plane_scene()
        with pytest.raises(ValueError):
            cons.score_map(fused, [], traj)
