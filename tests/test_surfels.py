import numpy as np
import pytest

from loopsift import geometry as geo
from loopsift import surfels as sf
from loopsift.geometry import Pose
from loopsift.posegraph import Trajectory


CAM = sf.CameraModel(fx=100.0, fy=100.0, cx=15.5, cy=11.5, width=32, height=24)


def plane_frame(depth_value=2.0, index=0, camera=CAM):
    depth = np.full((camera.height, camera.width), float(depth_value))
    return sf.DepthFrame(depth, camera, index)


def translate(x, y, z):
    return Pose(t=np.array([x, y, z], dtype=float))


class TestFuseFrame:
    def test_plane_normals_and_positions(self):
        frame = plane_frame(2.0)
        fused = sf.fuse_frame(sf.SurfelMap.empty(), frame, Pose.identity(), stride=2)
        assert len(fused) > 50
        assert np.max(np.abs(fused.normals - np.array([0.0, 0.0, -1.0]))) < 1e-3
        assert np.max(np.abs(fused.positions[:, 2] - 2.0)) < 1e-6
        assert np.all(fused.weights == 1.0)

    def test_fusing_identical_frame_twice(self):
        frame = plane_frame(2.0)
        once = sf.fuse_frame(sf.SurfelMap.empty(), frame, Pose.identity(), stride=2)
        twice = sf.fuse_frame(once, frame, Pose.identity(), stride=2)
        assert len(twice) == len(once)
        assert np.all(twice.weights == 2.0)
        assert np.max(np.abs(twice.positions - once.positions)) < 1e-9

    def test_two_offset_views_of_plane_stay_on_plane(self):
        # analytic plane-residual oracle: every fused surfel must satisfy z=2
        frame0 = plane_frame(2.0, index=0)
        frame1 = plane_frame(2.0, index=1)
        fused = sf.fuse_frame(sf.SurfelMap.empty(), frame0, Pose.identity(), stride=2)
        fused = sf.fuse_frame(fused, frame1, translate(0.1, 0.0, 0.0), stride=2)
        residual = np.abs(fused.positions[:, 2] - 2.0)
        tol = np.maximum(sf.DEPTH_TOL_ABS, sf.DEPTH_TOL_REL * 2.0)
        assert residual.max() < tol
        assert fused.weights.max() == 2.0  # overlap region got associated

    def test_weight_monotonicity(self):
        frame = plane_frame(1.5)
        m0 = sf.SurfelMap.empty()
        m1 = sf.fuse_frame(m0, frame, Pose.identity())
        m2 = sf.fuse_frame(m1, frame, translate(0.05, 0.0, 0.0))
        assert m1.weights.sum() >= m0.weights.sum()
        assert m2.weights.sum() >= m1.weights.sum()

    def test_normal_invariant_holds(self):
        frame = plane_frame(2.0)
        fused = sf.fuse_frame(sf.SurfelMap.empty(), frame, Pose.identity())
        norms = np.linalg.norm(fused.normals, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-6
        assert np.all(fused.radii > 0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sf.DepthFrame(np.zeros((5, 5)), CAM, 0)

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError):
            sf.fuse_frame(sf.SurfelMap.empty(), plane_frame(), Pose.identity(), stride=0)


class TestFragments:
    @staticmethod
    def frames(n, depth=2.0):
        return [plane_frame(depth, index=k) for k in range(n)]

    @staticmethod
    def identity_trajectory(n):
        return Trajectory.from_poses([Pose.identity() for _ in range(n)])

    def test_tiling(self):
        frames = self.frames(10)
        traj = self.identity_trajectory(10)
        frags = sf.build_fragments(frames, traj, k=3)
        assert [(f.first, f.last) for f in frags] == [(0, 2), (3, 5), (6, 8), (9, 9)]
        assert all(f.frame_count <= 3 for f in frags)
        assert [f.ref_frame for f in frags] == [1, 4, 7, 9]

    def test_k_at_least_n_single_fragment(self):
        frames = self.frames(4)
        traj = self.identity_trajectory(4)
        frags = sf.build_fragments(frames, traj, k=10, stride=2)
        assert len(frags) == 1
        whole = sf.SurfelMap.empty()
        anchor_inv = geo.inverse(traj.pose(frags[0].ref_frame))
        for fr in frames:
            whole = sf.fuse_frame(whole, fr, geo.compose(anchor_inv, traj.pose(fr.index)), stride=2)
        assert len(frags[0].surfels) == len(whole)
        assert np.max(np.abs(frags[0].surfels.positions - whole.positions)) < 1e-12

    def test_k1_matches_single_frame_backprojection(self):
        frames = self.frames(3)
        traj = self.identity_trajectory(3)
        frags = sf.build_fragments(frames, traj, k=1, stride=2)
        assert len(frags) == 3
        for frag, fr in zip(frags, frames):
            single = sf.fuse_frame(sf.SurfelMap.empty(), fr, Pose.identity(), stride=2)
            assert len(frag.surfels) == len(single)
            assert np.max(np.abs(frag.surfels.positions - single.positions)) < 1e-12

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            sf.build_fragments(self.frames(3), self.identity_trajectory(3), k=0)

    def test_missing_pose_rejected(self):
        with pytest.raises(ValueError):
            sf.build_fragments(self.frames(3), self.identity_trajectory(2), k=2)


class TestAssemble:
    @staticmethod
    def make_fragments(n=6, k=3):
        rng = np.random.default_rng(5)
        poses = []
        for i in range(n):
            q = geo.rotvec_to_quat(np.array([0.0, 0.02 * i, 0.0]))
            poses.append(Pose(q, np.array([0.05 * i, 0.0, 0.0])))
        traj = Trajectory.from_poses(poses)
        frames = [plane_frame(2.0, index=i) for i in range(n)]
        return sf.build_fragments(frames, traj, k=k, stride=3), traj

    def test_identity_reassembly(self):
        frags, traj = self.make_fragments()
        model = sf.assemble_model(frags, traj)
        manual = sf.SurfelMap.concatenate(
            [f.surfels.transformed(traj.pose(f.ref_frame)) for f in frags]
        )
        assert len(model) == len(manual)
        assert np.max(np.abs(model.positions - manual.positions)) < 1e-9

    def test_rigid_equivariance(self):
        frags, traj = self.make_fragments()
        g = Pose(geo.rotvec_to_quat(np.array([0.3, -0.2, 0.4])), np.array([1.0, 2.0, -0.5]))
        base = sf.assemble_model(frags, traj)
        moved = sf.assemble_model(frags, traj.transformed(g))
        expected = geo.transform_points(g, base.positions)
        assert np.max(np.abs(moved.positions - expected)) < 1e-9

    def test_known_correction_displaces_one_fragment(self):
        frags, traj = self.make_fragments(n=6, k=3)
        assert len(frags) == 2
        shift = np.array([0.2, 0.0, 0.0])
        new_poses = []
        for node_id, p in traj:
            if node_id >= 3:
                new_poses.append(Pose(p.q, p.t + shift))
            else:
                new_poses.append(p)
        moved = sf.assemble_model(frags, Trajectory(traj.ids, new_poses))
        base = sf.assemble_model(frags, traj)
        n1 = len(frags[0].surfels)
        assert np.max(np.abs(moved.positions[:n1] - base.positions[:n1])) < 1e-12
        delta = moved.positions[n1:] - base.positions[n1:]
        assert np.max(np.abs(delta - shift)) < 1e-12

    def test_missing_reference_pose_rejected(self):
        frags, traj = self.make_fragments()
        short = Trajectory([0], [Pose.identity()])
        with pytest.raises(ValueError):
            sf.assemble_model(frags, short)


class TestIO:
    def test_depth_raw_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(9)
        depth = rng.uniform(0.5, 4.0, size=(24, 32))
        depth[rng.random((24, 32)) < 0.1] = 0.0
        # quantize once so the round trip is exact
        scale = 1000.0
        depth_q = np.round(depth * scale) / scale
        path = tmp_path / "d.raw"
        sf.write_depth_raw(depth_q, path, scale)
        back = sf.read_depth_raw(path, CAM, scale)
        assert np.array_equal(back, depth_q)
        sf.write_depth_raw(back, tmp_path / "d2.raw", scale)
        assert (tmp_path / "d.raw").read_bytes() == (tmp_path / "d2.raw").read_bytes()

    def test_depth_raw_size_mismatch(self, tmp_path):
        path = tmp_path / "bad.raw"
        np.zeros(10, dtype="<u2").tofile(path)
        with pytest.raises(ValueError):
            sf.read_depth_raw(path, CAM, 1000.0)

    def test_intrinsics_round_trip(self, tmp_path):
        path = tmp_path / "intr.txt"
        sf.write_intrinsics(path, CAM, 5000.0)
        cam, scale = sf.read_intrinsics(path)
        assert cam == CAM
        assert scale == 5000.0

    def test_ply_round_trip(self, tmp_path):
        frame = plane_frame(2.0)
        fused = sf.fuse_frame(sf.SurfelMap.empty(), frame, Pose.identity(), stride=4)
        path = tmp_path / "map.ply"
        sf.write_ply(fused, path)
        text = path.read_text()
        assert text.startswith("ply\nformat ascii 1.0\n")
        assert f"element vertex {len(fused)}" in text
        back = sf.read_ply(path)
        assert len(back) == len(fused)
        assert np.max(np.abs(back.positions - fused.positions)) < 1e-6
        assert np.max(np.abs(back.normals - fused.normals)) < 1e-6
        rows = text.split("end_header\n")[1].splitlines()
        assert len(rows) == len(fused)
        assert all(len(row.split()) == 9 and row.endswith(" 128 128 128") for row in rows)
