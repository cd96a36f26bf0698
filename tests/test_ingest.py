import numpy as np
import pytest

from loopsift import geometry as geo
from loopsift import ingest
from loopsift.errors import ParseError
from loopsift.geometry import Pose
from loopsift.posegraph import Trajectory
from loopsift.sifting import FRAGMENT_LOOP, LoopCandidate
from loopsift.surfels import CameraModel, write_depth_raw, write_intrinsics


def random_trajectory(n=6, seed=3):
    rng = np.random.default_rng(seed)
    poses = [
        Pose(geo.rotvec_to_quat(rng.normal(0, 0.5, 3)), rng.normal(0, 2, 3)) for _ in range(n)
    ]
    return Trajectory.from_poses(poses)


class TestTumTrajectory:
    def test_single_identity_line(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0 0 0 0 0 0 0 1\n")
        traj = ingest.load_tum_trajectory(path)
        assert len(traj) == 1
        assert np.max(np.abs(traj.pose(0).to_matrix() - np.eye(4))) < 1e-15

    def test_comment_only_file_rejected(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("# just a comment\n# another\n")
        with pytest.raises(ParseError):
            ingest.load_tum_trajectory(path)

    def test_round_trip(self, tmp_path):
        traj = random_trajectory()
        path = tmp_path / "traj.txt"
        ingest.write_tum_trajectory(traj, path)
        back = ingest.load_tum_trajectory(path)
        assert back.ids == traj.ids
        for node_id in traj.ids:
            assert np.max(np.abs(back.pose(node_id).to_matrix()
                                 - traj.pose(node_id).to_matrix())) < 1e-9

    def test_malformed_line_names_position(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0 0 0 0 0 0 0 1\n1 2 3\n")
        with pytest.raises(ParseError) as err:
            ingest.load_tum_trajectory(path)
        assert ":2" in str(err.value)

    def test_non_unit_quaternion_warns_and_renormalizes(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0 1 2 3 0 0 0 1.01\n")
        with pytest.warns(UserWarning):
            traj = ingest.load_tum_trajectory(path)
        assert abs(np.linalg.norm(traj.pose(0).q) - 1.0) < 1e-12


class TestMatchLog:
    def test_identity_entry(self, tmp_path):
        path = tmp_path / "matches.log"
        path.write_text(
            "0 2 3\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
        )
        loops, total = ingest.load_match_log(path)
        assert total == 3
        assert len(loops) == 1
        assert loops[0].kind == FRAGMENT_LOOP
        assert loops[0].endpoints == (0, 2)
        assert np.max(np.abs(loops[0].measurement.to_matrix() - np.eye(4))) < 1e-12

    def test_truncated_entry_rejected(self, tmp_path):
        path = tmp_path / "matches.log"
        path.write_text("0 2 3\n1 0 0 0\n0 1 0 0\n")
        with pytest.raises(ParseError):
            ingest.load_match_log(path)

    def test_non_rigid_matrix_names_entry(self, tmp_path):
        path = tmp_path / "matches.log"
        path.write_text(
            "0 1 2\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
            "1 2 2\n2 0 0 0.5\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
        )
        with pytest.raises(ParseError) as err:
            ingest.load_match_log(path)
        assert "entry 1" in str(err.value)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        loops = []
        for k in range(4):
            meas = Pose(geo.rotvec_to_quat(rng.normal(0, 0.6, 3)), rng.normal(0, 1.5, 3))
            loops.append(
                LoopCandidate(id=k, kind=FRAGMENT_LOOP, endpoints=(k, k + 3),
                              measurement=meas, information=np.eye(6))
            )
        path = tmp_path / "matches.log"
        ingest.write_match_log(loops, path, total=8)
        back, total = ingest.load_match_log(path)
        assert total == 8
        assert len(back) == len(loops)
        for a, b in zip(loops, back):
            assert a.endpoints == b.endpoints
            assert np.max(np.abs(a.measurement.to_matrix() - b.measurement.to_matrix())) < 1e-12

    def test_total_mismatch_names_entry(self, tmp_path):
        path = tmp_path / "matches.log"
        path.write_text(
            "0 1 3\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
            "1 2 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
        )
        with pytest.raises(ParseError, match="entry 1: total 4"):
            ingest.load_match_log(path)

    def test_fragment_id_outside_total_rejected(self, tmp_path):
        path = tmp_path / "matches.log"
        path.write_text("0 3 3\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
        with pytest.raises(ParseError, match="entry 0: fragment ids 0 3 outside 0..2"):
            ingest.load_match_log(path)

    def test_empty_log_has_no_total(self, tmp_path):
        path = tmp_path / "matches.log"
        path.write_text("")
        assert ingest.load_match_log(path) == ([], None)


class TestManifestAndDepth:
    @staticmethod
    def make_dataset(root, n_frames=3, width=8, height=6, depth_scale=5000.0):
        cam = CameraModel(fx=10.0, fy=10.0, cx=3.5, cy=2.5, width=width, height=height)
        (root / "depth").mkdir(parents=True)
        rng = np.random.default_rng(0)
        frames = []
        for k in range(n_frames):
            depth = np.round(rng.uniform(0.5, 2.0, (height, width)) * depth_scale) / depth_scale
            depth[0, 0] = 0.0
            write_depth_raw(depth, root / "depth" / f"frame_{k:06d}.raw", depth_scale)
            frames.append(depth)
        write_intrinsics(root / "intrinsics.txt", cam, depth_scale)
        ingest.write_tum_trajectory(
            Trajectory.from_poses([Pose() for _ in range(n_frames)]), root / "traj.txt"
        )
        (root / "manifest.txt").write_text(
            "depth_dir=depth\nintrinsics=intrinsics.txt\n"
            f"depth_scale={depth_scale}\ntrajectory=traj.txt\n"
        )
        return cam, frames

    def test_load_manifest_and_sequence(self, tmp_path):
        cam, frames = self.make_dataset(tmp_path)
        manifest = ingest.load_manifest(tmp_path / "manifest.txt")
        assert manifest.camera == cam
        assert len(manifest.depth_files) == 3
        loaded = ingest.load_depth_sequence(manifest)
        assert len(loaded) == 3
        for frame, expected in zip(loaded, frames):
            assert np.array_equal(frame.depth, expected)
        assert loaded[0].depth[0, 0] == 0.0  # invalid stays invalid

    def test_uniform_depth_value(self, tmp_path):
        cam = CameraModel(fx=10.0, fy=10.0, cx=3.5, cy=2.5, width=8, height=6)
        (tmp_path / "depth").mkdir()
        raw = np.full((6, 8), 5000, dtype="<u2")
        raw.tofile(tmp_path / "depth" / "frame_000000.raw")
        write_intrinsics(tmp_path / "intrinsics.txt", cam, 5000.0)
        ingest.write_tum_trajectory(Trajectory.from_poses([Pose()]), tmp_path / "traj.txt")
        (tmp_path / "manifest.txt").write_text(
            "depth_dir=depth\nintrinsics=intrinsics.txt\ndepth_scale=5000\ntrajectory=traj.txt\n"
        )
        frames = ingest.load_depth_sequence(ingest.load_manifest(tmp_path / "manifest.txt"))
        assert np.all(frames[0].depth == 1.0)

    def test_missing_key_rejected(self, tmp_path):
        self.make_dataset(tmp_path)
        (tmp_path / "manifest.txt").write_text("depth_dir=depth\n")
        with pytest.raises(ParseError):
            ingest.load_manifest(tmp_path / "manifest.txt")

    def test_missing_file_rejected(self, tmp_path):
        self.make_dataset(tmp_path)
        (tmp_path / "manifest.txt").write_text(
            "depth_dir=depth\nintrinsics=intrinsics.txt\n"
            "depth_scale=5000\ntrajectory=missing.txt\n"
        )
        with pytest.raises(ParseError):
            ingest.load_manifest(tmp_path / "manifest.txt")

    def test_size_mismatch_rejected(self, tmp_path):
        self.make_dataset(tmp_path)
        np.zeros(7, dtype="<u2").tofile(tmp_path / "depth" / "frame_000001.raw")
        manifest = ingest.load_manifest(tmp_path / "manifest.txt")
        with pytest.raises(ParseError):
            ingest.load_depth_sequence(manifest)
