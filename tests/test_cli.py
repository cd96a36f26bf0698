import os
import shutil

import numpy as np
import pytest

from loopsift import cli, synth
from loopsift import geometry as geo
from loopsift.ingest import write_match_log, write_tum_trajectory
from loopsift.posegraph import write_g2o
from loopsift.sifting import FRAGMENT_LOOP, LoopCandidate
from loopsift.surfels import write_depth_raw, write_intrinsics


SYNTH_ARGS = [
    "synth", "--seed", "7", "--frames", "36", "--width", "48", "--height", "36",
    "--focal", "40", "--true-loops", "3", "--false-loops", "2", "--min-loop-gap", "14",
]


def run_synth(out_dir, seed="7"):
    args = list(SYNTH_ARGS)
    args[2] = seed
    return cli.main(args + ["--out", str(out_dir)])


def run_sift(scenario_dir, out_dir, threads="1"):
    return cli.main([
        "sift", "--input", str(scenario_dir), "--out", str(out_dir),
        "--k", "6", "--stride", "4", "--score-every", "4", "--threads", threads,
    ])


def sift_outputs(out_dir):
    return {name: (out_dir / name).read_bytes() for name in
            ("ranking.csv", "trace.csv", "accepted.txt", "trajectory_after.txt")}


def read_metrics(out_dir):
    lines = (out_dir / "metrics.csv").read_text().strip().split("\n")[1:]
    return dict(line.split(",") for line in lines)


def write_dataset(root):
    """Plain dataset manifest of a 36-frame synthetic run: raw depth, TUM
    trajectory, g2o odometry graph, and a match log of three true fragment
    loops, each pairing a 6-frame fragment with its revisit one lap later."""
    config = synth.ScenarioConfig(frames=36, width=48, height=36, focal=40.0,
                                  n_true_loops=0, n_false_loops=0, min_loop_gap=14)
    scenario = synth.generate(config, seed=7)
    os.makedirs(root / "depth")
    write_intrinsics(root / "intrinsics.txt", scenario.frames[0].camera, synth.DEPTH_SCALE)
    for frame in scenario.frames:
        write_depth_raw(frame.depth, root / "depth" / ("frame_%06d.raw" % frame.index),
                        synth.DEPTH_SCALE)
    write_tum_trajectory(scenario.noisy_trajectory, root / "trajectory.txt")
    write_g2o(synth.scenario_graph(scenario), root / "posegraph.g2o")
    gt = scenario.gt_trajectory
    ref_frames = range(2, 36, 6)  # middle frame of each 6-frame fragment
    loops = [
        LoopCandidate(id=a, kind=FRAGMENT_LOOP, endpoints=(a, a + 3),
                      measurement=geo.compose(geo.inverse(gt.pose(ref_frames[a])),
                                              gt.pose(ref_frames[a + 3])))
        for a in range(3)
    ]
    write_match_log(loops, root / "matches.log", total=6)
    (root / "manifest.txt").write_text(
        "depth_dir=depth\nintrinsics=intrinsics.txt\ndepth_scale=1000\n"
        "trajectory=trajectory.txt\nposegraph=posegraph.g2o\nmatches=matches.log\n"
    )


@pytest.fixture(scope="module")
def dataset_run(tmp_path_factory):
    """A dataset manifest and the output of one sift on it."""
    root = tmp_path_factory.mktemp("dataset")
    write_dataset(root / "input")
    assert run_sift(root / "input", root / "sift") == 0
    return root / "input", root / "sift"


class TestSynthCommand:
    def test_writes_scenario_directory(self, tmp_path, capsys):
        assert run_synth(tmp_path / "scn") == 0
        out = capsys.readouterr().out
        assert "frames" in out and "candidates" in out
        scn = tmp_path / "scn"
        assert (scn / "candidates.csv").exists()
        assert (scn / "gt.txt").exists() and (scn / "noisy.txt").exists()
        assert len(list((scn / "depth").glob("*.raw"))) == 36

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        run_synth(tmp_path / "a")
        run_synth(tmp_path / "b")
        assert (tmp_path / "a" / "candidates.csv").read_bytes() == \
               (tmp_path / "b" / "candidates.csv").read_bytes()
        assert (tmp_path / "a" / "noisy.txt").read_bytes() == \
               (tmp_path / "b" / "noisy.txt").read_bytes()

    def test_invalid_output_path_fails(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = cli.main(SYNTH_ARGS + ["--out", str(blocker / "nested")])
        assert code == cli.EXIT_IO


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("scn")
    assert run_synth(path) == 0
    return path


@pytest.fixture
def scenario_run(scenario_dir, tmp_path):
    """A private copy of the scenario and the output of one sift on it."""
    input_dir, out = tmp_path / "scn", tmp_path / "sift"
    shutil.copytree(scenario_dir, input_dir)
    assert run_sift(input_dir, out) == 0
    return input_dir, out


class TestSiftCommand:

    def test_outputs_and_structure(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "sift"
        assert run_sift(scenario_dir, out) == 0
        for name in ("ranking.csv", "trace.csv", "accepted.txt", "report.txt",
                     "model_before.ply", "model_after.ply", "metrics.txt",
                     "metrics.csv", "pr_curve.csv",
                     "trajectory_before.txt", "trajectory_after.txt"):
            assert (out / name).exists(), name
        trace_lines = (out / "trace.csv").read_text().strip().split("\n")
        assert len(trace_lines) == 1 + 5  # header + one row per candidate
        accepted = [int(x) for x in (out / "accepted.txt").read_text().split()]
        assert set(accepted) <= set(range(5))
        stdout = capsys.readouterr().out
        assert "loops" in stdout

    def test_missing_input_fails_with_parse_code(self, tmp_path):
        code = cli.main(["sift", "--input", str(tmp_path / "nowhere"),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_PARSE

    def test_zero_candidates_keeps_baseline(self, tmp_path):
        scn = tmp_path / "scn"
        args = list(SYNTH_ARGS) + ["--out", str(scn)]
        args[args.index("--true-loops") + 1] = "0"
        args[args.index("--false-loops") + 1] = "0"
        assert cli.main(args) == 0
        out = tmp_path / "out"
        assert run_sift(scn, out) == 0
        assert (out / "accepted.txt").read_text().strip() == ""
        metrics = dict(
            line.split(",") for line in
            (out / "metrics.csv").read_text().strip().split("\n")[1:]
        )
        assert metrics["loops_before"] == "0" and metrics["loops_after"] == "0"
        # final model equals the baseline model when nothing is accepted
        assert (out / "model_before.ply").read_bytes() == (out / "model_after.ply").read_bytes()

    def test_deterministic_across_runs_and_threads(self, scenario_dir, tmp_path):
        outs = []
        for name, threads in (("s1", "1"), ("s2", "1"), ("s4", "2")):
            out = tmp_path / name
            assert run_sift(scenario_dir, out, threads=threads) == 0
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]


    @pytest.mark.parametrize("flag", ["--k", "--stride", "--score-every", "--threads"])
    def test_non_positive_flag_rejected(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sift", "--input", str(tmp_path), "--out", str(tmp_path / "out"),
                      flag, "0"])
        assert exc.value.code == cli.EXIT_PARSE
        assert "'0' is not a positive integer" in capsys.readouterr().err

    def test_ground_truth_lines_do_not_change_outputs(self, scenario_dir, tmp_path):
        bare = tmp_path / "bare"
        shutil.copytree(scenario_dir, bare)
        manifest = (bare / "manifest.txt").read_text().split("\n")
        (bare / "manifest.txt").write_text("\n".join(
            line for line in manifest
            if not line.startswith(("gt_trajectory=", "scene="))))
        assert run_sift(scenario_dir, tmp_path / "full") == 0
        assert run_sift(bare, tmp_path / "bare_out") == 0
        assert sift_outputs(tmp_path / "full") == sift_outputs(tmp_path / "bare_out")
        assert read_metrics(tmp_path / "full")["traj_rmse_m"] != "-"
        assert read_metrics(tmp_path / "bare_out")["traj_rmse_m"] == "-"
        assert read_metrics(tmp_path / "bare_out")["smd_m"] == "-"


class TestDatasetManifest:
    def test_sift_with_g2o_graph_and_match_log(self, dataset_run):
        _, out = dataset_run
        assert (out / "accepted.txt").read_text().split()  # at least one loop kept
        trace_lines = (out / "trace.csv").read_text().strip().split("\n")
        assert len(trace_lines) == 1 + 3  # one atomic unit per fragment loop
        assert not (out / "pr_curve.csv").exists()

    def test_unlabeled_precision_and_recall_read_dash(self, dataset_run):
        _, out = dataset_run
        metrics = read_metrics(out)
        assert int(metrics["loops_after"]) >= 1
        assert metrics["precision_pct"] == "-" and metrics["recall_pct"] == "-"
        rows = [line.split() for line in (out / "metrics.txt").read_text().splitlines()]
        assert ["precision", "(%)", "-"] in rows and ["recall", "(%)", "-"] in rows


class TestInputCrossChecks:
    """Inputs that contradict each other exit with the parse code, naming
    the file, before any fragment is fused."""

    @staticmethod
    def expect_parse_error(input_dir, out_dir, capsys, filename, k="6"):
        code = cli.main(["sift", "--input", str(input_dir), "--out", str(out_dir), "--k", k])
        assert code == cli.EXIT_PARSE
        assert filename in capsys.readouterr().err
        assert not out_dir.exists()

    def test_trajectory_shorter_than_frames(self, scenario_dir, tmp_path, capsys):
        bad = tmp_path / "bad"
        shutil.copytree(scenario_dir, bad)
        lines = (bad / "noisy.txt").read_text().splitlines(keepends=True)
        (bad / "noisy.txt").write_text("".join(lines[:-1]))
        self.expect_parse_error(bad, tmp_path / "out", capsys, "noisy.txt: 35 poses for 36")

    def test_ground_truth_shorter_than_frames(self, scenario_dir, tmp_path, capsys):
        bad = tmp_path / "bad"
        shutil.copytree(scenario_dir, bad)
        lines = (bad / "gt.txt").read_text().splitlines(keepends=True)
        (bad / "gt.txt").write_text("".join(lines[:-1]))
        self.expect_parse_error(bad, tmp_path / "out", capsys, "gt.txt: 35 poses for 36")

    def test_graph_nodes_differ_from_frames(self, dataset_run, tmp_path, capsys):
        bad = tmp_path / "bad"
        shutil.copytree(dataset_run[0], bad)
        lines = (bad / "posegraph.g2o").read_text().splitlines(keepends=True)
        (bad / "posegraph.g2o").write_text("".join(
            line for line in lines
            if not line.startswith(("VERTEX_SE3:QUAT 35 ", "EDGE_SE3:QUAT 34 35 "))))
        self.expect_parse_error(bad, tmp_path / "out", capsys,
                                "posegraph.g2o: 35 nodes for 36")

    def test_frame_loop_outside_graph(self, scenario_dir, tmp_path, capsys):
        bad = tmp_path / "bad"
        shutil.copytree(scenario_dir, bad)
        lines = (bad / "candidates.csv").read_text().splitlines(keepends=True)
        fields = lines[1].split(",")
        fields[3] = "36"
        lines[1] = ",".join(fields)
        (bad / "candidates.csv").write_text("".join(lines))
        self.expect_parse_error(bad, tmp_path / "out", capsys,
                                "candidates.csv: loop 0 endpoints")

    def test_match_log_fragments_differ_from_k(self, dataset_run, tmp_path, capsys):
        self.expect_parse_error(dataset_run[0], tmp_path / "out", capsys,
                                "matches.log: registered on 6 fragments, but --k 4", k="4")

    @pytest.mark.parametrize("edit, message", [
        (lambda fields: fields[:3], "intrinsics.txt: expected 7 fields"),
        (lambda fields: fields[:2] + ["x"] + fields[3:], "intrinsics.txt: could not convert"),
        (lambda fields: ["-" + fields[0]] + fields[1:],
         "intrinsics.txt: focal lengths must be positive"),
        (lambda fields: ["nan"] + fields[1:], "intrinsics.txt: focal lengths must be positive"),
    ], ids=["field-count", "non-number", "negative-focal", "nan-focal"])
    def test_malformed_intrinsics(self, edit, message, scenario_dir, tmp_path, capsys):
        bad = tmp_path / "bad"
        shutil.copytree(scenario_dir, bad)
        fields = (bad / "intrinsics.txt").read_text().split()
        (bad / "intrinsics.txt").write_text(" ".join(edit(fields)) + "\n")
        self.expect_parse_error(bad, tmp_path / "out", capsys, message)

    def test_truncated_depth_frame(self, scenario_dir, tmp_path, capsys):
        bad = tmp_path / "bad"
        shutil.copytree(scenario_dir, bad)
        raw = bad / "depth" / "frame_000005.raw"
        raw.write_bytes(raw.read_bytes()[:-2])
        self.expect_parse_error(bad, tmp_path / "out", capsys, "frame_000005.raw: has")


class TestEvalCommand:
    def test_eval_after_sift(self, tmp_path, capsys):
        scn = tmp_path / "scn"
        out = tmp_path / "sift"
        run_synth(scn)
        run_sift(scn, out)
        capsys.readouterr()
        assert cli.main(["eval", "--input", str(scn), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "precision" in stdout
        assert "before 5 / after" in stdout
        pr = (out / "pr_curve.csv").read_text().strip().split("\n")
        assert pr[0] == "recall,precision,loop_id,accepted"
        assert len(pr) == 1 + 5

    def test_eval_of_unlabeled_dataset(self, dataset_run, capsys):
        input_dir, out = dataset_run
        capsys.readouterr()
        assert cli.main(["eval", "--input", str(input_dir), "--out", str(out)]) == 0
        assert read_metrics(out)["precision_pct"] == "-"
        assert not (out / "pr_curve.csv").exists()

    def test_eval_decodes_no_depth(self, scenario_run):
        input_dir, out = scenario_run
        assert cli.main(["eval", "--input", str(input_dir), "--out", str(out)]) == 0
        metrics = (out / "metrics.csv").read_bytes()
        raw = input_dir / "depth" / "frame_000005.raw"
        raw.write_bytes(raw.read_bytes()[:-2])
        assert cli.main(["eval", "--input", str(input_dir), "--out", str(out)]) == 0
        assert (out / "metrics.csv").read_bytes() == metrics

    def test_truncated_model_fails_with_parse_code(self, scenario_run, capsys):
        input_dir, out = scenario_run
        model = out / "model_after.ply"
        text = model.read_bytes()
        model.write_bytes(text[: len(text) // 2])
        capsys.readouterr()
        code = cli.main(["eval", "--input", str(input_dir), "--out", str(out)])
        assert code == cli.EXIT_PARSE
        assert "model_after.ply" in capsys.readouterr().err

    def test_eval_without_sift_fails(self, tmp_path):
        scn = tmp_path / "scn"
        run_synth(scn)
        code = cli.main(["eval", "--input", str(scn), "--out", str(tmp_path / "empty")])
        assert code == cli.EXIT_PARSE
