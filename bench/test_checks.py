"""Tests of the benchmark's own checks: each fails on a corrupted output.

    python3 -m pytest bench/test_checks.py -q

One small scenario (80 frames at 96x72, 4 true and 2 false frame loops)
is generated and sifted once; every test corrupts a copy of its outputs.
"""

import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path[:0] = [SRC, BENCH_DIR]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from loopsift import synth  # noqa: E402
from loopsift.consistency import render_depth  # noqa: E402
from loopsift.geometry import compose  # noqa: E402
from loopsift.ingest import load_tum_trajectory  # noqa: E402
from loopsift.surfels import assemble_model, fragment_consistent_trajectory  # noqa: E402

SMALL = workloads.Workload(
    name="small", kind=workloads.SCENARIO, scene_seed=1,
    config=synth.ScenarioConfig(
        frames=80, width=96, height=72, focal=80.0,
        sigma_odo_rot=0.001, sigma_odo_trans=0.004,
        n_true_loops=4, n_false_loops=2, min_loop_gap=30,
        true_noise_trans=0.01, true_noise_rot_deg=0.5,
    ),
    k=10, stride=4, score_every=4,
)


@pytest.fixture(scope="module")
def sifted(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    input_dir, out_dir = str(root / "input"), str(root / "out")
    truth = workloads.make_inputs(SMALL, 1, input_dir)
    subprocess.run([sys.executable, "-m", "loopsift.cli", "sift", "--input", input_dir,
                    "--out", out_dir, *SMALL.sift_flags()],
                   env=dict(os.environ, PYTHONPATH=SRC, **run.SIFT_ENV),
                   stdout=subprocess.DEVNULL, check=True)
    fragments, frames = checks.load_check_inputs(SMALL, input_dir)
    return truth, fragments, frames, out_dir


@pytest.fixture
def outputs(sifted, tmp_path):
    """A fresh copy of the outputs and a function that checks it."""
    truth, fragments, frames, out_dir = sifted
    copy = str(tmp_path / "out")
    shutil.copytree(out_dir, copy)
    return copy, lambda: checks.check_outputs(copy, truth, fragments, frames)


def failed_checks(result):
    return {msg.split(":")[0] for msg in result.failures}


def edit(path, fn):
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(fn(text))


def test_clean_outputs_pass(outputs, sifted):
    _, check = outputs
    result = check()
    assert result.failures == []
    assert result.attempted == 12 and result.failed == 0
    assert result.metrics["true_loops_accepted"] >= 1
    exact, recomputed = result.info["score"]
    assert abs(recomputed - exact) <= 1e-9 * exact
    assert result.info["trajectory_dev_m"] < 1e-8


def test_false_id_appended_to_accepted(outputs, sifted):
    out, check = outputs
    false_id = next(i for i, label in sifted[0].labels.items() if not label)
    edit(os.path.join(out, "accepted.txt"), lambda t: t + f"{false_id}\n")
    assert {"no-false-accepted", "accepted-consistent",
            "trajectory-matches-accepted"} <= failed_checks(check())


def test_true_id_dropped_from_accepted(outputs):
    out, check = outputs
    edit(os.path.join(out, "accepted.txt"), lambda t: "".join(t.splitlines(True)[:-1]))
    assert {"accepted-consistent", "trajectory-matches-accepted"} <= failed_checks(check())


def test_no_true_loop_accepted(outputs):
    out, check = outputs
    edit(os.path.join(out, "accepted.txt"), lambda t: "")
    assert "true-accepted" in failed_checks(check())


def test_perturbed_trajectory(outputs):
    out, check = outputs
    lines = open(os.path.join(out, "trajectory_after.txt")).read().splitlines()
    for k in range(40, 80):  # second lap moved 3 cm sideways
        parts = lines[k].split()
        parts[1] = repr(float(parts[1]) + 0.03)
        lines[k] = " ".join(parts)
    edit(os.path.join(out, "trajectory_after.txt"), lambda t: "\n".join(lines) + "\n")
    assert {"score-recompute", "trajectory-matches-accepted"} <= failed_checks(check())


def test_trajectory_worse_than_input(outputs, sifted):
    out, check = outputs
    truth = sifted[0]
    drift = [compose(p, p) for p in truth.input_trajectory.poses]  # doubles the path
    with open(os.path.join(out, "trajectory_after.txt"), "w") as f:
        for i, p in enumerate(drift):
            f.write("%d %.17g %.17g %.17g %.17g %.17g %.17g %.17g\n" % (i, *p.t, *p.q[1:], p.q[0]))
    assert "rmse-not-worse" in failed_checks(check())


def test_shifted_report_score(outputs):
    out, check = outputs

    def shift(text):
        head, _, rest = text.partition("final score       : ")
        value, _, tail = rest.partition("\n")
        return f"{head}final score       : {float(value) + 0.001:.6f}\n{tail}"

    edit(os.path.join(out, "report.txt"), shift)
    assert failed_checks(check()) == {"report-final"}


def test_shifted_final_score(outputs):
    """The last accepted score in trace.csv 1% off the map it describes."""
    out, check = outputs
    path = os.path.join(out, "trace.csv")
    rows = [line.split(",") for line in open(path).read().splitlines()]
    last = max(k for k, r in enumerate(rows) if r[4] == "1")
    rows[last][3] = repr(float(rows[last][3]) * 1.01)
    edit(path, lambda t: "\n".join(",".join(r) for r in rows) + "\n")
    assert {"score-recompute", "report-final"} <= failed_checks(check())


def test_baseline_not_above_final(outputs):
    out, check = outputs
    edit(os.path.join(out, "report.txt"),
         lambda t: re.sub(r"baseline score    : .*", "baseline score    : 1.000000", t))
    assert checks.read_report(os.path.join(out, "report.txt"))["baseline"] == 1.0
    assert "score-improves" in failed_checks(check())


def test_ranking_out_of_order(outputs):
    out, check = outputs
    path = os.path.join(out, "ranking.csv")
    lines = open(path).read().splitlines()
    lines[1], lines[-1] = lines[-1], lines[1]
    edit(path, lambda t: "\n".join(lines) + "\n")
    assert "ranking-order" in failed_checks(check())


def test_accepted_scores_not_falling(outputs):
    out, check = outputs
    path = os.path.join(out, "trace.csv")
    rows = [line.split(",") for line in open(path).read().splitlines()]
    accepted = [r for r in rows[1:] if r[4] == "1"]
    assert len(accepted) >= 2
    accepted[-1][3] = repr(float(accepted[0][3]) + 1.0)
    edit(path, lambda t: "\n".join(",".join(r) for r in rows) + "\n")
    assert "acceptance-order" in failed_checks(check())


def test_missing_output(outputs):
    out, check = outputs
    os.remove(os.path.join(out, "model_after.ply"))
    assert failed_checks(check()) == {"outputs-present"}


def test_failed_evaluation_is_counted(outputs):
    out, check = outputs
    edit(os.path.join(out, "report.txt"),
         lambda t: t.replace("(no improvement)", "(optimization did not converge)", 1))
    result = check()
    assert result.failed == 1 and result.failures == []


def test_independent_render_matches_program(sifted):
    _, fragments, frames, _ = sifted
    traj = load_tum_trajectory(os.path.join(sifted[3], "trajectory_after.txt"))
    frame = next(f for f in frames if f.index in fragments[3].local_poses)
    pose = fragment_consistent_trajectory(fragments, traj).pose(frame.index)
    expected = render_depth(assemble_model(fragments, traj), pose, frame.camera).depth
    cam_inv = np.linalg.inv(checks.pose_matrix(pose))
    parts = []
    for g in fragments:
        M = cam_inv @ checks.pose_matrix(traj.pose(g.ref_frame))
        parts.append((g.surfels.positions @ M[:3, :3].T + M[:3, 3],
                      g.surfels.normals @ M[:3, :3].T, g.surfels.radii))
    got = checks.render(parts, frame.camera)
    assert np.array_equal(got > 0, expected > 0)
    assert np.allclose(got, expected, rtol=0, atol=1e-9)

