"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line.

The heavy scenario families are computed once in session fixtures:

  family A - 20 seeded runs, 200 frames, 10 true loops (<= 0.02 m / 1 deg
             noise), 5 false loops; drives the perfect-precision and
             improvement criteria.
  family B - 20 seeded runs with mild drift and grossly-wrong false loops;
             drives the ranking PR-shape criterion.
  family C - 20 seeded runs whose true loops carry (0.05 m, 3 deg) noise;
             drives the key-loops-vs-all-loops criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from loopsift import cli
from loopsift import geometry as geo
from loopsift import posegraph as pg
from loopsift import sifting
from loopsift import synth
from loopsift.consistency import score_map
from loopsift.evaluation import surface_mean_distance, trajectory_rmse
from loopsift.geometry import Pose
from loopsift.ingest import (
    load_match_log,
    load_tum_trajectory,
    write_match_log,
    write_tum_trajectory,
)
from loopsift.posegraph import Edge, Trajectory, graph_from_odometry, optimize, read_g2o, write_g2o
from loopsift.sifting import LoopCandidate
from loopsift.surfels import (
    CameraModel,
    DepthFrame,
    SurfelMap,
    assemble_model,
    build_fragments,
    fragment_consistent_trajectory,
    fuse_frame,
    read_depth_raw,
    write_depth_raw,
)

SEEDS = list(range(1, 21))


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE] {name}: {status}" + (f"  ({detail})" if detail else ""))


def rmse_raw(traj, gt) -> float:
    d = [np.linalg.norm(traj.pose(k).t - gt.pose(k).t) for k in traj.ids]
    return float(np.sqrt(np.mean(np.square(d))))


def run_sift_on(scenario, k=10, stride=4, score_every=12, threads=1):
    graph = synth.scenario_graph(scenario)
    fragments = build_fragments(scenario.frames, scenario.noisy_trajectory, k=k, stride=stride)
    result = sifting.sift(
        graph, scenario.loop_candidates(), scenario.frames[::score_every],
        fragments, threads=threads,
    )
    return graph, fragments, result


# ---------------------------------------------------------------------------
# scenario families
# ---------------------------------------------------------------------------

# true-loop noise sits well inside the criterion's (0.02 m, 1 deg) bound;
# the drift level keeps the depth-noise model informative (heavier drift
# saturates the truncated score and stalls acceptance)
FAMILY_A = synth.ScenarioConfig(
    frames=200, width=128, height=96, focal=100.0,
    sigma_odo_rot=0.001, sigma_odo_trans=0.004,
    n_true_loops=10, n_false_loops=5, min_loop_gap=60,
    true_noise_trans=0.01, true_noise_rot_deg=0.5,
)

FAMILY_B = synth.ScenarioConfig(
    frames=120, width=112, height=84, focal=90.0,
    sigma_odo_rot=0.001, sigma_odo_trans=0.002,
    n_true_loops=8, n_false_loops=4, min_loop_gap=40,
    true_noise_trans=0.01, true_noise_rot_deg=0.5,
)

FAMILY_C = synth.ScenarioConfig(
    frames=120, width=112, height=84, focal=90.0,
    sigma_odo_rot=0.001, sigma_odo_trans=0.0025,
    n_true_loops=10, n_false_loops=0, min_loop_gap=40,
    true_noise_trans=0.05, true_noise_rot_deg=3.0, true_noise_mix=0.5,
)


@pytest.fixture(scope="session")
def family_a():
    runs = []
    t0 = time.perf_counter()
    for seed in SEEDS:
        scenario = synth.generate(FAMILY_A, seed=seed)
        _, _, result = run_sift_on(scenario, score_every=10)
        labels = scenario.labels()
        runs.append(
            dict(
                seed=seed,
                accepted=len(result.accepted),
                false_accepted=sum(1 for i in result.accepted if not labels[i]),
                baseline=result.baseline_score,
                final=result.final_score,
                rmse_noloop=rmse_raw(scenario.noisy_trajectory, scenario.gt_trajectory),
                rmse_aligned_after=trajectory_rmse(
                    result.final_trajectory, scenario.gt_trajectory, align=True
                ),
                rmse_aligned_before=trajectory_rmse(
                    scenario.noisy_trajectory, scenario.gt_trajectory, align=True
                ),
            )
        )
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="session")
def family_b():
    runs = []
    for seed in SEEDS:
        scenario = synth.generate(FAMILY_B, seed=seed)
        graph = synth.scenario_graph(scenario)
        fragments = build_fragments(scenario.frames, scenario.noisy_trajectory, k=10, stride=4)
        ranking = sifting.rank_loops(
            graph, scenario.loop_candidates(), scenario.frames[::8], fragments, threads=1
        )
        runs.append(dict(seed=seed, ranking=ranking, labels=scenario.labels()))
    return runs


@pytest.fixture(scope="session")
def family_c():
    runs = []
    for seed in SEEDS:
        scenario = synth.generate(FAMILY_C, seed=seed)
        graph, fragments, result = run_sift_on(scenario, score_every=6)
        all_true_edges = [c.edge() for c, label in scenario.candidates if label]
        all_loops = optimize(graph, all_true_edges)
        runs.append(
            dict(
                seed=seed,
                rmse_sifted=trajectory_rmse(
                    result.final_trajectory, scenario.gt_trajectory, align=True
                ),
                rmse_all_loops=trajectory_rmse(
                    all_loops.trajectory, scenario.gt_trajectory, align=True
                ),
                accepted=len(result.accepted),
            )
        )
    return runs


# ---------------------------------------------------------------------------
# criterion 1: perfect-precision sifting
# ---------------------------------------------------------------------------

def test_criterion_1_perfect_precision(family_a):
    runs, elapsed = family_a
    every_run_accepts = all(r["accepted"] >= 1 for r in runs)
    zero_false = all(r["false_accepted"] == 0 for r in runs)
    in_budget = elapsed < 600.0
    ok = every_run_accepts and zero_false and in_budget
    report(
        "criterion 1 (perfect-precision sifting)",
        ok,
        f"{len(runs)} runs, min accepted "
        f"{min(r['accepted'] for r in runs)}, false accepts "
        f"{sum(r['false_accepted'] for r in runs)}, {elapsed:.0f}s",
    )
    assert every_run_accepts, "some run accepted no loop"
    assert zero_false, "a false loop was accepted"
    assert in_budget, f"family A took {elapsed:.0f}s, budget is 600s"


# ---------------------------------------------------------------------------
# criterion 2: improvement guarantee
# ---------------------------------------------------------------------------

def test_criterion_2_improvement(family_a):
    runs, _ = family_a
    score_improves = all(r["final"] < r["baseline"] for r in runs)
    ratios = [r["rmse_aligned_after"] / r["rmse_aligned_before"] for r in runs]
    rmse_improves = all(ratio <= 0.7 for ratio in ratios)
    ok = score_improves and rmse_improves
    report(
        "criterion 2 (improvement guarantee)",
        ok,
        f"worst RMSE ratio {max(ratios):.3f}, score improved in {len(runs)}/{len(runs)} runs",
    )
    assert score_improves, "final consistency score did not beat baseline in some run"
    assert rmse_improves, f"worst aligned-RMSE ratio {max(ratios):.3f} exceeds 0.7"


# ---------------------------------------------------------------------------
# criterion 3: key loops vs all loops
# ---------------------------------------------------------------------------

def test_criterion_3_key_loops_vs_all(family_c):
    wins = sum(1 for r in family_c if r["rmse_sifted"] <= r["rmse_all_loops"])
    ok = wins >= 15
    report(
        "criterion 3 (key loops vs all loops)",
        ok,
        f"sifted subset <= all loops in {wins}/20 seeds",
    )
    assert ok, f"sifted subset beat all-loops in only {wins}/20 seeds (need >= 15)"


# ---------------------------------------------------------------------------
# criterion 4: greedy vs exhaustive subset oracle
# ---------------------------------------------------------------------------

def test_criterion_4_greedy_vs_exhaustive():
    config = synth.ScenarioConfig(
        frames=80, width=96, height=72, focal=80.0,
        sigma_odo_rot=0.001, sigma_odo_trans=0.004,
        n_true_loops=4, n_false_loops=2, min_loop_gap=30,
        true_noise_trans=0.01, true_noise_rot_deg=0.5,
    )
    details = []
    ok = True
    for seed in (1, 2, 3):
        scenario = synth.generate(config, seed=seed)
        candidates = scenario.loop_candidates()
        assert len(candidates) <= 6
        graph = synth.scenario_graph(scenario)
        fragments = build_fragments(scenario.frames, scenario.noisy_trajectory, k=10, stride=4)
        frames = scenario.frames[::4]
        result = sifting.sift(graph, candidates, frames, fragments, threads=1)

        def subset_score(subset):
            edges = [c.edge() for c in subset]
            opt = optimize(graph, edges)
            model = assemble_model(fragments, opt.trajectory)
            poses = fragment_consistent_trajectory(fragments, opt.trajectory)
            return score_map(model, frames, poses).value

        scores = {}
        for r in range(len(candidates) + 1):
            for subset in itertools.combinations(candidates, r):
                scores[tuple(sorted(c.id for c in subset))] = subset_score(subset)
        best = min(scores.values())
        empty = scores[()]
        within_5pct = result.final_score <= best * 1.05
        not_worse_than_empty = result.final_score <= empty + 1e-12
        ok = ok and within_5pct and not_worse_than_empty
        details.append(
            f"seed {seed}: sift {result.final_score:.2f} vs best {best:.2f} "
            f"({2 ** len(candidates)} subsets)"
        )
        assert within_5pct, (
            f"seed {seed}: sift score {result.final_score:.4f} not within 5% of "
            f"exhaustive best {best:.4f}"
        )
        assert not_worse_than_empty
    report("criterion 4 (greedy vs exhaustive oracle)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 5: ranking PR shape
# ---------------------------------------------------------------------------

def test_criterion_5_ranking_pr_shape(family_b):
    clean = 0
    worst = None
    for run in family_b:
        labels = run["labels"]
        ranked_labels = [labels[i] for i, _ in run["ranking"]]
        n_true = sum(ranked_labels)
        # 100% precision until all true loops are exhausted <=> every true
        # loop precedes every false loop
        perfect = all(ranked_labels[:n_true])
        clean += perfect
        if not perfect and worst is None:
            worst = run["seed"]
    ok = clean == len(family_b)
    report(
        "criterion 5 (ranking PR shape)",
        ok,
        f"{clean}/{len(family_b)} runs hold 100% precision to full recall"
        + (f"; first failing seed {worst}" if worst else ""),
    )
    assert ok, f"ranking mixed false loops above true ones in {len(family_b) - clean} runs"


# ---------------------------------------------------------------------------
# criterion 6: numerical invariant suite
# ---------------------------------------------------------------------------

def test_criterion_6_numerical_invariants(tmp_path):
    checks = []

    # exp/log round trips within 1e-9
    rng = np.random.default_rng(600)
    worst = 0.0
    for _ in range(200):
        w = rng.normal(size=3)
        w = w / np.linalg.norm(w) * rng.uniform(1e-8, math.pi - 1e-3)
        xi = np.concatenate([w, rng.uniform(-5, 5, 3)])
        worst = max(worst, float(np.max(np.abs(geo.log(geo.exp(xi)) - xi))))
    checks.append(("exp/log round trip", worst < 1e-9, f"{worst:.2e}"))

    # optimizer gauge invariance within 1e-6
    poses = [Pose(geo.rotvec_to_quat(rng.normal(0, 0.3, 3)), rng.normal(0, 1, 3))
             for _ in range(6)]
    edges = []
    for k in range(5):
        rel = geo.compose(geo.inverse(poses[k]), poses[k + 1])
        edges.append(Edge(k, k + 1, geo.compose(rel, geo.exp(rng.normal(0, 0.05, 6)))))
    loop = Edge(5, 0, geo.compose(geo.inverse(poses[5]), poses[0]), np.eye(6), pg.LOOP)
    graph = pg.PoseGraph(list(poses), edges)
    base = optimize(graph, [loop]).trajectory
    g = Pose(geo.rotvec_to_quat(np.array([0.4, -0.2, 0.3])), np.array([2.0, 1.0, -3.0]))
    moved = optimize(pg.PoseGraph([geo.compose(g, p) for p in poses], edges), [loop]).trajectory
    gauge_err = max(
        float(np.max(np.abs(p.to_matrix() - geo.compose(g, base.pose(i)).to_matrix())))
        for i, p in moved
    )
    checks.append(("optimizer gauge invariance", gauge_err < 1e-6, f"{gauge_err:.2e}"))

    # zero-residual fixed point: cost < 1e-18
    chain = graph_from_odometry(Trajectory.from_poses(poses))
    zero = optimize(chain)
    checks.append(("zero-residual fixed point", zero.final_cost < 1e-18,
                   f"cost {zero.final_cost:.2e}"))

    # consistency-score rigid invariance within 1e-6
    cam = CameraModel(fx=60.0, fy=60.0, cx=15.5, cy=11.5, width=32, height=24)
    scene = synth.default_scene()
    traj_poses = [synth._path_pose(0.3 * k, 0.3 * k) for k in range(4)]
    frames = [synth.render_synthetic_depth(scene, p, cam, index=k)
              for k, p in enumerate(traj_poses)]
    traj = Trajectory.from_poses(traj_poses)
    fused = SurfelMap.empty()
    for fr, p in zip(frames, traj_poses):
        fused = fuse_frame(fused, fr, p, stride=2)
    s0 = score_map(fused, frames, traj)
    s1 = score_map(fused.transformed(g), frames, traj.transformed(g))
    rigid_err = abs(s1.value - s0.value)
    checks.append(("score rigid invariance", rigid_err < 1e-6, f"{rigid_err:.2e}"))

    # assemble_model rigid equivariance within 1e-9
    fragments = build_fragments(frames, traj, k=2, stride=2)
    model_a = assemble_model(fragments, traj).positions
    model_b = assemble_model(fragments, traj.transformed(g)).positions
    equiv_err = float(np.max(np.abs(model_b - geo.transform_points(g, model_a))))
    checks.append(("assemble rigid equivariance", equiv_err < 1e-9, f"{equiv_err:.2e}"))

    # SMD equals brute force on 100 x 200 random sets
    model_pts = rng.uniform(-2, 2, (100, 3))
    gt_pts = rng.uniform(-2, 2, (200, 3))
    model = SurfelMap(model_pts, np.tile([0.0, 0.0, 1.0], (100, 1)),
                      np.ones(100), np.full(100, 0.01))
    smd_fast = surface_mean_distance(model, gt_pts)
    smd_brute = float(np.mean([np.min(np.linalg.norm(gt_pts - p, axis=1)) for p in model_pts]))
    smd_err = abs(smd_fast - smd_brute)
    checks.append(("SMD brute-force equivalence", smd_err < 1e-12, f"{smd_err:.2e}"))

    # g2o round trip within 1e-9
    write_g2o(pg.PoseGraph(list(poses), edges + [loop]), tmp_path / "g.g2o")
    back = read_g2o(tmp_path / "g.g2o")
    g2o_err = max(
        float(np.max(np.abs(a.to_matrix() - b.to_matrix())))
        for a, b in zip(poses, back.poses)
    )
    g2o_err = max(
        g2o_err,
        max(float(np.max(np.abs(a.information - b.information)))
            for a, b in zip(edges + [loop], back.edges)),
    )
    checks.append(("g2o round trip", g2o_err < 1e-9, f"{g2o_err:.2e}"))

    # TUM round trip within 1e-9
    write_tum_trajectory(traj, tmp_path / "t.txt")
    tum_back = load_tum_trajectory(tmp_path / "t.txt")
    tum_err = max(
        float(np.max(np.abs(tum_back.pose(i).to_matrix() - traj.pose(i).to_matrix())))
        for i in traj.ids
    )
    checks.append(("TUM round trip", tum_err < 1e-9, f"{tum_err:.2e}"))

    # match-log round trip within 1e-12
    loops = [
        LoopCandidate(id=k, kind=sifting.FRAGMENT_LOOP, endpoints=(k, k + 2),
                      measurement=Pose(geo.rotvec_to_quat(rng.normal(0, 0.5, 3)),
                                       rng.normal(0, 1, 3)),
                      information=np.eye(6))
        for k in range(3)
    ]
    write_match_log(loops, tmp_path / "m.log")
    log_back, _ = load_match_log(tmp_path / "m.log")
    log_err = max(
        float(np.max(np.abs(a.measurement.to_matrix() - b.measurement.to_matrix())))
        for a, b in zip(loops, log_back)
    )
    checks.append(("match-log round trip", log_err < 1e-12, f"{log_err:.2e}"))

    # raw depth round trip bit-exact
    depth = np.round(rng.uniform(0, 5, (24, 32)) * 1000.0) / 1000.0
    write_depth_raw(depth, tmp_path / "d.raw", 1000.0)
    depth_back = read_depth_raw(tmp_path / "d.raw", cam, 1000.0)
    bit_exact = np.array_equal(depth, depth_back)
    checks.append(("raw depth round trip", bit_exact, "bit-exact" if bit_exact else "mismatch"))

    ok = all(passed for _, passed, _ in checks)
    detail = "; ".join(f"{name} {'ok' if passed else 'FAIL'} [{info}]"
                       for name, passed, info in checks)
    report("criterion 6 (numerical invariants)", ok, detail)
    for name, passed, info in checks:
        assert passed, f"{name} failed: {info}"


# ---------------------------------------------------------------------------
# criterion 7: CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_7_cli_determinism(tmp_path):
    scenario_dir = tmp_path / "scenario"
    code = cli.main([
        "synth", "--out", str(scenario_dir), "--seed", "5", "--frames", "36",
        "--width", "48", "--height", "36", "--focal", "40",
        "--true-loops", "3", "--false-loops", "2", "--min-loop-gap", "14",
    ])
    assert code == 0
    traces = []
    for name, threads in (("run1", "1"), ("run2", "1"), ("run4", "2")):
        out = tmp_path / name
        code = cli.main([
            "sift", "--input", str(scenario_dir), "--out", str(out),
            "--k", "6", "--stride", "4", "--score-every", "4", "--threads", threads,
        ])
        assert code == 0
        traces.append((out / "trace.csv").read_bytes())
    ok = traces[0] == traces[1] == traces[2]
    report("criterion 7 (CLI determinism)", ok,
           f"{len(traces)} runs, thread counts 1/1/2, trace CSVs byte-identical: {ok}")
    assert ok, "trace CSVs differ across identical cmd_sift runs"
