"""The benchmark's workloads and how their inputs are made.

Each workload fixes a scene seed (camera drift and loop candidates) and
the ``loopsift sift`` flags.  The run's ``--seed`` draws the depth-sensor
noise added to every frame, so each seed gives another set of inputs of
the same scene while the loop labels stay known.  Inputs go to disk with
the program's own writers.  The checks take the ground truth from the
returned ``Truth`` only, never from the ground-truth files that a
scenario directory also carries for the program's own metrics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from loopsift import geometry as geo
from loopsift import synth
from loopsift.ingest import write_match_log, write_tum_trajectory
from loopsift.posegraph import write_g2o
from loopsift.sifting import FRAGMENT_LOOP, LoopCandidate
from loopsift.surfels import write_depth_raw, write_intrinsics

SCENARIO = "scenario"  # scenario directory: candidates.csv, gt.txt, scene.txt
FRAGMENT_LOG = "fragment-log"  # dataset manifest: raw depth, TUM, g2o, match log

# sensor noise per pixel (m).  Against the 1 mm step of the exported raw
# depth it moves about a sixth of the pixels by one step, which changes the
# inputs from seed to seed.  It is kept this small because the acceptance
# of a redundant true loop turns on score differences this noise can flip:
# even at 0.2 mm, fragment-log-long rejects its true loop 4 on about one
# seed in seven.
DEPTH_NOISE = 0.0002


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    scene_seed: int
    config: synth.ScenarioConfig
    k: int
    stride: int
    score_every: int
    # fragment-log only: fragment loops between a fragment and its revisit
    fragment_true: int = 0
    fragment_false: int = 0

    @property
    def trajectory_file(self) -> str:
        """The input trajectory the program reads (and fuses fragments with)."""
        return "noisy.txt" if self.kind == SCENARIO else "trajectory.txt"

    def sift_flags(self) -> list:
        return ["--k", str(self.k), "--stride", str(self.stride),
                "--score-every", str(self.score_every), "--threads", "1"]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="room-frame-loops", kind=SCENARIO, scene_seed=1,
            config=synth.ScenarioConfig(
                frames=200, width=128, height=96, focal=100.0,
                sigma_odo_rot=0.001, sigma_odo_trans=0.004,
                n_true_loops=10, n_false_loops=5, min_loop_gap=60,
                true_noise_trans=0.01, true_noise_rot_deg=0.5,
            ),
            k=10, stride=4, score_every=10,
        ),
        Workload(
            name="fragment-log-long", kind=FRAGMENT_LOG, scene_seed=1,
            config=synth.ScenarioConfig(
                frames=800, width=80, height=60, focal=62.5,
                sigma_odo_rot=0.001, sigma_odo_trans=0.0015,
                n_true_loops=0, n_false_loops=0,
            ),
            k=20, stride=4, score_every=80, fragment_true=8, fragment_false=4,
        ),
        Workload(
            name="room-hires", kind=SCENARIO, scene_seed=1,
            config=synth.ScenarioConfig(
                frames=100, width=320, height=240, focal=250.0,
                sigma_odo_rot=0.001, sigma_odo_trans=0.004,
                n_true_loops=6, n_false_loops=3, min_loop_gap=30,
                true_noise_trans=0.01, true_noise_rot_deg=0.5,
            ),
            k=10, stride=4, score_every=10,
        ),
    )
}


@dataclass
class Truth:
    """What only the benchmark knows about a generated input."""

    gt_trajectory: object
    input_trajectory: object  # the tracking trajectory given to the program
    labels: dict  # unit id -> True for a true loop
    scene: list
    frame_count: int
    graph: object  # the odometry pose graph the program reads
    candidates: list  # the loop candidates the program reads


def _add_noise(frames, seed: int) -> None:
    """Add the run's sensor noise, as synth does for ``depth_noise``."""
    rng = synth.stream(seed % 2**63, "bench-depth-noise")  # any int, negative too
    for frame in frames:
        d = frame.depth
        noisy = np.maximum(d + rng.normal(0.0, DEPTH_NOISE, d.shape), 1e-3)
        frame.depth = np.where(d > 0, noisy, 0.0)


def _random_offset(rng, trans_range, rot_range_deg):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    angle = np.deg2rad(rng.uniform(*rot_range_deg))
    return geo.Pose(geo.rotvec_to_quat(axis * angle), direction * rng.uniform(*trans_range))


def fragment_loops(wl: Workload, gt):
    """True and false fragment loops built from ground-truth anchors.

    Anchor fragments a are spread over the first lap and paired with their
    revisit a + fragments-per-lap.  A loop's measurement is the
    ground-truth anchor-to-anchor pose (fragment b in a's frame) times an
    offset: at most 1 cm / 0.5 deg for a true loop, 0.3-0.8 m and
    10-30 deg for a false one.  False loops reuse true anchor slots, and
    the log interleaves them.  Returns (candidates, labels).
    """
    n = wl.config.frames
    n_frag = -(-n // wl.k)
    per_lap = n_frag // wl.config.revolutions
    ref = [f * wl.k + (min(wl.k, n - f * wl.k) - 1) // 2 for f in range(n_frag)]
    rng = synth.stream(wl.scene_seed, "bench-fragment-loops")
    anchors = [int((m + 0.5) * per_lap / wl.fragment_true) for m in range(wl.fragment_true)]
    entries = [(a, True) for a in anchors]
    for m in range(wl.fragment_false):
        entries.insert(3 * m + 2, (anchors[(2 * m + 1) % len(anchors)], False))
    candidates, labels = [], {}
    for loop_id, (a, label) in enumerate(entries):
        b = a + per_lap
        rel = geo.compose(geo.inverse(gt.pose(ref[a])), gt.pose(ref[b]))
        offset = (_random_offset(rng, (0.0, 0.01), (0.0, 0.5)) if label
                  else _random_offset(rng, (0.3, 0.8), (10.0, 30.0)))
        candidates.append(LoopCandidate(id=loop_id, kind=FRAGMENT_LOOP, endpoints=(a, b),
                                        measurement=geo.compose(rel, offset)))
        labels[loop_id] = label
    return candidates, labels


def _write_dataset(scenario, candidates, n_fragments, out_dir) -> None:
    """Plain dataset manifest: raw depth, intrinsics, TUM, g2o, match log."""
    depth_dir = os.path.join(out_dir, "depth")
    os.makedirs(depth_dir)
    camera = scenario.frames[0].camera
    write_intrinsics(os.path.join(out_dir, "intrinsics.txt"), camera, synth.DEPTH_SCALE)
    for frame in scenario.frames:
        write_depth_raw(frame.depth, os.path.join(depth_dir, "frame_%06d.raw" % frame.index),
                        synth.DEPTH_SCALE)
    write_tum_trajectory(scenario.noisy_trajectory, os.path.join(out_dir, "trajectory.txt"))
    write_g2o(synth.scenario_graph(scenario), os.path.join(out_dir, "posegraph.g2o"))
    write_match_log(candidates, os.path.join(out_dir, "matches.log"), total=n_fragments)
    with open(os.path.join(out_dir, "manifest.txt"), "w") as f:
        f.write("depth_dir=depth\nintrinsics=intrinsics.txt\n")
        f.write("depth_scale=%.17g\n" % synth.DEPTH_SCALE)
        f.write("trajectory=trajectory.txt\nposegraph=posegraph.g2o\nmatches=matches.log\n")


def make_inputs(wl: Workload, seed: int, out_dir) -> Truth:
    """Generate the workload's inputs for ``seed`` into ``out_dir``."""
    scenario = synth.generate(wl.config, wl.scene_seed)
    _add_noise(scenario.frames, seed)
    if wl.kind == SCENARIO:
        synth.export_scenario(scenario, out_dir)
        candidates, labels = scenario.loop_candidates(), scenario.labels()
    else:
        candidates, labels = fragment_loops(wl, scenario.gt_trajectory)
        os.makedirs(out_dir, exist_ok=True)
        _write_dataset(scenario, candidates, -(-wl.config.frames // wl.k), out_dir)
    return Truth(scenario.gt_trajectory, scenario.noisy_trajectory, labels,
                 scenario.scene, len(scenario.frames), synth.scenario_graph(scenario),
                 candidates)
