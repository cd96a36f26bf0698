"""Command-line entry points.

    loopsift synth --out DIR [--seed N --frames N ...]
    loopsift sift  --input INPUT_DIR --out DIR [--k N --stride N ...]
    loopsift eval  --input INPUT_DIR --out SIFT_OUT_DIR [--no-align]

INPUT_DIR holds a dataset manifest (manifest.txt); a scenario directory
written by ``synth`` is one, with ground-truth keys added.
Exit codes: 0 success, 2 parse errors, 3 numeric failures, 4 I/O errors.
``synth`` draws all its randomness from --seed; ``sift`` draws none, and
identical inputs (any --threads) produce byte-identical trace CSVs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import synth
from .errors import NumericsError, ParseError
from .evaluation import (
    MetricsReport,
    precision_recall,
    surface_mean_distance,
    trajectory_rmse,
    write_pr_curve_csv,
)
from .ingest import (
    DatasetManifest,
    load_depth_sequence,
    load_manifest,
    load_match_log,
    load_tum_trajectory,
    write_tum_trajectory,
)
from .posegraph import PoseGraph, Trajectory, graph_from_odometry, read_g2o
from .sifting import FRAME_LOOP, sift
from .surfels import assemble_model, build_fragments, read_ply, write_ply

EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_synth(args) -> int:
    config = synth.ScenarioConfig(
        frames=args.frames, width=args.width, height=args.height, focal=args.focal,
        revolutions=args.revolutions, sigma_odo_rot=args.sigma_rot,
        sigma_odo_trans=args.sigma_trans, n_true_loops=args.true_loops,
        n_false_loops=args.false_loops, min_loop_gap=args.min_loop_gap,
    )
    scenario = synth.generate(config, args.seed)
    synth.export_scenario(scenario, args.out)
    n_true = sum(1 for _, label in scenario.candidates if label)
    print(f"scenario written to {args.out}")
    print(f"frames      : {len(scenario.frames)} ({args.width}x{args.height})")
    print(f"candidates  : {len(scenario.candidates)} ({n_true} true, "
          f"{len(scenario.candidates) - n_true} false)")
    print(f"seed        : {args.seed}")
    return 0


@dataclass
class Inputs:
    """One input directory, without its depth frames.  ``log_fragments``
    is the fragment count of the match log (None without one); labels,
    ground-truth trajectory and scene are None unless the manifest names
    them."""

    manifest: DatasetManifest
    trajectory: Trajectory
    graph: PoseGraph
    candidates: list
    log_fragments: int | None
    labels: dict | None
    gt_trajectory: Trajectory | None
    scene: list | None


def _extra_path(manifest, manifest_path, key):
    """File named by an optional manifest key, or None without the key."""
    if key not in manifest.extras:
        return None
    path = os.path.join(manifest.root, manifest.extras[key])
    if not os.path.exists(path):
        raise ParseError(f"{manifest_path}: {key} file {path} does not exist")
    return path


def _odometry_information(manifest, manifest_path):
    """Odometry edge information from odo_info_rot/odo_info_trans, if given."""
    extras = manifest.extras
    if "odo_info_rot" not in extras or "odo_info_trans" not in extras:
        return None
    try:
        rot, trans = float(extras["odo_info_rot"]), float(extras["odo_info_trans"])
        if rot > 0 and trans > 0:
            return np.diag([rot] * 3 + [trans] * 3)
    except ValueError:
        pass
    raise ParseError(f"{manifest_path}: odo_info_rot and odo_info_trans must be positive numbers")


def load_inputs(input_dir) -> Inputs:
    """Read an input directory through its manifest, decoding no depth
    frame.  The trajectories, the graph and the frame loops are checked
    against the depth frame count.  The graph comes from ``posegraph=``,
    else from the odometry chain of the trajectory; the candidates come
    from ``matches=``, else from ``candidates=`` with their labels."""
    manifest_path = os.path.join(input_dir, "manifest.txt")
    if not os.path.exists(manifest_path):
        raise ParseError(f"{input_dir}: no manifest.txt found")
    manifest = load_manifest(manifest_path)
    n = len(manifest.depth_files)

    trajectory = load_tum_trajectory(manifest.trajectory_path)
    if len(trajectory) != n:
        raise ParseError(f"{manifest.trajectory_path}: {len(trajectory)} poses "
                         f"for {n} depth frames")
    if manifest.posegraph_path:
        graph = read_g2o(manifest.posegraph_path)
        if graph.node_count != n:
            raise ParseError(f"{manifest.posegraph_path}: {graph.node_count} nodes "
                             f"for {n} depth frames")
    else:
        graph = graph_from_odometry(trajectory, _odometry_information(manifest, manifest_path))

    candidates, log_fragments, labels = [], None, None
    candidates_path = _extra_path(manifest, manifest_path, "candidates")
    if manifest.matches_path:
        candidates, log_fragments = load_match_log(manifest.matches_path)
    elif candidates_path:
        pairs = synth.read_candidates_csv(candidates_path)
        candidates = [cand for cand, _ in pairs]
        labels = {cand.id: label for cand, label in pairs}
        for cand in candidates:
            if cand.kind == FRAME_LOOP and not all(0 <= e < n for e in cand.endpoints):
                raise ParseError(f"{candidates_path}: loop {cand.id} endpoints "
                                 f"{cand.endpoints} outside the graph's nodes 0..{n - 1}")

    gt_path = _extra_path(manifest, manifest_path, "gt_trajectory")
    gt_trajectory = load_tum_trajectory(gt_path) if gt_path else None
    if gt_trajectory is not None and len(gt_trajectory) != n:
        raise ParseError(f"{gt_path}: {len(gt_trajectory)} poses for {n} depth frames")
    scene_path = _extra_path(manifest, manifest_path, "scene")
    return Inputs(
        manifest=manifest,
        trajectory=trajectory,
        graph=graph,
        candidates=candidates,
        log_fragments=log_fragments,
        labels=labels,
        gt_trajectory=gt_trajectory,
        scene=synth.read_scene(scene_path) if scene_path else None,
    )


def _fuse(inputs: Inputs, args):
    """Decode the depth sequence and fuse it into fragments; returns them
    with the frames ``sift`` scores.  The other frames are freed on
    return, before any evaluation."""
    frames = load_depth_sequence(inputs.manifest)
    fragments = build_fragments(frames, inputs.trajectory, k=args.k, stride=args.stride)
    return fragments, frames[:: args.score_every]


def cmd_sift(args) -> int:
    inputs = load_inputs(args.input)
    n_frames = len(inputs.manifest.depth_files)
    n_fragments = -(-n_frames // args.k)
    if inputs.log_fragments not in (None, n_fragments):
        raise ParseError(
            f"{inputs.manifest.matches_path}: registered on {inputs.log_fragments} fragments, "
            f"but --k {args.k} splits {n_frames} frames into {n_fragments}"
        )

    fragments, score_frames = _fuse(inputs, args)
    os.makedirs(args.out, exist_ok=True)
    result = sift(inputs.graph, inputs.candidates, score_frames, fragments,
                  threads=args.threads)

    result.write_ranking_csv(os.path.join(args.out, "ranking.csv"))
    result.write_trace_csv(os.path.join(args.out, "trace.csv"))
    with open(os.path.join(args.out, "accepted.txt"), "w") as f:
        for loop_id in result.accepted:
            f.write(f"{loop_id}\n")
    with open(os.path.join(args.out, "report.txt"), "w") as f:
        f.write(result.report())

    model_before = assemble_model(fragments, result.baseline_trajectory)
    model_after = assemble_model(fragments, result.final_trajectory)
    write_ply(model_before, os.path.join(args.out, "model_before.ply"))
    write_ply(model_after, os.path.join(args.out, "model_after.ply"))
    write_tum_trajectory(result.baseline_trajectory, os.path.join(args.out, "trajectory_before.txt"))
    write_tum_trajectory(result.final_trajectory, os.path.join(args.out, "trajectory_after.txt"))

    labels, gt, scene = inputs.labels, inputs.gt_trajectory, inputs.scene
    precision, recall = (precision_recall(result.accepted, labels)
                         if labels is not None else (None, None))
    rmse = (trajectory_rmse(result.final_trajectory, gt, align=args.align)
            if gt is not None else None)
    smd = (surface_mean_distance(model_after, scene) if scene else None)
    metrics = MetricsReport(
        precision=precision, recall=recall, trajectory_rmse=rmse, smd=smd,
        consistency=result.final_score,
        loops_before=len(inputs.candidates), loops_after=len(result.accepted),
    )
    metrics.write_csv(os.path.join(args.out, "metrics.csv"))
    with open(os.path.join(args.out, "metrics.txt"), "w") as f:
        f.write(metrics.to_text())
    if labels is not None and result.ranking:
        write_pr_curve_csv(os.path.join(args.out, "pr_curve.csv"),
                           result.ranking, labels, result.accepted)

    print(result.report())
    print(metrics.to_text())
    return 0


def cmd_eval(args) -> int:
    inputs = load_inputs(args.input)
    labels = inputs.labels
    out = args.out

    accepted_path = os.path.join(out, "accepted.txt")
    ranking_path = os.path.join(out, "ranking.csv")
    for required in (accepted_path, ranking_path):
        if not os.path.exists(required):
            raise ParseError(f"{required}: missing sift output; run `loopsift sift` first")
    with open(accepted_path) as f:
        accepted = [int(line) for line in f if line.strip()]
    ranking = []
    with open(ranking_path) as f:
        f.readline()
        for line in f:
            if line.strip():
                _, loop_id, score = line.strip().split(",")
                ranking.append((int(loop_id), float(score)))

    precision, recall = (precision_recall(accepted, labels)
                         if labels is not None else (None, None))
    rmse = None
    traj_path = os.path.join(out, "trajectory_after.txt")
    if inputs.gt_trajectory is not None and os.path.exists(traj_path):
        rmse = trajectory_rmse(load_tum_trajectory(traj_path),
                               inputs.gt_trajectory, align=args.align)
    smd = None
    model_path = os.path.join(out, "model_after.ply")
    if inputs.scene and os.path.exists(model_path):
        smd = surface_mean_distance(read_ply(model_path), inputs.scene)
    consistency = None
    metrics_path = os.path.join(out, "metrics.csv")
    if os.path.exists(metrics_path):
        with open(metrics_path) as f:
            for line in f:
                key, _, value = line.strip().partition(",")
                if key == "consistency" and value not in ("-", "value"):
                    consistency = float(value)

    metrics = MetricsReport(
        precision=precision, recall=recall, trajectory_rmse=rmse, smd=smd,
        consistency=consistency,
        loops_before=len(ranking), loops_after=len(accepted),
    )
    if labels is not None and ranking:
        write_pr_curve_csv(os.path.join(out, "pr_curve.csv"), ranking, labels, accepted)
    metrics.write_csv(os.path.join(out, "metrics.csv"))
    with open(os.path.join(out, "metrics.txt"), "w") as f:
        f.write(metrics.to_text())
    print(metrics.to_text())
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loopsift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic scenario directory")
    p_synth.add_argument("--out", required=True, help="output scenario directory")
    p_synth.add_argument("--seed", type=int, default=7)
    p_synth.add_argument("--frames", type=int, default=200)
    p_synth.add_argument("--width", type=int, default=320)
    p_synth.add_argument("--height", type=int, default=240)
    p_synth.add_argument("--focal", type=float, default=250.0)
    p_synth.add_argument("--revolutions", type=int, default=2)
    p_synth.add_argument("--sigma-rot", type=float, default=0.001,
                         help="odometry rotation noise per step (rad)")
    p_synth.add_argument("--sigma-trans", type=float, default=0.002,
                         help="odometry translation noise per step (m)")
    p_synth.add_argument("--true-loops", type=int, default=10)
    p_synth.add_argument("--false-loops", type=int, default=5)
    p_synth.add_argument("--min-loop-gap", type=int, default=60)
    p_synth.set_defaults(func=cmd_synth)

    p_sift = sub.add_parser("sift", help="run loop sifting on a scenario or manifest")
    p_sift.add_argument("--input", required=True, help="directory holding manifest.txt")
    p_sift.add_argument("--out", required=True, help="output directory")
    p_sift.add_argument("--k", type=_positive_int, default=50, help="frames per fragment")
    p_sift.add_argument("--stride", type=_positive_int, default=2, help="fusion pixel stride")
    p_sift.add_argument("--threads", type=_positive_int, default=1)
    p_sift.add_argument("--score-every", type=_positive_int, default=1,
                        help="score every n-th frame (fidelity/speed knob)")
    p_sift.add_argument("--align", dest="align", action="store_true", default=True)
    p_sift.add_argument("--no-align", dest="align", action="store_false")
    p_sift.set_defaults(func=cmd_sift)

    p_eval = sub.add_parser("eval", help="evaluate sift outputs against the input's ground truth")
    p_eval.add_argument("--input", required=True, help="directory holding manifest.txt")
    p_eval.add_argument("--out", required=True, help="sift output directory")
    p_eval.add_argument("--align", dest="align", action="store_true", default=True)
    p_eval.add_argument("--no-align", dest="align", action="store_false")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        return _fail(EXIT_PARSE, str(exc))
    except NumericsError as exc:
        return _fail(EXIT_NUMERIC, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))


if __name__ == "__main__":
    sys.exit(main())
