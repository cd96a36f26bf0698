"""Loop candidate ranking and greedy acceptance.

Phase 1 evaluates every candidate alone: optimize the pose graph with just
that loop, reassemble the fragment map under the optimized trajectory, and
score the map against the depth frames.  Candidates are then ranked from
most to least improvement.  Phase 2 walks the ranking and tentatively adds
each candidate to the accepted set; the candidate stays accepted exactly
when the full re-optimized, re-scored map improves on the best score seen
so far.  The first accepted loop therefore improves on the plain tracking
result, and nothing is ever accepted on the strength of a tuned threshold:
the only guard is a fixed relative epsilon against float noise.

Fragment-level matches are expanded into frame loops first (reference
frame of one fragment against every frame of the other, both directions)
and the whole expanded group is ranked and accepted atomically.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .consistency import DepthConsistencyScorer
from .errors import NumericsError
from .geometry import Pose
from .posegraph import LOOP, Edge, PoseGraph, Trajectory, optimize
from .surfels import assemble_model, fragment_consistent_trajectory

FRAME_LOOP = "frame"
FRAGMENT_LOOP = "fragment"

# float-noise guard on acceptance; fixed, not a quality knob
EPSILON_REL = 1e-9


@dataclass(frozen=True)
class LoopCandidate:
    """A relative-pose constraint between two frames or two fragments."""

    id: int
    kind: str
    endpoints: tuple
    measurement: Pose
    information: np.ndarray = field(default_factory=lambda: np.eye(6) * 100.0)
    parent: int | None = None  # original fragment-loop id for expanded loops

    def __post_init__(self):
        if self.kind not in (FRAME_LOOP, FRAGMENT_LOOP):
            raise ValueError(f"unknown loop kind {self.kind!r}")
        a, b = self.endpoints
        if a == b:
            raise ValueError(f"loop {self.id} endpoints must differ, got {a}=={b}")
        info = np.asarray(self.information, dtype=float).reshape(6, 6)
        if np.max(np.abs(info - info.T)) > 1e-9:
            raise ValueError(f"loop {self.id}: information matrix not symmetric")
        try:
            np.linalg.cholesky(info)
        except np.linalg.LinAlgError:
            raise ValueError(f"loop {self.id}: information matrix not positive definite") from None
        object.__setattr__(self, "endpoints", (int(a), int(b)))
        object.__setattr__(self, "information", info)

    def edge(self) -> Edge:
        if self.kind != FRAME_LOOP:
            raise ValueError(f"loop {self.id} is a fragment loop; expand it first")
        a, b = self.endpoints
        return Edge(a, b, self.measurement, self.information, LOOP)


@dataclass
class TraceEntry:
    loop_id: int
    rank: int
    single_loop_score: float
    score_before: float
    tentative_score: float
    accepted: bool
    note: str = ""


@dataclass
class SiftResult:
    accepted: list  # unit ids in acceptance order
    ranking: list  # (unit id, single-loop score), best first
    baseline_score: float
    final_score: float
    trace: list  # TraceEntry per ranked unit
    baseline_trajectory: Trajectory
    final_trajectory: Trajectory
    accepted_edges: list

    def write_trace_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("loop_id,rank,single_loop_score,tentative_score,accepted\n")
            for e in self.trace:
                f.write(
                    "%d,%d,%.17g,%.17g,%d\n"
                    % (e.loop_id, e.rank, e.single_loop_score, e.tentative_score, int(e.accepted))
                )

    def write_ranking_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("rank,loop_id,single_loop_score\n")
            for rank, (loop_id, score) in enumerate(self.ranking):
                f.write("%d,%d,%.17g\n" % (rank, loop_id, score))

    def report(self) -> str:
        lines = [
            "loop sifting report",
            "===================",
            f"candidates ranked : {len(self.ranking)}",
            f"accepted          : {len(self.accepted)}  {self.accepted}",
            f"baseline score    : {self.baseline_score:.6f}",
            f"final score       : {self.final_score:.6f}",
            "",
            "rank  loop_id  single_score  tentative  accepted",
        ]
        for e in self.trace:
            lines.append(
                "%4d  %7d  %12.6f  %9.6f  %s%s"
                % (
                    e.rank, e.loop_id, e.single_loop_score, e.tentative_score,
                    "yes" if e.accepted else "no",
                    f"  ({e.note})" if e.note else "",
                )
            )
        return "\n".join(lines) + "\n"


def expand_fragment_loop(loop: LoopCandidate, fragments, id_start: int = 0) -> list:
    """Convert one fragment match into frame loops.

    The reference frame of fragment A is connected to every frame of
    fragment B, and the reference frame of B to every frame of A.
    Measurements chain the fragment-level relative pose with the stored
    intra-fragment poses.  Children carry ``parent=loop.id``.
    """
    if loop.kind != FRAGMENT_LOOP:
        raise ValueError(f"loop {loop.id} is not a fragment loop")
    by_id = {f.id: f for f in fragments}
    fa, fb = loop.endpoints
    if fa not in by_id or fb not in by_id:
        raise ValueError(f"loop {loop.id}: unknown fragment id in {loop.endpoints}")
    frag_a, frag_b = by_id[fa], by_id[fb]

    out = []
    next_id = id_start
    meas_inv = geo.inverse(loop.measurement)
    for frame, local in sorted(frag_b.local_poses.items()):
        out.append(
            LoopCandidate(
                id=next_id, kind=FRAME_LOOP,
                endpoints=(frag_a.ref_frame, frame),
                measurement=geo.compose(loop.measurement, local),
                information=loop.information, parent=loop.id,
            )
        )
        next_id += 1
    for frame, local in sorted(frag_a.local_poses.items()):
        out.append(
            LoopCandidate(
                id=next_id, kind=FRAME_LOOP,
                endpoints=(frag_b.ref_frame, frame),
                measurement=geo.compose(meas_inv, local),
                information=loop.information, parent=loop.id,
            )
        )
        next_id += 1
    return out


def _expand_all(candidates, fragments):
    """Expand fragment loops; frame loops pass through as singleton units."""
    expanded = []
    next_id = max((c.id for c in candidates), default=-1) + 1
    for cand in candidates:
        if cand.kind == FRAGMENT_LOOP:
            children = expand_fragment_loop(cand, fragments, id_start=next_id)
            next_id += len(children)
            expanded.extend(children)
        else:
            expanded.append(cand)
    return expanded


def _units(candidates):
    """Group candidates into atomic units keyed by parent (or own) id."""
    units = {}
    for cand in candidates:
        key = cand.parent if cand.parent is not None else cand.id
        units.setdefault(key, []).append(cand)
    return sorted(units.items())


def _evaluate(graph, edges, frames, fragments, scorer):
    """One optimize + assemble + score pass; returns (value, trajectory, note).

    The map is scored against the fragment-consistent camera poses: the
    rigid reassembly moves whole fragments, so the observation poses ride
    with their fragments exactly as the surfels do.  Scoring the frozen
    fragments at the raw per-frame optimizer output would instead penalize
    every candidate for intra-fragment drift the reassembly cannot undo.
    """
    try:
        result = optimize(graph, edges)
        if not result.converged:
            return np.inf, None, "optimization did not converge"
        model = assemble_model(fragments, result.trajectory)
        score_poses = fragment_consistent_trajectory(fragments, result.trajectory)
        score = scorer(model, frames, score_poses)
        return score.value, result.trajectory, ""
    except (NumericsError, np.linalg.LinAlgError) as exc:
        return np.inf, None, f"{type(exc).__name__}: {exc}"


def rank_loops(graph, candidates, frames, fragments, scorer=None, threads: int = 1):
    """Score every unit alone on the initial graph; best (lowest) first.

    Ties break on ascending unit id; failed evaluations rank last.  Units
    are independent, so evaluation parallelizes over ``threads``.
    """
    scorer = scorer or DepthConsistencyScorer()
    units = _units(candidates)

    def job(item):
        unit_id, members = item
        edges = [c.edge() for c in members]
        value, _, note = _evaluate(graph, edges, frames, fragments, scorer)
        return unit_id, value, note

    if threads > 1 and len(units) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(job, units))
    else:
        results = [job(u) for u in units]

    results.sort(key=lambda r: (r[1], r[0]))
    return [(unit_id, value) for unit_id, value, _ in results]


def greedy_accept(graph, candidates, ranked, frames, fragments,
                  baseline_score: float, baseline_trajectory: Trajectory,
                  scorer=None) -> SiftResult:
    """Walk the ranking, keeping each unit only if the full tentative set
    strictly improves the incumbent best score, starting from the
    baseline's score and trajectory."""
    scorer = scorer or DepthConsistencyScorer()
    unit_map = dict(_units(candidates))

    incumbent = baseline_score
    best_traj = baseline_trajectory
    accepted_ids = []
    accepted_edges = []
    trace = []

    for rank, (unit_id, single_score) in enumerate(ranked):
        members = unit_map.get(unit_id)
        if members is None:
            raise ValueError(f"ranked unit {unit_id} not among candidates")
        tentative = accepted_edges + [c.edge() for c in members]
        value, trajectory, note = _evaluate(graph, tentative, frames, fragments, scorer)
        improves = value < incumbent - EPSILON_REL * abs(incumbent)
        if improves and trajectory is not None:
            accepted_ids.append(unit_id)
            accepted_edges = tentative
            trace.append(TraceEntry(unit_id, rank, single_score, incumbent, value, True, note))
            incumbent = value
            best_traj = trajectory
        else:
            if not note and trajectory is not None:
                note = "no improvement"
            trace.append(TraceEntry(unit_id, rank, single_score, incumbent, value, False, note))

    return SiftResult(
        accepted=accepted_ids,
        ranking=list(ranked),
        baseline_score=baseline_score,
        final_score=incumbent,
        trace=trace,
        baseline_trajectory=baseline_trajectory,
        final_trajectory=best_traj,
        accepted_edges=accepted_edges,
    )


def sift(graph: PoseGraph, candidates, frames, fragments,
         scorer=None, threads: int = 1) -> SiftResult:
    """Full pipeline: baseline score, per-loop ranking, greedy acceptance.

    ``frames`` is the observation set used for scoring; ``fragments`` must
    be prebuilt from the same graph's trajectory.  No acceptance threshold
    is exposed.  A baseline that fails to evaluate raises NumericsError.
    """
    scorer = scorer or DepthConsistencyScorer()
    span = max((f.frame_count for f in fragments), default=1)
    for cand in candidates:
        if cand.kind == FRAME_LOOP and abs(cand.endpoints[1] - cand.endpoints[0]) <= span:
            raise ValueError(
                f"loop {cand.id} connects frames {cand.endpoints} closer than one "
                f"fragment length ({span}); adjacent constraints are not loops"
            )

    expanded = _expand_all(candidates, fragments)

    baseline, baseline_trajectory, note = _evaluate(graph, [], frames, fragments, scorer)
    if baseline_trajectory is None:
        raise NumericsError(f"baseline without loops failed to evaluate: {note}")

    ranked = rank_loops(graph, expanded, frames, fragments, scorer=scorer, threads=threads)
    return greedy_accept(
        graph, expanded, ranked, frames, fragments, baseline, baseline_trajectory,
        scorer=scorer,
    )
