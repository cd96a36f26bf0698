import dataclasses

import numpy as np
import pytest

from loopsift import geometry as geo
from loopsift import posegraph as pg
from loopsift import sifting
from loopsift import synth
from loopsift.consistency import ConsistencyScore, DepthConsistencyScorer
from loopsift.errors import NumericsError
from loopsift.geometry import Pose
from loopsift.surfels import assemble_model, build_fragments, fragment_consistent_trajectory


CFG = synth.ScenarioConfig(
    frames=60, width=64, height=48, focal=50.0,
    n_true_loops=3, n_false_loops=2, min_loop_gap=25,
)


@pytest.fixture(scope="module")
def scenario():
    scn = synth.generate(CFG, seed=31)
    graph = synth.scenario_graph(scn)
    fragments = build_fragments(scn.frames, scn.noisy_trajectory, k=6, stride=4)
    score_frames = scn.frames[::6]
    return scn, graph, fragments, score_frames


class ConstantScorer:
    """Stub scorer: same value for every map."""

    def __init__(self, value=5.0):
        self.value = value

    def __call__(self, map_, frames, trajectory):
        return ConsistencyScore(self.value, [(f.index, self.value / len(frames), 0) for f in frames], 0)


def make_frame_loop(loop_id, a, b, measurement, info_scale=2500.0):
    return sifting.LoopCandidate(
        id=loop_id, kind=sifting.FRAME_LOOP, endpoints=(a, b),
        measurement=measurement, information=np.eye(6) * info_scale,
    )


class TestExpandFragmentLoop:
    @staticmethod
    def toy_fragments():
        # two 3-frame fragments with known local poses
        frags = []
        for fid, (first, ref) in enumerate([(0, 1), (9, 10)]):
            local = {
                first + k: Pose(t=np.array([0.1 * k - 0.1, 0.0, 0.0])) for k in range(3)
            }
            frags.append(
                type("F", (), dict(id=fid, first=first, last=first + 2, ref_frame=ref, surfels=None,
                                   local_poses=local, frame_count=3))()
            )
        return frags

    def test_six_loops_between_three_frame_fragments(self):
        frags = self.toy_fragments()
        meas = Pose(t=np.array([1.0, 2.0, 3.0]))
        loop = sifting.LoopCandidate(
            id=5, kind=sifting.FRAGMENT_LOOP, endpoints=(0, 1),
            measurement=meas, information=np.eye(6),
        )
        out = sifting.expand_fragment_loop(loop, frags, id_start=100)
        assert len(out) == 6
        assert [c.endpoints for c in out[:3]] == [(1, 9), (1, 10), (1, 11)]
        assert [c.endpoints for c in out[3:]] == [(10, 0), (10, 1), (10, 2)]
        assert all(c.parent == 5 for c in out)
        assert [c.id for c in out] == list(range(100, 106))
        # measurement of ref_a -> ref_b equals the fragment measurement
        mid = out[1]
        assert np.max(np.abs(mid.measurement.to_matrix() - meas.to_matrix())) < 1e-12
        # composition with the known local offsets
        first = out[0]
        expected = geo.compose(meas, Pose(t=np.array([-0.1, 0.0, 0.0])))
        assert np.max(np.abs(first.measurement.to_matrix() - expected.to_matrix())) < 1e-12
        # reverse direction carries the inverted fragment measurement
        rev_mid = out[4]
        assert np.max(np.abs(rev_mid.measurement.to_matrix()
                             - geo.inverse(meas).to_matrix())) < 1e-12

    def test_single_frame_fragments_give_two_loops(self):
        frags = []
        for fid, frame in enumerate([2, 8]):
            frags.append(
                type("F", (), dict(id=fid, first=frame, last=frame, ref_frame=frame, surfels=None,
                                   local_poses={frame: Pose.identity()}, frame_count=1))()
            )
        loop = sifting.LoopCandidate(
            id=0, kind=sifting.FRAGMENT_LOOP, endpoints=(0, 1),
            measurement=Pose(t=np.array([0.5, 0.0, 0.0])), information=np.eye(6),
        )
        out = sifting.expand_fragment_loop(loop, frags)
        assert len(out) == 2
        assert out[0].endpoints == (2, 8)
        assert out[1].endpoints == (8, 2)

    def test_unknown_fragment_rejected(self):
        frags = self.toy_fragments()
        loop = sifting.LoopCandidate(
            id=0, kind=sifting.FRAGMENT_LOOP, endpoints=(0, 7),
            measurement=Pose.identity(), information=np.eye(6),
        )
        with pytest.raises(ValueError):
            sifting.expand_fragment_loop(loop, frags)

    def test_frame_loop_rejected(self):
        loop = make_frame_loop(0, 1, 50, Pose.identity())
        with pytest.raises(ValueError):
            sifting.expand_fragment_loop(loop, self.toy_fragments())


class TestRankLoops:
    def test_singleton(self, scenario):
        scn, graph, fragments, frames = scenario
        cand = scn.loop_candidates()[0]
        ranked = sifting.rank_loops(graph, [cand], frames, fragments)
        assert len(ranked) == 1
        assert ranked[0][0] == cand.id
        assert np.isfinite(ranked[0][1])

    def test_tie_breaks_by_ascending_id(self, scenario):
        scn, graph, fragments, frames = scenario
        cands = scn.loop_candidates()[:3]
        ranked = sifting.rank_loops(graph, cands, frames, fragments, scorer=ConstantScorer())
        assert [i for i, _ in ranked] == sorted(c.id for c in cands)

    def test_false_loop_ranked_last(self, scenario):
        # oracle: evaluate each loop directly with optimize+assemble+score
        scn, graph, fragments, frames = scenario
        labels = scn.labels()
        cands = [c for c, l in scn.candidates if l][:2] + [c for c, l in scn.candidates if not l][:1]
        ranked = sifting.rank_loops(graph, cands, frames, fragments)
        assert not labels[ranked[-1][0]]

        scorer = DepthConsistencyScorer()
        direct = {}
        for cand in cands:
            result = pg.optimize(graph, [cand.edge()])
            model = assemble_model(fragments, result.trajectory)
            poses = fragment_consistent_trajectory(fragments, result.trajectory)
            direct[cand.id] = scorer(model, frames, poses).value
        assert [i for i, _ in ranked] == sorted(direct, key=lambda i: (direct[i], i))
        for loop_id, score in ranked:
            assert score == pytest.approx(direct[loop_id], rel=1e-12)

    def test_scorer_error_is_not_a_rejected_loop(self, scenario):
        scn, graph, fragments, frames = scenario

        def broken(map_, frames, trajectory):
            raise ValueError("scorer bug")

        with pytest.raises(ValueError, match="scorer bug"):
            sifting.rank_loops(graph, scn.loop_candidates()[:1], frames, fragments,
                               scorer=broken)

    def test_threads_do_not_change_result(self, scenario):
        scn, graph, fragments, frames = scenario
        cands = scn.loop_candidates()
        a = sifting.rank_loops(graph, cands, frames, fragments, threads=1)
        b = sifting.rank_loops(graph, cands, frames, fragments, threads=2)
        assert a == b


class TestGreedyAccept:
    def test_empty_ranking(self, scenario):
        scn, graph, fragments, frames = scenario
        result = sifting.greedy_accept(graph, [], [], frames, fragments, 7.0, graph.trajectory())
        assert result.accepted == []
        assert result.final_score == 7.0
        assert result.baseline_score == 7.0

    def test_equal_score_rejected(self, scenario):
        scn, graph, fragments, frames = scenario
        cand = scn.loop_candidates()[0]
        scorer = ConstantScorer(5.0)
        result = sifting.greedy_accept(
            graph, [cand], [(cand.id, 5.0)], frames, fragments, 5.0, graph.trajectory(),
            scorer=scorer,
        )
        assert result.accepted == []
        assert result.final_score == 5.0
        assert result.trace[0].accepted is False

    def test_trace_and_invariants(self, scenario):
        scn, graph, fragments, frames = scenario
        result = sifting.sift(graph, scn.loop_candidates(), frames, fragments)
        labels = scn.labels()
        assert all(labels[i] for i in result.accepted)
        assert result.final_score <= result.baseline_score
        # incumbent scores strictly decrease along accepted entries
        accepted_entries = [e for e in result.trace if e.accepted]
        assert len(accepted_entries) >= 1
        for e in accepted_entries:
            assert e.tentative_score < e.score_before
        befores = [e.score_before for e in accepted_entries]
        assert befores == sorted(befores, reverse=True)
        assert set(i for i, _ in result.ranking) == {c.id for c in scn.loop_candidates()}


class TestSift:
    def test_no_candidates(self, scenario):
        scn, graph, fragments, frames = scenario
        result = sifting.sift(graph, [], frames, fragments)
        assert result.accepted == []
        assert result.final_score == result.baseline_score

    def test_all_false_rejected(self, scenario):
        # oracle check: every single-loop score must be worse than baseline
        scn, graph, fragments, frames = scenario
        false_cands = [c for c, l in scn.candidates if not l]
        result = sifting.sift(graph, false_cands, frames, fragments)
        assert result.accepted == []
        assert result.final_score == result.baseline_score
        for _, score in result.ranking:
            assert score > result.baseline_score

    def test_true_loop_reduces_rmse(self, scenario):
        from loopsift.evaluation import trajectory_rmse

        scn, graph, fragments, frames = scenario
        result = sifting.sift(graph, scn.loop_candidates(), frames, fragments)
        assert len(result.accepted) >= 1
        before = trajectory_rmse(scn.noisy_trajectory, scn.gt_trajectory, align=True)
        after = trajectory_rmse(result.final_trajectory, scn.gt_trajectory, align=True)
        assert after < before

    def test_one_optimize_per_evaluation(self, scenario, monkeypatch):
        scn, graph, fragments, frames = scenario
        calls = []
        real = sifting.optimize

        def counting(graph, loops=()):
            calls.append(len(loops))
            return real(graph, loops)

        monkeypatch.setattr(sifting, "optimize", counting)
        result = sifting.sift(graph, scn.loop_candidates(), frames, fragments,
                              scorer=ConstantScorer())
        units = len(result.ranking)
        assert units == len(scn.loop_candidates())
        # the baseline, then each unit once in ranking and once in the greedy pass
        assert len(calls) == 1 + 2 * units
        assert calls[0] == 0

    def test_baseline_failure_raises_numerics_error(self, scenario, monkeypatch):
        scn, graph, fragments, frames = scenario
        real = sifting.optimize

        def stalled(graph, loops=()):
            return dataclasses.replace(real(graph, loops), converged=False)

        monkeypatch.setattr(sifting, "optimize", stalled)
        with pytest.raises(NumericsError, match="did not converge"):
            sifting.sift(graph, scn.loop_candidates(), frames, fragments,
                         scorer=ConstantScorer())

    def test_adjacent_frame_loop_rejected(self, scenario):
        scn, graph, fragments, frames = scenario
        near = make_frame_loop(99, 10, 12, Pose.identity())
        with pytest.raises(ValueError):
            sifting.sift(graph, [near], frames, fragments)

    def test_deterministic_across_threads(self, scenario):
        scn, graph, fragments, frames = scenario
        a = sifting.sift(graph, scn.loop_candidates(), frames, fragments, threads=1)
        b = sifting.sift(graph, scn.loop_candidates(), frames, fragments, threads=2)
        assert a.accepted == b.accepted
        assert a.ranking == b.ranking
        assert a.final_score == b.final_score

    def test_fragment_loop_group_is_atomic(self, scenario):
        scn, graph, fragments, frames = scenario
        fa, fb = fragments[0], fragments[4]
        meas = geo.compose(
            geo.inverse(scn.gt_trajectory.pose(fa.ref_frame)),
            scn.gt_trajectory.pose(fb.ref_frame),
        )
        frag_loop = sifting.LoopCandidate(
            id=0, kind=sifting.FRAGMENT_LOOP, endpoints=(fa.id, fb.id),
            measurement=meas, information=np.eye(6) * 2500.0,
        )
        result = sifting.sift(graph, [frag_loop], frames, fragments)
        # one atomic unit under the parent id
        assert len(result.ranking) == 1
        assert result.ranking[0][0] == 0
        assert len(result.trace) == 1
        assert result.accepted in ([], [0])
        if result.accepted:
            assert len(result.accepted_edges) == fa.frame_count + fb.frame_count

    def test_csv_outputs(self, scenario, tmp_path):
        scn, graph, fragments, frames = scenario
        result = sifting.sift(graph, scn.loop_candidates(), frames, fragments)
        trace_path = tmp_path / "trace.csv"
        ranking_path = tmp_path / "ranking.csv"
        result.write_trace_csv(trace_path)
        result.write_ranking_csv(ranking_path)
        trace_lines = trace_path.read_text().strip().split("\n")
        assert trace_lines[0] == "loop_id,rank,single_loop_score,tentative_score,accepted"
        assert len(trace_lines) == 1 + len(result.ranking)
        ranking_lines = ranking_path.read_text().strip().split("\n")
        assert ranking_lines[0] == "rank,loop_id,single_loop_score"
        report = result.report()
        assert "accepted" in report and str(len(result.accepted)) in report
