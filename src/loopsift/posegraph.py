"""Pose graph optimization over keyframe poses.

The graph holds one pose per node (ids are contiguous from 0), odometry
edges from tracking, and optionally loop edges supplied at optimize()
time.  ``optimize`` minimizes

    sum over edges  r(e)^T . info(e) . r(e),
    r(e) = log(measurement^-1 . (T_from^-1 . T_to))

by Levenberg-Marquardt with analytic Jacobians of the right-multiplicative
update ``T <- T . exp(xi)``.  The fixed node pins the gauge.  All edge
kinds share the same objective; ``kind`` only records the edge's origin.

I/O speaks the textual g2o format (VERTEX_SE3:QUAT / EDGE_SE3:QUAT).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import geometry as geo
from .errors import DisconnectedGraphError, ParseError
from .geometry import Pose

ODOMETRY = "odometry"
LOOP = "loop"

# Applied when a source format carries no information matrix for a loop edge.
DEFAULT_LOOP_INFO_SCALE = 100.0

# Levenberg-Marquardt stopping rule (see optimize)
MAX_ITERATIONS = 100
REL_TOL = 1e-9

_FMT = "%.17g"  # round-trips float64 exactly


def _format_floats(values) -> str:
    return " ".join(_FMT % v for v in values)


@dataclass(frozen=True)
class Edge:
    """Relative-pose constraint from node i to node j.

    measurement approximates T_i^-1 . T_j; information is the 6x6 inverse
    covariance in [rotation, translation] twist order.
    """

    i: int
    j: int
    measurement: Pose
    information: np.ndarray = field(default_factory=lambda: np.eye(6))
    kind: str = ODOMETRY

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError(f"edge endpoints must differ, got {self.i}->{self.j}")
        if self.kind not in (ODOMETRY, LOOP):
            raise ValueError(f"unknown edge kind {self.kind!r}")
        info = np.asarray(self.information, dtype=float).reshape(6, 6)
        if np.max(np.abs(info - info.T)) > 1e-9:
            raise ValueError(f"information matrix of edge {self.i}->{self.j} is not symmetric")
        try:
            np.linalg.cholesky(info)
        except np.linalg.LinAlgError:
            raise ValueError(
                f"information matrix of edge {self.i}->{self.j} is not positive definite"
            ) from None
        info = 0.5 * (info + info.T)
        info.setflags(write=False)
        object.__setattr__(self, "information", info)


class Trajectory:
    """Ordered (node-id, Pose) sequence."""

    def __init__(self, ids, poses):
        ids = [int(i) for i in ids]
        poses = list(poses)
        if len(ids) != len(poses):
            raise ValueError("ids and poses must have equal length")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids in trajectory")
        self.ids = ids
        self.poses = poses
        self._index = {i: k for k, i in enumerate(ids)}

    @classmethod
    def from_poses(cls, poses) -> "Trajectory":
        poses = list(poses)
        return cls(range(len(poses)), poses)

    def pose(self, node_id: int) -> Pose:
        return self.poses[self._index[node_id]]

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._index

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(zip(self.ids, self.poses))

    def transformed(self, g: Pose) -> "Trajectory":
        """Apply one rigid transform on the left of every pose."""
        return Trajectory(self.ids, [geo.compose(g, p) for p in self.poses])


@dataclass
class PoseGraph:
    """Nodes (id = list index), edges, and the gauge-fixing node."""

    poses: list
    edges: list
    fixed_id: int = 0

    def __post_init__(self):
        n = len(self.poses)
        if n == 0:
            raise ValueError("pose graph needs at least one node")
        if not 0 <= self.fixed_id < n:
            raise ValueError(f"fixed node {self.fixed_id} outside 0..{n - 1}")
        for e in self.edges:
            if not (0 <= e.i < n and 0 <= e.j < n):
                raise ValueError(f"edge {e.i}->{e.j} references a missing node (n={n})")

    @property
    def node_count(self) -> int:
        return len(self.poses)

    def trajectory(self) -> Trajectory:
        return Trajectory.from_poses(self.poses)


@dataclass
class OptimizeResult:
    trajectory: Trajectory
    converged: bool
    iterations: int
    initial_cost: float
    final_cost: float
    cost_history: list


def graph_from_odometry(trajectory: Trajectory, information=None) -> PoseGraph:
    """Chain graph with consecutive-pose odometry edges; node 0 is fixed."""
    poses = list(trajectory.poses)
    if len(poses) < 2:
        raise ValueError("need at least 2 poses to build an odometry graph")
    if information is None:
        info = np.eye(6)
    elif np.isscalar(information):
        info = np.eye(6) * float(information)
    else:
        info = np.asarray(information, dtype=float)
    edges = [
        Edge(k, k + 1, geo.compose(geo.inverse(poses[k]), poses[k + 1]), info, ODOMETRY)
        for k in range(len(poses) - 1)
    ]
    return PoseGraph(poses, edges, fixed_id=0)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def _edge_arrays(edges):
    ii = np.array([e.i for e in edges], dtype=np.intp)
    jj = np.array([e.j for e in edges], dtype=np.intp)
    mq = np.stack([e.measurement.q for e in edges])
    mt = np.stack([e.measurement.t for e in edges])
    info = np.stack([e.information for e in edges])
    return ii, jj, mq, mt, info


def _residuals(qs, ts, ii, jj, mq, mt):
    """Batched edge residual twists (E, 6) plus the relative pose j->i used
    by the Jacobians."""
    qi, qj = qs[ii], qs[jj]
    ti, tj = ts[ii], ts[jj]
    qi_c = geo.quat_conj(qi)
    rel_q = geo.quat_mul(qi_c, qj)
    rel_t = geo.quat_rotate(qi_c, tj - ti)
    err_q = geo.quat_mul(geo.quat_conj(mq), rel_q)
    err_t = geo.quat_rotate(geo.quat_conj(mq), rel_t - mt)
    r = geo.batch_log(geo.quat_normalize(err_q), err_t)
    ji_q = geo.quat_conj(rel_q)
    ji_t = -geo.quat_rotate(ji_q, rel_t)
    return r, ji_q, ji_t


def _cost_from_residuals(r, info) -> float:
    return float(np.einsum("ek,ekl,el->", r, info, r))


def _check_connected(n, edges, fixed_id):
    adj = [[] for _ in range(n)]
    for e in edges:
        adj[e.i].append(e.j)
        adj[e.j].append(e.i)
    seen = np.zeros(n, dtype=bool)
    stack = [fixed_id]
    seen[fixed_id] = True
    while stack:
        k = stack.pop()
        for m in adj[k]:
            if not seen[m]:
                seen[m] = True
                stack.append(m)
    if not seen.all():
        missing = np.flatnonzero(~seen).tolist()
        raise DisconnectedGraphError(
            f"graph is disconnected: nodes {missing} unreachable from fixed node {fixed_id}; "
            "the normal equations are singular"
        )


def optimize(graph: PoseGraph, loops=()) -> OptimizeResult:
    """Minimize the graph objective over all non-fixed poses.

    Pure function of its inputs: concurrent calls on a shared graph are
    safe.  Converges when an accepted step is tiny and the relative cost
    decrease drops below ``REL_TOL`` (the step condition keeps damped
    iterations from stopping short of stationarity), or when damping can
    find no descent direction at float precision.  Hitting
    ``MAX_ITERATIONS`` returns the best iterate with ``converged=False``.
    """
    loops = list(loops)
    for e in loops:
        if e.kind != LOOP:
            raise ValueError(f"edge {e.i}->{e.j} passed as loop but has kind {e.kind!r}")
        if not (0 <= e.i < graph.node_count and 0 <= e.j < graph.node_count):
            raise ValueError(f"loop edge {e.i}->{e.j} references a missing node")
    edges = list(graph.edges) + loops
    n = graph.node_count
    _check_connected(n, edges, graph.fixed_id)

    qs = np.stack([p.q for p in graph.poses])
    ts = np.stack([p.t for p in graph.poses])
    if not edges:
        return OptimizeResult(Trajectory.from_poses(graph.poses), True, 0, 0.0, 0.0, [0.0])

    ii, jj, mq, mt, info = _edge_arrays(edges)
    r, ji_q, ji_t = _residuals(qs, ts, ii, jj, mq, mt)
    cost = _cost_from_residuals(r, info)
    history = [cost]

    # variable layout: every node except the fixed one owns a 6-block
    var_of = np.arange(n)
    var_of[graph.fixed_id:] -= 1
    var_of[graph.fixed_id] = -1
    nv = 6 * (n - 1)

    free_i = var_of[ii] >= 0
    free_j = var_of[jj] >= 0

    # precompute sparse scatter indices for the four blocks of each edge
    block = np.arange(6)
    row_in_block, col_in_block = np.meshgrid(block, block, indexing="ij")

    def scatter_indices(vr, vc, mask):
        rows = (6 * vr[mask, None, None] + row_in_block[None]).ravel()
        cols = (6 * vc[mask, None, None] + col_in_block[None]).ravel()
        return rows, cols

    vi = var_of[ii]
    vj = var_of[jj]
    idx_ii = scatter_indices(vi, vi, free_i)
    idx_jj = scatter_indices(vj, vj, free_j)
    both = free_i & free_j
    idx_ij = scatter_indices(vi[both], vj[both], np.ones(both.sum(), dtype=bool))
    idx_ji = scatter_indices(vj[both], vi[both], np.ones(both.sum(), dtype=bool))

    lam = 1e-5
    iterations = 0
    converged = cost < 1e-24  # numerically zero residuals: nothing to do

    while not converged and iterations < MAX_ITERATIONS:
        jri = geo.se3_right_jacobian_inverse(r)
        adj = geo.se3_adjoint(ji_q, ji_t)
        Jj = jri
        Ji = -jri @ adj

        info_r = np.einsum("ekl,el->ek", info, r)
        g = np.zeros(nv)
        np.add.at(g, (6 * vi[free_i, None] + block[None]).ravel(),
                  np.einsum("elk,el->ek", Ji[free_i], info_r[free_i]).ravel())
        np.add.at(g, (6 * vj[free_j, None] + block[None]).ravel(),
                  np.einsum("elk,el->ek", Jj[free_j], info_r[free_j]).ravel())

        JiTO = np.einsum("elk,elm->ekm", Ji, info)
        JjTO = np.einsum("elk,elm->ekm", Jj, info)
        H_ii = (JiTO[free_i] @ Ji[free_i]).ravel()
        H_jj = (JjTO[free_j] @ Jj[free_j]).ravel()
        H_ij = (JiTO[both] @ Jj[both]).ravel()
        H_ji = (JjTO[both] @ Ji[both]).ravel()
        rows = np.concatenate([idx_ii[0], idx_jj[0], idx_ij[0], idx_ji[0]])
        cols = np.concatenate([idx_ii[1], idx_jj[1], idx_ij[1], idx_ji[1]])
        vals = np.concatenate([H_ii, H_jj, H_ij, H_ji])
        H = sp.coo_matrix((vals, (rows, cols)), shape=(nv, nv)).tocsc()
        diag = H.diagonal()

        accepted = False
        for _ in range(16):
            damped = H + sp.diags(lam * np.maximum(diag, 1e-12))
            delta = spla.spsolve(damped, -g)
            if not np.all(np.isfinite(delta)):
                lam *= 10.0
                continue

            step = np.zeros((n, 6))
            step[var_of >= 0] = delta.reshape(-1, 6)
            dq = geo.rotvec_to_quat(step[:, :3])
            dt = (geo.so3_v_matrix(step[:, :3]) @ step[:, 3:, None])[..., 0]
            qs_new = geo.quat_normalize(geo.quat_mul(qs, dq))
            ts_new = geo.quat_rotate(qs, dt) + ts

            r_new, jiq_new, jit_new = _residuals(qs_new, ts_new, ii, jj, mq, mt)
            cost_new = _cost_from_residuals(r_new, info)
            if cost_new < cost:
                accepted = True
                break
            lam = min(lam * 10.0, 1e12)

        if not accepted:
            # damping exhausted: no descent direction at float precision, so
            # the iterate is numerically stationary
            converged = True
            break

        decrease = cost - cost_new
        step_size = float(np.max(np.abs(delta)))
        qs, ts, r, ji_q, ji_t = qs_new, ts_new, r_new, jiq_new, jit_new
        cost = cost_new
        history.append(cost)
        iterations += 1
        lam = max(lam / 10.0, 1e-15)
        # small relative decrease alone can fire while damped steps are still
        # undershooting; require the step itself to have shrunk too
        if decrease <= REL_TOL * max(cost, 1e-300) and step_size < 1e-9:
            converged = True
        if cost < 1e-24:
            converged = True

    poses = [Pose(qs[k], ts[k]) for k in range(n)]
    return OptimizeResult(
        Trajectory.from_poses(poses), converged, iterations, history[0], cost, history
    )


# ---------------------------------------------------------------------------
# g2o text format
# ---------------------------------------------------------------------------

def write_g2o(graph: PoseGraph, path) -> None:
    lines = []
    for node_id, p in enumerate(graph.poses):
        qw, qx, qy, qz = p.q
        lines.append(
            f"VERTEX_SE3:QUAT {node_id} "
            + _format_floats([p.t[0], p.t[1], p.t[2], qx, qy, qz, qw])
        )
    for e in graph.edges:
        qw, qx, qy, qz = e.measurement.q
        t = e.measurement.t
        upper = [e.information[r, c] for r in range(6) for c in range(r, 6)]
        lines.append(
            f"EDGE_SE3:QUAT {e.i} {e.j} "
            + _format_floats([t[0], t[1], t[2], qx, qy, qz, qw])
            + " "
            + _format_floats(upper)
        )
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_g2o(path) -> PoseGraph:
    """Parse VERTEX_SE3:QUAT / EDGE_SE3:QUAT lines.

    Edges between consecutive ids come back as odometry, all others as
    loops; an optional ``FIX id`` line selects the gauge node (default 0).
    """
    vertices = {}
    edges_raw = []
    fixed_id = 0
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            tag = parts[0]
            try:
                if tag == "VERTEX_SE3:QUAT":
                    if len(parts) != 9:
                        raise ValueError("expected 9 fields")
                    node_id = int(parts[1])
                    tx, ty, tz, qx, qy, qz, qw = (float(v) for v in parts[2:9])
                    vertices[node_id] = Pose(np.array([qw, qx, qy, qz]), np.array([tx, ty, tz]))
                elif tag == "EDGE_SE3:QUAT":
                    if len(parts) != 31:
                        raise ValueError("expected 31 fields")
                    i, j = int(parts[1]), int(parts[2])
                    tx, ty, tz, qx, qy, qz, qw = (float(v) for v in parts[3:10])
                    upper = [float(v) for v in parts[10:31]]
                    info = np.zeros((6, 6))
                    k = 0
                    for r in range(6):
                        for c in range(r, 6):
                            info[r, c] = upper[k]
                            info[c, r] = upper[k]
                            k += 1
                    meas = Pose(np.array([qw, qx, qy, qz]), np.array([tx, ty, tz]))
                    edges_raw.append((i, j, meas, info))
                elif tag == "FIX":
                    fixed_id = int(parts[1])
                # unknown tags are skipped: g2o files often carry extras
            except (ValueError, IndexError) as exc:
                raise ParseError(f"{path}:{lineno}: bad {tag} line: {exc}") from None
    if not vertices:
        raise ParseError(f"{path}: no VERTEX_SE3:QUAT lines found")
    ids = sorted(vertices)
    if ids != list(range(len(ids))):
        raise ParseError(f"{path}: vertex ids are not contiguous from 0")
    poses = [vertices[i] for i in ids]
    edges = []
    for i, j, meas, info in edges_raw:
        kind = ODOMETRY if abs(i - j) == 1 else LOOP
        edges.append(Edge(i, j, meas, info, kind))
    return PoseGraph(poses, edges, fixed_id=fixed_id)
