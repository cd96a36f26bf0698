"""Rigid-body transforms on SE(3).

A pose is a unit quaternion (w, x, y, z) plus a translation vector in
meters.  Twists are 6-vectors with the rotational part (radians) in the
first three components and the translational part (meters) in the last
three, so ``exp([0, 0, 0, 1, 0, 0])`` is a pure 1 m translation along x.

Quaternions are kept canonical (w >= 0, unit norm), which pins rotation
angles to [0, pi] and keeps long composition chains from drifting.  The
optimizer convention throughout the package is the right-multiplicative
update ``T <- T * exp(xi)``.

Batch helpers (``quat_mul``, ``quat_rotate``, ...) operate on stacked
arrays with the component axis last; the scalar ``Pose`` API wraps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError

_EPS = 1e-12
# Below this angle the closed forms for exp/log lose digits; switch to series.
_SMALL_ANGLE = 1e-4


# ---------------------------------------------------------------------------
# batched quaternion algebra (component axis last, scalar-first quaternions)
# ---------------------------------------------------------------------------

def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Unit-norm, w >= 0 canonical form."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    q = q / n
    flip = q[..., :1] < 0.0
    return np.where(flip, -q, q)


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_conj(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vectors v by quaternions q (broadcasting over leading axes)."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    w = q[..., 0:1]
    u = q[..., 1:]
    uv = np.cross(u, v)
    return v + 2.0 * (w * uv + np.cross(u, uv))


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    row0 = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)], axis=-1)
    row1 = np.stack([2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)], axis=-1)
    row2 = np.stack([2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)], axis=-1)
    return np.stack([row0, row1, row2], axis=-2)


def matrix_to_quat(R: np.ndarray) -> np.ndarray:
    """Rotation matrix to canonical quaternion (Shepperd's method, scalar only)."""
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] > R[2, 2]:
        s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    return quat_normalize(q)


def rotvec_to_quat(w: np.ndarray) -> np.ndarray:
    """Batched axis-angle vector -> quaternion."""
    w = np.asarray(w, dtype=float)
    angle = np.linalg.norm(w, axis=-1, keepdims=True)
    half = 0.5 * angle
    small = angle[..., 0] < _SMALL_ANGLE
    # sin(a/2)/a with series fallback near zero
    with np.errstate(invalid="ignore", divide="ignore"):
        k = np.where(angle > 0.0, np.sin(half) / np.where(angle > 0.0, angle, 1.0), 0.5)
    k_series = 0.5 - angle * angle / 48.0
    k = np.where(small[..., None], k_series, k)
    q = np.concatenate([np.cos(half), k * w], axis=-1)
    return quat_normalize(q)


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Batched quaternion -> axis-angle vector; angle lands in [0, pi]."""
    q = quat_normalize(q)
    vec = q[..., 1:]
    sin_half = np.linalg.norm(vec, axis=-1, keepdims=True)
    cos_half = q[..., 0:1]
    angle = 2.0 * np.arctan2(sin_half, cos_half)
    small = sin_half[..., 0] < _SMALL_ANGLE
    with np.errstate(invalid="ignore", divide="ignore"):
        k = np.where(sin_half > 0.0, angle / np.where(sin_half > 0.0, sin_half, 1.0), 2.0)
    # angle/sin(angle/2) ~ 2 + angle^2/12 for small angles (cos_half ~ 1)
    k_series = 2.0 + angle * angle / 12.0
    k = np.where(small[..., None], k_series, k)
    return k * vec


def skew(v: np.ndarray) -> np.ndarray:
    """Batched cross-product matrices."""
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    zero = np.zeros_like(x)
    return np.stack(
        [
            np.stack([zero, -z, y], axis=-1),
            np.stack([z, zero, -x], axis=-1),
            np.stack([-y, x, zero], axis=-1),
        ],
        axis=-2,
    )


def _so3_coeffs(angle: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, C) with exp = I + A.wx + B.wx^2 and V = I + B.wx + C.wx^2.

    A = sin(t)/t, B = (1-cos(t))/t^2, C = (t-sin(t))/t^3.  B uses the
    half-angle identity and C a series near zero to avoid cancellation.
    """
    t = np.asarray(angle, dtype=float)
    t2 = t * t
    small = t < _SMALL_ANGLE
    safe = np.where(small, 1.0, t)
    A = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(safe) / safe)
    sh = np.sin(0.5 * safe)
    B = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, 2.0 * sh * sh / (safe * safe))
    C = np.where(small, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0, (safe - np.sin(safe)) / (safe ** 3))
    return A, B, C


def so3_v_matrix(w: np.ndarray) -> np.ndarray:
    """Batched V(w) coupling rotation and translation in the SE(3) exponential."""
    w = np.asarray(w, dtype=float)
    angle = np.linalg.norm(w, axis=-1)
    _, B, C = _so3_coeffs(angle)
    wx = skew(w)
    wx2 = wx @ wx
    eye = np.broadcast_to(np.eye(3), wx.shape)
    return eye + B[..., None, None] * wx + C[..., None, None] * wx2


def so3_v_inverse(w: np.ndarray) -> np.ndarray:
    """Batched inverse of V(w); valid for rotation angles below pi."""
    w = np.asarray(w, dtype=float)
    angle = np.linalg.norm(w, axis=-1)
    t2 = angle * angle
    small = angle < 1e-2
    safe = np.where(small, 1.0, angle)
    # (1 - (t/2) cot(t/2)) / t^2; half-angle form avoids the 1-cos(t)
    # cancellation, series takes over below 1e-2
    half = 0.5 * safe
    sh = np.sin(half)
    c = np.where(
        small,
        1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0,
        (1.0 - half * np.cos(half) / np.where(sh == 0.0, 1.0, sh)) / (safe * safe),
    )
    wx = skew(w)
    wx2 = wx @ wx
    eye = np.broadcast_to(np.eye(3), wx.shape)
    return eye - 0.5 * wx + c[..., None, None] * wx2


# ---------------------------------------------------------------------------
# Pose / Twist
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation as unit quaternion (w,x,y,z) + translation.

    Treated as immutable; all operations return new poses.
    """

    q: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        q = quat_normalize(np.asarray(self.q, dtype=float).reshape(4))
        t = np.asarray(self.t, dtype=float).reshape(3).copy()
        q.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose()

    @staticmethod
    def from_matrix(T: np.ndarray) -> "Pose":
        T = np.asarray(T, dtype=float)
        return Pose(matrix_to_quat(T[:3, :3]), T[:3, 3])

    def to_matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = quat_to_matrix(self.q)
        T[:3, 3] = self.t
        return T

    def rotation_angle(self) -> float:
        """Rotation magnitude in radians, in [0, pi]."""
        return float(2.0 * math.atan2(np.linalg.norm(self.q[1:]), self.q[0]))

    def __repr__(self) -> str:  # compact: easier to read in test output
        q = ", ".join(f"{v:.6g}" for v in self.q)
        t = ", ".join(f"{v:.6g}" for v in self.t)
        return f"Pose(q=[{q}], t=[{t}])"


def compose(a: Pose, b: Pose) -> Pose:
    """a . b: apply b first, then a."""
    return Pose(quat_mul(a.q, b.q), quat_rotate(a.q, b.t) + a.t)


def inverse(p: Pose) -> Pose:
    qc = quat_conj(p.q)
    return Pose(qc, -quat_rotate(qc, p.t))


def transform_point(p: Pose, x: np.ndarray) -> np.ndarray:
    """R @ x + t for a single 3-vector."""
    return quat_rotate(p.q, np.asarray(x, dtype=float)) + p.t


def transform_points(p: Pose, xs: np.ndarray) -> np.ndarray:
    """R @ x + t for an (N, 3) stack."""
    xs = np.asarray(xs, dtype=float)
    return quat_rotate(p.q[None, :], xs) + p.t


def exp(xi: np.ndarray) -> Pose:
    """se(3) exponential of a twist [w, v] (rotation first)."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    w, v = xi[:3], xi[3:]
    q = rotvec_to_quat(w)
    t = so3_v_matrix(w) @ v
    return Pose(q, t)


def log(p: Pose) -> np.ndarray:
    """se(3) logarithm; raises for rotations at the pi ambiguity."""
    angle = p.rotation_angle()
    if angle >= math.pi - 1e-9:
        raise NumericsError(
            f"rotation angle {angle:.12f} rad is at the pi ambiguity; log is not unique"
        )
    w = quat_to_rotvec(p.q)
    v = so3_v_inverse(w) @ p.t
    return np.concatenate([w, v])


# ---------------------------------------------------------------------------
# batched SE(3) machinery for the optimizer
# ---------------------------------------------------------------------------

def batch_log(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Twists (..., 6) of a stack of poses given as (..., 4) + (..., 3)."""
    w = quat_to_rotvec(q)
    v = (so3_v_inverse(w) @ t[..., None])[..., 0]
    return np.concatenate([w, v], axis=-1)


def se3_adjoint(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Batched adjoint (..., 6, 6) in [w, v] ordering: Ad = [[R, 0], [t^ R, R]]."""
    R = quat_to_matrix(q)
    tx = skew(t)
    top = np.concatenate([R, np.zeros_like(R)], axis=-1)
    bottom = np.concatenate([tx @ R, R], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def se3_ad(xi: np.ndarray) -> np.ndarray:
    """Batched little adjoint ad(xi) = [[w^, 0], [v^, w^]] in [w, v] order."""
    xi = np.asarray(xi, dtype=float)
    wx = skew(xi[..., :3])
    vx = skew(xi[..., 3:])
    top = np.concatenate([wx, np.zeros_like(wx)], axis=-1)
    bottom = np.concatenate([vx, wx], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def se3_left_jacobian(xi: np.ndarray) -> np.ndarray:
    """Batched left Jacobian of SE(3) via its defining series sum ad^n/(n+1)!.

    Terms are accumulated until they vanish at double precision, so the
    result is exact for any twist the optimizer encounters.
    """
    ad = se3_ad(xi)
    out = np.broadcast_to(np.eye(6), ad.shape).copy()
    term = np.broadcast_to(np.eye(6), ad.shape).copy()
    scale = max(1.0, float(np.max(np.abs(ad))) if ad.size else 1.0)
    for n in range(1, 120):
        term = (term @ ad) / (n + 1.0)
        out += term
        if float(np.max(np.abs(term))) < 1e-18 * scale:
            break
    return out


def se3_left_jacobian_inverse(xi: np.ndarray) -> np.ndarray:
    """Batched inverse left Jacobian of SE(3) at twists (..., 6), [w, v] order."""
    return np.linalg.inv(se3_left_jacobian(xi))


def se3_right_jacobian_inverse(xi: np.ndarray) -> np.ndarray:
    """Batched inverse right Jacobian: Jr^-1(xi) = Jl^-1(-xi)."""
    return se3_left_jacobian_inverse(-np.asarray(xi, dtype=float))
