"""Rigid-body arithmetic on SO(3)/SE(3).

Rotations, poses (4x4 homogeneous transforms [R p; 0 1], stacks of which
``homogeneous`` builds), body-frame twists, the hat map, the closed-form
SE(3) exponential, and Gram-Schmidt orthonormalization with a
determinant-sign fix so the result is always a proper rotation. The
exponential and Gram-Schmidt each have one implementation over stacks
(``exp_twists``; ``gram_schmidt``, which also returns a validity mask);
``exp_se3``, ``gsop`` and ``gsop_two_column`` apply them to a single item
and return validated objects. ``rotation_check`` is the one rotation test,
shared by ``Rotation`` and the scenario loader.

All values are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROTATION_TOL = 1e-9       # Frobenius tolerance on R^T R - I and det(R) - 1
SKEW_TOL = 1e-9           # tolerance for accepting a matrix as skew / zero-row
GS_RANK_TOL = 1e-10       # Gram-Schmidt pivot threshold on ||v_k||


class DegenerateInputError(ValueError):
    """Gram-Schmidt hit a (numerically) dependent column.

    ``index`` is the 1-based column whose orthogonalized residual vanished.
    """

    def __init__(self, index: int, norm: float):
        self.index = index
        self.norm = norm
        super().__init__(
            f"column {index} is linearly dependent (residual norm {norm:.3e})"
        )


def _freeze(a) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product over the last axis by the dot kernel of ``u @ v``, which
    a stacked vector-vector matmul runs item by item, stack-independently."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def rotation_check(r) -> tuple:
    """The rotation test over a (..., 3, 3) stack: ``(valid, finite, ortho, det)``.

    An item is valid when its entries are all finite (``finite``) and both
    ``ortho`` = ||R^T R - I||_F and |``det`` - 1|, with det = det(R), are
    within ROTATION_TOL. ``Rotation`` raises on the first test that fails.
    """
    r = np.asarray(r, dtype=np.float64)
    finite = np.isfinite(r).all(axis=(-2, -1))
    with np.errstate(over="ignore", invalid="ignore"):
        gap = (np.swapaxes(r, -1, -2) @ r - np.eye(3)).reshape(*r.shape[:-2], 9)
        ortho = np.sqrt(_dot(gap, gap))
        det = np.linalg.det(r)
        valid = finite & (ortho <= ROTATION_TOL) & (np.abs(det - 1.0) <= ROTATION_TOL)
    return valid, finite, ortho, det


@dataclass(frozen=True, eq=False)
class Rotation:
    """A proper rotation matrix (orthogonal, determinant +1)."""

    r: np.ndarray

    def __post_init__(self):
        r = _freeze(self.r)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        _, finite, ortho, det = rotation_check(r)
        if not finite:
            raise ValueError(f"rotation has non-finite entries: {r.tolist()}")
        if ortho > ROTATION_TOL:
            raise ValueError(f"not orthonormal: ||R^T R - I||_F = {ortho:.3e}")
        if abs(det - 1.0) > ROTATION_TOL:
            raise ValueError(f"not a proper rotation: det = {det:.12f}")
        object.__setattr__(self, "r", r)


@dataclass(frozen=True, eq=False)
class Pose:
    """A rigid-body transform: rotation plus translation."""

    rotation: Rotation
    translation: np.ndarray

    def __post_init__(self):
        t = _freeze(self.translation)
        if t.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got {t.shape}")
        if not np.isfinite(t).all():
            raise ValueError(f"translation has non-finite entries: {t.tolist()}")
        object.__setattr__(self, "translation", t)

    @property
    def matrix(self) -> np.ndarray:
        """4x4 homogeneous matrix [R p; 0 1]."""
        return homogeneous(self.rotation.r, self.translation)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Pose":
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError(f"expected 4x4 matrix, got {m.shape}")
        if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > SKEW_TOL:
            raise ValueError(f"bottom row must be (0,0,0,1), got {m[3]}")
        return cls(Rotation(m[:3, :3]), m[:3, 3])


@dataclass(frozen=True, eq=False)
class Twist:
    """Body-frame velocity: linear part and angular part."""

    linear: np.ndarray
    angular: np.ndarray

    def __post_init__(self):
        v = _freeze(self.linear)
        w = _freeze(self.angular)
        if v.shape != (3,) or w.shape != (3,):
            raise ValueError("twist parts must be 3-vectors")
        if not (np.isfinite(v).all() and np.isfinite(w).all()):
            raise ValueError(f"twist has non-finite entries: {v.tolist()}, {w.tolist()}")
        object.__setattr__(self, "linear", v)
        object.__setattr__(self, "angular", w)


@dataclass(frozen=True, eq=False)
class AuxMatrix:
    """Per-agent 4x4 estimator state [Q q; 0 1].

    The 3x3 block must be nonsingular when an estimator is initialized
    (``init_aux`` guarantees it); during evolution the determinant may cross
    zero transiently, so nonsingularity is deliberately not enforced here.
    """

    q_block: np.ndarray
    q_vec: np.ndarray

    def __post_init__(self):
        q = _freeze(self.q_block)
        v = _freeze(self.q_vec)
        if q.shape != (3, 3):
            raise ValueError(f"q_block must be 3x3, got {q.shape}")
        if v.shape != (3,):
            raise ValueError(f"q_vec must be a 3-vector, got {v.shape}")
        object.__setattr__(self, "q_block", q)
        object.__setattr__(self, "q_vec", v)

    @property
    def matrix(self) -> np.ndarray:
        return homogeneous(self.q_block, self.q_vec)


def homogeneous(r, p) -> np.ndarray:
    """(..., 3, 3) blocks and (..., 3) columns -> (..., 4, 4) matrices [R p; 0 1]."""
    m = np.zeros(np.shape(r)[:-2] + (4, 4))
    m[..., :3, :3], m[..., :3, 3], m[..., 3, 3] = r, p, 1.0
    return m


def hat3(w) -> np.ndarray:
    """(..., 3) vectors -> (..., 3, 3) skew-symmetric matrices, so that
    hat3(w) @ x == cross(w, x)."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape[-1:] != (3,):
        raise ValueError(f"expected (..., 3) vectors, got {w.shape}")
    x, y, z = np.moveaxis(w, -1, 0)
    o = np.zeros_like(x)
    return np.stack([o, -z, y, z, o, -x, -y, x, o], axis=-1).reshape(*w.shape, 3)


# Below this angle the Rodrigues coefficients switch to their Taylor series;
# sin(x)/x style ratios lose accuracy near zero.
_SMALL_ANGLE = 1e-6


def exp_twists(linear, angular, dt) -> np.ndarray:
    """Closed-form exponentials of dt times the generators of a twist stack.

    Over (..., 3) linear and angular parts and a dt that broadcasts against
    them (a (k, 1, 1) dt over (n, 3) parts gives (k, n, 4, 4)): Rodrigues'
    formula for the rotation block and the analytic integral matrix V for
    the translation V (dt * linear); the coefficients switch to their series
    where the rotation angle theta = ||angular|| * dt is below 1e-6. Returns
    the (..., 4, 4) matrices, unchecked: exact rigid motions while theta^3
    and dt * linear are finite (a run's ``oracle_report`` bounds both). An
    item's result is bit-identical whether it is alone or in any stack.
    """
    linear = np.asarray(linear, dtype=np.float64)
    angular = np.asarray(angular, dtype=np.float64)
    if angular.shape[-1:] != (3,) or linear.shape != angular.shape:
        raise ValueError(f"expected two (..., 3) stacks, got {linear.shape} and {angular.shape}")
    # the branch an item does not take may divide 0 by 0 (theta = 0) or
    # overflow (theta^4 past about 1e77)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi = angular * dt
        rho = linear * dt
        theta = np.sqrt(_dot(phi, phi))
        t2 = theta * theta
        small = theta < _SMALL_ANGLE
        a = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(theta) / theta)
        b = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, (1.0 - np.cos(theta)) / t2)
        c = np.where(
            small, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0, (theta - np.sin(theta)) / (t2 * theta)
        )
        a, b, c = (x[..., None, None] for x in (a, b, c))
        k = hat3(phi)
        k2 = k @ k
        # a stacked matrix-vector matmul runs the kernel of a single V @ rho
        # item by item; a row-by-row _dot would differ from it in the last bit
        p = ((np.eye(3) + b * k + c * k2) @ rho[..., None])[..., 0]
        return homogeneous(np.eye(3) + a * k + b * k2, p)


def exp_se3(t: Twist, dt: float) -> Pose:
    """``exp_twists`` of one twist (dt times its generator), validated as a
    Pose (ValueError where it is not a finite rigid transform)."""
    return Pose.from_matrix(exp_twists(t.linear[None], t.angular[None], dt)[0])


def inverse(a: Pose) -> Pose:
    """Pose inverse (R^T, -R^T p)."""
    rt = a.rotation.r.T
    return Pose(Rotation(rt), -(rt @ a.translation))


def relative_transform(t_i: Pose, t_j: Pose) -> Pose:
    """Transform of frame j expressed in frame i: (R_i^T R_j, R_i^T (p_j - p_i))."""
    rt = t_i.rotation.r.T
    return Pose(
        Rotation(rt @ t_j.rotation.r),
        rt @ (t_j.translation - t_i.translation),
    )


def gram_schmidt(m, two_column: bool = False) -> tuple:
    """Gram-Schmidt orthonormalization of the columns of a (..., 3, 3) stack.

    The first two columns are orthonormalized in order; the third is their
    cross product with ``two_column`` (whatever the third input column),
    else the orthonormalized third column, negated where that makes the
    determinant +1. Returns ``(q, valid, pivots)``: the blocks (identity
    where invalid), the mask of items whose residual norms ``pivots``
    (..., 2 or 3) all exceed GS_RANK_TOL, and those norms. An item's result
    is bit-identical whether it is alone or in any stack.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected (..., 3, 3) matrices, got {m.shape}")
    z = np.swapaxes(m, -1, -2)          # z[..., k, :] is column k
    q, pivots = [], []
    # a degenerate item divides by a vanishing pivot; it is masked out below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(2 if two_column else 3):
            v = z[..., k, :]
            for prev in q:
                v = v - _dot(z[..., k, :], prev)[..., None] * prev
            pivots.append(np.sqrt(_dot(v, v)))
            q.append(v / pivots[-1][..., None])
        if two_column:
            q.append(np.cross(q[0], q[1]))
        q = np.stack(q, axis=-1)
        if not two_column:
            q[..., 2] *= np.where(np.linalg.det(q) < 0.0, -1.0, 1.0)[..., None]
    pivots = np.stack(pivots, axis=-1)
    valid = (pivots > GS_RANK_TOL).all(axis=-1)
    return np.where(valid[..., None, None], q, np.eye(3)), valid, pivots


def _single_gram_schmidt(m, two_column: bool) -> Rotation:
    if np.shape(m) != (3, 3):
        raise ValueError(f"expected 3x3 matrix, got {np.shape(m)}")
    q, valid, pivots = gram_schmidt(m, two_column)
    if not valid:
        k = int(np.argmin(pivots > GS_RANK_TOL))
        raise DegenerateInputError(k + 1, float(pivots[k]))
    return Rotation(q)


def gsop(m: np.ndarray) -> Rotation:
    """Gram-Schmidt orthonormalization of the columns with a sign fix.

    The first two columns are orthonormalized in order; the last unit vector
    is scaled by the sign that makes the determinant +1, so the output is a
    proper rotation whenever all three columns are independent.

    Raises DegenerateInputError (with the 1-based column index) when an
    orthogonalized residual falls below the rank threshold.
    """
    return _single_gram_schmidt(m, two_column=False)


def gsop_two_column(m: np.ndarray) -> Rotation:
    """Orthonormalize the first two columns; the third is their cross product.

    Well-defined whenever the first two columns are independent, regardless
    of the third column, and always yields determinant +1 by construction.
    """
    return _single_gram_schmidt(m, two_column=True)
