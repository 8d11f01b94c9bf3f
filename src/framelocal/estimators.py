"""The two distributed frame-localization laws and pose reconstruction.

Each agent carries a 4x4 auxiliary matrix that evolves by a consensus-type
law driven by its own body velocity, its relative-transform measurements,
and the auxiliary matrices communicated by neighbors:

  asymptotic law   dP_i = -hat(twist_i) P_i + sum_j (T_ij P_j - P_i)
  finite-time law  dP_i = -hat(twist_i) P_i
                          + sum_j (T_ij P_j - P_i) / ||T_ij P_j - P_i||_F^alpha

With T_ij = T_i^-1 T_j and the aligned states S_i = T_i P_i, every neighbor
term is T_i^-1 (S_j - S_i). That difference has a zero bottom row, on which
T_i^-1 acts as the pure rotation R_i^T, so ||T_ij P_j - P_i||_F =
||S_j - S_i||_F and both laws read

  dP_i = -hat(twist_i) P_i + R_i^T sum_j w_ij (S_j - S_i)

with w_ij = 1 (asymptotic) or ||S_j - S_i||_F^-alpha (finite-time). This
module holds the law parameters, initialization and reconstruction;
``framelocal.simulation`` evaluates the law in that aligned form, once for
all agents, as the only implementation.

The pose estimate is reconstructed from P_i by orthonormalizing the 3x3
block (the result is the transposed rotation estimate) and mapping the
translation column through it, for a whole stack of matrices at once.
Both laws leave the bottom row of every derivative exactly zero, so
integration preserves the (0,0,0,1) row bit-exactly under any linear
one-step method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .se3 import AuxMatrix, gram_schmidt

INIT_DET_FLOOR = 1e-6      # redraw threshold on |det Q_i(0)|
DEFAULT_EPSILON = 1e-9     # guard radius replacing the exact consensus case


@dataclass(frozen=True)
class Asymptotic:
    """Marker for the exponentially convergent law (directed graphs)."""


@dataclass(frozen=True)
class FiniteTime:
    """Finite-time law parameters.

    ``alpha`` is the norm exponent, required in (0, 1) for the law to stay
    continuous. ``epsilon`` is the guard radius below which a neighbor term
    is treated as already at consensus and zeroed; exact equality never
    occurs in floating point, and the discontinuity this introduces is
    bounded by epsilon^(1-alpha). A run refuses an epsilon above every
    initial link distance ||S_j - S_i||_F unless the start has already
    settled (V0 < SETTLED_V): the guard would zero every weight.
    """

    alpha: float = 0.5
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")


Law = Asymptotic | FiniteTime


class ReconstructionMode(Enum):
    FULL_GSOP = "full"
    TWO_COLUMN_CROSS = "twocol"


@dataclass(frozen=True, eq=False)
class EstimatorState:
    """Auxiliary matrices of all agents plus the law they evolve under."""

    aux: tuple
    law: Law

    def __post_init__(self):
        object.__setattr__(self, "aux", tuple(self.aux))
        if not self.aux:
            raise ValueError("need at least one agent state")


def init_aux_stack(n: int, rng_seed: int) -> np.ndarray:
    """(n, 4, 4) random initial auxiliary matrices, deterministic under the seed.

    Agent by agent, the stream gives 9 uniform(-1, 1) entries of the 3x3
    block, redrawn until its determinant magnitude clears 1e-6, then the 3 of
    the translation column. All agents come from one (n, 12) draw, the same
    stream while no block is redrawn (PCG64 spends one output per double);
    from the first agent whose block is, the agents are drawn one by one.
    """
    if n < 1:
        raise ValueError("need at least one agent")
    rng = np.random.default_rng(rng_seed)
    draw = rng.uniform(-1.0, 1.0, (n, 12))
    aux = np.zeros((n, 4, 4))
    aux[:, :3, :3] = draw[:, :9].reshape(n, 3, 3)
    aux[:, :3, 3] = draw[:, 9:]
    aux[:, 3, 3] = 1.0
    low = np.flatnonzero(np.abs(np.linalg.det(aux[:, :3, :3])) < INIT_DET_FLOOR)
    if len(low):
        first = int(low[0])
        rng = np.random.default_rng(rng_seed)
        rng.bit_generator.advance(12 * first)   # to where agent `first` starts
        for m in aux[first:]:
            m[:3, :3] = rng.uniform(-1.0, 1.0, (3, 3))
            while abs(np.linalg.det(m[:3, :3])) < INIT_DET_FLOOR:
                m[:3, :3] = rng.uniform(-1.0, 1.0, (3, 3))
            m[:3, 3] = rng.uniform(-1.0, 1.0, 3)
    return aux


def init_aux(n: int, rng_seed: int, law: Law = Asymptotic()) -> EstimatorState:
    """``init_aux_stack`` as validated per-agent matrices under a law."""
    aux = init_aux_stack(n, rng_seed)
    return EstimatorState(tuple(AuxMatrix(m[:3, :3], m[:3, 3]) for m in aux), law)


def reconstruct(
    aux,
    mode: ReconstructionMode | str = ReconstructionMode.TWO_COLUMN_CROSS,
) -> tuple:
    """Pose estimates from a (..., 4, 4) stack of auxiliary matrices.

    Returns ``(poses, valid)`` of shapes (..., 4, 4) and (...). The rotation
    estimate is the transposed orthonormalized 3x3 block and the position
    estimate is minus the translation column rotated by it. A degenerate
    block yields an identity pose with ``valid`` False rather than an
    exception, since transient degeneracy is expected mid-run. Each item is
    bit-identical to its reconstruction alone (see ``se3.gram_schmidt``).
    """
    aux = np.asarray(aux, dtype=np.float64)
    if aux.shape[-2:] != (4, 4):
        raise ValueError(f"expected (..., 4, 4) matrices, got {aux.shape}")
    two_column = ReconstructionMode(mode) is ReconstructionMode.TWO_COLUMN_CROSS
    r_hat_t, valid, _ = gram_schmidt(aux[..., :3, :3], two_column=two_column)
    r_hat = np.swapaxes(r_hat_t, -1, -2)
    poses = np.zeros(aux.shape)
    poses[..., :3, :3] = r_hat
    poses[..., :3, 3:] = -(r_hat @ aux[..., :3, 3:])
    poses[..., 3, 3] = 1.0
    return np.where(valid[..., None, None], poses, np.eye(4)), valid

