"""Per-agent reference implementation of both localization laws.

Each agent's derivative is assembled from its own local data only: its body
twist and the measured relative transform T_ij to each neighbor, applied to
the neighbor's communicated auxiliary matrix. This is the literal form of
the laws, with no aligned-coordinate rewriting, and serves as the oracle the
stacked kernel in ``framelocal.simulation`` is checked against; ``hat6`` is
the per-agent twist generator its stacked generators are checked against,
and ``init_aux_loop`` the per-agent draw ``init_aux_stack`` is checked
against. ``edge_rhs`` is the stacked kernel as a pass over every directed
edge, which the mirrored kernel must equal bit for bit, and ``edge_rk4``
a whole integration over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from framelocal import EstimatorState, Topology, Twist, estimators, hat3, relative_transform
from framelocal.estimators import Asymptotic, FiniteTime
from framelocal.se3 import exp_twists
from framelocal.simulation import Scenario, _neg_generators


def hat6(t: Twist) -> np.ndarray:
    """Twist -> 4x4 generator [hat3(angular) linear; 0 0]."""
    m = np.zeros((4, 4))
    m[:3, :3] = hat3(t.angular)
    m[:3, 3] = t.linear
    return m


def init_aux_loop(n: int, rng_seed: int) -> tuple:
    """(aux, redrawn): the estimator start drawn agent by agent, and the agents
    whose block was redrawn, under the floor ``estimators.INIT_DET_FLOOR`` reads now."""
    rng = np.random.default_rng(rng_seed)
    aux = np.zeros((n, 4, 4))
    aux[:, 3, 3] = 1.0
    redrawn = []
    for k, m in enumerate(aux):
        m[:3, :3] = rng.uniform(-1.0, 1.0, (3, 3))
        while abs(np.linalg.det(m[:3, :3])) < estimators.INIT_DET_FLOOR:
            redrawn.append(k)
            m[:3, :3] = rng.uniform(-1.0, 1.0, (3, 3))
        m[:3, 3] = rng.uniform(-1.0, 1.0, 3)
    return aux, sorted(set(redrawn))


def edge_rhs(s: Scenario, tt: np.ndarray, pp: np.ndarray) -> np.ndarray:
    """The stacked RHS with one gather, difference and weight per directed
    edge (i, j), summed per receiver i over the edges in sorted order."""
    n = s.topo.n
    src, dst = s.topo.edge_index
    bins = (12 * src[:, None] + np.arange(12)).ravel()
    aligned = (tt[:, :3, :] @ pp).reshape(n, 12)
    diff = aligned[dst] - aligned[src]
    if isinstance(s.law, FiniteTime):
        norms = np.sqrt(np.einsum("ej,ej->e", diff, diff))
        diff *= (np.where(norms >= s.law.epsilon, norms, np.inf) ** -s.law.alpha)[:, None]
    acc = np.bincount(bins, diff.ravel(), minlength=12 * n).reshape(n, 3, 4)
    dp = _neg_generators(s) @ pp
    dp[:, :3, :] += tt[:, :3, :3].transpose(0, 2, 1) @ acc
    return dp


def edge_rk4(s: Scenario, p0: np.ndarray, consensus_state: np.ndarray) -> tuple:
    """(truth, aux, V) of every step: classical RK4 over ``edge_rhs`` with
    fresh arrays for each stage, the truth advanced by exact exponentials."""
    (t,), twists = s.initial_poses.arrays, s.twists.arrays
    p = np.array(p0)
    e_half = exp_twists(*twists, s.dt / 2.0)
    e_full = exp_twists(*twists, s.dt)
    half, sixth = s.dt / 2.0, s.dt / 6.0
    truth, aux, v = [t], [p], [0.5 * float(np.sum((t @ p - consensus_state) ** 2))]
    for _ in range(s.n_steps):
        t_mid, t_next = t @ e_half, t @ e_full
        k1 = edge_rhs(s, t, p)
        k2 = edge_rhs(s, t_mid, p + half * k1)
        k3 = edge_rhs(s, t_mid, p + half * k2)
        k4 = edge_rhs(s, t_next, p + s.dt * k3)
        p = p + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t_next
        truth.append(t)
        aux.append(p)
        v.append(0.5 * float(np.sum((t @ p - consensus_state) ** 2)))
    return np.stack(truth), np.stack(aux), np.array(v)


def neighbors(topo: Topology, i: int) -> tuple:
    """Agents that i measures / receives from, ascending (O(E) per call)."""
    return tuple(j for (a, j) in topo.edges if a == i)


class MeasurementError(ValueError):
    """Measurements passed to an RHS do not cover the agent's neighbor set."""


@dataclass(frozen=True, eq=False)
class Measurement:
    """One agent's local data: its body twist and the relative transform
    to each neighbor, keyed by neighbor index."""

    twist: Twist
    rel: dict


def synthesize_measurements(truth, twists, topo: Topology) -> list:
    """Noiseless measurements: own twist plus relative transforms to neighbors."""
    if len(truth) != topo.n or len(twists) != topo.n:
        raise ValueError(f"need {topo.n} poses and twists")
    out = []
    for i in range(1, topo.n + 1):
        rel = {
            j: relative_transform(truth[i - 1], truth[j - 1])
            for j in neighbors(topo, i)
        }
        out.append(Measurement(twists[i - 1], rel))
    return out


def _check_coverage(meas, topo: Topology):
    if len(meas) != topo.n:
        raise MeasurementError(f"got {len(meas)} measurements for {topo.n} agents")
    for i in range(1, topo.n + 1):
        want = set(neighbors(topo, i))
        got = set(meas[i - 1].rel)
        if got != want:
            raise MeasurementError(
                f"agent {i}: measured neighbors {sorted(got)} != topology {sorted(want)}"
            )


def asymptotic_rhs(state: EstimatorState, meas, topo: Topology) -> list:
    """Time derivative of every auxiliary matrix under the exponential law."""
    if not isinstance(state.law, Asymptotic):
        raise ValueError("state is not configured for the asymptotic law")
    _check_coverage(meas, topo)
    out = []
    for i in range(1, topo.n + 1):
        p_i = state.aux[i - 1].matrix
        d = -(hat6(meas[i - 1].twist) @ p_i)
        for j in neighbors(topo, i):
            d += meas[i - 1].rel[j].matrix @ state.aux[j - 1].matrix - p_i
        out.append(d)
    return out


def finite_time_rhs(state: EstimatorState, meas, topo: Topology) -> list:
    """Time derivative under the normalized law with the epsilon guard.

    Neighbor terms whose difference norm falls below epsilon contribute
    zero, matching the consensus case of the state-dependent weighting.
    """
    law = state.law
    if not isinstance(law, FiniteTime):
        raise ValueError("state is not configured for the finite-time law")
    if topo.directed:
        raise ValueError("finite-time law requires an undirected topology")
    _check_coverage(meas, topo)
    out = []
    for i in range(1, topo.n + 1):
        p_i = state.aux[i - 1].matrix
        d = -(hat6(meas[i - 1].twist) @ p_i)
        for j in neighbors(topo, i):
            diff = meas[i - 1].rel[j].matrix @ state.aux[j - 1].matrix - p_i
            norm = float(np.linalg.norm(diff))
            if norm >= law.epsilon:
                d += diff / norm**law.alpha
        out.append(d)
    return out


def law_rhs(state: EstimatorState, meas, topo: Topology) -> list:
    """Dispatch to the oracle of the state's law."""
    if isinstance(state.law, Asymptotic):
        return asymptotic_rhs(state, meas, topo)
    return finite_time_rhs(state, meas, topo)
