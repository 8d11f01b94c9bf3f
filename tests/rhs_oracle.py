"""Per-agent reference implementation of both localization laws.

Each agent's derivative is assembled from its own local data only: its body
twist and the measured relative transform T_ij to each neighbor, applied to
the neighbor's communicated auxiliary matrix. This is the literal form of
the laws, with no aligned-coordinate rewriting, and serves as the oracle the
stacked kernel in ``framelocal.simulation`` is checked against; ``hat6`` is
the per-agent twist generator its stacked generators are checked against,
and ``init_aux_loop`` the per-agent draw ``init_aux_stack`` is checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from framelocal import EstimatorState, Topology, Twist, estimators, hat3, relative_transform
from framelocal.estimators import Asymptotic, FiniteTime


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
