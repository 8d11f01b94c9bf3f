"""Interaction graphs, Laplacians, and the spectral data the estimators use.

An edge (i, j) means agent i measures / receives from agent j, so j is a
neighbor of i and row i of the Laplacian picks up -1 in column j. Agent
indices are 1-based throughout.

Information flows from j to i along an edge (i, j). The root agents, whose
information reaches every agent, form the root (source) component of the
condensation and exist exactly when the graph has a spanning tree. Found in
O(n + E) by ``root_agents``, they decide both graph conditions, and w1 is
the left null vector of their Laplacian block (no edge enters it), exactly
zero on every other agent.

That block L is strongly connected, so its null space is span(1) and any
m - 1 of its columns are independent; they span the complement of w. The
bordered matrix, L^T with its last row replaced by ones, is therefore
nonsingular (1 . w = 1 != 0), and w1 is its solve against e_m. A general
Laplacian with a repeated zero eigenvalue could make the same solve return
a plausible w, so it is only ever applied to a root block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

W1_RESIDUAL_TOL = 1e-9     # acceptance residual on w^T L


def as_int(value, name: str) -> int:
    """An integral number as an int; bools, fractions and non-numbers raise ValueError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Topology:
    """Directed or undirected interaction graph over n agents (integer indices)."""

    n: int
    edges: tuple = ()
    directed: bool = True

    def __post_init__(self):
        n = as_int(self.n, "n")
        if n < 1:
            raise ValueError("need at least one agent")
        object.__setattr__(self, "n", n)
        seen = set()
        for e in self.edges:
            i, j = (as_int(k, "edge end") for k in e)
            if i == j:
                raise ValueError(f"self-loop on agent {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge {e} outside 1..{n}")
            seen.add((i, j))
        if not self.directed:
            missing = {(j, i) for (i, j) in seen} - seen
            if missing:
                raise ValueError(
                    f"undirected graph needs symmetric edges; missing {sorted(missing)}"
                )
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @classmethod
    def undirected(cls, n: int, pairs) -> "Topology":
        """Build an undirected topology from one pair per link."""
        return cls(n, tuple(e for i, j in pairs for e in ((i, j), (j, i))), directed=False)


@dataclass(frozen=True, eq=False)
class SpectralData:
    """The spectral quantities the convergence results use.

    ``w1`` is the left null eigenvector of the Laplacian normalized to sum 1
    (None without a spanning tree); ``lambda2`` is the smallest nonzero
    eigenvalue, only defined for connected undirected graphs.
    """

    w1: np.ndarray | None = None
    lambda2: float | None = None


def edge_arrays(t: Topology) -> tuple:
    """Receivers i and senders j of the edges (i, j), as 0-based index arrays."""
    return tuple(np.array(t.edges, dtype=np.intp).reshape(-1, 2).T - 1)


def _laplacian(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Laplacian over n agents of the distinct edges (i[k], j[k]), 0-based."""
    lap = np.zeros((n, n))
    lap[i, j] = -1.0
    np.fill_diagonal(lap, np.bincount(i, minlength=n))
    return lap


def build_laplacian(t: Topology) -> np.ndarray:
    """Graph Laplacian: -1 at (i, j) for each edge, neighbor count on the diagonal."""
    return _laplacian(t.n, *edge_arrays(t))


def _reach(adj: list, start: int, seen: list) -> list:
    """Agents reachable from start along adj that were not seen yet; marks them seen."""
    seen[start] = True
    found = [start]
    for k in found:             # breadth first: the list grows while it is read
        for nxt in adj[k]:
            if not seen[nxt]:
                seen[nxt] = True
                found.append(nxt)
    return found


def root_agents(t: Topology) -> tuple:
    """Agents whose information reaches every agent, ascending; () if none.

    A search tree that contains a root covers every agent still unseen, so
    the last tree of a search forest starts at a root if there is one; a
    forward search confirms it, and a backward one collects all the roots.
    """
    flow = [[] for _ in range(t.n)]      # j -> i: who hears j
    heard = [[] for _ in range(t.n)]     # i -> j: whom i hears
    for i, j in t.edges:
        flow[j - 1].append(i - 1)
        heard[i - 1].append(j - 1)
    seen = [False] * t.n
    for k in range(t.n):
        if not seen[k]:
            candidate = k
            _reach(flow, k, seen)
    if len(_reach(flow, candidate, [False] * t.n)) < t.n:
        return ()
    return tuple(sorted(k + 1 for k in _reach(heard, candidate, [False] * t.n)))


def has_spanning_tree(t: Topology) -> bool:
    """True when some agent's information can reach every other agent."""
    return bool(root_agents(t))


def is_connected_undirected(t: Topology) -> bool:
    """True for an undirected topology that is connected (or a single agent)."""
    return not t.directed and has_spanning_tree(t)


def _root_block_weights(l: np.ndarray) -> np.ndarray:
    """w with w^T l = 0 and sum 1 for the Laplacian l of a strongly connected block."""
    bordered = l.T.copy()
    bordered[-1] = 1.0
    rhs = np.zeros(len(l))
    rhs[-1] = 1.0
    w = np.linalg.solve(bordered, rhs)
    residual = float(np.max(np.abs(w @ l)))
    if residual > W1_RESIDUAL_TOL:
        raise ValueError(f"left null eigenvector residual too large: {residual:.3e}")
    return w


def analyze(t: Topology) -> SpectralData:
    """Whichever spectral quantities the topology supports.

    A digraph's w1 comes from its root block alone, without an n x n matrix;
    an undirected connected graph has uniform w1 and, from n = 2, lambda2.
    """
    roots = root_agents(t)
    if not roots:
        return SpectralData()
    if not t.directed:
        lam2 = float(np.linalg.eigvalsh(build_laplacian(t))[1]) if t.n >= 2 else None
        return SpectralData(w1=np.full(t.n, 1.0 / t.n), lambda2=lam2)
    # roots hear only roots, so the edges into roots alone make the root
    # block of L; index renumbers the roots 0..m-1 and marks others -1
    rows = np.array(roots) - 1
    index = np.full(t.n, -1)
    index[rows] = np.arange(len(rows))
    i, j = edge_arrays(t)
    inner = index[i] >= 0
    w1 = np.zeros(t.n)
    w1[rows] = _root_block_weights(_laplacian(len(rows), index[i[inner]], index[j[inner]]))
    return SpectralData(w1=w1)
