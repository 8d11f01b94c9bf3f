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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

W1_RESIDUAL_TOL = 1e-9     # acceptance residual on w^T L
SIMPLE_ZERO_TOL = 1e-10    # second eigenvalue below this => zero not simple
CONNECT_TOL = 1e-10        # fiedler value below this => disconnected
CLAMP_TOL = 1e-12          # eigenvector entries below this are noise on zeros


def as_int(value, name: str) -> int:
    """An integral number as an int; bools, fractions and non-numbers raise ValueError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class MultiplicityError(ValueError):
    """The zero eigenvalue of the Laplacian is not simple."""


class ConnectivityError(ValueError):
    """The graph behind a symmetric Laplacian is not connected."""


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

    def neighbors(self, i: int) -> tuple:
        """Agents that i measures / receives from, ascending."""
        return tuple(j for (a, j) in self.edges if a == i)


@dataclass(frozen=True, eq=False)
class SpectralData:
    """The spectral quantities the convergence results use.

    ``w1`` is the left null eigenvector of the Laplacian normalized to sum 1
    (None without a spanning tree); ``lambda2`` is the smallest nonzero
    eigenvalue, only defined for connected undirected graphs.
    """

    w1: np.ndarray | None = None
    lambda2: float | None = None


def build_laplacian(t: Topology) -> np.ndarray:
    """Graph Laplacian: -1 at (i, j) for each edge, neighbor count on the diagonal."""
    lap = np.zeros((t.n, t.n))
    for i, j in t.edges:
        lap[i - 1, j - 1] = -1.0
        lap[i - 1, i - 1] += 1.0
    return lap


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


def left_null_eigenvector(l: np.ndarray) -> np.ndarray:
    """Left eigenvector of the zero eigenvalue, normalized to sum 1.

    Requires a Laplacian whose zero eigenvalue is simple (guaranteed by a
    spanning tree); otherwise raises MultiplicityError. Entries that are
    pure rounding noise on structural zeros are clamped to exactly zero.
    """
    l = np.asarray(l, dtype=np.float64)
    n = l.shape[0]
    if l.shape != (n, n):
        raise ValueError(f"expected square matrix, got {l.shape}")
    vals, vecs = np.linalg.eig(l.T)
    order = np.argsort(np.abs(vals))
    if n > 1 and np.abs(vals[order[1]]) < SIMPLE_ZERO_TOL:
        raise MultiplicityError(
            f"zero eigenvalue is not simple (|lambda_2| = {np.abs(vals[order[1]]):.3e})"
        )
    v = vecs[:, order[0]]
    # The null eigenvector of a real matrix with a simple real eigenvalue can
    # be taken real; divide out the phase of the largest component.
    pivot = v[np.argmax(np.abs(v))]
    w = np.real(v / pivot)
    w = w / w.sum()
    w[np.abs(w) < CLAMP_TOL] = 0.0
    w = w / w.sum()
    residual = float(np.max(np.abs(w @ l)))
    if residual > W1_RESIDUAL_TOL:
        raise ValueError(f"left null eigenvector residual too large: {residual:.3e}")
    return w


def fiedler_value(l: np.ndarray) -> float:
    """Second-smallest eigenvalue of a symmetric Laplacian."""
    l = np.asarray(l, dtype=np.float64)
    n = l.shape[0]
    if l.shape != (n, n):
        raise ValueError(f"expected square matrix, got {l.shape}")
    if not np.allclose(l, l.T, atol=1e-12):
        raise ValueError("matrix is not symmetric")
    vals = np.linalg.eigvalsh(l)
    if n < 2:
        raise ValueError("need at least two vertices for a spectral gap")
    lam2 = float(vals[1])
    if lam2 < CONNECT_TOL:
        raise ConnectivityError(f"graph is disconnected (lambda_2 = {lam2:.3e})")
    return lam2


def analyze(t: Topology) -> SpectralData:
    """Whichever spectral quantities the topology supports.

    A digraph's w1 comes from its root block alone, without an n x n matrix;
    an undirected connected graph has uniform w1 and, from n = 2, lambda2.
    """
    roots = root_agents(t)
    if not roots:
        return SpectralData()
    if not t.directed:
        lam2 = fiedler_value(build_laplacian(t)) if t.n >= 2 else None
        return SpectralData(w1=np.full(t.n, 1.0 / t.n), lambda2=lam2)
    # roots hear only roots, so their edges alone make the root block of L
    index = {a: k for k, a in enumerate(roots, start=1)}
    block = Topology(len(roots), tuple((index[i], index[j]) for i, j in t.edges if i in index))
    w1 = np.zeros(t.n)
    w1[np.array(roots) - 1] = left_null_eigenvector(build_laplacian(block))
    return SpectralData(w1=w1)
