"""Interaction graphs, Laplacians, and the spectral data the estimators use.

An edge (i, j) means agent i measures / receives from agent j, so j is a
neighbor of i and row i of the Laplacian picks up -1 in column j. Agent
indices are 1-based throughout.

Information flows from j to i along an edge (i, j). The root agents, whose
information reaches every agent, form the root (source) component of the
condensation and exist exactly when the graph has a spanning tree. Found
once per topology in O(n + E) by ``root_agents``, they decide both graph
conditions, and w1 is the left null vector of their Laplacian block (no
edge enters it), exactly zero on every other agent.

That block L is strongly connected, so its null space is span(1) and any
m - 1 of its columns are independent; they span the complement of w. The
bordered matrix, L^T with its last row replaced by ones, is therefore
nonsingular (1 . w = 1 != 0), and w1 is its solve against e_m. A general
Laplacian with a repeated zero eigenvalue could make the same solve return
a plausible w, so it is only ever applied to a root block.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

W1_RESIDUAL_TOL = 1e-9     # acceptance residual on w^T L
# largest set of dense matrices analyze may hold at once: an undirected graph
# of up to 4096 agents, whose eigvalsh took 0.83 s at 2048 agents and grows
# as n^3, or a root block of up to 3344
MAX_DENSE_BYTES = 1 << 28


class ConfigurationError(ValueError):
    """A scenario violates a precondition of the requested law, or a size bound."""


def as_int(value, name: str) -> int:
    """An integral number as an int; bools, fractions and non-numbers raise ValueError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _checked_edges(edges: tuple, n: int, directed: bool) -> tuple:
    """The distinct edges, sorted, checked one at a time: the first fault raises."""
    seen = set()
    for e in edges:
        i, j = (as_int(k, "edge end") for k in e)
        if i == j:
            raise ValueError(f"self-loop on agent {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge {e} outside 1..{n}")
        seen.add((i, j))
    if not directed:
        missing = {(j, i) for (i, j) in seen} - seen
        if missing:
            raise ValueError(
                f"undirected graph needs symmetric edges; missing {sorted(missing)}"
            )
    return tuple(sorted(seen))


def _stacked_edges(edges: tuple, n: int, directed: bool) -> tuple | None:
    """What ``_checked_edges`` returns, checked as one integer stack; None
    where the stack cannot vouch for the edges, so the per-edge check decides.

    The stack takes pairs of ints (not bools) and of integral floats below
    2^53, which it holds exactly; an edge (i, j) sorts as the key i (n + 1) + j.
    """
    if n >= 2**31:     # the keys would overflow int64
        return None
    try:
        if set(map(len, edges)) - {2}:
            return None
    except TypeError:
        return None
    ends = list(itertools.chain.from_iterable(edges))
    kinds = set(map(type, ends))
    if any(issubclass(k, bool) or not issubclass(k, (int, np.integer, float)) for k in kinds):
        return None
    a = np.array(ends).reshape(-1, 2)
    if a.dtype.kind == "f":
        if not (np.abs(a) < 2.0**53).all() or (a != np.floor(a)).any():
            return None
    elif a.dtype.kind not in "iu":
        return None
    if len(a) and (int(a.min()) < 1 or int(a.max()) > n or (a[:, 0] == a[:, 1]).any()):
        return None
    a = a.astype(np.int64)
    keys = np.unique(a[:, 0] * (n + 1) + a[:, 1])     # distinct, ascending
    i, j = np.divmod(keys, n + 1)
    if not directed and not np.array_equal(np.sort(j * (n + 1) + i), keys):
        return None
    return tuple(zip(i.tolist(), j.tolist()))


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
        edges = tuple(self.edges)
        stacked = _stacked_edges(edges, n, self.directed)
        object.__setattr__(
            self, "edges", _checked_edges(edges, n, self.directed) if stacked is None else stacked
        )

    @functools.cached_property
    def _roots(self) -> tuple:
        return _search_roots(self)

    @functools.cached_property
    def _edge_index(self) -> np.ndarray:
        """(2, E) receivers and senders of the edges, 0-based and read-only."""
        index = np.ascontiguousarray(np.array(self.edges, dtype=np.intp).reshape(-1, 2).T) - 1
        index.setflags(write=False)
        return index

    @functools.cached_property
    def _links(self) -> tuple:
        pairs = np.unique(np.sort(self._edge_index, axis=0), axis=1) + 1
        return tuple(zip(*pairs.tolist()))

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
    """Receivers i and senders j of the edges (i, j), as 0-based index arrays:
    read-only views of one array built once per topology."""
    return tuple(t._edge_index)


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

    Searched once per topology and kept on it, so the graph conditions and
    ``analyze`` share one search.
    """
    return t._roots


def _search_roots(t: Topology) -> tuple:
    """``root_agents`` by search, O(n + E).

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
    Dense matrices over MAX_DENSE_BYTES are refused (ConfigurationError)
    before any is allocated.
    """
    roots = root_agents(t)
    if not roots:
        return SpectralData()
    # a connected undirected graph is all roots and holds its Laplacian and
    # the copy eigvalsh makes; a digraph its root block, the bordered matrix
    # and the copy solve makes
    nbytes = 8 * (3 if t.directed else 2) * len(roots) ** 2
    if nbytes > MAX_DENSE_BYTES:
        raise ConfigurationError(
            f"graph: the spectral analysis of {len(roots)} root agents would hold "
            f"{nbytes / 2**20:.4g} MiB of dense matrices, over the "
            f"{MAX_DENSE_BYTES / 2**20:g} MiB limit"
        )
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
