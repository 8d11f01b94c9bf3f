"""Interaction graphs, Laplacians, and the spectral data the estimators use.

An edge (i, j) means agent i measures / receives from agent j, so j is a
neighbor of i and row i of the Laplacian picks up -1 in column j. Agent
indices are 1-based, but for a Topology's 0-based ``edge_index``. A
Topology answers its own graph questions: its ``edge_index``, its
``roots`` and its ``links`` (the measured links as unordered pairs). It
takes pairs of ints in one pass and walks any other edges one by one.

Information flows from j to i along an edge (i, j). The root agents, whose
information reaches every agent, form the root (source) component of the
condensation and exist exactly when the graph has a spanning tree. Found
once per topology in O(n + E) (``Topology.roots``), they decide both graph
conditions, and w1 is the left null vector of their Laplacian block (no
edge enters it), exactly zero on every other agent.

That block L is strongly connected, so its null space is span(1) and any
m - 1 of its columns are independent; they span the complement of w. The
bordered matrix, L^T with its last row replaced by ones, is therefore
nonsingular (1 . w = 1 != 0), and w1 is its solve against e_m. A general
Laplacian with a repeated zero eigenvalue could make the same solve return
a plausible w, so it is only ever applied to a root block.

lambda2 of a connected undirected graph is the smallest eigenvalue of L on
the complement of the ones vector. On a large, sparse graph, Lanczos tries
it without an n x n matrix: L is applied by one pass over the edges and the
ones vector is projected out at every step. A Ritz value is taken only
after its Ritz vector's explicit residual passes; any other graph, and a
run that does not converge within its step budget, gets a dense eigvalsh.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

W1_RESIDUAL_TOL = 1e-9     # acceptance residual on w^T L
# largest set of dense matrices analyze may hold at once: an undirected graph
# of up to 4096 agents that Lanczos does not take, whose eigvalsh grows as
# n^3, or a root block of up to 3344
MAX_DENSE_BYTES = 1 << 28
# lambda2 by Lanczos (see analyze): used from this many agents, where it
# was measured to beat eigvalsh, for at most this many steps, taking a Ritz
# value at this relative residual
LANCZOS_MIN_AGENTS = 512
LANCZOS_MAX_STEPS = 256
LANCZOS_TOL = 1e-8


class ConfigurationError(ValueError):
    """A refused input: a scenario or summary file, a flag, a law's graph
    condition or a size bound."""


def as_int(value, name: str) -> int:
    """An integral number as an int; bools, fractions and non-numbers raise ValueError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _sorted_distinct(index: np.ndarray) -> np.ndarray:
    """The distinct columns of a (2, E) index, ascending by row 0, then row 1; read-only."""
    index = index[:, np.lexsort(index[::-1])]
    first = np.ones(index.shape[1], dtype=bool)
    first[1:] = (index[:, 1:] != index[:, :-1]).any(axis=0)
    index = index[:, first]
    index.setflags(write=False)
    return index


def _edge_index(edges, n: int) -> np.ndarray:
    """The (2, E) 0-based receivers and senders of the distinct edges, sorted.

    An ndarray is read as lists. Pairs of Python ints in 1..n without a
    self-loop are taken in one pass; any other edges are walked one by one,
    in order, so the first faulty edge raises its message.
    """
    edges = edges.tolist() if isinstance(edges, np.ndarray) else edges
    edges = tuple(edges) if np.iterable(edges) else (edges,)
    if set(map(type, edges)) <= {tuple, list} and set(map(len, edges)) == {2}:
        ends = [*itertools.chain.from_iterable(edges)]
        if set(map(type, ends)) == {int} and 1 <= min(ends) and max(ends) <= n:
            index = np.array(ends, dtype=np.intp).reshape(-1, 2).T - 1
            if not (index[0] == index[1]).any():
                return _sorted_distinct(index)
    index = []
    for e in edges:
        if not (isinstance(e, (tuple, list, np.ndarray)) and len(e) == 2):
            raise ValueError(f"edge {e!r} is not a pair of agents")
        i, j = (as_int(k, "edge end") for k in e)
        if i == j:
            raise ValueError(f"self-loop on agent {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge {e} outside 1..{n}")
        index.append((i - 1, j - 1))
    return _sorted_distinct(np.array(index, dtype=np.intp).reshape(-1, 2).T)


class Topology:
    """Directed or undirected interaction graph over n agents (integer indices).

    It keeps n, ``directed`` (a bool) and ``edge_index``: its distinct edges
    as a read-only, sorted (2, E) array of 0-based receivers and senders, from
    which ``edges`` derives and ``roots`` and ``links`` are found once, on
    first read. Immutable; compared and hashed by n, ``directed`` and the index.
    """

    def __init__(self, n: int, edges=(), directed: bool = True):
        if not isinstance(directed, (bool, np.bool_)):
            raise ValueError(f"directed must be true or false, got {directed!r}")
        n = as_int(n, "n")
        if n < 1:
            raise ValueError("need at least one agent")
        index = _edge_index(edges, n)
        if not directed and not np.array_equal(_sorted_distinct(index[::-1]), index):
            pairs = set(zip(*(index + 1).tolist()))
            missing = sorted({(j, i) for i, j in pairs} - pairs)
            raise ValueError(f"undirected graph needs symmetric edges; missing {missing}")
        self.__dict__.update(n=n, directed=bool(directed), edge_index=index)

    @classmethod
    def undirected(cls, n: int, pairs) -> "Topology":
        """The undirected topology of one pair per link: the pairs and their reverses."""
        pairs = pairs.tolist() if isinstance(pairs, np.ndarray) else pairs
        pairs = tuple(pairs) if np.iterable(pairs) else (pairs,)
        # a pair's reverse is faulty only if the pair is, and comes after it,
        # so an error names the pair as given
        reverses = tuple(e[::-1] if isinstance(e, (tuple, list, np.ndarray)) else e for e in pairs)
        return cls(n, pairs + reverses, directed=False)

    @property
    def edges(self) -> tuple:
        """The distinct edges (i, j), 1-based and sorted, as pairs of ints."""
        return tuple(zip(*(self.edge_index + 1).tolist()))

    @functools.cached_property
    def roots(self) -> tuple:
        """Agents whose information reaches every agent, ascending; () if none.

        One search per topology, which the graph conditions and ``analyze`` share.
        """
        return _search_roots(self)

    @functools.cached_property
    def links(self) -> tuple:
        """Measured links as unordered pairs (i, j) with i < j, ascending."""
        pairs = _sorted_distinct(np.sort(self.edge_index, axis=0)) + 1
        return tuple(zip(*pairs.tolist()))

    def __setattr__(self, name, value):
        raise AttributeError(f"Topology is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Topology is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        same = isinstance(other, Topology) and (self.n, self.directed) == (other.n, other.directed)
        return same and np.array_equal(self.edge_index, other.edge_index)

    def __hash__(self):
        return hash((self.n, self.directed, self.edge_index.tobytes()))

    def __repr__(self):
        return f"Topology(n={self.n}, edges={self.edges}, directed={self.directed})"


@dataclass(frozen=True, eq=False)
class SpectralData:
    """The spectral quantities the convergence results use.

    ``w1`` is the left null eigenvector of the Laplacian normalized to sum 1
    (None without a spanning tree); ``lambda2`` is the smallest nonzero
    eigenvalue, only defined for connected undirected graphs.
    """

    w1: np.ndarray | None = None
    lambda2: float | None = None


def _laplacian(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Laplacian over n agents of the distinct edges (i[k], j[k]), 0-based."""
    lap = np.zeros((n, n))
    lap[i, j] = -1.0
    np.fill_diagonal(lap, np.bincount(i, minlength=n))
    return lap


def build_laplacian(t: Topology) -> np.ndarray:
    """Graph Laplacian: -1 at (i, j) for each edge, neighbor count on the diagonal."""
    return _laplacian(t.n, *t.edge_index)


def _reach(adj: list, start: int, seen: list) -> list:
    """Agents reachable from start along adj that were not seen yet, breadth
    first; marks them seen."""
    seen[start] = True
    found = [start]
    for k in found:
        for nxt in adj[k]:
            if not seen[nxt]:
                seen[nxt] = True
                found.append(nxt)
    return found


def _search_roots(t: Topology) -> tuple:
    """``Topology.roots`` by search, O(n + E).

    A search tree that contains a root covers every agent still unseen, so
    the last tree of a search forest starts at a root if there is one; a
    forward search confirms it, and a backward one collects all the roots.
    """
    flow = [[] for _ in range(t.n)]      # j -> i: who hears j
    heard = [[] for _ in range(t.n)]     # i -> j: whom i hears
    for i, j in zip(*t.edge_index.tolist()):
        flow[j].append(i)
        heard[i].append(j)
    seen = [False] * t.n
    candidate = 0
    for k in range(t.n):
        if not seen[k]:
            candidate = k
            _reach(flow, k, seen)
    if len(_reach(flow, candidate, [False] * t.n)) < t.n:
        return ()
    return tuple(sorted(k + 1 for k in _reach(heard, candidate, [False] * t.n)))


def has_spanning_tree(t: Topology) -> bool:
    """True when some agent's information can reach every other agent."""
    return bool(t.roots)


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


def _smallest_ritz_pair(alpha: list, beta: list) -> tuple:
    """(theta, s): the smallest eigenvalue of the k x k symmetric tridiagonal
    with diagonal alpha and off-diagonal beta[:-1], and its unit eigenvector.

    alpha and beta hold k Lanczos coefficients each, beta[:-1] nonzero.
    theta comes from eigvalsh; s solves (T - theta) s = 0 from the last row
    up, the direction in which a converged Ritz vector's entries grow, so
    the recurrence stays stable and s[-1] keeps its small relative accuracy.
    """
    k = len(alpha)
    off = beta[:-1]
    theta = float(np.linalg.eigvalsh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))[0])
    s = [0.0] * (k + 1)         # s[k] = 0 closes the last row
    s[k - 1] = 1.0
    for m in range(k - 1, 0, -1):
        s[m - 1] = ((theta - alpha[m]) * s[m] - beta[m] * s[m + 1]) / beta[m - 1]
    s = np.array(s[:k])
    return theta, s / np.linalg.norm(s)


def _lanczos_lambda2(t: Topology) -> float | None:
    """lambda2 of a connected undirected graph by Lanczos on L restricted to
    the complement of the ones vector; None if it does not converge.

    L is applied by one pass over the edges and the mean is projected out
    at every step; there is no other reorthogonalisation. The smallest Ritz
    pair (theta, s) of the k-step tridiagonal is tested on a x1.5 schedule
    and taken once its residual bound beta_k |s_k| and then the explicit
    residual ||L x - theta x|| of its Ritz vector x are both at most
    LANCZOS_TOL * theta * ||x||.
    """
    n = t.n
    i, j = t.edge_index
    deg = np.bincount(i, minlength=n).astype(float)

    def apply(q):
        return deg * q - np.bincount(i, q[j], minlength=n)

    basis = np.empty((LANCZOS_MAX_STEPS, n))
    alpha, beta = [], []
    q = np.random.default_rng(0).standard_normal(n)
    q -= q.mean()
    q /= np.linalg.norm(q)
    prev, b, check = np.zeros(n), 0.0, 8
    for k in range(LANCZOS_MAX_STEPS):
        basis[k] = q
        w = apply(q) - b * prev
        a = float(q @ w)
        w -= a * q
        w -= w.sum() / n
        b = float(np.linalg.norm(w))
        alpha.append(a)
        beta.append(b)
        # test on the schedule, at the last step and when the Krylov space
        # closes (b near 0, as on complete graphs and stars)
        closed = b <= LANCZOS_TOL * a
        if k + 1 in (check, LANCZOS_MAX_STEPS) or closed:
            check = (3 * check + 1) // 2
            theta, s = _smallest_ritz_pair(alpha, beta)
            if b * abs(s[-1]) <= LANCZOS_TOL * theta:
                x = s @ basis[:k + 1]
                x -= x.mean()
                residual = np.linalg.norm(apply(x) - theta * x)
                return theta if residual <= LANCZOS_TOL * theta * np.linalg.norm(x) else None
            if closed:
                return None
        prev, q = q, w / b
    return None


def analyze(t: Topology) -> SpectralData:
    """Whichever spectral quantities the topology supports.

    A digraph's w1 comes from its root block alone, without an n x n matrix;
    an undirected connected graph has uniform w1 and, from n = 2, lambda2.
    lambda2 is first tried by Lanczos, without an n x n matrix, on a graph of
    at least LANCZOS_MIN_AGENTS agents whose LANCZOS_MAX_STEPS passes over
    the E edges cost at most n^3 / 16 (a dense graph makes each pass cost up
    to n^2). Its own convergence test decides: a graph on which it does not
    converge within LANCZOS_MAX_STEPS steps, as a long ring or path does,
    gets a dense eigvalsh, and so does any other graph. Dense matrices over
    MAX_DENSE_BYTES are refused (ConfigurationError) before any is
    allocated; so is a graph whose Lanczos basis would exceed them.
    """
    roots = t.roots
    if not roots:
        return SpectralData()
    if (
        not t.directed
        and t.n >= LANCZOS_MIN_AGENTS
        and 16 * LANCZOS_MAX_STEPS * t.edge_index.shape[1] <= t.n ** 3
        and 8 * LANCZOS_MAX_STEPS * t.n <= MAX_DENSE_BYTES
    ):
        lam2 = _lanczos_lambda2(t)
        if lam2 is not None:
            return SpectralData(w1=np.full(t.n, 1.0 / t.n), lambda2=lam2)
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
    i, j = t.edge_index
    inner = index[i] >= 0
    w1 = np.zeros(t.n)
    w1[rows] = _root_block_weights(_laplacian(len(rows), index[i[inner]], index[j[inner]]))
    return SpectralData(w1=w1)
