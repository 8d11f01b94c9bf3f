"""Laplacian construction, root agents and spectral quantities against oracles."""

import functools
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

from framelocal import (
    ConfigurationError,
    Topology,
    analyze,
    build_laplacian,
    has_spanning_tree,
    is_connected_undirected,
)
from framelocal import graphs
from framelocal.graphs import LANCZOS_TOL, W1_RESIDUAL_TOL
from conftest import directed_demo_topology, spanning_digraph, square_demo_topology
from rhs_oracle import neighbors


def null_space_oracle(lap: np.ndarray) -> np.ndarray:
    """Independent w1: SVD null space of L^T, normalized to sum 1."""
    ns = scipy.linalg.null_space(lap.T)
    assert ns.shape[1] == 1
    w = ns[:, 0]
    return w / w.sum()


def reaches_all_oracle(t: Topology, root: int) -> bool:
    """One search from root along the information flow (j to i for edge (i, j))."""
    out = {k: [] for k in range(1, t.n + 1)}
    for i, j in t.edges:
        out[j].append(i)
    seen = {root}
    stack = [root]
    while stack:
        k = stack.pop()
        for nxt in out[k]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == t.n


def roots_oracle(t: Topology) -> tuple:
    """Root agents by one search per candidate root, O(n (n + E))."""
    return tuple(r for r in range(1, t.n + 1) if reaches_all_oracle(t, r))


def ring_rooted_digraph(n: int, m: int, seed: int) -> Topology:
    """Digraph whose root component is the directed ring 1..m, with random chords.

    Every other agent hears from a lower-numbered agent, so the ring reaches
    everyone, plus from random others; no edge enters the ring from outside.
    """
    rng = np.random.default_rng(seed)
    edges = {(k, k % m + 1) for k in range(1, m + 1) if m > 1}
    chords = ((i, j) for i in range(1, m + 1) for j in range(1, m + 1) if i != j)
    edges |= {e for e in chords if rng.random() < 0.3}
    for i in range(m + 1, n + 1):
        edges.add((i, int(rng.integers(1, i))))
        edges |= {(i, j) for j in range(1, n + 1) if j != i and rng.random() < 0.2}
    return Topology(n, tuple(edges))


@st.composite
def topologies(draw) -> Topology:
    """Sparse random digraphs and undirected graphs over 1 to 12 agents."""
    n = draw(st.integers(1, 12))
    ends = st.tuples(st.integers(1, n), st.integers(1, n))
    pairs = [(i, j) for i, j in draw(st.lists(ends, max_size=2 * n)) if i != j]
    return Topology(n, tuple(pairs)) if draw(st.booleans()) else Topology.undirected(n, pairs)


@given(topologies())
@example(directed_demo_topology())
@example(square_demo_topology())
@example(Topology(3))
def test_edge_arrays_are_views_of_one_read_only_index(t):
    i, j = t.edge_index
    again = t.edge_index
    assert i.base is again[0].base is j.base is again[1].base
    assert not i.flags.writeable and not j.flags.writeable
    with pytest.raises(ValueError):
        i[:] = 0
    edges = np.array(t.edges, dtype=np.intp).reshape(-1, 2)
    assert np.array_equal(np.stack((i, j), axis=1) + 1, edges)
    assert i.dtype == j.dtype == np.intp


def test_two_node_undirected_laplacian():
    t = Topology.undirected(2, [(1, 2)])
    assert np.array_equal(build_laplacian(t), [[1.0, -1.0], [-1.0, 1.0]])


def test_directed_demo_laplacian_by_hand():
    # edges (1,2), (2,3), (3,4), (4,2): row i has -1 in each neighbor column
    # and the neighbor count on the diagonal.
    expected = np.array(
        [
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 1.0, -1.0, 0.0],
            [0.0, 0.0, 1.0, -1.0],
            [0.0, -1.0, 0.0, 1.0],
        ]
    )
    assert np.array_equal(build_laplacian(directed_demo_topology()), expected)


def test_empty_edges_zero_laplacian():
    assert np.array_equal(build_laplacian(Topology(3)), np.zeros((3, 3)))


def test_row_sums_vanish_exactly():
    for seed in range(5):
        t = spanning_digraph(5, seed)
        assert np.all(build_laplacian(t).sum(axis=1) == 0.0)


def test_spanning_tree_directed_chain():
    # each agent receives from the next: 1<-2<-3<-4 information-wise
    t = Topology(4, ((1, 2), (2, 3), (3, 4)))
    assert has_spanning_tree(t)


def test_spanning_tree_disconnected_pairs():
    t = Topology(4, ((1, 2), (2, 1), (3, 4), (4, 3)))
    assert not has_spanning_tree(t)


def test_spanning_tree_undirected_square():
    assert has_spanning_tree(square_demo_topology())


def test_connectivity_checks():
    assert is_connected_undirected(square_demo_topology())
    assert is_connected_undirected(Topology(1, (), directed=False))
    assert not is_connected_undirected(directed_demo_topology())
    assert not is_connected_undirected(Topology.undirected(4, [(1, 2), (3, 4)]))


def test_w1_uniform_for_undirected():
    assert np.abs(analyze(square_demo_topology()).w1 - 0.25).max() < 1e-9


def test_w1_directed_pair():
    # only agent 1 receives, so the weight sits on agent 2
    t = Topology(2, ((1, 2),))
    assert np.array_equal(build_laplacian(t), [[1.0, -1.0], [0.0, 0.0]])
    assert np.allclose(analyze(t).w1, [0.0, 1.0], atol=1e-12)


def test_w1_directed_demo_against_null_space():
    lap = build_laplacian(directed_demo_topology())
    w1 = analyze(directed_demo_topology()).w1
    assert np.abs(w1 - null_space_oracle(lap)).max() < 1e-9
    assert abs(w1.sum() - 1.0) < 1e-12
    assert np.all(w1 >= 0.0)
    assert np.abs(w1 @ lap).max() < 1e-9


def test_w1_random_digraphs_against_null_space():
    for seed in range(4):
        t = spanning_digraph(6, 100 + seed)
        assert np.abs(analyze(t).w1 - null_space_oracle(build_laplacian(t))).max() < 1e-9


def test_w1_multiplicity_error():
    # two disjoint pairs: the zero eigenvalue is double, so there is no w1
    assert analyze(Topology(4, ((1, 2), (2, 1), (3, 4), (4, 3)))).w1 is None


def test_fiedler_complete_graph():
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    assert abs(analyze(Topology.undirected(4, pairs)).lambda2 - 4.0) < 1e-9


def test_fiedler_square():
    lap = build_laplacian(square_demo_topology())
    vals = np.linalg.eigvalsh(lap)
    assert np.allclose(vals, [0.0, 2.0, 2.0, 4.0], atol=1e-9)
    assert abs(analyze(square_demo_topology()).lambda2 - 2.0) < 1e-9


def test_fiedler_path_of_two():
    assert abs(analyze(Topology.undirected(2, [(1, 2)])).lambda2 - 2.0) < 1e-12


def test_fiedler_rejects_asymmetric():
    assert analyze(directed_demo_topology()).lambda2 is None


def test_fiedler_rejects_disconnected():
    assert analyze(Topology.undirected(4, [(1, 2), (3, 4)])).lambda2 is None


def test_fiedler_bounds_rayleigh_quotient():
    rng = np.random.default_rng(21)
    lap = build_laplacian(square_demo_topology())
    lam2 = analyze(square_demo_topology()).lambda2
    for _ in range(50):
        x = rng.normal(size=4)
        x -= x.mean()
        assert x @ lap @ x >= lam2 * (x @ x) - 1e-9


def test_root_agents_by_hand():
    assert directed_demo_topology().roots == (2, 3, 4)
    assert Topology(4, ((1, 2), (2, 3), (3, 4))).roots == (4,)
    assert square_demo_topology().roots == (1, 2, 3, 4)
    assert Topology(1).roots == (1,)
    assert Topology(3).roots == ()
    # two source components {2} and {4}
    assert Topology(4, ((1, 2), (3, 4))).roots == ()


@given(topologies())
@example(Topology(1))
@example(Topology(6))
@example(Topology(5, ((1, 2), (3, 4))))
@example(Topology.undirected(5, [(1, 2), (3, 4)]))
@example(Topology(5, ((1, 2), (2, 1), (3, 1), (4, 3))))
@example(directed_demo_topology())
def test_root_agents_agree_with_per_root_scan(t):
    roots = roots_oracle(t)
    assert t.roots == roots
    assert has_spanning_tree(t) == bool(roots)
    assert is_connected_undirected(t) == (not t.directed and reaches_all_oracle(t, 1))


def test_analyze_w1_lives_on_the_root_component():
    for n, m, seed in ((10, 1, 1), (10, 3, 2), (10, 5, 3), (12, 12, 4), (7, 2, 5)):
        t = ring_rooted_digraph(n, m, seed)
        roots = t.roots
        assert roots == tuple(range(1, m + 1))
        w1 = analyze(t).w1
        assert np.abs(w1 - null_space_oracle(build_laplacian(t))).max() < 1e-9
        assert np.all(w1[m:] == 0.0)
    w1 = analyze(directed_demo_topology()).w1
    assert w1[0] == 0.0 and np.abs(w1[1:] - 1.0 / 3.0).max() < 1e-12


def test_analyze_long_directed_chain_is_fast():
    # each agent hears the next, so the last one is the only root and a
    # search from every candidate root costs O(n^2) steps
    n = 2048
    t = Topology(n, tuple((i, i + 1) for i in range(1, n)))
    start = time.perf_counter()
    spectral = analyze(t)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert spectral.w1[-1] == 1.0 and not spectral.w1[:-1].any()
    assert spectral.lambda2 is None


@given(topologies())
@example(Topology(1))
@example(Topology(2, ((1, 2),)))
@example(Topology(5, ((1, 2), (2, 1), (3, 1), (4, 3))))
@example(directed_demo_topology())
def test_analyze_w1_is_the_weighted_null_vector(t):
    roots = t.roots
    w1 = analyze(t).w1
    if not roots:
        assert w1 is None
        return
    lap = build_laplacian(t)
    off_roots = np.setdiff1d(np.arange(t.n), np.array(roots) - 1)
    assert abs(w1.sum() - 1.0) < 1e-12
    assert np.all(w1 >= 0.0)
    assert np.all(w1[off_roots] == 0.0)
    assert np.abs(w1 @ lap).max() < W1_RESIDUAL_TOL
    assert np.abs(w1 - null_space_oracle(lap)).max() < 1e-12


def test_analyze_large_strongly_connected_digraph_is_fast():
    # every agent is a root, so the root block is the whole n x n Laplacian;
    # the best of three calls, each on a fresh topology (the root search is
    # cached per topology), so that a load spike on a shared machine alone
    # does not fail the bound
    n = 1024
    rng = np.random.default_rng(7)
    edges = {(k, k % n + 1) for k in range(1, n + 1)}
    while len(edges) < 3 * n:
        i, j = (int(x) for x in rng.integers(1, n + 1, 2))
        if i != j:
            edges.add((i, j))
    elapsed = []
    for _ in range(3):
        t = Topology(n, tuple(edges))
        start = time.perf_counter()
        w1 = analyze(t).w1
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.3
    assert abs(w1.sum() - 1.0) < 1e-12 and np.all(w1 > 0.0)
    assert np.abs(w1 @ build_laplacian(t)).max() < W1_RESIDUAL_TOL


@pytest.mark.parametrize(
    "make",
    [
        lambda: Topology(4.7, ((1, 2),)),
        lambda: Topology(4, ((1, 2.5), (2, 3), (3, 4), (4, 1))),
        lambda: Topology(True, ()),
        lambda: Topology(2, ((True, 2),)),
        lambda: Topology("4", ()),
        lambda: Topology.undirected(4, [(1, 2.5)]),
    ],
    ids=["n", "edge", "bool-n", "bool-edge", "string-n", "undirected-edge"],
)
def test_topology_rejects_non_integral_indices(make):
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_topology_converts_integral_values():
    t = Topology(4.0, ((1.0, np.int64(2)), (np.float64(3.0), 4)))
    assert t.n == 4 and t.edges == ((1, 2), (3, 4))
    assert type(t.n) is int and all(type(k) is int for e in t.edges for k in e)
    u = Topology.undirected(np.int64(3), [(1, 2.0)])
    assert (u.n, u.edges) == (3, ((1, 2), (2, 1)))
    assert type(u.n) is int


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(3, ((1, 1),))
    with pytest.raises(ValueError):
        Topology(3, ((1, 4),))
    with pytest.raises(ValueError):
        Topology(3, ((1, 2),), directed=False)
    t = Topology(4, ((2, 3), (2, 1)))
    assert neighbors(t, 2) == (1, 3)
    assert neighbors(t, 4) == ()


@pytest.mark.parametrize("n", [2**63, 10**20])
def test_topology_refuses_an_n_past_the_intp_range(n):
    # an edge end past the intp range but within n used to pass every check
    # and end in numpy's "Python int too large to convert to C long"
    largest = np.iinfo(np.intp).max
    for edges in ((), [(1, 10**19), (10**19, 1)]):
        with pytest.raises(ValueError, match=rf"^n must be at most {largest}, got {n}$"):
            Topology(n, edges)
    with pytest.raises(ValueError, match=rf"^edge \(1, {10**19}\) outside 1\.\.{largest}$"):
        Topology(largest, [(1, 10**19)])
    assert Topology(largest, [(1, largest)]).edges == ((1, largest),)


@pytest.mark.parametrize(
    "edges, directed, message",
    [
        (((1, 2), (2, True)), True, "edge end must be an integer, got True"),
        (((1, 2), (2, 2.5)), True, "edge end must be an integer, got 2.5"),
        (((1, 2), (3, 3)), True, "self-loop on agent 3"),
        (((1, 2), (2, 5)), True, "edge (2, 5) outside 1..4"),
        (((1, 5), (2, 2)), True, "edge (1, 5) outside 1..4"),
        (
            ((1, 2), (2, 1), (2, 3), (3, 4)), False,
            "undirected graph needs symmetric edges; missing [(3, 2), (4, 3)]",
        ),
        ([[1, 2], [2]], True, "edge [2] is not a pair of agents"),
        ([[1, 2, 3]], True, "edge [1, 2, 3] is not a pair of agents"),
        (5, True, "edge 5 is not a pair of agents"),
        ([1, 2], True, "edge 1 is not a pair of agents"),
        ([{"a": 1}], True, "edge {'a': 1} is not a pair of agents"),
        ([[1, 2], [2, 1], [1, 5, 2]], False, "edge [1, 5, 2] is not a pair of agents"),
    ],
    ids=["bool-end", "fraction", "self-loop", "out-of-range", "first-fault", "missing-reverse",
         "short-edge", "long-edge", "number-for-edges", "numbers-for-edges", "object-edge",
         "undirected-long-edge"],
)
def test_topology_names_the_first_faulty_edge(edges, directed, message):
    with pytest.raises(ValueError) as err:
        Topology(4, edges, directed)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Topology(4, np.array([[1, 5]])), "edge [1, 5] outside 1..4"),
        (lambda: Topology(4, np.array([[1, 2], [2, 1.5]])), "edge end must be an integer, got 1.5"),
        (lambda: Topology(4, np.array([[True, False]])), "edge end must be an integer, got True"),
        (lambda: Topology(4, np.array([1, 2])), "edge 1 is not a pair of agents"),
        (lambda: Topology.undirected(4, np.array([[1, 2], [3, 5]])), "edge [3, 5] outside 1..4"),
    ],
    ids=["out-of-range", "fraction", "bool", "flat", "undirected-out-of-range"],
)
def test_ndarray_edges_are_named_as_lists(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


@given(st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=12))
))
def test_one_pass_accept_equals_the_walk(n_edges):
    # np.int64 ends take the edge-by-edge walk; Python int pairs take the one
    # pass, which calls no as_int
    n, edges = n_edges
    edges = [e for e in edges if e[0] != e[1]]
    walked = graphs._edge_index([tuple(map(np.int64, e)) for e in edges], n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "as_int", None)
        one_pass = graphs._edge_index(edges, n)
    assert np.array_equal(one_pass, walked) and one_pass.dtype == walked.dtype


def checked_edges(edges, n: int, directed: bool) -> tuple:
    """Oracle: the distinct edges, sorted, checked one at a time; the first fault raises."""
    seen = set()
    for e in edges:
        if not (isinstance(e, (tuple, list, np.ndarray)) and len(e) == 2):
            raise ValueError(f"edge {e!r} is not a pair of agents")
        i, j = (graphs.as_int(k, "edge end") for k in e)
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


def array_forms(edges) -> tuple:
    """Valid edges as an int64 array, an array of integral floats and tuples of np.int64."""
    ints = np.array([[graphs.as_int(k, "edge end") for k in e] for e in edges], dtype=np.int64)
    ints = ints.reshape(-1, 2)
    return ints, ints.astype(float), tuple(map(tuple, ints))


END = st.one_of(
    st.integers(1, 6),
    st.integers(1, 6).map(float),
    st.sampled_from([-1, 0, 7, 2.5, True, False, np.int64(3), np.float64(2.0), float("nan"),
                     float("inf"), 2**70, "1", None, np.float32(2.0)]),
)
# a few entries that are not pairs of ends, between the pairs
NOT_A_PAIR = st.sampled_from([(), (1,), [2], (1, 2, 3), [1, 2, 2], 1, "12", {"a": 1}, {1: 2, 2: 1}])
EDGE = st.tuples(END, END) | st.lists(END, min_size=2, max_size=2) | NOT_A_PAIR


@given(st.integers(1, 6), st.lists(st.tuples(END, END), max_size=8), st.booleans(), st.booleans(),
       st.lists(st.tuples(st.integers(0, 8), EDGE), max_size=2))
@example(4, [(1, 2), (2, 1)], False, False, [])
@example(3, [(2, True)], True, False, [])
@example(3, [], False, False, [])
@example(3, [(1, 2)], True, False, [(0, (1, 2, 3))])
def test_stacked_edge_check_equals_the_per_edge_one(n, edges, directed, mirror, inserts):
    # valid edges: the index holds the per-edge result; any fault: the stack
    # flags the same first edge, whose own check raises the oracle's message
    if mirror:
        edges += [(j, i) for i, j in edges]
    for k, e in inserts:
        edges.insert(min(k, len(edges)), e)
    edges = tuple(edges)
    try:
        want = checked_edges(edges, n, directed)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            Topology(n, edges, directed)
        assert str(got.value) == str(err)
    else:
        got = Topology(n, edges, directed)
        assert got.edges == want and all(type(k) is int for e in got.edges for k in e)
        i, j = got.edge_index
        assert np.array_equal(np.stack((i, j), axis=1) + 1, np.array(want, dtype=np.intp).reshape(-1, 2))
        for form in array_forms(edges):
            assert Topology(n, form, directed) == got


@given(st.integers(1, 6), st.lists(EDGE, max_size=8))
@example(4, [(1, 2), (2, 1), (3, 4)])
@example(4, [(1, 2), [2, 5]])
@example(4, [np.array([1, 2]), (3, 2.0)])
def test_undirected_topology_equals_the_per_edge_check(n, pairs):
    # the pairs are checked as a digraph's edges, then mirrored
    try:
        half = checked_edges(pairs, n, directed=True)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            Topology.undirected(n, pairs)
        assert str(got.value) == str(err)
    else:
        want = checked_edges(half + tuple((j, i) for i, j in half), n, directed=False)
        got = Topology.undirected(n, pairs)
        assert got == Topology(n, want, directed=False) and got.edges == want
        assert got == Topology(n, [*pairs, *((j, i) for i, j in pairs)], directed=False)
        for form in array_forms(pairs):
            assert Topology.undirected(n, form) == got


@pytest.mark.parametrize("directed", ["no", 0, 1, None, 1.0, np.int64(1)])
def test_topology_accepts_only_a_bool_for_directed(directed):
    # "directed": "no" used to build a digraph that saved "directed": "no",
    # a file its own loader refuses, and directed=0 an undirected graph
    with pytest.raises(ValueError) as err:
        Topology(2, ((1, 2), (2, 1)), directed=directed)
    assert str(err.value) == f"directed must be true or false, got {directed!r}"


def test_topology_stores_directed_as_a_bool():
    for flag in (True, False, np.True_, np.False_):
        t = Topology(2, ((1, 2), (2, 1)), directed=flag)
        assert type(t.directed) is bool and t.directed == bool(flag)
    assert Topology(2, ((1, 2), (2, 1)), np.False_) == Topology.undirected(2, [(1, 2)])


def test_equal_topologies_compare_and_hash_equal():
    a = Topology(4, ((3, 4), (1, 2), (2, 3), (1, 2)))
    b = Topology(4.0, [[1, 2], (2.0, np.int64(3)), np.array([3, 4])])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.edges == ((1, 2), (2, 3), (3, 4))
    assert repr(a) == "Topology(n=4, edges=((1, 2), (2, 3), (3, 4)), directed=True)"
    u = Topology.undirected(4, [(1, 2), (3, 2), (4, 3)])
    assert u == Topology(4, ((1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)), directed=False)
    assert hash(u) == hash(Topology(4, u.edges, False))
    assert Topology(5, a.edges) != a and Topology(4, a.edges[:2]) != a and a != a.edges
    assert Topology(2, ((1, 2), (2, 1))) != Topology.undirected(2, [(1, 2)])


def test_topology_is_immutable_and_keeps_its_index():
    t = square_demo_topology()
    # the edges are derived from the index on each read; it is the only storage
    assert set(vars(t)) == {"n", "directed", "edge_index"}
    assert t.roots == (1, 2, 3, 4) and t.links == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert type(t.roots) is tuple and type(t.links) is tuple
    assert t.roots is t.roots and t.links is t.links   # found once, then kept
    names = ("n", "directed", "edges", "edge_index", "roots", "links", "_edge_index")
    for name in names:
        with pytest.raises(AttributeError):
            setattr(t, name, None)
        with pytest.raises(AttributeError):
            delattr(t, name)   # without edge_index a topology cannot compare or hash
    assert t.edges == ((1, 2), (1, 4), (2, 1), (2, 3), (3, 2), (3, 4), (4, 1), (4, 3))
    assert not t.edge_index.flags.writeable
    with pytest.raises(ValueError):
        t.edge_index[0, 0] = 1
    assert t.edge_index.shape == (2, 8) and t.edge_index.dtype == np.intp
    assert t == square_demo_topology()


def test_analyze_directed_and_undirected():
    d = analyze(directed_demo_topology())
    assert d.lambda2 is None
    assert d.w1 is not None and abs(d.w1.sum() - 1.0) < 1e-12
    u = analyze(square_demo_topology())
    assert u.lambda2 == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(u.w1, 0.25)


def ring(n: int, directed: bool) -> Topology:
    links = [(k, k % n + 1) for k in range(1, n + 1)]
    return Topology(n, tuple(links)) if directed else Topology.undirected(n, links)


class Allocating(Exception):
    """Raised in place of the first dense matrix analyze would build."""


def refuse_allocation(*args):
    raise Allocating


def test_dense_bound_checked_before_allocation(monkeypatch):
    # a 20 000-agent ring would hold two 3.2 GB matrices; it is refused once
    # its roots are known, before any dense matrix exists, while 2048 agents
    # (the largest of the step sweep) pass the bound under either law
    monkeypatch.setattr(graphs, "_laplacian", refuse_allocation)
    with pytest.raises(ConfigurationError, match=r"^graph: .* 20000 root agents .* 6104 MiB .* 256 MiB limit$"):
        analyze(ring(20000, directed=False))
    for directed in (False, True):
        with pytest.raises(Allocating):
            analyze(ring(2048, directed))


@pytest.mark.parametrize(
    "t, nbytes",
    [(square_demo_topology(), 2 * 8 * 4**2), (directed_demo_topology(), 3 * 8 * 3**2)],
    ids=["undirected", "directed"],
)
def test_dense_bound_is_inclusive(monkeypatch, t, nbytes):
    # two n x n matrices for an undirected graph (the Laplacian and the copy
    # eigvalsh factors); three m x m for the 3-agent root block of a digraph
    # (the block, the bordered matrix and the copy solve factors)
    monkeypatch.setattr(graphs, "MAX_DENSE_BYTES", nbytes)
    assert analyze(t).w1 is not None
    monkeypatch.setattr(graphs, "MAX_DENSE_BYTES", nbytes - 1)
    with pytest.raises(ConfigurationError, match="^graph: "):
        analyze(t)


# ---------------------------------------------------------------------------
# lambda2 by Lanczos


def ring_with_chords(n: int, seed: int = 1) -> Topology:
    """The undirected ring 1..n plus n // 2 distinct seeded chords."""
    rng = np.random.default_rng(seed)
    links = {tuple(sorted((k, k % n + 1))) for k in range(1, n + 1)}
    while len(links) < n + n // 2:
        i, j = sorted(int(x) for x in rng.integers(1, n + 1, 2))
        if i != j:
            links.add((i, j))
    return Topology.undirected(n, sorted(links))


def grid(n: int, rows: int | None = None) -> Topology:
    """A rows x (n / rows) grid, rows by default the largest power of two up to sqrt(n)."""
    rows = rows or 2 ** (int(np.log2(n)) // 2)
    cols = n // rows
    index = np.arange(n).reshape(rows, cols) + 1
    pairs = np.concatenate([
        np.stack((index[:, :-1], index[:, 1:]), -1).reshape(-1, 2),
        np.stack((index[:-1], index[1:]), -1).reshape(-1, 2),
    ])
    return Topology.undirected(n, pairs.tolist())


def random_geometric(n: int, seed: int = 1) -> Topology:
    """Agents linked within twice the connectivity radius of n uniform points
    in the unit square, redrawn until connected."""
    rng = np.random.default_rng(seed)
    radius = 2.0 * np.sqrt(np.log(n) / (np.pi * n))
    while True:
        p = rng.random((n, 2))
        near = np.linalg.norm(p[:, None] - p[None], axis=-1) < radius
        t = Topology.undirected(n, (np.argwhere(np.triu(near, 1)) + 1).tolist())
        if t.roots:
            return t


def path(n: int) -> Topology:
    return Topology.undirected(n, [(k, k + 1) for k in range(1, n)])


def star(n: int) -> Topology:
    return Topology.undirected(n, [(1, k) for k in range(2, n + 1)])


def complete(n: int) -> Topology:
    return Topology.undirected(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def dense_lambda2(t: Topology) -> float:
    return float(np.linalg.eigvalsh(build_laplacian(t))[1])


LANCZOS_CASES = {
    **{
        f"{family.__name__}-{n}": functools.partial(family, n)
        for family in (ring_with_chords, grid, random_geometric, star)
        for n in (graphs.LANCZOS_MIN_AGENTS, 1024)
    },
    # agent 1 is 256 and 134 hops from the farthest agent: far from agent 1
    # does not mean slow to converge
    "ring-512": functools.partial(ring, graphs.LANCZOS_MIN_AGENTS, directed=False),
    "grid-8x128": functools.partial(grid, 1024, rows=8),
}


@pytest.mark.parametrize("make", LANCZOS_CASES.values(), ids=LANCZOS_CASES.keys())
def test_lanczos_lambda2_agrees_with_eigvalsh(monkeypatch, make):
    # Lanczos returns theta only once its Ritz vector x, orthogonal to the
    # ones vector, has ||L x - theta x|| <= LANCZOS_TOL * theta * ||x||, so an
    # eigenvalue of L lies within LANCZOS_TOL * theta of it
    t = make()
    exact = dense_lambda2(t)
    monkeypatch.setattr(graphs, "_laplacian", refuse_allocation)
    lam2 = analyze(t).lambda2
    assert abs(lam2 - exact) <= LANCZOS_TOL * lam2
    assert analyze(t).lambda2 == lam2


@pytest.mark.parametrize(
    "make",
    [
        lambda: path(graphs.LANCZOS_MIN_AGENTS),
        lambda: ring_with_chords(graphs.LANCZOS_MIN_AGENTS - 1),
        lambda: complete(graphs.LANCZOS_MIN_AGENTS),
        square_demo_topology,
    ],
    ids=["path", "below-crossover", "complete", "demo"],
)
def test_lambda2_off_the_lanczos_route_is_eigvalsh_bit_for_bit(make):
    # Lanczos does not converge on a path within LANCZOS_MAX_STEPS, a
    # complete graph has too many edges for the step budget, and the others
    # are below the crossover
    t = make()
    assert analyze(t).lambda2 == dense_lambda2(t)


def test_lanczos_that_does_not_converge_falls_back_to_eigvalsh(monkeypatch):
    # a path does not converge within the step budget, nor a ring with
    # chords within 24 steps, so eigvalsh gives both values
    returned = []
    lanczos = graphs._lanczos_lambda2

    def spy(t):
        returned.append(lanczos(t))
        return returned[-1]

    monkeypatch.setattr(graphs, "_lanczos_lambda2", spy)
    t = path(graphs.LANCZOS_MIN_AGENTS)
    assert analyze(t).lambda2 == dense_lambda2(t)
    monkeypatch.setattr(graphs, "LANCZOS_MAX_STEPS", 24)
    t = ring_with_chords(graphs.LANCZOS_MIN_AGENTS)
    assert analyze(t).lambda2 == dense_lambda2(t)
    assert returned == [None, None]


@pytest.mark.parametrize("family, lam2", [(complete, 64.0), (star, 1.0)], ids=["complete", "star"])
def test_lanczos_stops_when_the_krylov_space_closes(family, lam2):
    # one step spans the complement of ones on a complete graph, two on a star
    assert graphs._lanczos_lambda2(family(64)) == pytest.approx(lam2, rel=LANCZOS_TOL)


def test_well_connected_graph_past_the_dense_bound_is_analysed(monkeypatch):
    # two dense 4100 x 4100 matrices would be over MAX_DENSE_BYTES, which
    # refused this graph before Lanczos; the oracle is ARPACK
    import scipy.sparse
    import scipy.sparse.linalg

    t = ring_with_chords(4100)
    assert 16 * t.n**2 > graphs.MAX_DENSE_BYTES
    monkeypatch.setattr(graphs, "_laplacian", refuse_allocation)
    lam2 = analyze(t).lambda2
    i, j = t.edge_index
    lap = scipy.sparse.csr_matrix((-np.ones(len(i)), (i, j)), shape=(t.n, t.n))
    lap = lap + scipy.sparse.diags(np.bincount(i, minlength=t.n).astype(float))
    start = 1.0 + np.arange(t.n) % 7
    low = np.sort(scipy.sparse.linalg.eigsh(lap, k=2, which="SA", v0=start, return_eigenvectors=False))
    assert abs(lam2 - low[1]) <= LANCZOS_TOL * lam2


def test_lanczos_holds_no_n_by_n_matrix():
    # the dense path allocates an 8 MiB Laplacian for 1024 agents (and eigvalsh
    # a copy that tracemalloc does not see); Lanczos keeps 2 MiB of basis
    t = ring_with_chords(1024)
    tracemalloc.start()
    try:
        analyze(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_search_finds_the_roots():
    assert ring(9, directed=False).roots == tuple(range(1, 10))
    # along the information flow: nobody hears agent 1 on a chain toward 4
    assert Topology(4, ((1, 2), (2, 3), (3, 4))).roots == (4,)
    assert Topology(4, ((2, 1), (3, 2), (4, 3))).roots == (1,)
