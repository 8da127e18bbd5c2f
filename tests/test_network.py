"""Topology diagnostics (networkx as oracle) and the auction reference's broadcast rounds."""

import networkx as nx
import numpy as np
import pytest

from cbaam_oracle import broadcast_round, out_neighbors
from intersim.network import (
    Topology,
    cbaam_time_bound,
    graph_ell,
    is_strongly_connected,
)


def to_nx(t: Topology) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(t.nodes)
    g.add_edges_from(t.arcs)
    return g


def random_topology(rng, n, p=0.35, ensure_sc=True):
    """Random digraph; optionally guaranteed strongly connected via a ring."""
    nodes = list(range(1, n + 1))
    arcs = set()
    if ensure_sc:
        order = list(nodes)
        rng.shuffle(order)
        arcs |= {(order[k], order[(k + 1) % n]) for k in range(n)}
    for i in nodes:
        for j in nodes:
            if i != j and rng.random() < p:
                arcs.add((i, j))
    return Topology(frozenset(nodes), frozenset(arcs))


# -- construction -------------------------------------------------------------


def test_no_self_loops():
    with pytest.raises(ValueError):
        Topology(frozenset({1, 2}), frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Topology(frozenset({1, 2}), frozenset({(1, 3)}))


def test_neighbor_sets():
    t = Topology.complete([1, 2, 3])
    assert out_neighbors(t, 1) == {2, 3}
    ring = Topology.ring([1, 2, 3, 4])
    assert {a for a, j in ring.arcs if j == 1} == {4}
    assert out_neighbors(ring, 1) == {2}
    isolated = Topology(frozenset({1, 2}), frozenset())
    assert out_neighbors(isolated, 1) == set() and {a for a, j in isolated.arcs if j == 1} == set()
    with pytest.raises(KeyError):
        out_neighbors(t, 99)


# -- strong connectivity -------------------------------------------------------


def test_complete_and_ring_strongly_connected():
    assert is_strongly_connected(Topology.complete([1, 2, 3, 4]))
    assert is_strongly_connected(Topology.ring([1, 2, 3, 4]))
    assert is_strongly_connected(Topology(frozenset({7}), frozenset()))


def test_broken_ring_not_strongly_connected():
    ring = Topology.ring([1, 2, 3, 4])
    arcs = set(ring.arcs)
    arcs.remove((1, 2))
    assert not is_strongly_connected(Topology(ring.nodes, frozenset(arcs)))


def test_strong_connectivity_matches_networkx():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        t = random_topology(rng, n, p=float(rng.uniform(0.1, 0.6)), ensure_sc=bool(rng.random() < 0.5))
        assert is_strongly_connected(t) == nx.is_strongly_connected(to_nx(t))


# -- graph_ell -----------------------------------------------------------------


def test_ell_reference_values():
    assert graph_ell(Topology.complete([1, 2, 3, 4])) == 1
    assert graph_ell(Topology.ring([1, 2, 3, 4])) == 3
    assert graph_ell(Topology(frozenset({1, 2}), frozenset({(1, 2), (2, 1)}))) == 1
    assert graph_ell(Topology(frozenset({9}), frozenset())) == 1


def test_ell_matches_networkx_eccentricity():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        t = random_topology(rng, n)
        expected = max(
            max(lengths.values())
            for _, lengths in nx.all_pairs_shortest_path_length(to_nx(t))
        )
        assert graph_ell(t) == expected


def test_ell_requires_strong_connectivity():
    t = Topology(frozenset({1, 2}), frozenset({(1, 2)}))
    with pytest.raises(ValueError):
        graph_ell(t)


def test_ell_is_computed_once_per_topology():
    graph_ell.cache_clear()
    assert graph_ell(Topology.ring([1, 2, 3, 4])) == 3
    assert graph_ell(Topology.ring([4, 3, 2, 1])) == 3  # an equal topology, built anew
    assert (graph_ell.cache_info().hits, graph_ell.cache_info().misses) == (1, 1)


def test_complete_graphs_have_ell_one():
    for n in range(2, 9):
        assert graph_ell(Topology.complete(range(1, n + 1))) == 1


# -- broadcast_round ------------------------------------------------------------


def test_no_senders_no_messages():
    t = Topology.complete([1, 2, 3])
    inbox = broadcast_round(t, {})
    assert inbox == {1: [], 2: [], 3: []}


def test_complete_broadcast_count():
    t = Topology.complete([1, 2, 3, 4])
    inbox = broadcast_round(t, {i: f"m{i}" for i in t.nodes})
    assert all(len(msgs) == 3 for msgs in inbox.values())


def test_ring_single_sender():
    t = Topology.ring([1, 2, 3, 4])
    inbox = broadcast_round(t, {2: "hello"})
    assert inbox[3] == ["hello"]
    assert all(not msgs for node, msgs in inbox.items() if node != 3)


def test_message_conservation_and_order():
    rng = np.random.default_rng(8)
    for _ in range(25):
        t = random_topology(rng, int(rng.integers(2, 8)), ensure_sc=False)
        payloads = {i: i * 10 for i in t.nodes if rng.random() < 0.7}
        inbox = broadcast_round(t, payloads)
        delivered = sum(len(v) for v in inbox.values())
        expected = sum(len(out_neighbors(t, s)) for s in payloads)
        assert delivered == expected
        for i, msgs in inbox.items():
            senders = [m // 10 for m in msgs]
            assert senders == sorted(senders)


def test_broadcast_determinism():
    t = Topology.complete([1, 2, 3])
    a = broadcast_round(t, {3: "c", 1: "a"})
    b = broadcast_round(t, {1: "a", 3: "c"})
    assert a == b


# -- latency bookkeeping ---------------------------------------------------------


def test_time_bound_reference_values():
    assert cbaam_time_bound(4, 1) == 12.0
    assert cbaam_time_bound(1, 1) == 3.0
    assert cbaam_time_bound(4, 3) == 36.0
    with pytest.raises(ValueError):
        cbaam_time_bound(0, 1)
