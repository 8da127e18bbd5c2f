"""Simulated V2V network: directed topologies and their round-count diameter.

Delivery is perfect and instantaneous within a round; the per-hop latency is
bookkeeping for the real-time budget report only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

PER_HOP_LATENCY_MS = 3.0


@dataclass(frozen=True)
class Topology:
    nodes: frozenset[int]
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        for i, j in self.arcs:
            if i == j:
                raise ValueError("self-loops are not allowed")
            if i not in self.nodes or j not in self.nodes:
                raise ValueError(f"arc ({i},{j}) references unknown node")

    @staticmethod
    def complete(nodes) -> "Topology":
        ns = frozenset(nodes)
        return Topology(ns, frozenset((i, j) for i in ns for j in ns if i != j))

    @staticmethod
    def ring(nodes) -> "Topology":
        """Directed cycle over the nodes in ascending order."""
        order = sorted(nodes)
        if len(order) < 2:
            return Topology(frozenset(order), frozenset())
        arcs = {(order[k], order[(k + 1) % len(order)]) for k in range(len(order))}
        return Topology(frozenset(order), frozenset(arcs))


def _bfs_dists(adj: dict[int, list[int]], src: int) -> dict[int, int]:
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _adjacency(t: Topology) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {i: [] for i in t.nodes}
    for i, j in sorted(t.arcs):
        adj[i].append(j)
    return adj


@lru_cache(maxsize=256)
def graph_ell(t: Topology) -> int:
    """Largest over ordered node pairs of the shortest directed path length.

    Bounds how many synchronous rounds a max-consensus sweep needs; a single
    node still costs one round. Memoised per topology, so the auction and
    the timing bound of one step share one computation.
    """
    if len(t.nodes) <= 1:
        return 1
    adj = _adjacency(t)
    worst = 0
    for i in t.nodes:
        dist = _bfs_dists(adj, i)
        if len(dist) != len(t.nodes):
            raise ValueError("topology is not strongly connected")
        worst = max(worst, max(dist.values()))
    return worst


def is_strongly_connected(t: Topology) -> bool:
    """Does every node reach every other? Exactly when `graph_ell` has an answer."""
    try:
        graph_ell(t)
    except ValueError:
        return False
    return True


def cbaam_time_bound(n_agents: int, ell: int) -> float:
    """Worst-case auction agreement latency in ms: n_agents * ell * per-hop."""
    if n_agents < 1:
        raise ValueError("need at least one agent")
    return n_agents * ell * PER_HOP_LATENCY_MS
