"""Message-passing CBAA-M: the reference that `intersim.auction.run_cbaam` must match.

Each agent holds its own `PriorityVectors`; a superstep runs `local_auction`
for every bidder, delivers every node's vectors to its out-neighbours with
`broadcast_round`, and merges them with `consensus_update`. `run_reference`
runs the full n_bidders * ell supersteps and reports the first superstep at
which every node held the bid sort.

Both phases compare slots as (bid, -id) pairs, so an equal bid ranks the
lower id first, and the bid sort is the descending sort of those pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, TypeVar

from intersim.network import Topology, graph_ell

T = TypeVar("T")

UNASSIGNED = 0


@dataclass
class PriorityVectors:
    v: list[int]  # agent ids per priority slot, UNASSIGNED when empty
    w: list[float]  # bids per slot, 0 when empty

    @staticmethod
    def empty(n: int) -> "PriorityVectors":
        return PriorityVectors([UNASSIGNED] * n, [0.0] * n)

    def copy(self) -> "PriorityVectors":
        return PriorityVectors(list(self.v), list(self.w))

    def __eq__(self, other) -> bool:
        return isinstance(other, PriorityVectors) and self.v == other.v and self.w == other.w


def local_auction(i: int, c_i: float, prev: PriorityVectors) -> PriorityVectors:
    """Phase 1: write bid c_i at the earliest slot it beats, if i is absent."""
    if c_i <= 0:
        raise ValueError("bids must be > 0")
    if i in prev.v:
        return prev.copy()
    out = prev.copy()
    for j, (w_j, v_j) in enumerate(zip(prev.w, prev.v)):
        if (c_i, -i) > (w_j, -v_j):
            out.v[j] = i
            out.w[j] = c_i
            break
    return out


def consensus_update(own: PriorityVectors, received: Sequence[PriorityVectors]) -> PriorityVectors:
    """Phase 2: slot-wise max of (bid, -id) over own and received vectors.

    The winning bid's agent id is copied from the same source; sources are
    scanned own-first then in the caller's (sender-sorted) order, with strict
    improvement required, so the result is deterministic.
    """
    n = len(own.v)
    for r in received:
        if len(r.v) != n:
            raise ValueError("all priority vectors must have identical length")
    out = own.copy()
    for r in received:
        for j in range(n):
            if (r.w[j], -r.v[j]) > (out.w[j], -out.v[j]):
                out.w[j] = r.w[j]
                out.v[j] = r.v[j]
    return out


def out_neighbors(t: Topology, i: int) -> set[int]:
    if i not in t.nodes:
        raise KeyError(f"unknown node {i}")
    return {j for a, j in t.arcs if a == i}


def broadcast_round(t: Topology, payloads: Mapping[int, T]) -> dict[int, list[T]]:
    """One synchronous round: every receiver gets its in-neighbors' payloads.

    Messages arrive in ascending sender-index order, so delivery is
    deterministic regardless of the caller's iteration order.
    """
    for sender in payloads:
        if sender not in t.nodes:
            raise KeyError(f"unknown sender {sender}")
    inbox: dict[int, list[T]] = {i: [] for i in t.nodes}
    for sender in sorted(payloads):
        for j in sorted(out_neighbors(t, sender)):
            inbox[j].append(payloads[sender])
    return inbox


def run_reference(bids: Mapping[int, float], topology: Topology) -> tuple[tuple[int, ...], int]:
    """Run every superstep of the bound; nodes without a bid only relay.
    Returns the order, highest priority first, and the agreement superstep."""
    m = len(bids)
    vectors = {i: PriorityVectors.empty(m) for i in topology.nodes}
    expect_order = tuple(sorted(bids, key=lambda a: (bids[a], -a), reverse=True))
    expect = PriorityVectors(list(expect_order), [bids[a] for a in expect_order])
    agreed_at = 0
    for superstep in range(1, m * graph_ell(topology) + 1):
        for i in bids:
            vectors[i] = local_auction(i, bids[i], vectors[i])
        inbox = broadcast_round(topology, vectors)
        vectors = {i: consensus_update(vectors[i], inbox[i]) for i in topology.nodes}
        if agreed_at == 0 and all(vec == expect for vec in vectors.values()):
            agreed_at = superstep
    if agreed_at == 0:
        raise AssertionError("auction failed to agree within the n*ell bound")
    return expect_order, agreed_at
