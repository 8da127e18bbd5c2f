"""Distributed priority negotiation via a consensus-based auction (CBAA-M).

Every sampling instant, vehicles still ahead of the critical-region exit bid
for crossing priority. Each superstep has two phases: a local auction where
an agent writes its bid into the earliest beatable slot of its priority
vectors, and a max-consensus exchange where neighbors agree slot by slot.
Nodes without a bid only relay. On a strongly connected digraph every node
holds the descending bid sort after at most n_bidders * ell supersteps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .network import Topology, graph_ell


@dataclass(frozen=True)
class BidParams:
    alpha1: float = 0.1  # speed weight outside the brake-safe region
    alpha2: float = 5.0  # proximity gain outside
    alpha3: float = 0.1  # progress weight inside
    alpha4: float = 1.0  # gap threshold guarding the proximity pole
    alpha5: float = 7.0  # bid floor inside
    emergency_bid: float = 1e6

    def __post_init__(self):
        if min(self.alpha1, self.alpha2, self.alpha3, self.alpha4, self.alpha5) <= 0:
            raise ValueError("all bid parameters must be > 0")
        if self.emergency_bid <= self.alpha5:
            raise ValueError("emergency bid must dominate regular bids")

    def check_separation(self, v_max: float) -> None:
        """Inside-region bids must strictly dominate every outside bid: the
        smallest inside bid, alpha4 short of the region entry, must exceed
        the largest outside bid, at v_max just beyond that gap."""
        inside = self.alpha5 - self.alpha3 * self.alpha4
        outside = self.alpha1 * v_max + self.alpha2 / self.alpha4
        if not inside > outside:
            raise ValueError(
                "bid parameters do not separate inside/outside bids: "
                f"alpha5 - alpha3*alpha4={inside} <= alpha1*v_max + alpha2/alpha4={outside}"
            )


def compute_bid(s: float, v: float, s_bsr_in: float, p: BidParams, emergency: bool = False) -> float:
    """Bid of a vehicle at path coordinate s with speed v.

    Outside the brake-safe region the bid grows with speed and proximity to
    the region entry; inside it grows with progress, starting above every
    achievable outside bid. An emergency overrides everything.
    """
    if v < 0:
        raise ValueError("speed must be >= 0")
    if emergency:
        return p.emergency_bid
    gap = s_bsr_in - s
    if gap > p.alpha4:
        return p.alpha1 * v + p.alpha2 / gap
    return p.alpha3 * (s - s_bsr_in) + p.alpha5


def run_cbaam(bids: Mapping[int, float], topology: Topology) -> tuple[tuple[int, ...], int]:
    """Simulate the auction until every node holds the bid sort.

    `bids` covers a subset of `topology.nodes`; the other nodes relay. The
    bid sort is descending, and equal bids rank the lower id first (CBAA's
    tie rule). Every node keeps one priority vector as a row of `who`
    (bidder index per slot, -1 when empty) and `w` (bid per slot, 0 when
    empty). Agreement is a fixpoint of both phases, so the run stops at the
    first superstep that reaches it and returns the order, highest priority
    first, with that superstep.
    """
    if not bids:
        raise ValueError("auction needs at least one participant")
    if not set(bids) <= topology.nodes:
        raise ValueError("every bidder must be a topology node")

    order = tuple(sorted(bids, key=lambda a: (-bids[a], a)))
    nodes = sorted(topology.nodes)
    index = {node: k for k, node in enumerate(nodes)}
    n, m = len(nodes), len(order)
    expect = np.array([index[a] for a in order])
    # both phases only compare bids, so bidder k of the sort enters as its
    # place code m - k, which fills the same slots as its bid would; relays
    # bid 0, which beats no slot, and a slot's code names its bidder, so
    # the slot-wise max needs no tie rule
    bid = np.zeros(n, dtype=int)
    bid[expect] = np.arange(m, 0, -1)
    # each node hears itself and its in-neighbours, padded with itself
    hears = [[k] for k in range(n)]
    for i, j in topology.arcs:
        hears[index[j]].append(index[i])
    width = max(map(len, hears))
    hears = np.array([h + h[:1] * (width - len(h)) for h in hears])
    rows, slots = np.arange(n), np.arange(m)
    who = np.full((n, m), -1)
    w = np.zeros((n, m), dtype=int)

    for superstep in range(1, m * graph_ell(topology) + 1):
        # phase 1: an absent bidder writes at the first slot it beats
        beats = bid[:, None] > w
        write = beats.any(axis=1) & ~(who == rows[:, None]).any(axis=1)
        first = beats.argmax(axis=1)[write]
        who[write, first] = rows[write]
        w[write, first] = bid[write]
        # phase 2: each slot takes the max over what the node hears
        src = hears[rows[:, None], w[hears].argmax(axis=1)]
        who, w = who[src, slots], w[src, slots]
        if (who == expect).all():
            return order, superstep
    raise AssertionError("auction failed to agree within the n*ell bound")
