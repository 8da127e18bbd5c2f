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


@dataclass(frozen=True)
class PriorityAssignment:
    order: tuple[int, ...]  # agent ids, highest priority first
    hp_sets: dict[int, frozenset[int]]

    def rank(self, agent: int) -> int:
        """1-based priority rank (1 = highest)."""
        return self.order.index(agent) + 1


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


def resolve_bid_ties(bids: Mapping[int, float]) -> dict[int, float]:
    """Deterministically perturb duplicated bids by agent id.

    The protocol assumes pairwise distinct bids; colliding values are nudged
    down by id * 1e-9, which preserves every already-strict comparison.
    """
    by_value: dict[float, list[int]] = {}
    for agent, bid in bids.items():
        by_value.setdefault(bid, []).append(agent)
    out = dict(bids)
    for value, agents in by_value.items():
        if len(agents) > 1:
            for agent in agents:
                out[agent] = value - agent * 1e-9
    if len(set(out.values())) != len(out):
        raise ValueError("could not disambiguate bids deterministically")
    return out


def run_cbaam(bids: Mapping[int, float], topology: Topology) -> tuple[PriorityAssignment, int]:
    """Simulate the auction until every node holds the bid sort.

    `bids` covers a subset of `topology.nodes`; the other nodes relay. Every
    node keeps one priority vector as a row of `who` (bidder index per slot,
    -1 when empty) and `w` (bid per slot, 0 when empty). Agreement is a
    fixpoint of both phases, so the run stops at the first superstep that
    reaches it and returns the assignment with that superstep.
    """
    if not bids:
        raise ValueError("auction needs at least one participant")
    if not set(bids) <= topology.nodes:
        raise ValueError("every bidder must be a topology node")

    eff = resolve_bid_ties(bids)
    if min(eff.values()) <= 0:
        raise ValueError("bids must be > 0")
    order = tuple(sorted(eff, key=lambda a: -eff[a]))
    nodes = sorted(topology.nodes)
    index = {node: k for k, node in enumerate(nodes)}
    n, m = len(nodes), len(order)
    # relays bid 0, which beats no slot; distinct bids make a slot's bid
    # name its bidder, so the slot-wise max needs no tie rule
    bid = np.zeros(n)
    for agent, value in eff.items():
        bid[index[agent]] = value
    expect = np.array([index[a] for a in order])
    # each node hears itself and its in-neighbours, padded with itself
    hears = [[k] for k in range(n)]
    for i, j in topology.arcs:
        hears[index[j]].append(index[i])
    width = max(map(len, hears))
    hears = np.array([h + h[:1] * (width - len(h)) for h in hears])
    rows, slots = np.arange(n), np.arange(m)
    who = np.full((n, m), -1)
    w = np.zeros((n, m))

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
            hp_sets = {agent: frozenset(order[:pos]) for pos, agent in enumerate(order)}
            return PriorityAssignment(order, hp_sets), superstep
    raise AssertionError("auction failed to agree within the n*ell bound")
