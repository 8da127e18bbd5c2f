"""Distributed priority negotiation via a consensus-based auction (CBAA-M).

Every sampling instant, vehicles still ahead of the critical-region exit bid
for crossing priority. Each superstep has two phases: a local auction where
an agent writes its bid into the earliest beatable slot of its priority
vectors, and a max-consensus exchange where neighbors agree slot by slot.
On a strongly connected digraph all agents hold the descending bid sort
after at most n_agents * ell supersteps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .network import Topology, broadcast_round, graph_ell

UNASSIGNED = 0


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
        """Inside-region bids must strictly dominate every outside bid."""
        if not self.alpha5 > self.alpha1 * v_max + self.alpha2 / self.alpha4:
            raise ValueError(
                "bid parameters do not separate inside/outside bids: "
                f"alpha5={self.alpha5} <= alpha1*v_max + alpha2/alpha4="
                f"{self.alpha1 * v_max + self.alpha2 / self.alpha4}"
            )


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


def local_auction(i: int, c_i: float, prev: PriorityVectors) -> PriorityVectors:
    """Phase 1: write bid c_i at the earliest slot it beats, if i is absent."""
    if c_i <= 0:
        raise ValueError("bids must be > 0")
    if i in prev.v:
        return prev.copy()
    out = prev.copy()
    for j, w_j in enumerate(prev.w):
        if c_i > w_j:
            out.v[j] = i
            out.w[j] = c_i
            break
    return out


def consensus_update(own: PriorityVectors, received: Sequence[PriorityVectors]) -> PriorityVectors:
    """Phase 2: slot-wise max over own and received vectors.

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
            if r.w[j] > out.w[j]:
                out.w[j] = r.w[j]
                out.v[j] = r.v[j]
    return out


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
    """Run the full auction to agreement and derive higher-priority sets.

    Executes exactly n_agents * ell supersteps (the proven convergence
    bound) for determinism; returns the assignment and the first superstep
    at which every participant already held the final vectors.
    """
    agents = sorted(bids)
    if set(agents) != set(topology.nodes):
        raise ValueError("bid map and topology nodes must coincide")
    if not agents:
        raise ValueError("auction needs at least one participant")
    if any(b <= 0 for b in bids.values()):
        raise ValueError("bids must be > 0")

    eff = resolve_bid_ties(bids)
    n = len(agents)
    ell = graph_ell(topology)
    vectors = {i: PriorityVectors.empty(n) for i in agents}
    agreed_at = 0

    expect_order = tuple(sorted(agents, key=lambda a: -eff[a]))
    expect = PriorityVectors(list(expect_order), [eff[a] for a in expect_order])

    for superstep in range(1, n * ell + 1):
        for i in agents:
            vectors[i] = local_auction(i, eff[i], vectors[i])
        inbox = broadcast_round(topology, vectors)
        vectors = {i: consensus_update(vectors[i], inbox[i]) for i in agents}
        if agreed_at == 0 and all(vectors[i] == expect for i in agents):
            agreed_at = superstep

    if agreed_at == 0:
        raise AssertionError("auction failed to agree within the n*ell bound")

    order = expect_order
    hp_sets = {
        agent: frozenset(order[:pos]) for pos, agent in enumerate(order)
    }
    return PriorityAssignment(order, hp_sets), agreed_at


def higher_priority_crossing_set(
    assignment: PriorityAssignment,
    i: int,
    states: Mapping[int, "AgentState"],
    regions: Mapping[int, "RegionBounds"],
    conflicts: Callable[[int, int], bool],
) -> set[int]:
    """Higher-priority agents that can still cross i's way inside the CR.

    Keeps only agents ahead of i in priority that have not yet left their
    critical region and whose path geometrically conflicts with i's.
    """
    if i not in assignment.hp_sets:
        raise KeyError(f"agent {i} does not participate in the assignment")
    out = set()
    for l in assignment.hp_sets[i]:
        if states[l].s < regions[l].s_cr_out and conflicts(i, l):
            out.add(l)
    return out
