"""Bid computation and consensus-auction protocol tests.

The protocol phases are tested on the message-passing reference in
`cbaam_oracle`; `run_cbaam` is checked against that reference.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cbaam_oracle import (
    PriorityVectors,
    broadcast_round,
    consensus_update,
    local_auction,
    run_reference,
)
from intersim.auction import BidParams, compute_bid, run_cbaam
from intersim.network import Topology, graph_ell

FIG_PARAMS = BidParams(alpha1=0.1, alpha2=5.0, alpha3=0.1, alpha4=1.0, alpha5=7.0)


def random_sc_topology(rng, n):
    nodes = list(range(1, n + 1))
    order = list(nodes)
    rng.shuffle(order)
    arcs = {(order[k], order[(k + 1) % n]) for k in range(n)} if n > 1 else set()
    for i in nodes:
        for j in nodes:
            if i != j and rng.random() < 0.3:
                arcs.add((i, j))
    return Topology(frozenset(nodes), frozenset(arcs))


# -- compute_bid ----------------------------------------------------------------


def test_bid_outside_brake_safe_region():
    # gap of 2 m to the region entry at 10 m/s
    assert compute_bid(98.0, 10.0, 100.0, FIG_PARAMS) == pytest.approx(0.1 * 10 + 5 / 2)


def test_bid_inside_brake_safe_region():
    # 10 m past the region entry
    assert compute_bid(110.0, 10.0, 100.0, FIG_PARAMS) == pytest.approx(0.1 * 10 + 7.0)


def test_emergency_overrides_state():
    for s, v in [(0.0, 0.0), (110.0, 14.0)]:
        assert compute_bid(s, v, 100.0, FIG_PARAMS, emergency=True) == FIG_PARAMS.emergency_bid


def test_bid_separation_grid_sweep():
    s_bsr_in = 100.0
    v_max = 15.0
    FIG_PARAMS.check_separation(v_max)
    s_out = np.arange(0.0, s_bsr_in, 0.5)
    s_in = np.arange(s_bsr_in, s_bsr_in + 50.0, 0.5)
    v_grid = np.linspace(0.0, v_max, 31)
    outside = max(compute_bid(float(s), float(v), s_bsr_in, FIG_PARAMS) for s in s_out for v in v_grid)
    inside = min(compute_bid(float(s), float(v), s_bsr_in, FIG_PARAMS) for s in s_in for v in v_grid)
    assert inside > outside


def test_separation_check_rejects_bad_params():
    with pytest.raises(ValueError):
        BidParams(alpha5=5.0).check_separation(15.0)  # 5 <= 0.1*15 + 5/1
    # alpha4 short of the region entry the inside rule bids 7 - 10*2 = -13,
    # below every outside bid, although alpha5 = 7 exceeds 0.1*15 + 5/2
    params = BidParams(alpha3=10.0, alpha4=2.0)
    assert compute_bid(98.0, 14.0, 100.0, params) == pytest.approx(-13.0)
    with pytest.raises(ValueError, match="alpha5 - alpha3\\*alpha4=-13.0 <= "):
        params.check_separation(15.0)


@settings(max_examples=300, deadline=None)
@given(
    alphas=st.tuples(*(st.floats(0.01, 20.0) for _ in range(4))),
    margin=st.floats(-1.0, 5.0),
    v_max=st.floats(1.0, 40.0),
)
def test_accepted_bid_params_give_positive_separated_bids(alphas, margin, v_max):
    """Any parameters the check accepts, drawn near its boundary on both
    sides, give positive bids over an (s, v) grid, and every inside bid
    exceeds every outside bid."""
    alpha1, alpha2, alpha3, alpha4 = alphas
    alpha5 = alpha3 * alpha4 + alpha1 * v_max + alpha2 / alpha4 + margin
    if alpha5 <= 0:
        return
    params = BidParams(alpha1, alpha2, alpha3, alpha4, alpha5)
    try:
        params.check_separation(v_max)
    except ValueError:
        return
    s_bsr_in = 100.0
    edge = s_bsr_in - alpha4  # the last coordinate the inside rule covers
    s_grid = np.concatenate([np.linspace(0.0, 150.0, 301), [edge, np.nextafter(edge, 0.0)]])
    inside, outside = [], []
    for s in s_grid.tolist():
        for v in np.linspace(0.0, v_max, 16).tolist():
            bid = compute_bid(s, v, s_bsr_in, params)
            (outside if s_bsr_in - s > alpha4 else inside).append(bid)
    assert min(outside) > 0.0 and min(inside) > max(outside)


# -- local_auction ----------------------------------------------------------------


def test_empty_vector_takes_first_slot():
    out = local_auction(7, 3.5, PriorityVectors.empty(4))
    assert out.v == [7, 0, 0, 0]
    assert out.w == [3.5, 0.0, 0.0, 0.0]


def test_placed_at_earliest_beatable_slot():
    prev = PriorityVectors([1, 0, 0, 0], [9.0, 0.0, 0.0, 0.0])
    out = local_auction(2, 5.0, prev)
    assert out.v == [1, 2, 0, 0]
    assert out.w == [9.0, 5.0, 0.0, 0.0]


def test_present_agent_leaves_vectors_unchanged():
    prev = PriorityVectors([1, 3, 0], [9.0, 5.0, 0.0])
    out = local_auction(3, 5.0, prev)
    assert out == prev


def test_unbeatable_bid_leaves_vectors_unchanged():
    prev = PriorityVectors([1, 2, 3], [9.0, 8.0, 7.0])
    out = local_auction(4, 1.0, prev)
    assert out == prev


# -- consensus_update --------------------------------------------------------------


def test_no_messages_is_identity():
    own = PriorityVectors([1, 0], [4.0, 0.0])
    assert consensus_update(own, []) == own


def test_slotwise_max_with_source_copy():
    own = PriorityVectors([1, 0], [8.0, 0.0])
    received = PriorityVectors([2, 3], [9.0, 3.0])
    out = consensus_update(own, [received])
    assert out.w == [9.0, 3.0]
    assert out.v == [2, 3]


def test_idempotent_under_repetition():
    own = PriorityVectors([1, 0, 0], [8.0, 0.0, 0.0])
    received = [PriorityVectors([2, 1, 0], [9.0, 8.0, 0.0])]
    once = consensus_update(own, received)
    twice = consensus_update(once, received)
    assert once == twice


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        consensus_update(PriorityVectors.empty(2), [PriorityVectors.empty(3)])


# -- run_cbaam ---------------------------------------------------------------------


def test_single_agent_converges_in_one_superstep():
    order, iters = run_cbaam({5: 2.0}, Topology(frozenset({5}), frozenset()))
    assert order == (5,)
    assert iters == 1
    assert order[: order.index(5)] == ()


def test_three_agents_complete_graph():
    order, iters = run_cbaam({1: 3.5, 2: 6.9, 3: 8.0}, Topology.complete([1, 2, 3]))
    assert order == (3, 2, 1)
    assert iters <= 3  # n * ell = 3 * 1
    assert set(order[: order.index(1)]) == {2, 3}
    assert order[: order.index(3)] == ()


def test_directed_ring_within_bound():
    rng = np.random.default_rng(123)
    ring = Topology.ring([1, 2, 3, 4])
    assert graph_ell(ring) == 3
    for _ in range(100):
        bids = {i: float(b) for i, b in zip([1, 2, 3, 4], rng.uniform(1, 100, 4))}
        order, iters = run_cbaam(bids, ring)
        assert iters <= 4 * 3
        assert list(order) == sorted(bids, key=lambda a: -bids[a])


def test_oracle_equivalence_random_digraphs():
    rng = np.random.default_rng(2024)
    for n in range(2, 9):
        for _ in range(50):
            topo = random_sc_topology(rng, n)
            bids = {i: float(b) for i, b in zip(range(1, n + 1), rng.uniform(0.5, 50, n))}
            order, iters = run_cbaam(bids, topo)
            assert list(order) == sorted(bids, key=lambda a: -bids[a])
            assert iters <= n * graph_ell(topo)


def test_rejects_weakly_connected_topology():
    t = Topology(frozenset({1, 2}), frozenset({(1, 2)}))
    with pytest.raises(ValueError):
        run_cbaam({1: 1.0, 2: 2.0}, t)


def test_tie_resolution_is_deterministic():
    """Equal bids rank the lower id first, whatever order the bids come in,
    and each run agrees at the same superstep. A bid a few 1e-9 under a
    tied pair ranks after both."""
    for topo in (Topology.complete([1, 2, 3]), Topology.ring([1, 2, 3])):
        first = run_cbaam({1: 5.0, 2: 5.0, 3: 1.0}, topo)
        assert first[0] == (1, 2, 3)
        assert run_cbaam({3: 1.0, 2: 5.0, 1: 5.0}, topo) == first
        assert run_cbaam({1: 5.0, 2: 5.0, 3: 1.0}, topo) == first
        for gap in (1e-9, 1.5e-9):
            assert run_cbaam({1: 5.0, 2: 5.0, 3: 5.0 - gap}, topo) == first


@pytest.mark.parametrize("bid", [1e7, 1e300])
def test_equal_large_bids_rank_the_lower_id_first(bid):
    """Ties among bids so large that a nudge of id * 1e-9 is below their
    float spacing, as two emergency vehicles bid."""
    complete = Topology.complete([1, 2, 3, 4])
    assert run_cbaam({1: bid, 2: bid, 3: 1.0}, complete)[0] == (1, 2, 3)
    assert run_cbaam({4: bid, 2: bid, 1: 9.0, 3: bid}, complete)[0] == (2, 3, 4, 1)
    assert run_cbaam({2: bid, 1: bid}, Topology.ring([1, 2]))[0] == (1, 2)


def test_monotone_and_fixpoint_properties():
    """Slot bids never decrease across supersteps; agreement is a fixpoint."""
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        topo = random_sc_topology(rng, n)
        bids = {i: float(b) for i, b in zip(range(1, n + 1), rng.uniform(1, 9, n))}
        vectors = {i: PriorityVectors.empty(n) for i in bids}
        prev_w = {i: list(vectors[i].w) for i in bids}
        ell = graph_ell(topo)
        for _ in range(n * ell + 3):  # a few extra supersteps past the bound
            for i in bids:
                vectors[i] = local_auction(i, bids[i], vectors[i])
            inbox = broadcast_round(topo, vectors)
            vectors = {i: consensus_update(vectors[i], inbox[i]) for i in bids}
            for i in bids:
                assert all(b >= a for a, b in zip(prev_w[i], vectors[i].w))
                prev_w[i] = list(vectors[i].w)
        expect_order = sorted(bids, key=lambda a: (-bids[a], a))
        for i in bids:
            assert vectors[i].v == expect_order  # fixpoint reached and held


def test_relay_nodes_forward_without_bidding():
    ring = Topology.ring([1, 2, 3])
    order, iters = run_cbaam({1: 2.0}, ring)
    assert order == (1,)
    assert iters == 2  # the bid crosses both relays: 1 * ell
    order, iters = run_cbaam({3: 1.0, 1: 4.0}, ring)
    assert order == (1, 3) and iters <= 2 * graph_ell(ring)
    with pytest.raises(ValueError):
        run_cbaam({4: 1.0}, ring)


@st.composite
def auctions(draw):
    """Bids (with ties, some nodes relaying) on a strongly connected digraph."""
    n = draw(st.integers(1, 32))
    nodes = draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n, unique=True))
    kind = draw(st.sampled_from(["complete", "ring", "arcs"]))
    if kind == "arcs":
        cycle = draw(st.permutations(nodes))
        arcs = {(cycle[k], cycle[(k + 1) % n]) for k in range(n)} if n > 1 else set()
        extra = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=3 * n))
        topology = Topology(frozenset(nodes), frozenset(arcs | {(i, j) for i, j in extra if i != j}))
    else:
        topology = getattr(Topology, kind)(nodes)
    bidding = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    values = st.sampled_from([1.0, 2.5, 7.0]) | st.floats(0.1, 100.0)
    bids = {node: draw(values) for node, is_bidder in zip(nodes, bidding) if is_bidder}
    return bids, topology


@settings(max_examples=60, deadline=None)
@given(auctions())
def test_run_cbaam_matches_message_passing_reference(case):
    bids, topology = case
    assert run_cbaam(bids, topology) == run_reference(bids, topology)


# strictly increasing maps; a map that merges two drawn bids in floating
# point is not strictly increasing on them, and the draw is skipped
INCREASING = {
    "times 1e8": lambda b: b * 1e8,
    "times 1e-8": lambda b: b * 1e-8,
    "minus 1e3": lambda b: b - 1e3,  # every bid negative
    "log": math.log,  # bids below 1 turn negative
    "cube": lambda b: b**3,
}


@settings(max_examples=60, deadline=None)
@given(auctions(), st.sampled_from(sorted(INCREASING)))
def test_order_and_superstep_depend_only_on_the_bid_order(case, name):
    bids, topology = case
    mapped = {agent: INCREASING[name](bid) for agent, bid in bids.items()}
    assume(all((a < b) == (mapped[i] < mapped[j]) for i, a in bids.items() for j, b in bids.items()))
    assert run_cbaam(mapped, topology) == run_cbaam(bids, topology)


def test_hp_sets_antisymmetric():
    """The higher-priority sets, prefixes of the order, never hold each other."""
    rng = np.random.default_rng(31)
    bids = {i: float(b) for i, b in zip(range(1, 7), rng.uniform(1, 9, 6))}
    order, _ = run_cbaam(bids, Topology.complete(bids))
    higher = {agent: set(order[:pos]) for pos, agent in enumerate(order)}
    for i in bids:
        for j in bids:
            if j in higher[i]:
                assert i not in higher[j]

