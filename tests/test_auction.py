"""Bid computation and consensus-auction protocol tests.

The protocol phases are tested on the message-passing reference in
`cbaam_oracle`; `run_cbaam` is checked against that reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbaam_oracle import (
    PriorityVectors,
    broadcast_round,
    consensus_update,
    local_auction,
    run_reference,
)
from intersim.auction import (
    BidParams,
    compute_bid,
    resolve_bid_ties,
    run_cbaam,
)
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
    assignment, iters = run_cbaam({5: 2.0}, Topology(frozenset({5}), frozenset()))
    assert assignment.order == (5,)
    assert iters == 1
    assert assignment.hp_sets[5] == frozenset()


def test_three_agents_complete_graph():
    assignment, iters = run_cbaam({1: 3.5, 2: 6.9, 3: 8.0}, Topology.complete([1, 2, 3]))
    assert assignment.order == (3, 2, 1)
    assert iters <= 3  # n * ell = 3 * 1
    assert assignment.hp_sets[1] == {2, 3}
    assert assignment.hp_sets[3] == frozenset()


def test_directed_ring_within_bound():
    rng = np.random.default_rng(123)
    ring = Topology.ring([1, 2, 3, 4])
    assert graph_ell(ring) == 3
    for _ in range(100):
        bids = {i: float(b) for i, b in zip([1, 2, 3, 4], rng.uniform(1, 100, 4))}
        assignment, iters = run_cbaam(bids, ring)
        assert iters <= 4 * 3
        assert list(assignment.order) == sorted(bids, key=lambda a: -bids[a])


def test_oracle_equivalence_random_digraphs():
    rng = np.random.default_rng(2024)
    for n in range(2, 9):
        for _ in range(50):
            topo = random_sc_topology(rng, n)
            bids = {i: float(b) for i, b in zip(range(1, n + 1), rng.uniform(0.5, 50, n))}
            assignment, iters = run_cbaam(bids, topo)
            assert list(assignment.order) == sorted(bids, key=lambda a: -bids[a])
            assert iters <= n * graph_ell(topo)


def test_rejects_weakly_connected_topology():
    t = Topology(frozenset({1, 2}), frozenset({(1, 2)}))
    with pytest.raises(ValueError):
        run_cbaam({1: 1.0, 2: 2.0}, t)


def test_tie_resolution_is_deterministic():
    out = resolve_bid_ties({1: 5.0, 2: 5.0, 3: 1.0})
    assert out[3] == 1.0
    assert out[1] == pytest.approx(5.0 - 1e-9)
    assert out[2] == pytest.approx(5.0 - 2e-9)
    assert out[1] > out[2]
    assignment, _ = run_cbaam({1: 5.0, 2: 5.0, 3: 1.0}, Topology.complete([1, 2, 3]))
    assert assignment.order == (1, 2, 3)


def test_monotone_and_fixpoint_properties():
    """Slot bids never decrease across supersteps; agreement is a fixpoint."""
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        topo = random_sc_topology(rng, n)
        bids = {i: float(b) for i, b in zip(range(1, n + 1), rng.uniform(1, 9, n))}
        bids = resolve_bid_ties(bids)
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
        expect_order = sorted(bids, key=lambda a: -bids[a])
        for i in bids:
            assert vectors[i].v == expect_order  # fixpoint reached and held


def test_relay_nodes_forward_without_bidding():
    ring = Topology.ring([1, 2, 3])
    assignment, iters = run_cbaam({1: 2.0}, ring)
    assert assignment.order == (1,)
    assert iters == 2  # the bid crosses both relays: 1 * ell
    assignment, iters = run_cbaam({3: 1.0, 1: 4.0}, ring)
    assert assignment.order == (1, 3) and iters <= 2 * graph_ell(ring)
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
    assignment, iters = run_cbaam(bids, topology)
    expect, expect_iters = run_reference(bids, topology)
    assert (assignment.order, iters) == (expect.order, expect_iters)
    assert assignment.hp_sets == expect.hp_sets


def test_hp_sets_antisymmetric():
    rng = np.random.default_rng(31)
    bids = {i: float(b) for i, b in zip(range(1, 7), rng.uniform(1, 9, 6))}
    assignment, _ = run_cbaam(bids, Topology.complete(bids))
    for i in bids:
        for j in bids:
            if j in assignment.hp_sets[i]:
                assert i not in assignment.hp_sets[j]

