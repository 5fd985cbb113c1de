"""The happens-before closure: one walk from many roots.

``CausalGraph.antecedents(a, b, ...)`` walks the graph once from all
roots with a shared ``seen`` set; the end-of-run safety check relies on
that being the union of the single-root closures, whatever mix of live
and archived (rolled-back) deliveries and sends the walk crosses.
"""

import random

import pytest

from repro import build_system, crash_at
from repro.core.oracle import ConsistencyOracle
from repro.sanitizer.causal import CausalGraph

from helpers import small_config


def union_of_single_roots(graph, roots):
    reached = set()
    for root in roots:
        reached |= graph.antecedents(root)
    return reached


def handcrafted_graph():
    """Three nodes; node 1 rolled back its last two deliveries (and the
    send they caused), one of which a live replay re-recorded.

    Live:      (0,0) <- m(2,0);  (0,1) <- m(1,0) sent after 1 delivery
               (1,0) <- m(2,1);  (1,1) <- m(2,2) (replayed, shadows archive)
               (2,0) <- m(0,0) sent after 2 deliveries
    Archived:  (1,1) <- m(0,5) [shadowed];  (1,2) <- m(0,6) sent after 1
               send m(1,3) -> 2 sent after 3 deliveries
    """
    graph = CausalGraph()
    graph.record_send(2, 0, 0, 0)
    graph.record_delivery(0, 0, 2, 0)
    graph.record_send(2, 1, 1, 0)
    graph.record_delivery(1, 0, 2, 1)
    graph.record_send(1, 0, 0, 1)
    graph.record_delivery(0, 1, 1, 0)
    graph.record_send(0, 5, 1, 0)
    graph.record_delivery(1, 1, 0, 5)
    graph.record_send(0, 6, 1, 1)
    graph.record_delivery(1, 2, 0, 6)
    graph.record_send(1, 3, 2, 3)
    graph.roll_back(1, 1)
    # the replay refills slot (1, 1) with a different message
    graph.record_send(2, 2, 1, 0)
    graph.record_delivery(1, 1, 2, 2)
    graph.record_send(0, 0, 2, 2)
    graph.record_delivery(2, 0, 0, 0)
    # a surviving delivery of the rolled-back send m(1,3)
    graph.record_delivery(2, 1, 1, 3)
    return graph


def test_handcrafted_graph_has_archives():
    graph = handcrafted_graph()
    assert graph.rolled_back_delivery == {(1, 1): (0, 5), (1, 2): (0, 6)}
    assert graph.rolled_back_sends == {(1, 3, 2): 3}


def test_handcrafted_closures():
    graph = handcrafted_graph()
    # live entry shadows the archived one at (1, 1): no edge to node 0
    assert graph.antecedents((1, 1)) == {(1, 0), (1, 1)}
    # through the archived send m(1,3) into node 1's rolled-back (1, 2),
    # whose archived delivery leads on into node 0
    assert graph.antecedents((2, 1)) == {
        (2, 0), (2, 1), (1, 0), (1, 1), (1, 2), (0, 0), (0, 1),
    }
    assert graph.antecedents((0, -1)) == set()


@pytest.mark.parametrize("roots", [
    [(0, 1), (1, 1), (2, 1)],
    [(2, 1), (0, 0)],
    [(1, 2), (1, 0), (1, 2)],
    [(0, 1)],
    [],
])
def test_handcrafted_multi_root_equals_union(roots):
    graph = handcrafted_graph()
    assert graph.antecedents(*roots) == union_of_single_roots(graph, roots)


@pytest.mark.parametrize("seed", range(20))
def test_random_graph_multi_root_equals_union(seed):
    """Random sends, deliveries and rollbacks over four nodes."""
    rng = random.Random(seed)
    graph = CausalGraph()
    delivered = [0] * 4
    next_ssn = [0] * 4
    in_flight = []
    for _ in range(120):
        action = rng.random()
        if action < 0.45:
            src = rng.randrange(4)
            dst = rng.choice([p for p in range(4) if p != src])
            graph.record_send(src, next_ssn[src], dst, delivered[src])
            in_flight.append((src, next_ssn[src], dst))
            next_ssn[src] += 1
        elif action < 0.9 and in_flight:
            src, ssn, dst = in_flight.pop(rng.randrange(len(in_flight)))
            graph.record_delivery(dst, delivered[dst], src, ssn)
            delivered[dst] += 1
        else:
            node = rng.randrange(4)
            delivered[node] = rng.randint(0, delivered[node])
            graph.roll_back(node, delivered[node])
    roots = [(node, count - 1) for node, count in enumerate(delivered)]
    roots += [rng.choice(list(graph.rolled_back_delivery) or [(0, 0)])]
    assert graph.antecedents(*roots) == union_of_single_roots(graph, roots)


LOG_BASED_STACKS = [
    (protocol, recovery)
    for protocol in ("fbl", "sender_based", "manetho", "adaptive")
    for recovery in ("blocking", "nonblocking", "nonblocking-restart")
] + [("pessimistic", "local"), ("optimistic", "optimistic")]


@pytest.mark.parametrize("protocol,recovery", LOG_BASED_STACKS)
def test_crash_run_closure_equals_union(protocol, recovery):
    crashes = [crash_at(node=2, time=0.03)]
    if protocol != "sender_based":  # f = 1: one failure at a time
        crashes.append(crash_at(node=4, time=0.05))
    config = small_config(
        protocol=protocol,
        recovery=recovery,
        hops=30,
        crashes=crashes,
        checkpoint_every=6,
    )
    system = build_system(config)
    result = system.run()
    assert result.consistent
    graph = system.oracle.graph
    roots = [
        (node.node_id, len(node.app.delivery_history) - 1) for node in system.nodes
    ]
    reached = graph.antecedents(*roots)
    assert reached == union_of_single_roots(graph, roots)
    assert len(reached) == sum(len(n.app.delivery_history) for n in system.nodes)


def test_check_safety_reports_orphans_in_slot_order():
    """Orphans reachable only from different frontiers are all reported,
    sorted by delivery slot, as the per-root union reported them."""
    oracle = ConsistencyOracle()
    # node 0's delivery feeds node 2; node 1's feeds node 3
    oracle.on_deliver(0, 0, 9, 0, "a")
    oracle.on_send(0, 0, 2, 1)
    oracle.on_deliver(2, 0, 0, 0, "b")
    oracle.on_deliver(1, 0, 9, 1, "c")
    oracle.on_send(1, 0, 3, 1)
    oracle.on_deliver(3, 0, 1, 0, "d")
    oracle.on_rollback(1, 0)
    oracle.on_rollback(0, 0)
    oracle.check_safety({3: [(1, 0)], 2: [(0, 0)], 0: [], 1: [], 9: []})
    assert [(v.kind, v.node) for v in oracle.violations] == [
        ("orphan", 0), ("orphan", 1),
    ]
