"""Shared fixtures: the paper's toy graphs and randomized instances."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.core.problem import ScProblem
from repro.exec import create_backend
from repro.graph.dag import DependencyGraph

# Tier-1 is a function of the commit: every @given test draws the same
# examples on every run, and nothing is replayed from (or written to) a
# .hypothesis/ example database left behind by an earlier run.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
# The opposite trade, for CI's seeded random-invariants matrix
# (`pytest --hypothesis-profile=fuzz --hypothesis-seed=N <files>`): many
# examples, drawn from the seed.  Tests that fix no `max_examples` of
# their own (tests/test_select_parity.py) take their budget from here.
settings.register_profile("fuzz", max_examples=1500, derandomize=False,
                          database=None)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "random_invariants: seeded randomized ledger-invariant harness "
        "(CI runs it as a dedicated job with a fixed seed matrix)")


def run_workload(workload, plan, memory_budget_gb, method=""):
    """One refresh of a ``SqlWorkload`` on the real MiniDB backend."""
    return create_backend("minidb", workload=workload).run(
        workload.graph(), plan, memory_budget_gb, method=method)


def make_fig7_problem() -> ScProblem:
    """Figure 7's toy instance.

    Six nodes; ``v1`` and ``v3`` are the 100 GB nodes; with M = 100 GB the
    best order (τ2: v4 before v3) allows flagging {v1, v3, v6} for the
    paper's stated maximum score of 210, while a bad order caps at 120.
    """
    return ScProblem.from_tables(
        edges=[("v1", "v2"), ("v1", "v4"), ("v2", "v3"), ("v3", "v5"),
               ("v5", "v6")],
        sizes={"v1": 100, "v2": 10, "v3": 100, "v4": 10, "v5": 10,
               "v6": 10},
        scores={"v1": 100, "v2": 10, "v3": 100, "v4": 10, "v5": 10,
                "v6": 10},
        memory_budget=100,
    )


def make_fig8_problem() -> ScProblem:
    """Figure 8-shaped instance: tie-breaking between an unflagged large
    branch (v2) and a flagged one (v3) decides whether v6 can be flagged.
    """
    return ScProblem.from_tables(
        edges=[("v1", "v2"), ("v1", "v3"), ("v2", "v4"), ("v3", "v5"),
               ("v5", "v6"), ("v4", "v7"), ("v6", "v7")],
        sizes={"v1": 20, "v2": 100, "v3": 80, "v4": 80, "v5": 20,
               "v6": 20, "v7": 100},
        scores={"v1": 20, "v2": 100, "v3": 80, "v4": 80, "v5": 20,
                "v6": 20, "v7": 100},
        memory_budget=100,
    )


def make_random_problem(seed: int, n_nodes: int = 20,
                        budget_fraction: float = 0.3) -> ScProblem:
    """A random layered-DAG problem with positive sizes and scores."""
    from repro.graph.generators import LayeredDagConfig, \
        generate_layered_dag

    rng = random.Random(seed)
    graph = generate_layered_dag(
        LayeredDagConfig(n_nodes=n_nodes,
                         height_width_ratio=rng.choice([0.5, 1.0, 2.0]),
                         max_outdegree=rng.randint(1, 4)),
        seed=seed)
    for node_id in graph.nodes():
        node = graph.node(node_id)
        node.size = rng.uniform(0.1, 10.0)
        node.score = rng.uniform(0.0, 20.0)
    budget = budget_fraction * graph.total_size()
    return ScProblem(graph=graph, memory_budget=budget)


@pytest.fixture
def fig7_problem() -> ScProblem:
    return make_fig7_problem()


@pytest.fixture
def fig8_problem() -> ScProblem:
    return make_fig8_problem()


@pytest.fixture
def diamond_graph() -> DependencyGraph:
    """a -> b, a -> c, b -> d, c -> d with distinct sizes."""
    graph = DependencyGraph()
    for node_id, size in (("a", 4.0), ("b", 2.0), ("c", 3.0), ("d", 1.0)):
        graph.add_node(node_id, size=size, score=size)
    graph.add_edge("a", "b")
    graph.add_edge("a", "c")
    graph.add_edge("b", "d")
    graph.add_edge("c", "d")
    return graph


@pytest.fixture
def chain_graph() -> DependencyGraph:
    """a -> b -> c -> d."""
    graph = DependencyGraph()
    for node_id in "abcd":
        graph.add_node(node_id, size=1.0, score=1.0)
    graph.add_edge("a", "b")
    graph.add_edge("b", "c")
    graph.add_edge("c", "d")
    return graph


def reference_victims(ledger, tier: int) -> list:
    """Tier ``tier``'s ranking rebuilt from scratch — a fresh
    ``VictimInfo`` per resident, then ``policy.order`` — which is how
    the tiered store ranked victims before it kept a ``VictimIndex``.
    Kept here, formula and all, as the reference the index is held to.
    The cached prices are held to a fresh ``_move_seconds`` — the call
    a demotion is billed through — and a fresh promote-create.
    """
    from repro.store.config import NONE_CODEC
    from repro.store.policy import VictimInfo

    if tier + 1 >= len(ledger.tiers):
        return []  # nothing below to demote into
    src, dst = ledger.tiers[tier], ledger.tiers[tier + 1]
    tier_ledger = src.ledger
    dst_profile = dst.spec.resolved_profile()
    dst_codec = dst.codec
    infos = []
    for node_id in tier_ledger._entries:
        logical = ledger.size_of(node_id)
        size = tier_ledger.size_of(node_id)
        stored_dst = logical / ledger._entry_ratio(tier + 1, node_id)
        src_codec = NONE_CODEC if tier == 0 else ledger._below[node_id].codec
        infos.append(VictimInfo(
            node_id=node_id,
            size=size,
            consumers_left=tier_ledger.consumers_left(node_id),
            last_access=ledger._recency.get(node_id, 0),
            reload_cost=(dst_profile.read_time_disk(stored_dst)
                         + dst_codec.decode_seconds_per_gb * logical),
            demote_cost=ledger._move_seconds(src, size, src_codec, dst,
                                             stored_dst, logical),
            create_cost=(ledger.profile.create_time_memory(logical)
                         if ledger.charge_io else 0.0)))
    return ledger.policy.order(infos)


def assert_victim_index_current(ledger) -> None:
    """Every tier of ``ledger``'s victim index, once its marks are
    resolved, holds exactly the reference ranking (same members, same
    order, every cached ``VictimInfo`` field fresh).

    The check resolves the marks on a saved copy of the index state and
    puts it back, so the run under test keeps accumulating marks the
    way it would unobserved.
    """
    index = ledger._victim_index
    with ledger._lock:
        saved = ([list(order) for order in index._order],
                 [dict(entries) for entries in index._entries],
                 [set(marked) for marked in index._marked])
        try:
            for tier in range(len(ledger.tiers)):
                reference = reference_victims(ledger, tier)
                assert list(index.ranked(tier)) == reference, (
                    f"tier {tier}: index ranking differs from a rebuild")
                assert set(index.members(tier)) == {
                    victim.node_id for victim in reference}
        finally:
            index._order, index._entries, index._marked = saved
