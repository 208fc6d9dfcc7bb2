"""Differential test: the planner's and the generator's inner loops
against their parent.

``tests/reference_planner.py`` keeps the parent's MA-DFS (a ``min()``
over the ready set per step), its per-position selection scan, memory
profile and tier placement, its difference-array peak, its layered
generator and its Markov transition table.  The live code must return
the same outputs for every input, floats bit for bit:

* MA-DFS orders, selection flag sets and tier maps are equal;
* memory profiles and peaks have equal float bits (both accumulate the
  same IEEE adds in the same order);
* a generated graph has the same nodes, stages, edges and edge order,
  and leaves its ``random.Random`` in the same state;
* a fitted chain's transition tables are equal, key order included.

Inputs are drawn to reach the edges of each loop: random and layered
DAGs (flat, thin, skewed stages, out-degree 0 to 8, forward bias 0 to
1; generated DAGs also at 1,000-1,600 nodes with out-degree 0 or 1,
whose pools run out of funded producers), repeated sizes (ties), random
flag sets, random topological orders and, where the parent accepted
them, orders that are not topological, and budgets set to an exact
value of a memory profile, so the ``1e-9`` boundary of every fit test
is hit.

Beyond the drawn inputs, the benchmark's DAGs and the plans every
optimizer method makes of them are pinned to the digests the parent
code produced (``PINNED``).

Example budgets come from the Hypothesis profile (``tests/conftest.py``):
tier-1 runs the derandomized default, CI's seeded ``random-invariants``
matrix runs this file under ``--hypothesis-profile=fuzz``.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import residency, selection_baselines
from repro.core.madfs import ma_dfs_order
from repro.core.optimizer import OPTIMIZER_METHODS, optimize
from repro.core.problem import ScProblem
from repro.graph.dag import DependencyGraph
from repro.graph.generators import (
    LayeredDagConfig,
    generate_layered_dag,
    generate_random_dag,
)
from repro.graph.markov import START, MarkovChain
from repro.graph.traversal import last_consumer_position
from repro.workloads import GeneratedWorkloadConfig, generate_workload
from repro.workloads.corpus import OPERATION_SEQUENCES

from tests import reference_planner as ref

SIZES = (0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3)


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def graph_key(graph) -> tuple:
    """Everything a graph is made of, in insertion order."""
    return (graph.nodes(),
            [graph.node(v).meta for v in graph.nodes()],
            graph.edges(),
            [graph.parents(v) for v in graph.nodes()])


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
layered_configs = st.builds(
    LayeredDagConfig,
    n_nodes=st.integers(1, 60),
    height_width_ratio=st.sampled_from([0.02, 0.2, 1.0, 4.0, 60.0]),
    max_outdegree=st.integers(0, 8),
    stage_stdev=st.sampled_from([0.0, 1.0, 4.0, 40.0]),
    forward_bias=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
)


@st.composite
def sized_dags(draw):
    """A random or layered DAG whose nodes carry drawn sizes and scores:
    repeated round sizes (ties for MA-DFS, exact sums for the scans)
    or arbitrary floats."""
    seed = draw(st.integers(0, 2 ** 16))
    if draw(st.booleans()):
        graph = generate_random_dag(
            draw(st.integers(1, 40)),
            draw(st.sampled_from([0.0, 0.05, 0.15, 0.4, 1.0])), seed)
    else:
        graph = ref.generate_layered_dag(draw(layered_configs), seed)
    rng = random.Random(seed)
    arbitrary = draw(st.booleans())
    for node in graph.node_objects():
        node.size = (rng.uniform(0.0, 5.0) if arbitrary
                     else rng.choice(SIZES))
        node.score = rng.choice((0.0, 1.0, 2.5, rng.uniform(0.0, 9.0)))
    if draw(st.booleans()):
        graph = reinserted(graph, rng)
    return graph


def reinserted(graph, rng: random.Random):
    """The same DAG with its nodes and edges added in a random order, so
    insertion order (MA-DFS's last tie-break) and child-list order are
    no longer topological."""
    nodes, edges = graph.node_objects(), graph.edges()
    rng.shuffle(nodes)
    rng.shuffle(edges)
    copy = DependencyGraph()
    for node in nodes:
        copy.add_node(node.node_id, size=node.size, score=node.score)
    for producer, consumer in edges:
        copy.add_edge(producer, consumer)
    return copy


def random_topological_order(graph, rng: random.Random) -> list[str]:
    pending = {v: graph.in_degree(v) for v in graph.nodes()}
    ready = [v for v in graph.nodes() if pending[v] == 0]
    order = []
    while ready:
        node = ready.pop(rng.randrange(len(ready)))
        order.append(node)
        for child in graph.children(node):
            pending[child] -= 1
            if pending[child] == 0:
                ready.append(child)
    return order


@st.composite
def planned(draw):
    """``(graph, order, flagged, rng)``: a sized DAG, a random
    topological order (or, sometimes, any permutation), a random flag
    set listed in random order, and the rng for further draws."""
    graph = draw(sized_dags())
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    order = random_topological_order(graph, rng)
    if draw(st.integers(0, 4)) == 0:
        rng.shuffle(order)
    share = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    flagged = [v for v in graph.nodes() if rng.random() < share]
    rng.shuffle(flagged)
    return graph, order, flagged, rng


def boundary_budget(graph, order, rng: random.Random) -> float:
    """A budget equal to one position of a random flag set's profile
    (or its peak, or 0), moved by 0, ±1e-9 or −2e-9 across the ``1e-9``
    slack."""
    some = [v for v in graph.nodes() if rng.random() < 0.5]
    profile = ref.memory_profile(graph, order, some)
    value = rng.choice(profile + [max(profile), 0.0])
    return max(0.0, value + rng.choice((0.0, 0.0, -1e-9, 1e-9, -2e-9)))


# ----------------------------------------------------------------------
# MA-DFS
# ----------------------------------------------------------------------
@settings(deadline=None)
@given(case=planned())
def test_ma_dfs_order_equals_parent(case):
    graph, _, flagged, _ = case
    assert ma_dfs_order(graph, flagged) == ref.ma_dfs_order(graph, flagged)


# ----------------------------------------------------------------------
# interval profile: selection scan, memory profile, tier placement
# ----------------------------------------------------------------------
@settings(deadline=None)
@given(case=planned())
def test_scan_flag_equals_parent(case):
    graph, order, _, rng = case
    budget = boundary_budget(graph, order, rng)
    problem = ScProblem(graph=graph, memory_budget=budget)
    for _ in range(3):
        scan = list(order)
        rng.shuffle(scan)
        assert (selection_baselines._scan_flag(problem, order, scan)
                == ref._scan_flag(problem, order, scan))


@settings(deadline=None)
@given(case=planned())
def test_memory_profile_and_peak_equal_parent_bits(case):
    graph, order, flagged, _ = case
    assert bits(residency.memory_profile(graph, order, flagged)) == \
        bits(ref.memory_profile(graph, order, flagged))
    assert residency.peak_memory_usage(graph, order, flagged).hex() == \
        ref.peak_memory_usage(graph, order, flagged).hex()
    assert last_consumer_position(graph, order) == \
        ref.last_consumer_position(graph, order)


@settings(deadline=None)
@given(case=planned(), n_tiers=st.integers(0, 3))
def test_assign_expected_tiers_equals_parent(case, n_tiers):
    graph, order, flagged, rng = case
    ram = boundary_budget(graph, order, rng)
    tiers = [(f"t{i}", boundary_budget(graph, order, rng))
             for i in range(n_tiers)]
    assert residency.assign_expected_tiers(graph, order, flagged, ram,
                                           tiers) == \
        ref.assign_expected_tiers(graph, order, flagged, ram, tiers)


# ----------------------------------------------------------------------
# the alternating loop's peaks
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=30)
@given(graph=sized_dags(), fraction=st.sampled_from([0.05, 0.3, 1.0]),
       method=st.sampled_from(["greedy+madfs", "random+madfs",
                               "ratio+madfs", "greedy", "none"]))
def test_optimize_reports_the_parent_peaks(graph, fraction, method):
    problem = ScProblem(graph=graph,
                        memory_budget=fraction * graph.total_size())
    result = optimize(problem, method=method, seed=3)
    plan = result.plan
    assert result.peak_memory.hex() == ref.peak_memory_usage(
        graph, plan.order, plan.flagged).hex()
    for record in result.history:
        assert record.peak_memory <= problem.memory_budget + 1e-9


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------
@settings(deadline=None)
@given(config=layered_configs, seed=st.integers(0, 2 ** 32))
def test_layered_dag_equals_parent(config, seed):
    assert_generates_like_parent(config, seed)


def assert_generates_like_parent(config, seed):
    live_rng, ref_rng = random.Random(seed), random.Random(seed)
    live = generate_layered_dag(config, seed=live_rng)
    parent = ref.generate_layered_dag(config, seed=ref_rng)
    assert graph_key(live) == graph_key(parent)
    assert live_rng.getstate() == ref_rng.getstate()


#: large DAGs whose producers run out of budget early (out-degree 0 or
#: 1), so most phase-1 draws fall back to a pool's lowest out-degree
unfunded_configs = st.builds(
    LayeredDagConfig,
    n_nodes=st.integers(1000, 1600),
    height_width_ratio=st.sampled_from([0.2, 1.0, 4.0]),
    max_outdegree=st.sampled_from([0, 1]),
    stage_stdev=st.sampled_from([0.0, 4.0]),
    forward_bias=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
)


@settings(deadline=None, max_examples=6)
@given(config=unfunded_configs, seed=st.integers(0, 2 ** 32))
def test_large_unfunded_layered_dag_equals_parent(config, seed):
    assert_generates_like_parent(config, seed)


@settings(deadline=None)
@given(sequences=st.lists(
           st.lists(st.sampled_from("ABCDE"), max_size=6),
           min_size=1, max_size=8).filter(any),
       alpha=st.sampled_from([0.0, 0.01, 0.5, 2.0]),
       refits=st.integers(0, 2))
def test_transition_tables_equal_parent(sequences, alpha, refits):
    chain = MarkovChain(alpha=alpha).fit(sequences)
    for i in range(refits + 1):
        if i:
            chain.fit(sequences[i % len(sequences):] + [["B", "A"]])
        for state in [START, *"ABCDEF", "<END>"]:
            for _ in range(2):        # a second read, after a mutation
                try:
                    want = ref.transition_probabilities(chain, state)
                except ZeroDivisionError:   # alpha 0, a state never left
                    with pytest.raises(ZeroDivisionError):
                        chain.transition_probabilities(state)
                    continue
                table = chain.transition_probabilities(state)
                assert list(table) == list(want)
                assert bits(table.values()) == bits(want.values())
                table.pop("<END>", None)


def test_sample_operation_draws_the_parent_sequence():
    chain = MarkovChain().fit(OPERATION_SEQUENCES)
    rng = random.Random(11)
    ops = [chain.sample_operation(None if i % 7 == 0 else "JOIN", rng)
           for i in range(200)]
    assert hashlib.sha256(repr(ops).encode()).hexdigest()[:16] == \
        PINNED["sample_operation"]


# ----------------------------------------------------------------------
# the benchmark's DAGs and every method's plans, pinned
# ----------------------------------------------------------------------
def jittered(n_nodes: int, generator_seed: int, seed: int):
    """A DAG of the benchmark's corpus: a generated workload whose
    sizes, scores and compute times are scaled by ``1 ± 1e-6`` from
    ``seed``."""
    graph = generate_workload(GeneratedWorkloadConfig(n_nodes=n_nodes),
                              seed=generator_seed)
    rng = random.Random(seed)
    for node in graph.node_objects():
        factor = 1.0 + 1e-6 * rng.uniform(-1.0, 1.0)
        node.size *= factor
        node.score *= factor
        if node.compute_time is not None:
            node.compute_time *= factor
    return graph


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def graph_digest(graph) -> str:
    nodes = graph.node_objects()
    return digest(graph_key(graph), [n.op for n in nodes],
                  bits(n.size for n in nodes), bits(n.score for n in nodes),
                  bits(n.compute_time or 0.0 for n in nodes))


def plan_digest(result) -> str:
    plan = result.plan
    return digest(list(plan.order), sorted(plan.flagged),
                  list(plan.expected_tiers), result.stop_reason,
                  result.iterations)


#: digests the parent code produced; a change may not move any of them
PINNED = {
    "sample_operation": "91011f0938e0daf1",
    "dag 100/0": "3c6ab788beb5f318",
    "dag 200/1": "3dd485adfb6c3ae4",
    "dag 400/5": "a0b3465ed4d9ccd3",
    "dag 1600/1": "4f3daeb14729e84f",
    "plan none": "306a933c25c1259a",
    "plan sc": "67a5f53df9526b12",
    "plan mkp": "a5d3d678e4ed1477",
    "plan greedy": "3372633d58ae4259",
    "plan random": "8f075189998bd8a4",
    "plan ratio": "da625e87d1d2ee0f",
    "plan mkp+madfs": "67a5f53df9526b12",
    "plan greedy+madfs": "5c5b0237fd600155",
    "plan random+madfs": "8ce8eb8dc8fca3d6",
    "plan ratio+madfs": "ecf808895fcd3cde",
    "plan mkp+sa": "67a5f53df9526b12",
    "plan mkp+separator": "44d3deee4da39134",
    "sc 100": "67a5f53df9526b12",
    "sc 200": "5bc3f8ed517480cb",
    "sc 400": "64c94fae6a195366",
    "greedy+madfs 1600": "e43140e795dcb22f",
    "tier-aware 800": "b0c89f53dde3e966",
}


@pytest.mark.parametrize("n_nodes,generator_seed",
                         [(100, 0), (200, 1), (400, 5), (1600, 1)])
def test_benchmark_dags_are_pinned(n_nodes, generator_seed):
    graph = jittered(n_nodes, generator_seed, seed=1)
    assert graph_digest(graph) == PINNED[f"dag {n_nodes}/{generator_seed}"]


@pytest.mark.parametrize("method", OPTIMIZER_METHODS)
def test_every_method_plan_is_pinned(method):
    graph = jittered(100, 0, seed=1)
    problem = ScProblem(graph=graph, memory_budget=0.05 * graph.total_size())
    assert plan_digest(optimize(problem, method=method, seed=0)) == \
        PINNED[f"plan {method}"]


def benchmark_plans() -> dict:
    """Digests of ``plan_scale``'s ``optimize("sc")`` plans, ``sim_fit``'s
    ``greedy+madfs`` plan of the 1600-node DAG, and the tier-aware plan
    of the 800-node probe DAG."""
    from repro.engine import Controller
    from repro.store import SpillConfig, TierSpec

    got = {}
    for n_nodes, generator_seed in [(100, 0), (200, 1), (400, 5)]:
        graph = jittered(n_nodes, generator_seed, seed=1)
        got[f"sc {n_nodes}"] = plan_digest(optimize(
            ScProblem(graph=graph, memory_budget=0.05 * graph.total_size()),
            method="sc", seed=0))
    graph = jittered(1600, 1, seed=1)
    got["greedy+madfs 1600"] = plan_digest(optimize(
        ScProblem(graph=graph, memory_budget=0.3 * graph.total_size()),
        method="greedy+madfs", seed=0))
    graph = jittered(800, 1, seed=1)
    budget = 0.3 * graph.total_size()
    controller = Controller(spill=SpillConfig(
        tiers=(TierSpec("ssd", budget), TierSpec("disk")), codec="zlib"))
    plan = controller.plan(graph, 0.1 * budget, method="greedy+madfs",
                           tier_aware=True)
    got["tier-aware 800"] = digest(list(plan.order), sorted(plan.flagged),
                                   list(plan.expected_tiers))
    return got


def test_benchmark_plans_are_pinned():
    got = benchmark_plans()
    assert got == {key: PINNED[key] for key in got}
