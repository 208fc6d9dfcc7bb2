"""``BranchAndBoundSolver`` against the dense reference it replaced.

The solver's contract (``repro.solver.mkp`` docstring) is that it visits
the same nodes in the same order with the same prune verdicts as
``tests/reference_mkp.py``. A search that is cut off at ``node_limit``
returns whatever incumbent it holds at that node, so any divergence shows
up in the ``MkpSolution`` fields — all five are compared, on every case
twice: with the root LP the host provides (scipy or none) and with the LP
stage switched off, since the two branch in different orders.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import get_constraints
from repro.core.knapsack_select import build_mkp_instance
from repro.core.problem import ScProblem
from repro.graph.topo import kahn_topological_order
from repro.solver import mkp
from repro.solver.mkp import BranchAndBoundSolver, MkpInstance
from repro.workloads import GeneratedWorkloadConfig, generate_workload
from tests.reference_mkp import ReferenceBranchAndBoundSolver

LP_STAGES = ("host", "off")


@contextlib.contextmanager
def lp_stage(stage: str):
    """Run both solvers with the host's root LP (solved once per
    instance) or with none, as on a machine without scipy."""
    if stage == "off":
        def relaxation(instance, viable):
            return None, None
    else:
        host = mkp._lp_relaxation

        @functools.lru_cache(maxsize=None)
        def solved(instance, viable):
            return host(instance, viable)

        def relaxation(instance, viable):
            return solved(instance, tuple(viable))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mkp, "_lp_relaxation", relaxation)
        yield


class _Residual(float):
    """A capacity that checks every value derived from it.

    The sparse solver never looks at the rows an item does not occupy; the
    dense test it skips there is ``0 <= residual + eps``. The reference
    does all its residual arithmetic (``-= w`` on include, ``+= w`` on
    undo, ``+ eps`` in the test) on the capacities it is handed, so
    handing it these makes every value a residual ever holds pass through
    ``_checked`` — the invariant is asserted, not assumed. Arithmetic and
    results are those of plain floats.
    """

    __slots__ = ()

    def __add__(self, other):
        return _checked(float.__add__(self, other))

    def __sub__(self, other):
        return _checked(float.__sub__(self, other))


def _checked(value: float) -> _Residual:
    assert 0.0 <= value + mkp._EPS, f"residual {value!r} below -eps"
    return _Residual(value)


def watched(instance: MkpInstance) -> MkpInstance:
    return dataclasses.replace(
        instance, capacities=tuple(map(_Residual, instance.capacities)))


def assert_same_search(instance: MkpInstance, **options) -> None:
    expected = ReferenceBranchAndBoundSolver(**options).solve(
        watched(instance))
    actual = BranchAndBoundSolver(**options).solve(instance)
    assert dataclasses.astuple(actual) == dataclasses.astuple(expected), (
        options)


# ----------------------------------------------------------------------
# small instances: capacities at a fraction of their row's weight and
# profits that follow the weights — the hard kind of knapsack, so that
# there is a search to compare (a quarter of them take 100+ nodes, the
# deepest ~2,000) — salted with every corner: zero weights, zero profits,
# items that fit no row, zero capacities, no rows, no items
@st.composite
def instances(draw) -> MkpInstance:
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_items = min(14, rng.randint(0, 24))  # nearly half at the maximum
    n_rows = rng.randint(0, 4)
    p_zero = rng.choice((0.0, 0.3, 0.6))

    def weight() -> float:
        if rng.random() < p_zero:
            return 0.0
        if rng.random() < 0.03:
            return 50.0  # over any capacity below
        return rng.choice((rng.uniform(3.0, 7.0), float(rng.randint(2, 5))))

    weights = [[weight() for _ in range(n_items)] for _ in range(n_rows)]
    capacities = [0.0 if rng.random() < 0.05
                  else rng.uniform(0.3, 0.7) * min(sum(row), 40.0)
                  for row in weights]
    profits = [0.0 if rng.random() < 0.1
               else sum(row[i] for row in weights)
               + rng.choice((0.0, 1.0, rng.random()))
               for i in range(n_items)]
    return MkpInstance.from_lists(profits, weights, capacities)


@pytest.mark.parametrize("stage", LP_STAGES)
@settings(max_examples=200, deadline=None)
@given(instance=instances())
def test_small_instances_search_identically(stage, instance):
    with lp_stage(stage):
        for tolerance in (0.0, 0.01):
            for node_limit in (1, 5, 50, 60_000):
                assert_same_search(instance, node_limit=node_limit,
                                   tolerance=tolerance)


# S/C-shaped instances in small: as in the MKP of a DAG, every row has the
# same capacity (the memory budget) and an item weighs its one size in
# each row of a run (its residency interval). Sizes, capacities and
# profits are small integers, so residuals tie often and the tightest row
# is decided by its index. The example budget comes from the Hypothesis
# profile (tests/conftest.py).
@st.composite
def sc_shaped_instances(draw) -> MkpInstance:
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_items = rng.randint(1, 14)
    n_rows = rng.randint(1, 8)
    capacity = float(rng.randint(2, 8))
    weights = [[0.0] * n_items for _ in range(n_rows)]
    for i in range(n_items):
        first = rng.randrange(n_rows)
        last = rng.randint(first, min(n_rows, first + 4) - 1)
        size = float(rng.randint(1, 3))
        for x in range(first, last + 1):
            weights[x][i] = size
    profits = [float(rng.randint(0, 9)) for _ in range(n_items)]
    return MkpInstance.from_lists(profits, weights, [capacity] * n_rows)


@pytest.mark.parametrize("stage", LP_STAGES)
@settings(deadline=None)
@given(instance=sc_shaped_instances())
def test_sc_shaped_instances_search_identically(stage, instance):
    with lp_stage(stage):
        for tolerance in (0.0, 0.01):
            for node_limit in (5, 60_000):
                assert_same_search(instance, node_limit=node_limit,
                                   tolerance=tolerance)


# Includes are accepted up to ``capacity + eps``, so a residual may sit
# anywhere in ``[-eps, 0)`` while later items skip that row or squeeze
# into what is left of the tolerance. The optimum here fills row 0 to
# ``1 + 7e-10`` and only the search finds it: the greedy warm start takes
# item 0 and then cannot fit item 2.
OVERFULL = MkpInstance.from_lists(
    profits=[3.0, 6.0, 5.5, 1.0, 0.5],
    weights=[[0.2, 0.5, 0.5 + 5e-10, 0.0, 2e-10],
             [0.0, 0.0, 0.0, 0.3, 0.0]],
    capacities=[1.0, 1.0])


@pytest.mark.parametrize("stage", LP_STAGES)
def test_rows_filled_past_capacity_within_eps(stage):
    with lp_stage(stage):
        for tolerance in (0.0, 0.01):
            for node_limit in (3, 60_000):
                assert_same_search(OVERFULL, node_limit=node_limit,
                                   tolerance=tolerance)
        solution = BranchAndBoundSolver(tolerance=0.0).solve(OVERFULL)
    assert solution.selected == (1, 2, 3, 4)
    assert solution.nodes_explored > 0


def test_residual_watch_sees_the_reference_residuals(monkeypatch):
    """With the watch's own eps at zero (the reference keeps its copy),
    the reference's excursion to ``-7e-10`` on row 0 must trip it."""
    monkeypatch.setattr(mkp, "_EPS", 0.0)
    with pytest.raises(AssertionError, match="below -eps"):
        ReferenceBranchAndBoundSolver(tolerance=0.0).solve(
            watched(OVERFULL))


# ----------------------------------------------------------------------
# S/C-shaped instances: the MKP of a generated DAG under its initial
# topological order. Every one of them runs into the node limit, so the
# incumbent compared is the one a cut-off search happens to hold. The
# three solves `plan_scale` times (benchmarks/perf: its corpus DAGs at
# 5 % of total size) run to the default limit their plans depend on, the
# rest to a third of it — the reference costs ~12 us a node.
PLAN_SCALE_CORPUS = ((100, 0), (200, 1), (400, 5))
DEFAULT_LIMIT = BranchAndBoundSolver().node_limit
DAG_CASES = [
    (n_nodes, seed, fraction,
     DEFAULT_LIMIT if fraction == 0.05 and (n_nodes, seed) in PLAN_SCALE_CORPUS
     else DEFAULT_LIMIT // 3)
    for n_nodes, seed in (*PLAN_SCALE_CORPUS, (60, 0), (100, 2))
    for fraction in (0.05, 0.15)]


def dag_instance(n_nodes: int, seed: int, fraction: float) -> MkpInstance:
    graph = generate_workload(GeneratedWorkloadConfig(n_nodes=n_nodes),
                              seed=seed)
    problem = ScProblem(graph=graph,
                        memory_budget=fraction * graph.total_size())
    constraints = get_constraints(problem, kahn_topological_order(graph))
    return build_mkp_instance(problem, constraints)[0]


@pytest.mark.parametrize("stage", LP_STAGES)
@pytest.mark.parametrize("n_nodes, seed, fraction, node_limit", DAG_CASES)
def test_dag_instances_search_identically(n_nodes, seed, fraction,
                                          node_limit, stage):
    instance = dag_instance(n_nodes, seed, fraction)
    with lp_stage(stage):
        expected = ReferenceBranchAndBoundSolver(node_limit).solve(instance)
        actual = BranchAndBoundSolver(node_limit).solve(instance)
    assert expected.nodes_explored == node_limit + 1  # cut off, as meant
    assert dataclasses.astuple(actual) == dataclasses.astuple(expected)
