"""Tests for the branch-and-bound MKP solver (the OR-Tools replacement)."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ValidationError
from repro.solver.mkp import (
    BranchAndBoundSolver,
    MkpInstance,
    solve_mkp,
)
from tests.brute_mkp import solve_mkp_brute_force


def random_instance(rng: random.Random, max_items: int = 12,
                    max_rows: int = 5) -> MkpInstance:
    n = rng.randint(1, max_items)
    k = rng.randint(0, max_rows)
    profits = [rng.uniform(0, 20) for _ in range(n)]
    weights = [
        [rng.choice([0.0, rng.uniform(0.1, 10.0)]) for _ in range(n)]
        for _ in range(k)
    ]
    capacities = [rng.uniform(1.0, 15.0) for _ in range(k)]
    return MkpInstance.from_lists(profits, weights, capacities)


class TestInstanceValidation:
    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValidationError):
            MkpInstance.from_lists([1.0], [[1.0, 2.0]], [5.0])
        with pytest.raises(ValidationError):
            MkpInstance.from_lists([1.0], [[1.0]], [5.0, 5.0])

    def test_negative_values_rejected(self):
        with pytest.raises(ValidationError):
            MkpInstance.from_lists([-1.0], [[1.0]], [5.0])
        with pytest.raises(ValidationError):
            MkpInstance.from_lists([1.0], [[-1.0]], [5.0])
        with pytest.raises(ValidationError):
            MkpInstance.from_lists([1.0], [[1.0]], [-5.0])

    def test_feasibility_and_objective(self):
        inst = MkpInstance.from_lists([3.0, 4.0], [[2.0, 3.0]], [4.0])
        assert inst.is_feasible([0])
        assert not inst.is_feasible([0, 1])
        assert inst.objective([0, 1]) == 7.0


class TestSolverBasics:
    def test_empty_instance(self):
        solution = solve_mkp(MkpInstance.from_lists([], [], []))
        assert solution.selected == ()
        assert solution.objective == 0.0
        assert solution.optimal

    def test_unconstrained_takes_everything(self):
        inst = MkpInstance.from_lists([1.0, 2.0, 3.0], [], [])
        solution = solve_mkp(inst)
        assert set(solution.selected) == {0, 1, 2}

    def test_oversized_item_never_selected(self):
        inst = MkpInstance.from_lists([100.0, 1.0], [[50.0, 1.0]], [10.0])
        solution = solve_mkp(inst)
        assert 0 not in solution.selected

    def test_classic_knapsack(self):
        # profits/weights chosen so density-greedy is suboptimal
        inst = MkpInstance.from_lists(
            [60.0, 100.0, 120.0], [[10.0, 20.0, 30.0]], [50.0])
        solution = solve_mkp(inst, tolerance=0.0)
        assert solution.objective == pytest.approx(220.0)
        assert set(solution.selected) == {1, 2}

    def test_node_limit_returns_incumbent(self):
        rng = random.Random(11)
        inst = random_instance(rng, max_items=12, max_rows=4)
        solver = BranchAndBoundSolver(node_limit=1, tolerance=0.0,
                                      use_fractional_bound=False)
        solution = solver.solve(inst)
        assert inst.is_feasible(solution.selected)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            BranchAndBoundSolver(node_limit=0)
        with pytest.raises(ValidationError):
            BranchAndBoundSolver(tolerance=-0.1)


class TestAgainstBruteForce:
    def test_exact_mode_matches_brute_force(self):
        rng = random.Random(42)
        for _ in range(40):
            inst = random_instance(rng)
            exact = solve_mkp(inst, tolerance=0.0)
            reference = solve_mkp_brute_force(inst)
            assert exact.objective == pytest.approx(
                reference.objective, rel=1e-6)
            assert inst.is_feasible(exact.selected)

    def test_default_mode_within_one_percent(self):
        rng = random.Random(43)
        for _ in range(40):
            inst = random_instance(rng)
            approx = solve_mkp(inst)
            reference = solve_mkp_brute_force(inst)
            assert approx.objective >= reference.objective * 0.99 - 1e-9

    def test_weak_bound_still_exact(self):
        rng = random.Random(44)
        for _ in range(15):
            inst = random_instance(rng, max_items=10)
            weak = solve_mkp(inst, tolerance=0.0,
                             use_fractional_bound=False)
            reference = solve_mkp_brute_force(inst)
            assert weak.objective == pytest.approx(reference.objective,
                                                   rel=1e-6)


#: Small hand-built instances: (profits, weight rows, capacities, the
#: optimal selection).
HAND_INSTANCES = {
    "textbook": ([60, 100, 120], [[1, 2, 3]], [5.0], {1, 2}),
    "zero-capacity-takes-free-items": ([5, 7], [[0.0, 1.0]], [0.0], {0}),
    "capacity-never-exceeded": (
        [10, 10, 10], [[0.4, 0.4, 0.4]], [1.0], {0, 1}),
    "three-thirds-overflow": (
        [1, 1, 1], [[0.34, 0.34, 0.34]], [1.0], {0, 1}),
    "dominating-row": (
        [1, 2, 3], [[2, 2, 2], [1, 1, 1]], [5.0, 5.0], {1, 2}),
    "incomparable-rows": ([1, 2], [[2, 0], [0, 2]], [2.0, 2.0], {0, 1}),
    "collapsing-rows": (
        [8, 7, 6, 5], [[3, 3, 2, 2], [1, 1, 1, 1]], [6.0, 6.0], {0, 1}),
    "two-rows": (
        [10, 8, 6, 4], [[3, 2, 2, 1], [1, 2, 3, 1]], [4.0, 4.0], {0, 3}),
    "two-rows-six-items": (
        [10, 8, 6, 4, 9, 2], [[3, 2, 2, 1, 3, 1], [1, 2, 3, 1, 2, 2]],
        [4.0, 4.0], {0, 3}),
}


@pytest.mark.parametrize("name", sorted(HAND_INSTANCES))
def test_hand_instance_matches_brute_force(name):
    profits, rows, capacities, optimum = HAND_INSTANCES[name]
    inst = MkpInstance.from_lists(profits, rows, capacities)
    exact = solve_mkp(inst, tolerance=0.0)
    reference = solve_mkp_brute_force(inst)
    assert exact.objective == pytest.approx(inst.objective(optimum))
    assert reference.objective == pytest.approx(inst.objective(optimum))
    assert inst.is_feasible(exact.selected)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_property_bnb_matches_brute_force(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, max_items=10, max_rows=4)
    exact = solve_mkp(inst, tolerance=0.0)
    reference = solve_mkp_brute_force(inst)
    assert exact.objective == pytest.approx(reference.objective, rel=1e-6)
    assert inst.is_feasible(exact.selected)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 5.0)),
                min_size=1, max_size=10),
       st.floats(0.5, 8.0))
@example(items=[(1.0, 1.0), (1.0, 2.220446049250313e-16)], capacity=1.0)
def test_single_row_bnb_matches_brute_force(items, capacity):
    """One knapsack row.  In the pinned example the two weights sum
    2.2e-16 past the capacity: both solvers must read that through the
    same feasibility tolerance."""
    inst = MkpInstance.from_lists([p for p, _ in items],
                                  [[w for _, w in items]], [capacity])
    exact = solve_mkp(inst, tolerance=0.0)
    reference = solve_mkp_brute_force(inst)
    assert exact.objective == pytest.approx(reference.objective, rel=1e-6)
    assert inst.is_feasible(exact.selected)
