"""Tests for the DP knapsack path and the Lagrangian bound, certified
against the exhaustive reference solver."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ValidationError
from repro.solver.brute import solve_mkp_brute_force
from repro.solver.dp import (
    collapses_to_single_constraint,
    solve_knapsack_dp,
    solve_mkp_dp,
)
from repro.solver.lagrangian import lagrangian_bound
from repro.solver.mkp import MkpInstance, solve_mkp


def single_row_instance(profits, weights, capacity) -> MkpInstance:
    return MkpInstance.from_lists(profits, [weights], [capacity])


class TestKnapsackDp:
    def test_textbook_instance(self):
        solution = solve_knapsack_dp([60, 100, 120], [1, 2, 3], 5.0)
        assert solution.objective == pytest.approx(220)
        assert set(solution.selected) == {1, 2}

    def test_zero_capacity_takes_only_free_items(self):
        solution = solve_knapsack_dp([5, 7], [0.0, 1.0], 0.0)
        assert set(solution.selected) == {0}

    def test_never_violates_capacity(self):
        solution = solve_knapsack_dp([10, 10, 10], [0.4, 0.4, 0.4], 1.0)
        assert len(solution.selected) == 2

    def test_rounding_up_is_conservative(self):
        # weights 0.34 * 3 = 1.02 > 1: only two fit
        solution = solve_knapsack_dp([1, 1, 1], [0.34, 0.34, 0.34], 1.0,
                                     resolution=100)
        assert len(solution.selected) == 2

    def test_negative_profit_skipped(self):
        solution = solve_knapsack_dp([-5, 3], [0.1, 0.1], 1.0)
        assert solution.selected == (1,)

    def test_validation(self):
        with pytest.raises(ValidationError):
            solve_knapsack_dp([1], [1, 2], 1.0)
        with pytest.raises(ValidationError):
            solve_knapsack_dp([1], [1], -1.0)
        with pytest.raises(ValidationError):
            solve_knapsack_dp([1], [-1], 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 5.0)),
                    min_size=1, max_size=10),
           st.floats(0.5, 8.0))
    @example(items=[(1.0, 1.0), (1.0, 2.220446049250313e-16)],
             capacity=1.0)
    def test_matches_brute_force(self, items, capacity):
        profits = [p for p, _ in items]
        weights = [w for _, w in items]
        resolution = 2_000
        dp = solve_knapsack_dp(profits, weights, capacity,
                               resolution=resolution)

        def brute(cap):
            return solve_mkp_brute_force(
                single_row_instance(profits, weights, cap)).objective

        # Rounding every weight up to the next bucket can drop a whole
        # item (the pinned example: DP is right, the weights really sum
        # past the capacity the brute solver's tolerance lets through),
        # so the lower bound is the optimum at a capacity shrunk by one
        # bucket per item (plus one): any selection feasible there is
        # still DP-feasible after n round-ups.  DP must never overshoot.
        shrunk = capacity * (1.0 - (len(items) + 1) / resolution)
        assert brute(shrunk) - 1e-9 <= dp.objective \
            <= brute(capacity) + 1e-9


class TestCollapseDetection:
    def test_single_row_collapses(self):
        inst = single_row_instance([1, 2], [1, 1], 2.0)
        assert collapses_to_single_constraint(inst)

    def test_dominating_row_detected(self):
        inst = MkpInstance.from_lists(
            [1, 2, 3],
            [[2, 2, 2], [1, 1, 1]],  # row 0 dominates row 1
            [5.0, 5.0])
        assert collapses_to_single_constraint(inst)

    def test_incomparable_rows_do_not_collapse(self):
        inst = MkpInstance.from_lists(
            [1, 2],
            [[2, 0], [0, 2]],
            [2.0, 2.0])
        assert not collapses_to_single_constraint(inst)

    def test_solve_mkp_dp_returns_none_without_collapse(self):
        inst = MkpInstance.from_lists(
            [1, 2], [[2, 0], [0, 2]], [2.0, 2.0])
        assert solve_mkp_dp(inst) is None

    def test_solve_mkp_dp_matches_bnb_on_collapse(self):
        inst = MkpInstance.from_lists(
            [8, 7, 6, 5],
            [[3, 3, 2, 2], [1, 1, 1, 1]],
            [6.0, 6.0])
        dp = solve_mkp_dp(inst, resolution=60_000)
        bnb = solve_mkp(inst, tolerance=0.0)
        assert dp is not None
        assert dp.objective == pytest.approx(bnb.objective, rel=1e-3)
        assert inst.is_feasible(dp.selected)


class TestLagrangianBound:
    def test_bounds_brute_force_from_above(self):
        inst = MkpInstance.from_lists(
            [10, 8, 6, 4],
            [[3, 2, 2, 1], [1, 2, 3, 1]],
            [4.0, 4.0])
        bound = lagrangian_bound(inst, iterations=60)
        brute = solve_mkp_brute_force(inst)
        assert bound.bound >= brute.objective - 1e-9

    def test_tightens_over_iterations(self):
        inst = MkpInstance.from_lists(
            [10, 8, 6, 4, 9, 2],
            [[3, 2, 2, 1, 3, 1], [1, 2, 3, 1, 2, 2]],
            [4.0, 4.0])
        loose = lagrangian_bound(inst, iterations=1)
        tight = lagrangian_bound(inst, iterations=80)
        assert tight.bound <= loose.bound + 1e-9

    def test_no_rows_returns_profit_sum(self):
        inst = MkpInstance.from_lists([3, 0, 2], [], [])
        assert lagrangian_bound(inst).bound == pytest.approx(5.0)

    def test_validation(self):
        inst = MkpInstance.from_lists([1], [[1]], [1.0])
        with pytest.raises(ValidationError):
            lagrangian_bound(inst, keep_row=5)
        with pytest.raises(ValidationError):
            lagrangian_bound(inst, iterations=0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_always_upper_bound_on_random_instances(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 8)
        rows = rng.randint(1, 3)
        profits = [rng.uniform(0, 10) for _ in range(n)]
        weights = [[rng.uniform(0, 3) for _ in range(n)]
                   for _ in range(rows)]
        capacities = [rng.uniform(1, 6) for _ in range(rows)]
        inst = MkpInstance.from_lists(profits, weights, capacities)
        bound = lagrangian_bound(inst, iterations=30)
        brute = solve_mkp_brute_force(inst)
        assert bound.bound >= brute.objective - 1e-6
