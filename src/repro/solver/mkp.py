"""Branch-and-bound solver for the multidimensional 0-1 knapsack problem.

S/C Opt Nodes reduces to an MKP (paper §V-A): one binary variable per
candidate node, one capacity constraint per (pruned) residency set ``V_i``,
all capacities equal to the Memory Catalog size. The paper delegates to
OR-Tools' BnB solver; this module is a self-contained equivalent.

The solve proceeds in three stages:

1. **Root LP relaxation** (scipy's HiGHS when installed — the ``lp``
   extra) — gives the true LP upper bound plus a fractional solution whose
   values guide the branching order. Without scipy the order is by profit
   density alone; the solver stays correct but branches differently, so a
   search that is cut off may return another incumbent.
2. **Warm start** — greedy incumbent in branching order (with LP guidance
   this doubles as LP rounding). When it already sits within ``tolerance``
   of the LP bound the solution is certified without any tree search.
3. **Depth-first branch and bound** (include-branch first) for the rest.
   At each search node the incumbent is challenged with the minimum of
   three valid upper bounds: remaining-profit sum; the **surrogate** row —
   all constraints summed into one — solved fractionally (Dantzig bound);
   and the fractional bound of the currently tightest individual row.
   Relaxing all rows but one (or replacing them by their sum, which any
   feasible point also satisfies) can only enlarge the feasible region, so
   each is a valid bound, and so is their minimum.

S/C instances are not small — 24 to 1,116 items by 6 to 686 rows on 60-
to 1,600-node DAGs — and stage 2 certifies only the easy ones: on every
generated DAG of 60 to 1,600 nodes measured (``benchmarks/perf``'s corpus
among them) the search runs into ``node_limit`` and returns its incumbent
(``optimal=False``). Which incumbent that is depends on exactly which
nodes were visited, so the loop is built to make a node cheap without
changing the search:

* **Threshold test.** A prune only asks whether the minimum of the three
  bounds exceeds ``incumbent + margin``, so the bounds are evaluated
  lazily, cheapest first, and a row's Dantzig scan stops at the first
  partial sum that already exceeds the threshold — profits are >= 0, so
  the sum is monotone and the verdict is the one the full sum gives.
* **Inherited verdict.** The bound tested before pushing an exclude child
  is the bound that child would test on entry, on the same state and
  incumbent; the child is counted but does not repeat it.
* **Sparse rows.** An item occupies only the rows of its residency
  interval. Feasibility and the residual update touch those rows alone:
  subtracting a zero weight is the identity, and on a skipped row the
  dense test ``0 <= residual + eps`` holds because every include keeps
  ``residual >= -eps``.
* **Undecided entries only.** A row's scan is built the first time that
  row is the tightest: zero-weight suffix sums, and for each branching
  position a list of the row's undecided ``(weight, profit)`` entries in
  ratio order. The lists share one tuple per entry, so a scan at ``pos``
  reads no decided entry and adds the same profits in the same order as
  a scan of the full ratio order that skips the decided ones.
* **Cached tightest row.** The tightest row is kept as ``(residual,
  first index)`` — what ``min(residual)`` and ``residual.index`` give —
  instead of being searched for at each bound. An include only lowers
  the rows it touches, so the new tightest row is the least of the
  cached one and those rows, the lower index winning a tie. An undo only
  raises rows, so the cache stays right unless it raised the cached row;
  then it is marked stale, and the next bound that needs it recomputes
  it. An include leaves a stale cache stale.

The contract: same nodes, same order, same prune verdicts — hence equal
``MkpSolution`` fields on every instance — as the straightforward dense
solver kept as ``tests/reference_mkp.py``; ``tests/test_mkp_parity.py``
holds it to that, with and without the LP stage.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from repro.errors import SolverError, ValidationError

_EPS = 1e-9

# Phases of a search frame in BranchAndBoundSolver.solve; the two
# entering ones sort first. _ENTER_UNPRUNED: the parent already tested
# this node's bound (on the same state and incumbent) and it survived.
_ENTER, _ENTER_UNPRUNED, _EXCLUDE, _UNWIND = range(4)


@dataclass(frozen=True)
class MkpInstance:
    """A multidimensional 0-1 knapsack instance.

    ``weights[x][y]`` is the weight of item ``y`` in constraint ``x``; any
    weight may be zero (the item does not occupy that constraint).
    """

    profits: tuple[float, ...]
    weights: tuple[tuple[float, ...], ...]
    capacities: tuple[float, ...]

    def __post_init__(self) -> None:
        n_items = len(self.profits)
        if len(self.weights) != len(self.capacities):
            raise ValidationError(
                f"{len(self.weights)} weight rows vs "
                f"{len(self.capacities)} capacities")
        for row_idx, row in enumerate(self.weights):
            if len(row) != n_items:
                raise ValidationError(
                    f"weight row {row_idx} has {len(row)} entries for "
                    f"{n_items} items")
            if not all(w >= 0 for w in row):  # also rejects NaN
                raise ValidationError("weights must be >= 0")
        if not all(p >= 0 for p in self.profits):
            raise ValidationError("profits must be >= 0")
        if not all(c >= 0 for c in self.capacities):
            raise ValidationError("capacities must be >= 0")

    @property
    def n_items(self) -> int:
        return len(self.profits)

    @property
    def n_constraints(self) -> int:
        return len(self.capacities)

    @classmethod
    def from_lists(cls, profits: Sequence[float],
                   weights: Sequence[Sequence[float]],
                   capacities: Sequence[float]) -> "MkpInstance":
        return cls(
            profits=tuple(float(p) for p in profits),
            weights=tuple(tuple(float(w) for w in row) for row in weights),
            capacities=tuple(float(c) for c in capacities),
        )

    def is_feasible(self, selected: Sequence[int]) -> bool:
        chosen = set(selected)
        for row, capacity in zip(self.weights, self.capacities):
            used = sum(row[i] for i in chosen)
            if used > capacity + _EPS:
                return False
        return True

    def objective(self, selected: Sequence[int]) -> float:
        return sum(self.profits[i] for i in set(selected))


@dataclass
class MkpSolution:
    """Solver output: selected item indices and solve diagnostics."""

    selected: tuple[int, ...]
    objective: float
    optimal: bool
    nodes_explored: int = 0
    notes: str = ""


def _lp_relaxation(instance: MkpInstance, viable: Sequence[int],
                   ) -> tuple[float | None, dict[int, float] | None]:
    """Root LP bound and fractional values via scipy (HiGHS).

    Returns ``(None, None)`` when scipy is unavailable or the LP fails;
    the caller then falls back to combinatorial bounds only.
    """
    try:
        import numpy as np
        from scipy.optimize import linprog
    except ImportError:  # pragma: no cover - CI installs scipy
        return None, None
    if not viable:
        return 0.0, {}
    objective = -np.array([instance.profits[i] for i in viable])
    if instance.n_constraints:
        a_ub = np.array([[row[i] for i in viable]
                         for row in instance.weights])
        b_ub = np.array(instance.capacities)
    else:
        a_ub = None
        b_ub = None
    result = linprog(objective, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0),
                     method="highs")
    if not result.success:  # pragma: no cover - defensive
        return None, None
    values = {item: float(result.x[j]) for j, item in enumerate(viable)}
    return float(-result.fun), values


class _RowScan:
    """One constraint row laid out for Dantzig-bound threshold tests.

    ``zero_suffix[pos]`` is the profit of the row's zero-weight positions
    from ``pos`` on, and ``undecided[pos]`` holds the row's other
    positions from ``pos`` on as ``(weight, profit)`` by decreasing profit
    ratio. A position's tuple is built once and shared by every list that
    holds it, and a position outside the row shares its successor's list,
    so a list costs one pointer per entry.
    """

    __slots__ = ("zero_suffix", "undecided")

    def __init__(self, row: Sequence[float], order: Sequence[int],
                 profit_at: Sequence[float]) -> None:
        n_order = len(order)
        # Stable sort: equal ratios stay in branching order.
        ranked = [pos for pos, item in enumerate(order) if row[item] > 0]
        ranked.sort(key=lambda pos: profit_at[pos] / row[order[pos]],
                    reverse=True)
        rank_at = {pos: rank for rank, pos in enumerate(ranked)}
        zero_suffix = [0.0] * (n_order + 1)
        live: list[tuple[float, float]] = []
        live_ranks: list[int] = []
        undecided = [live] * (n_order + 1)
        for pos in range(n_order - 1, -1, -1):
            weight = row[order[pos]]
            free = profit_at[pos] if weight <= 0 else 0.0
            zero_suffix[pos] = zero_suffix[pos + 1] + free
            if weight > 0:
                rank = rank_at[pos]
                at = bisect_left(live_ranks, rank)
                live_ranks.insert(at, rank)
                live = live.copy()
                live.insert(at, (weight, profit_at[pos]))
            undecided[pos] = live
        self.zero_suffix = zero_suffix
        self.undecided = undecided

    def beats(self, pos: int, capacity: float, base: float,
              threshold: float) -> bool:
        """Whether ``base`` plus the row's Dantzig bound over the
        undecided positions ``pos..`` at ``capacity`` exceeds
        ``threshold``. Profits are >= 0, so the running sum only grows
        and the scan stops at the first partial sum that already does.
        """
        total = self.zero_suffix[pos]
        if base + total > threshold:
            return True
        remaining = capacity
        for w, profit in self.undecided[pos]:
            if w <= remaining:
                remaining -= w
                total += profit
                if base + total > threshold:
                    return True
            else:
                if remaining > 0:
                    total += profit * (remaining / w)
                break
        return base + total > threshold


class BranchAndBoundSolver:
    """Configurable BnB solver; see module docstring for the algorithm.

    Attributes:
        node_limit: max search-tree nodes before returning the incumbent
            with ``optimal=False``.
        tolerance: relative optimality gap. Branches that cannot beat the
            incumbent by more than ``tolerance * incumbent`` are pruned,
            which collapses the near-tie plateaus typical of S/C instances.
            The paper achieves the same effect by rounding speedup scores
            to integers for its ILP (footnote 3); ``tolerance=0`` gives
            exact optimality.
    """

    def __init__(self, node_limit: int = 60_000, tolerance: float = 0.01):
        if node_limit < 1:
            raise ValidationError("node_limit must be >= 1")
        if tolerance < 0:
            raise ValidationError("tolerance must be >= 0")
        self.node_limit = node_limit
        self.tolerance = tolerance

    # ------------------------------------------------------------------
    def solve(self, instance: MkpInstance) -> MkpSolution:
        n = instance.n_items
        if n == 0:
            return MkpSolution(selected=(), objective=0.0, optimal=True)

        profits = instance.profits
        weights = instance.weights
        capacities = instance.capacities
        n_rows = len(capacities)

        # Sparse columns: the (row, weight) pairs an item occupies, rows
        # ascending. An S/C item sits in the constraint sets of its
        # residency interval only, a handful of rows out of hundreds.
        occupied: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for x, row in enumerate(weights):
            for i, w in enumerate(row):
                if w > 0:
                    occupied[i].append((x, w))

        # Surrogate row: all constraints summed (itself a valid relaxation).
        surrogate = [sum(w for _, w in occupied[i]) for i in range(n)]
        surrogate_cap = sum(capacities)

        # Items violating some constraint alone can never be selected.
        viable = [i for i in range(n)
                  if all(w <= capacities[x] + _EPS for x, w in occupied[i])]

        def density(i: int) -> float:
            if surrogate[i] <= 0:
                return float("inf")
            return profits[i] / surrogate[i]

        # Root LP relaxation: certification target and branching guidance.
        lp_bound, lp_values = _lp_relaxation(instance, viable)

        if lp_values is not None:
            # Branch on confidently-included items first: the include-first
            # DFS then reaches an LP-shaped incumbent immediately.
            order = sorted(viable,
                           key=lambda i: (lp_values[i], density(i)),
                           reverse=True)
        else:
            order = sorted(viable, key=density, reverse=True)
        n_order = len(order)

        # Greedy warm start for the incumbent. When LP guidance is present,
        # `order` starts with the items the LP wants, so this doubles as
        # LP rounding.
        best_set = self._greedy(capacities, occupied, order)
        best_profit = instance.objective(best_set)

        tolerance = self.tolerance

        def certified() -> bool:
            return (lp_bound is not None
                    and best_profit >= lp_bound * (1.0 - tolerance) - _EPS)

        if certified():
            return MkpSolution(
                selected=tuple(sorted(best_set)),
                objective=best_profit,
                optimal=True,
                nodes_explored=0,
                notes="certified by root LP relaxation within tolerance")

        # Everything below is indexed by branching position, not by item.
        profit_at = [profits[item] for item in order]
        occupied_at = [occupied[item] for item in order]
        surrogate_at = [surrogate[item] for item in order]
        suffix_profit = [0.0] * (n_order + 1)
        for pos in range(n_order - 1, -1, -1):
            suffix_profit[pos] = suffix_profit[pos + 1] + profit_at[pos]

        surrogate_scan = _RowScan(surrogate, order, profit_at)
        row_scans: list[_RowScan | None] = [None] * n_rows
        residual = list(capacities)
        # The tightest row as (residual, first index); tight_row < 0 marks
        # it stale, to be recomputed by the next prunes that needs it.
        tight_value = 0.0
        tight_row = -1

        def prunes(pos: int, base: float, residual_surrogate: float,
                   threshold: float) -> bool:
            """Whether no completion of the current partial selection
            (profit ``base``, positions ``pos..`` undecided) can exceed
            ``threshold``: the minimum of the remaining-profit, surrogate
            and tightest-row bounds, evaluated only as far as the verdict
            needs.
            """
            nonlocal tight_value, tight_row
            remaining = suffix_profit[pos]
            if base + remaining <= threshold:
                return True
            if remaining <= 0:
                return False
            if not surrogate_scan.beats(pos, residual_surrogate, base,
                                        threshold):
                return True
            if not n_rows:
                return False
            if tight_row < 0:
                tight_value = min(residual)
                tight_row = residual.index(tight_value)
            scan = row_scans[tight_row]
            if scan is None:
                scan = row_scans[tight_row] = _RowScan(
                    weights[tight_row], order, profit_at)
            return not scan.beats(pos, tight_value, base, threshold)

        node_limit = self.node_limit
        residual_surrogate = surrogate_cap
        nodes_explored = 0
        include_marks: list[int] = []
        current_profit = 0.0
        threshold = best_profit + max(_EPS, tolerance * abs(best_profit))

        # Iterative DFS. A frame's depth is its position, so the stack is
        # one phase per position: entering = count the node, test the
        # bound (unless inherited) and try include; _EXCLUDE = undo
        # include / try exclude; _UNWIND = pop.
        phase = [_ENTER] * (n_order + 1)
        pos = 0
        while pos >= 0:
            if pos >= n_order:
                if current_profit > best_profit + _EPS:
                    best_profit = current_profit
                    best_set = [order[p] for p in include_marks]
                    threshold = best_profit + max(
                        _EPS, tolerance * abs(best_profit))
                    if certified():
                        return MkpSolution(
                            selected=tuple(sorted(best_set)),
                            objective=best_profit,
                            optimal=True,
                            nodes_explored=nodes_explored,
                            notes="reached root-LP target during search")
                pos -= 1
                continue
            state = phase[pos]
            if state <= _ENTER_UNPRUNED:
                nodes_explored += 1
                if nodes_explored > node_limit:
                    return MkpSolution(
                        selected=tuple(sorted(best_set)),
                        objective=best_profit,
                        optimal=False,
                        nodes_explored=nodes_explored,
                        notes="node limit reached; incumbent returned")
                if state == _ENTER and prunes(pos, current_profit,
                                              residual_surrogate, threshold):
                    pos -= 1
                    continue
                phase[pos] = _EXCLUDE
                rows = occupied_at[pos]
                for x, w in rows:
                    if w > residual[x] + _EPS:
                        break
                else:
                    if tight_row < 0:
                        for x, w in rows:
                            residual[x] -= w
                    else:
                        # Only the rows just lowered can undercut the
                        # cached tightest row; the lower index wins a tie.
                        for x, w in rows:
                            r = residual[x] = residual[x] - w
                            if r < tight_value or (r == tight_value
                                                   and x < tight_row):
                                tight_value = r
                                tight_row = x
                    residual_surrogate -= surrogate_at[pos]
                    current_profit += profit_at[pos]
                    include_marks.append(pos)
                    pos += 1
                    phase[pos] = _ENTER
                continue
            if state == _EXCLUDE:
                if include_marks and include_marks[-1] == pos:
                    include_marks.pop()
                    current_profit -= profit_at[pos]
                    for x, w in occupied_at[pos]:
                        residual[x] += w
                    if tight_row >= 0 and weights[tight_row][order[pos]] > 0:
                        tight_row = -1  # raised: no longer known least
                    residual_surrogate += surrogate_at[pos]
                phase[pos] = _UNWIND
                if not prunes(pos + 1, current_profit, residual_surrogate,
                              threshold):
                    # The exclude child starts from exactly this state
                    # and incumbent: it inherits the verdict.
                    pos += 1
                    phase[pos] = _ENTER_UNPRUNED
                continue
            pos -= 1

        return MkpSolution(
            selected=tuple(sorted(best_set)),
            objective=best_profit,
            optimal=True,
            nodes_explored=nodes_explored)

    @staticmethod
    def _greedy(capacities: Sequence[float],
                occupied: Sequence[Sequence[tuple[int, float]]],
                order: Sequence[int]) -> list[int]:
        residual = list(capacities)
        taken: list[int] = []
        for item in order:
            rows = occupied[item]
            if all(w <= residual[x] + _EPS for x, w in rows):
                for x, w in rows:
                    residual[x] -= w
                taken.append(item)
        return taken


def solve_mkp(instance: MkpInstance, node_limit: int = 60_000,
              tolerance: float = 0.01) -> MkpSolution:
    """Convenience wrapper over :class:`BranchAndBoundSolver`."""
    solver = BranchAndBoundSolver(node_limit=node_limit, tolerance=tolerance)
    solution = solver.solve(instance)
    if not instance.is_feasible(solution.selected):  # defensive invariant
        raise SolverError("BnB produced an infeasible solution "
                          f"(selected={solution.selected})")
    return solution
