"""Optimization substrate.

The paper solves S/C Opt Nodes with the branch-and-bound knapsack solver
from Google OR-Tools. This package is our from-scratch replacement: a
multidimensional 0-1 knapsack branch-and-bound solver with fractional upper
bounds, plus the order search the paper's ablations need (simulated
annealing over orders, recursive separator ordering).
"""

from repro.solver.mkp import (
    BranchAndBoundSolver,
    MkpInstance,
    MkpSolution,
    solve_mkp,
)
from repro.solver.sa import AnnealingSchedule, anneal_order
from repro.solver.separator import separator_order

__all__ = [
    "MkpInstance",
    "MkpSolution",
    "BranchAndBoundSolver",
    "solve_mkp",
    "AnnealingSchedule",
    "anneal_order",
    "separator_order",
]
