"""Optimization substrate.

The paper solves S/C Opt Nodes with the knapsack solver from Google
OR-Tools. This package states that problem as a multidimensional 0-1
knapsack and solves it as a MILP with HiGHS (through scipy), plus the
order search the paper's ablations need (simulated annealing over
orders, recursive separator ordering).
"""

from repro.solver.mkp import MkpInstance, MkpSolution, solve_mkp
from repro.solver.sa import AnnealingSchedule, anneal_order
from repro.solver.separator import separator_order

__all__ = [
    "MkpInstance",
    "MkpSolution",
    "solve_mkp",
    "AnnealingSchedule",
    "anneal_order",
    "separator_order",
]
