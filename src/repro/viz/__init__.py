"""Terminal-friendly plan explanations.

An optimizer-facing ``explain`` view (``repro-sc explain``) that answers
the operator question "why was this MV (not) kept in memory?", with an
ASCII chart of the plan's Memory Catalog occupancy.
"""

from repro.viz.explain import explain_plan, memory_profile_chart

__all__ = [
    "explain_plan",
    "memory_profile_chart",
]
