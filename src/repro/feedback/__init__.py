"""``repro.feedback`` — observed-cost feedback into the planner.

Closes the model-vs-runtime loop: a tiered run's tier report
(``RunTrace.tier_report()``, typed in :mod:`repro.store.report`) is
distilled into a :class:`CostFeedback` record whose
:meth:`CostFeedback.tier_budget` re-derives the optimizer's tier
discounts from *observed* spill-write / promote-read seconds per GB and
realized codec ratios, so the next plan prices the hierarchy the
previous run actually experienced. See :mod:`repro.feedback.observe` for
the full story and ``Controller.replan_from_trace`` / ``repro-sc
simulate --replan`` for the end-to-end two-pass mode.
"""

from repro.feedback.observe import CostFeedback, TierObservation

__all__ = ["CostFeedback", "TierObservation"]
