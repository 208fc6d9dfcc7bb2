"""Tests for the Memory Catalog release protocol (paper §III-C)."""

import pytest

from repro.errors import BudgetExceededError, CatalogError
from repro.exec import MemoryLedger


class TestInsert:
    def test_budget_enforced(self):
        catalog = MemoryLedger(budget=10.0)
        catalog.insert("a", 6.0, n_consumers=1)
        assert catalog.usage == 6.0
        with pytest.raises(BudgetExceededError) as excinfo:
            catalog.insert("b", 5.0, n_consumers=1)
        assert excinfo.value.requested == 5.0
        assert excinfo.value.available == pytest.approx(4.0)

    def test_duplicate_rejected(self):
        catalog = MemoryLedger(budget=10.0)
        catalog.insert("a", 1.0, n_consumers=1)
        with pytest.raises(CatalogError):
            catalog.insert("a", 1.0, n_consumers=1)

    def test_negative_size_rejected(self):
        catalog = MemoryLedger(budget=10.0)
        with pytest.raises(CatalogError):
            catalog.insert("a", -1.0, n_consumers=0)

    def test_peak_tracking(self):
        catalog = MemoryLedger(budget=10.0)
        catalog.insert("a", 4.0, n_consumers=0,
                       materialization_pending=True)
        catalog.insert("b", 5.0, n_consumers=0,
                       materialization_pending=True)
        catalog.materialized("a")
        assert catalog.usage == 5.0
        assert catalog.peak_usage == 9.0


class TestReleaseProtocol:
    def test_release_needs_both_conditions(self):
        """Figure 6, t4: deletion requires consumers done AND durable."""
        catalog = MemoryLedger(budget=10.0)
        catalog.insert("mv1", 4.0, n_consumers=2)
        assert not catalog.consumer_done("mv1")   # 1 consumer left
        assert not catalog.consumer_done("mv1")   # consumers done...
        assert "mv1" in catalog                   # ...but not durable yet
        assert catalog.materialized("mv1")        # now it leaves
        assert "mv1" not in catalog
        assert catalog.usage == 0.0

    def test_materialize_first_then_consumers(self):
        catalog = MemoryLedger(budget=10.0)
        catalog.insert("mv1", 4.0, n_consumers=1)
        assert not catalog.materialized("mv1")
        assert catalog.consumer_done("mv1")

    def test_no_pending_materialization(self):
        catalog = MemoryLedger(budget=10.0)
        catalog.insert("mv1", 4.0, n_consumers=1,
                       materialization_pending=False)
        assert catalog.consumer_done("mv1")

    def test_zero_consumers_releases_on_materialize(self):
        catalog = MemoryLedger(budget=10.0)
        catalog.insert("sink", 2.0, n_consumers=0)
        assert catalog.materialized("sink")

    def test_over_release_rejected(self):
        catalog = MemoryLedger(budget=10.0)
        catalog.insert("a", 1.0, n_consumers=1)
        catalog.consumer_done("a")
        with pytest.raises(CatalogError):
            catalog.consumer_done("a")

    def test_double_materialize_rejected(self):
        catalog = MemoryLedger(budget=10.0)
        catalog.insert("a", 1.0, n_consumers=1)
        catalog.materialized("a")
        with pytest.raises(CatalogError):
            catalog.materialized("a")

    def test_unknown_table(self):
        catalog = MemoryLedger(budget=10.0)
        with pytest.raises(CatalogError):
            catalog.consumer_done("ghost")

    def test_force_release(self):
        catalog = MemoryLedger(budget=10.0)
        catalog.insert("a", 3.0, n_consumers=5)
        catalog.force_release("a")
        assert catalog.usage == 0.0
        assert catalog.resident() == []


class TestRawCharge:
    """``charge``/``credit``: bytes an executor tracks without an entry
    (the LRU cache's residents)."""

    def test_zero_size_charge_is_accepted(self):
        catalog = MemoryLedger(budget=10.0)
        catalog.charge(0.0)
        catalog.credit(0.0)
        assert catalog.usage == 0.0
        with pytest.raises(CatalogError):
            catalog.charge(-1.0)

    def test_credit_beyond_the_charged_bytes_rejected(self):
        catalog = MemoryLedger(budget=10.0)
        catalog.insert("a", 4.0, n_consumers=1)
        catalog.charge(2.0)
        with pytest.raises(CatalogError, match="exceeds charged bytes"):
            catalog.credit(2.5)  # usage is 6: only the charge counts

    def test_partial_credits_keep_the_charge_exact(self):
        catalog = MemoryLedger(budget=10.0)
        catalog.charge(3.0)
        catalog.credit(1.0)
        assert catalog.usage == pytest.approx(2.0)
        with pytest.raises(CatalogError):
            catalog.credit(2.5)  # 2 GB are left charged, not 4
        catalog.credit(2.0)
        assert catalog.usage == pytest.approx(0.0)
        assert catalog.peak_usage == pytest.approx(3.0)
        with pytest.raises(CatalogError):
            catalog.credit(0.5)
