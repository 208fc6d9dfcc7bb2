"""Tests for the exception hierarchy."""

import pytest

from repro import errors


def test_all_errors_derive_from_repro_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception) and \
                obj is not errors.ReproError:
            assert issubclass(obj, errors.ReproError), name


def test_cycle_error_carries_cycle():
    err = errors.CycleError("boom", cycle=["a", "b", "a"])
    assert err.cycle == ["a", "b", "a"]
    assert errors.CycleError("no cycle info").cycle is None


def test_infeasible_plan_error_fields():
    err = errors.InfeasiblePlanError("over", peak=12.0, budget=10.0)
    assert err.peak == 12.0
    assert err.budget == 10.0


def test_budget_exceeded_fields():
    err = errors.BudgetExceededError("full", requested=5.0, available=1.0)
    assert err.requested == 5.0
    assert err.available == 1.0
    assert isinstance(err, errors.CatalogError)
    assert isinstance(err, errors.ExecutionError)


def test_sql_error_position():
    err = errors.SqlError("bad", sql="SELEC", position=0)
    assert err.sql == "SELEC"
    assert err.position == 0
