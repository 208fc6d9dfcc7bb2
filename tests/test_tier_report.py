"""The typed tier report and its JSON form (``repro.store.report``).

``RunTrace.extras["tiered_store"]`` is ``TierReport.to_dict()``; these
tests hold the conversion to the golden files, to the exact text a run
writes, and to strictness: ``from_dict`` names a missing or unknown key
at any depth.
"""

import copy
import dataclasses
import json
import pathlib

import pytest

from repro.engine.trace import RunTrace
from repro.errors import ValidationError
from repro.store import CodecAdaptConfig, SpillConfig, TierSpec
from repro.store.report import TierReport

from tests.test_feedback import _run, _spilling_case
from tests.test_golden_kernel import service_payload

DATA = pathlib.Path(__file__).parent / "data"

#: golden file -> the path of the full report blob it carries
FULL = {
    "golden_adaptive_trace.json": ("tiered", "trace", "extras",
                                   "tiered_store"),
    "golden_parallel4_trace.json": ("plan", "extras", "tiered_store"),
    "golden_service_trace.json": ("tiered_store",),
}


def _blob(name: str, path=("extras", "tiered_store")) -> dict:
    payload = json.loads((DATA / name).read_text())
    for key in path:
        payload = payload[key]
    return payload


@pytest.fixture(scope="module")
def fresh() -> dict:
    """A run's blob as it wrote it: spilled, adapted, one tenant."""
    graph, plan, peak = _spilling_case()
    spill = SpillConfig(
        tiers=(TierSpec("ssd", 0.5 * peak), TierSpec("disk")),
        codec="zlib", prefetch=True, adapt=CodecAdaptConfig(samples=2))
    trace = _run(graph, plan, 0.4 * peak, spill)
    return json.loads(trace.to_json())["extras"]["tiered_store"]


@pytest.fixture(scope="module")
def service() -> dict:
    """A two-tenant service session's blob."""
    return service_payload()["tiered_store"]


@pytest.mark.parametrize("name", sorted(FULL))
def test_golden_blob_round_trips(name):
    # the files are written with sorted keys, so compare sorted text
    blob = _blob(name, FULL[name])
    again = TierReport.from_dict(blob).to_dict()
    assert json.dumps(again, sort_keys=True) == \
        json.dumps(blob, sort_keys=True)


@pytest.mark.parametrize("name", ["golden_pr4_trace.json",
                                  "golden_pr5_trace.json"])
def test_subset_golden_is_rejected_by_name(name):
    # these hold only the fields their PR emitted; test_backend_matrix
    # compares them as subsets of a fresh run
    with pytest.raises(ValidationError,
                       match="missing key 'demote_bypass_count'"):
        TierReport.from_dict(_blob(name))


def test_written_text_round_trips_in_field_order(fresh, service):
    for blob in (fresh, service):
        assert json.dumps(TierReport.from_dict(blob).to_dict()) == \
            json.dumps(blob)
    report = TierReport.from_dict(fresh)
    assert report.spill_count > 0 and report.codec_adapt.tiers
    assert sorted(TierReport.from_dict(service).tenants) == ["hi", "lo"]


def test_single_tenant_report_omits_tenants(fresh):
    assert "tenants" not in fresh
    assert TierReport.from_dict(fresh).tenants == {}


def test_every_record_is_immutable(fresh, service):
    records = []
    for report in map(TierReport.from_dict, (fresh, service)):
        records += [report, report.arbitration, report.prefetch,
                    report.codec_adapt, *report.codec_adapt.tiers.values(),
                    *report.tenants.values()]
        for tier in report.tiers:
            records += [tier, tier.observed]
    assert {type(record).__name__ for record in records} == {
        "TierReport", "Arbitration", "Prefetch", "CodecAdapt",
        "CodecAdaptRecord", "TenantRow", "TierRow", "Observed"}
    for record in records:
        name = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)


def test_trace_reads_its_report(fresh):
    trace = RunTrace(extras={"tiered_store": fresh})
    report = trace.tier_report()
    assert report == TierReport.from_dict(fresh)
    assert trace.stall_avoided_time == \
        report.arbitration.avoided_spill_seconds
    assert RunTrace().tier_report() is None
    assert RunTrace().stall_avoided_time == 0.0


@pytest.mark.parametrize("path,key,message", [
    ((), "spill_count", "TierReport: missing key 'spill_count'"),
    (("arbitration",), "stall_wins", "Arbitration: missing key"),
    (("tiers", 1, "observed"), "read_gb", "Observed: missing key 'read_gb'"),
    (("codec_adapt", "tiers", "ssd"), "at_spill",
     "CodecAdaptRecord: missing key 'at_spill'"),
    ((), "spil_count", "TierReport: unknown key 'spil_count'"),
    (("prefetch",), "spil_count", "Prefetch: unknown key"),
    (("tiers", 0), "spil_count", "TierRow: unknown key 'spil_count'"),
    ((), "tiers", "TierReport.tiers: expected list, got dict"),
])
def test_bad_key_is_named_with_its_record(fresh, path, key, message):
    blob = copy.deepcopy(fresh)
    node = blob
    for step in path:
        node = node[step]
    if key == "tiers":
        node[key] = {}          # a wrong shape
    elif key in node:
        del node[key]           # a missing key
    else:
        node[key] = 1           # an unknown one
    with pytest.raises(ValidationError, match=f"^{message}"):
        TierReport.from_dict(blob)


def test_non_object_is_rejected():
    with pytest.raises(ValidationError, match="^TierReport: expected dict"):
        TierReport.from_dict([])
