"""Crash-in-critical-section recovery: PR 1's crash model composed
with the concurrency plane."""

import pytest

from repro.concurrency import DeterministicScheduler, Schedule
from repro.concurrency.shootdown import detect_stale_translations
from repro.engine import parallel_crash_in_critical_section_campaign
from repro.faults import default_concurrent_workloads
from repro.hyperenclave.constants import TINY
from repro.hyperenclave.monitor import RustMonitor
from repro.security import DataOracle, SystemState, check_all_invariants
from repro.security.invariants import check_vcpu_consistency


def build_scheduled_world(schedule):
    monitor = RustMonitor(TINY, num_vcpus=2)
    primary_os = monitor.primary_os
    primary_os.spawn_app(1)
    page = TINY.page_size
    ctx = {
        "page": page,
        "mbuf_pa": TINY.frame_base(primary_os.reserve_data_frame()),
        "src_pa": TINY.frame_base(primary_os.reserve_data_frame()),
        "elrange_base": 16 * page,
    }
    primary_os.gpa_write_word(ctx["src_pa"], 0x5EC2E7)
    state = SystemState(monitor, DataOracle.seeded(13))
    scheduler = DeterministicScheduler(
        monitor, default_concurrent_workloads(state, ctx), schedule,
        probe=detect_stale_translations)
    return monitor, scheduler


class TestFullCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        return parallel_crash_in_critical_section_campaign(workers=1)

    def test_rust_monitor_absorbs_every_crash(self, report):
        assert report.critical_yields > 20
        assert len(report.records) == report.critical_yields
        assert report.ok, [str(r.violations[0])
                           for r in report.failures()[:3]]

    def test_crashes_land_on_both_vcpus_and_many_kinds(self, report):
        assert {record.vid for record in report.records} == {0, 1}
        kinds = {record.kind for record in report.records}
        assert "phys.write" in kinds
        assert kinds & {"lock.acquire", "shootdown.ipi"}

    def test_render_mentions_every_crash_kind(self, report):
        text = report.render()
        for kind in {record.kind for record in report.records}:
            assert kind in text
        assert "0 failures" in text


class TestSingleCrash:
    def test_crash_releases_locks_and_rolls_back(self):
        # Find a yield taken with locks held, then re-run crashing there.
        _monitor, scheduler = build_scheduled_world(Schedule())
        point = scheduler.run().critical_yields()[0]
        schedule = Schedule(crash=(point.vid, point.yield_index))
        monitor, scheduler = build_scheduled_world(schedule)
        result = scheduler.run()
        assert point.vid in result.parked
        assert not scheduler.locks.any_held()
        assert not result.lock_violations
        assert check_all_invariants(monitor).ok
        assert check_vcpu_consistency(monitor) == []

    def test_surviving_vcpu_runs_to_completion(self):
        _monitor, scheduler = build_scheduled_world(Schedule())
        baseline = scheduler.run()
        point = next(y for y in baseline.critical_yields() if y.vid == 0)
        monitor, scheduler = build_scheduled_world(
            Schedule(crash=(0, point.yield_index)))
        result = scheduler.run()
        # vCPU 1's whole session still executed (its task hit no error
        # and was never parked), against a monitor vCPU 0 abandoned
        # mid-hypercall.
        assert 1 not in result.parked
        assert 1 not in result.task_errors
        assert check_all_invariants(monitor).ok
