"""Byte-identity across worker counts, campaign by campaign.

The fabric's one hard guarantee: for every checking campaign, the
merged report is **byte-identical** (``repr``-equal, which covers every
field of every record) at every worker count — shard assignment and
completion order must not be observable.  The interleaving campaign
runs on a 2-worker pool and must equal both the in-process
``workers=1`` run and the committed golden digest, including the
grids where the planted concurrency bugs fire (violations must merge
identically, not just clean runs).  The fault campaigns compare the
pool against their in-process reference drivers.
"""

import pytest

from repro.engine import (
    parallel_bitflip_campaigns,
    parallel_crash_in_critical_section_campaign,
    parallel_crash_ni_campaign,
    parallel_crash_step_campaign,
    parallel_interleaving_campaign,
    parallel_pure_check_grid,
    sequential_pure_check_grid,
)
from repro.faults.campaign import (
    bitflip_campaign,
    crash_in_critical_section_campaign,
    crash_ni_campaign,
    crash_step_campaign,
    default_workload,
    default_world_factory,
)
from tests.test_golden_verdicts import (
    ENTRIES,
    digest,
    golden_result,
    load_golden,
)


@pytest.mark.parametrize("name", [
    "x86_64/interleaving/clean", "x86_64/interleaving/missing-lock",
    "x86_64/interleaving/no-shootdown", "x86_64/interleaving/crash-1-3"])
def test_interleaving_equivalence(pool, name):
    sharded = ENTRIES[name](executor=pool)
    assert repr(sharded) == repr(golden_result(name))
    assert digest(sharded) == load_golden()[name]
    assert sharded.ok == name.endswith(("clean", "crash-1-3"))


def test_crash_step_equivalence(pool):
    seq = crash_step_campaign(default_world_factory(),
                              default_workload())
    par = parallel_crash_step_campaign(executor=pool)
    assert seq.runs and repr(par) == repr(seq)


def test_bitflip_equivalence(pool):
    factory = default_world_factory()
    seeds = [0, 1, 2]
    seq = [bitflip_campaign(factory, flips=24, seed=s) for s in seeds]
    par = parallel_bitflip_campaigns(seeds, flips=24, executor=pool)
    assert repr(par) == repr(seq)


def test_crash_ni_equivalence(pool):
    seq = crash_ni_campaign()
    par = parallel_crash_ni_campaign(executor=pool)
    assert seq.runs and repr(par) == repr(seq)


def test_crash_in_critical_section_equivalence(pool):
    seq = crash_in_critical_section_campaign()
    par = parallel_crash_in_critical_section_campaign(executor=pool)
    assert seq.records and repr(par) == repr(seq)


def test_pure_check_grid_equivalence(pool):
    """With frozen worker clocks even ``budget_spent`` merges equal."""
    names = ["entry_index", "pte_is_present", "pte_frame",
             "align_page_down"]
    kw = dict(total_steps=4000, seed=7, sample_count=32,
              fake_clock=True)
    seq = sequential_pure_check_grid(names, **kw)
    par = parallel_pure_check_grid(names, **kw, executor=pool)
    assert [r.name for r in seq] == names
    assert repr(par) == repr(seq)


def test_stats_out_reports_worker_memoisation(pool):
    stats = {}
    parallel_interleaving_campaign(max_schedules=40, executor=pool,
                                   stats_out=stats)
    assert stats["invariants"]["hits"] + stats["invariants"]["misses"] > 0
