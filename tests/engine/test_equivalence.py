"""Byte-identity across worker counts, campaign by campaign.

The fabric's one hard guarantee: for every checking campaign, the
merged report is **byte-identical** (``repr``-equal, which covers every
field of every record) at every worker count — shard assignment and
completion order must not be observable.  Each campaign runs on a
2-worker pool and must equal the in-process ``workers=1`` run; where a
committed golden digest pins the campaign (the interleaving grids, the
x86 crash-step sweep at the allocator sites, crash-NI, the
critical-section crashes and the seed-0/1 bit flips) it must equal
that too, including the grids where the planted concurrency bugs fire
(violations must merge identically, not just clean runs).  The pool's
interleaving rows also show the workers' snapshot trees at work: the
registry delta the pool merges back carries snapshot hits and saved
steps, so the golden digest is checked on the cached path.
"""

import pytest

from repro.engine import (
    parallel_bitflip_campaigns,
    parallel_crash_step_campaign,
    parallel_interleaving_campaign,
    parallel_pure_check_grid,
)
from repro.engine.executor import stable_shard
from repro.hyperenclave.constants import ARCH_CONFIGS
from repro.obs.metrics import REGISTRY
from tests.test_golden_verdicts import (
    ENTRIES,
    digest,
    golden_result,
    load_golden,
)


def _assert_golden(sharded, name):
    """``sharded`` equals the entry's in-process run and its digest."""
    assert repr(sharded) == repr(golden_result(name))
    assert digest(sharded) == load_golden()[name]


@pytest.mark.parametrize("name", [
    "x86_64/interleaving/clean", "x86_64/interleaving/missing-lock",
    "x86_64/interleaving/no-shootdown", "x86_64/interleaving/crash-1-3"])
def test_interleaving_equivalence(pool, name):
    before = REGISTRY.snapshot()
    sharded = ENTRIES[name](executor=pool)
    counters = REGISTRY.delta(before)["counters"]
    _assert_golden(sharded, name)
    assert sharded.ok == name.endswith(("clean", "crash-1-3"))
    assert counters.get("snapshot_cache.hits", 0) > 0, counters
    assert counters.get("snapshot_cache.steps_saved", 0) > 0, counters


@pytest.mark.parametrize("name", [
    "x86_64/crash-step", "x86_64/crash-ni",
    "x86_64/crash-critical-section"])
def test_fault_campaign_equivalence(pool, name):
    sharded = ENTRIES[name](executor=pool)
    _assert_golden(sharded, name)
    assert sharded.ok


def test_bitflip_equivalence(pool):
    """Several seeds in one map, spread over both workers: the merge
    must put the per-seed reports back in seed order."""
    seeds = (0, 1, 2)
    assert len({stable_shard(f"repro.engine.workers:run_bitflip_unit"
                             f"\x1f{s}", pool.workers)
                for s in seeds}) == pool.workers
    x86 = (ARCH_CONFIGS["x86_64"],)
    par = parallel_bitflip_campaigns(seeds, factory_args=x86,
                                     executor=pool)
    one = parallel_bitflip_campaigns(seeds, factory_args=x86, workers=1)
    assert repr(par) == repr(one)
    for seed in (0, 1):
        _assert_golden(par[seed], f"x86_64/bitflip:{seed}")
    assert all(report.ok for report in par)


def test_crash_step_all_sites_equivalence(pool):
    """Every default site (per-word phys writes included), which no
    golden entry pins: the pool against the in-process run."""
    one = parallel_crash_step_campaign(workers=1)
    par = parallel_crash_step_campaign(executor=pool)
    assert one.runs and repr(par) == repr(one)


def test_pure_check_grid_equivalence(pool):
    """With frozen worker clocks even ``budget_spent`` merges equal."""
    names = ["entry_index", "pte_is_present", "pte_frame",
             "align_page_down"]
    kw = dict(total_steps=4000, seed=7, sample_count=32,
              fake_clock=True)
    one = parallel_pure_check_grid(names, **kw, workers=1)
    par = parallel_pure_check_grid(names, **kw, executor=pool)
    assert [r.name for r in one] == names
    assert repr(par) == repr(one)


def test_stats_out_reports_worker_memoisation(pool):
    stats = {}
    parallel_interleaving_campaign(max_schedules=40, executor=pool,
                                   stats_out=stats)
    assert stats["invariants"]["hits"] + stats["invariants"]["misses"] > 0
