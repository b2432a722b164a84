"""Prefix-sharing execution cache: equivalence, eviction, metrics.

The snapshot tree's one hard guarantee mirrors the fabric's: a
campaign run through restored snapshots is **byte-identical**
(``repr``-equal) to the from-scratch run a zero-budget tree gives
(nothing captured, every schedule from a fresh world clone) — at any
cache capacity, including a single-node LRU that evicts on every
insert.  Hypothesis drives random (seed, preemption
bound, fault plan) configurations through both paths; the directed
tests pin the cache actually *working* (hits, suffix steps saved) and
its counters surfacing through the metrics registry.

Everything here runs in-process (``workers=1``) so the tests control
the process-local tree directly via
:func:`~repro.concurrency.snapshot.reset_process_tree`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.concurrency import snapshot
from repro.concurrency.snapshot import (
    DEFAULT_BUDGET_MB,
    ENV_BUDGET,
    SnapshotTree,
    locality_key,
    process_tree,
    reset_process_tree,
    snapshot_budget_bytes,
)
from repro.errors import ConfigError
from repro.engine.campaigns import parallel_interleaving_campaign
from repro.obs.metrics import REGISTRY
from repro.reporting.tables import render_metrics

GRID = dict(max_schedules=12, check_ni=False, workers=1)


@pytest.fixture
def tree():
    """Install a fresh default-budget process tree; always uninstall."""
    fresh = SnapshotTree()
    reset_process_tree(fresh)
    yield fresh
    reset_process_tree(None)


def _run(tree, **grid):
    """One campaign through ``tree`` installed as the process tree."""
    reset_process_tree(tree)
    try:
        return parallel_interleaving_campaign(**grid)
    finally:
        reset_process_tree(None)


def _both(tree_kwargs=None, **grid):
    """One campaign through a fresh tree and one through a zero-budget
    tree (the from-scratch reference); returns (cached_repr,
    scratch_repr, tree, counter_delta)."""
    installed = SnapshotTree(**(tree_kwargs or {}))
    before = REGISTRY.snapshot()
    cached = _run(installed, **grid)
    delta = REGISTRY.delta(before)["counters"]
    scratch = _run(SnapshotTree(budget_bytes=0), **grid)
    return repr(cached), repr(scratch), installed, delta


@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_random_configs_restore_byte_identically(data):
    """Random (seed, bound, fault plan): snapshot-restored campaigns
    repr-match the from-scratch run."""
    seed = data.draw(st.integers(0, 4), label="seed")
    bound = data.draw(st.integers(1, 2), label="preemption_bound")
    crash = data.draw(
        st.one_of(st.none(),
                  st.tuples(st.integers(0, 1), st.integers(1, 6))),
        label="crash")
    cached, scratch, _tree, _delta = _both(
        seed=seed, preemption_bound=bound, crash=crash, **GRID)
    assert cached == scratch


@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_forced_eviction_preserves_equivalence(data):
    """Capacity 0 (nothing ever cached) and a 1-node LRU (evicts on
    nearly every insert) both stay byte-identical — eviction can cost
    speed, never correctness."""
    seed = data.draw(st.integers(0, 3), label="seed")
    kwargs = data.draw(st.sampled_from(
        [{"budget_bytes": 0}, {"max_nodes": 1}]), label="capacity")
    cached, scratch, tree, delta = _both(
        tree_kwargs=kwargs, seed=seed, preemption_bound=1, **GRID)
    assert cached == scratch
    if kwargs.get("budget_bytes") == 0:
        assert delta["snapshot_cache.hits"] == 0
        assert delta["snapshot_cache.captures"] == 0
    else:
        assert len(tree.nodes) <= 1
        assert delta["snapshot_cache.evictions"] > 0


def test_cache_hits_and_saves_suffix_steps():
    """Under the default budget the tree actually serves: most lookups
    hit and whole prefixes of scheduler decisions are skipped."""
    cached, scratch, tree, delta = _both(seed=0, preemption_bound=1,
                                         **GRID)
    assert cached == scratch
    hits = delta["snapshot_cache.hits"]
    misses = delta["snapshot_cache.misses"]
    assert hits > 0 and hits / (hits + misses) > 0.5
    assert delta["snapshot_cache.steps_saved"] > 0
    assert delta["snapshot_cache.cow_shared"] > 0
    assert tree.bytes_resident > 0


def test_ni_worlds_restore_byte_identically():
    """The noninterference re-run (secret-42 world) gets its own
    subtree via the world key; full NI campaigns restore identically."""
    cached, scratch, _tree, delta = _both(
        seed=1, preemption_bound=1, max_schedules=10, check_ni=True,
        workers=1)
    assert cached == scratch
    assert delta["snapshot_cache.hits"] > 0


def test_in_process_campaign_leaves_no_tree(tree):
    """Closing an in-process executor drops the process tree, so a
    long-lived process keeps no finished campaign's nodes resident."""
    parallel_interleaving_campaign(seed=0, preemption_bound=1, **GRID)
    assert tree.bytes_resident > 0, "the campaign must have captured"
    assert snapshot._PROCESS_TREE is None


def test_counters_surface_in_render_metrics(tree):
    """The snapshot-cache counter group flows through the registry into
    the rendered metrics table (and hence the daemon's ``/metrics``)."""
    parallel_interleaving_campaign(seed=0, preemption_bound=1, **GRID)
    table = render_metrics(REGISTRY.snapshot())
    for name in ("snapshot_cache.hits", "snapshot_cache.misses",
                 "snapshot_cache.steps_saved",
                 "snapshot_cache.bytes_resident"):
        assert name in table


def test_budget_resolution(monkeypatch):
    """Unset/empty env means the default; any finite non-negative
    number of megabytes is taken as given (0 disables capture)."""
    monkeypatch.delenv(ENV_BUDGET, raising=False)
    assert snapshot_budget_bytes() == int(DEFAULT_BUDGET_MB * 2 ** 20)
    monkeypatch.setenv(ENV_BUDGET, " ")
    assert snapshot_budget_bytes() == int(DEFAULT_BUDGET_MB * 2 ** 20)
    monkeypatch.setenv(ENV_BUDGET, "0")
    assert snapshot_budget_bytes() == 0
    assert SnapshotTree().capacity_disabled
    monkeypatch.setenv(ENV_BUDGET, "1.5")
    assert snapshot_budget_bytes() == 3 * 2 ** 19


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "1e400", "-1"])
def test_bad_budget_raises_config_error(monkeypatch, value):
    """A budget that is no finite, non-negative number of megabytes
    raises the typed ConfigError naming the variable, also from the
    first ``process_tree()`` call a worker makes."""
    monkeypatch.setenv(ENV_BUDGET, value)
    with pytest.raises(ConfigError) as excinfo:
        snapshot_budget_bytes()
    assert ENV_BUDGET in str(excinfo.value)
    assert value in str(excinfo.value)
    reset_process_tree(None)
    try:
        with pytest.raises(ConfigError):
            process_tree()
    finally:
        reset_process_tree(None)


def test_locality_key_groups_subtrees():
    """Schedules sharing a first preemption (one subtree) share a shard
    key; different heads, seeds, or crash plans split."""
    from repro.concurrency import Schedule

    root = Schedule(seed=3)
    child = Schedule(seed=3, preemptions=((4, 1),))
    grandchild = Schedule(seed=3, preemptions=((4, 1), (9, 0)))
    assert locality_key(child) == locality_key(grandchild)
    assert locality_key(root) != locality_key(child)
    assert locality_key(child) != locality_key(
        Schedule(seed=3, preemptions=((5, 1),)))
    assert locality_key(child) != locality_key(
        Schedule(seed=4, preemptions=((4, 1),)))
    assert locality_key(child) != locality_key(
        Schedule(seed=3, preemptions=((4, 1),), crash=(0, 2)))
