"""Tracing is observation-only: it must not change a single verdict.

Every test runs one checking campaign twice — tracing off, tracing on
— and requires the reports to be ``repr``-identical (which covers
every field of every record).  The traced run's records must also
pass schema validation, so "the tracer broke nothing" and "the tracer
recorded something coherent" are checked together.
"""

from repro.engine.campaigns import parallel_interleaving_campaign
from repro.faults.campaign import (
    crash_step_campaign,
    default_workload,
    default_world_factory,
)
from repro.obs import trace as trace_mod


def test_crash_step_campaign_verdicts_unchanged(tmp_path):
    sites = ("epcm.allocate", "frame.alloc")
    baseline = crash_step_campaign(default_world_factory(),
                                   default_workload(), sites=sites)
    path = str(tmp_path / "trace.jsonl")
    with trace_mod.installed(trace_mod.Tracer(jsonl=path)) as tracer:
        traced = crash_step_campaign(default_world_factory(),
                                     default_workload(), sites=sites)
        tracer.close()
    assert repr(traced) == repr(baseline)
    assert trace_mod.validate_jsonl(path) > 0
    names = {r["name"] for r in tracer.records}
    assert "campaign.crash-step" in names
    assert "fault.fired" in names


def test_interleaving_campaign_verdicts_unchanged():
    baseline = parallel_interleaving_campaign(max_schedules=25, workers=1)
    with trace_mod.installed(trace_mod.Tracer()) as tracer:
        traced = parallel_interleaving_campaign(max_schedules=25,
                                                workers=1)
    assert repr(traced) == repr(baseline)
    trace_mod.validate_records(tracer.records)
    names = {r["name"] for r in tracer.records}
    assert {"campaign.interleaving", "lock.acquire", "schedule"} <= names
    schedules = [r for r in tracer.records if r["name"] == "schedule"]
    assert len(schedules) == baseline.schedules_run


def test_pure_check_verdicts_unchanged(model):
    from repro.verification.harness import check_pure_hardened

    grids = [("pte_new", {}),
             ("level_span", dict(max_steps=16, sample_count=16))]
    for name, kwargs in grids:
        # Frozen clock: budget_spent["seconds"] is wall-clock and would
        # differ between any two runs, traced or not.
        kwargs = dict(kwargs, clock=lambda: 0.0)
        baseline = check_pure_hardened(model, name, **kwargs)
        with trace_mod.installed(trace_mod.Tracer()) as tracer:
            traced = check_pure_hardened(model, name, **kwargs)
        assert repr(traced) == repr(baseline)
        trace_mod.validate_records(tracer.records)
        verdicts = [r for r in tracer.records if r["name"] == "verdict"]
        assert len(verdicts) == 1
        assert verdicts[0]["attrs"]["engine"] == baseline.engine
        if baseline.degradations:
            recorded = [r["attrs"]["reason"] for r in tracer.records
                        if r["name"] == "degradation"]
            assert len(recorded) == len(baseline.degradations)


def test_parallel_campaign_traced_report_identical():
    from repro.engine import ShardedExecutor, parallel_crash_step_campaign

    sites = ("epcm.allocate",)
    baseline = crash_step_campaign(default_world_factory(),
                                   default_workload(), sites=sites)
    # The pool must fork *inside* the installed block so workers
    # inherit the tracing flag.
    with trace_mod.installed(trace_mod.Tracer()) as tracer:
        with ShardedExecutor(2) as pool:
            traced = parallel_crash_step_campaign(sites=sites,
                                                  executor=pool)
    assert repr(traced) == repr(baseline)
    trace_mod.validate_records(tracer.records)
    unit_spans = [r for r in tracer.records
                  if r["name"] == "executor.unit"]
    assert unit_spans, "worker spans must ship back with the results"
    # Re-parented deterministically: unit order, under executor.map.
    maps = [r for r in tracer.records if r["name"] == "executor.map"]
    assert [s["parent"] for s in unit_spans] == \
        [maps[0]["id"]] * len(unit_spans)
    assert [s["attrs"]["index"] for s in unit_spans] == \
        list(range(len(unit_spans)))
