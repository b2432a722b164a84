"""One repetition of one benchmark workload, in a fresh interpreter.

Usage::

    python3 perfbench/rep.py {sweep,faults,fleet} [--seed N]
        [--size full|tiny] [--trace] [--setup-only]
        [--spawned-at MONOTONIC] [--work DIR]

Prints one JSON object as its last stdout line: setup and wall times,
peak RSS, each verdict (its known-answer check and its digest) and, with
``--trace``, the per-layer ledger.  ``run.py`` starts one of these per
repetition, because the checkers' memo, the world prototypes and the
snapshot tree live as long as the process: a second in-process run
would measure warm caches.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))

# Workload sizes.  ``full`` is what the benchmark times; ``tiny`` is the
# same shape, small enough for the exact-count test.
SIZES = {
    "sweep": {"full": {"bound": 2}, "tiny": {"bound": 1}},
    "faults": {"full": {"config": "vmsav8_64"},
               "tiny": {"config": "x86_64"}},
    "fleet": {"full": {"clean": 2, "bound": 2, "buggy_bound": 2,
                       "max_active": 2},
              "tiny": {"clean": 1, "bound": 1, "buggy_bound": 2,
                       "max_active": 1}},
}

# The known answers: which detector class must convict each planted bug.
MATRIX_DETECTORS = {
    "shallow-copy-page-tables": "refinement:",
    "cross-enclave-page-alias": "invariants:",
    "mapping-outside-elrange": "invariants:",
    "covert-mapping-no-epcm": "invariants:",
    "huge-pages-in-enclave-tables": "invariants:",
    "mbuf-overlaps-elrange": "invariants:",
    "mbuf-backed-by-secure-memory": "invariants:",
    "registers-leak-on-exit": "noninterference:",
    "no-tlb-flush-on-exit": "noninterference:",
    "no-scrub-on-destroy": "noninterference:",
    "no-rollback-on-fault": "fault campaign:",
    "no-locking-discipline": "interleaving explorer:",
    "no-tlb-shootdown": "interleaving explorer:",
}

FLEET_BUGGY = ("repro.hyperenclave.buggy:MissingLockMonitor",
               "repro.hyperenclave.buggy:NoShootdownMonitor")
POLL_S = 0.05


def digest(obj) -> str:
    """blake2b-128 of an object's repr (the service's result digest)."""
    return hashlib.blake2b(repr(obj).encode(), digest_size=16).hexdigest()


def peak_rss_mb(rusage) -> float:
    return rusage.ru_maxrss / 1024.0     # Linux reports KiB


def cpu_seconds(rusage) -> float:
    return rusage.ru_utime + rusage.ru_stime


class Clock:
    """Verdict timestamps relative to the first call.  The result
    objects are digested in :meth:`digests`, after timing and peak RSS
    are read, so the digest's repr is not charged to the program."""

    def __init__(self):
        self.verdicts = []
        self._results = []
        self.start = time.perf_counter()
        self.cpu_start = time.process_time()

    def verdict(self, name, passed, result):
        self.verdicts.append({"name": name, "passed": bool(passed),
                              "at_s": time.perf_counter() - self.start})
        self.cpu_s = time.process_time() - self.cpu_start
        self._results.append(result)

    def digests(self):
        for verdict, result in zip(self.verdicts, self._results):
            verdict["digest"] = result if isinstance(result, str) \
                else digest(result)
        self._results = []
        return self.verdicts


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


def run_sweep(seed, size, clock):
    from repro.engine.campaigns import parallel_interleaving_campaign
    from repro.hyperenclave.constants import TINY
    from repro.hyperenclave.monitor import RustMonitor
    result = parallel_interleaving_campaign(
        RustMonitor, preemption_bound=size["bound"], max_schedules=10 ** 6,
        seed=seed, check_ni=True, config=TINY, workers=1)
    clock.verdict("sweep", result.ok and not result.violations
                  and not result.truncated, result)


def run_faults(seed, size, clock):
    from repro.engine import campaigns
    from repro.engine.bug_matrix import run_matrix_parallel
    from repro.faults.plane import SITE_EPCM_ALLOC, SITE_FRAME_ALLOC
    from repro.hyperenclave.constants import ARCH_CONFIGS
    config = ARCH_CONFIGS[size["config"]]
    # Allocator sites (plus every hypercall's own crash points): each
    # unit still boots a fresh world and replays the 2 KiB page copies;
    # the per-word phys-write site would multiply the same work 12x.
    report = campaigns.parallel_crash_step_campaign(
        factory_args=(config,), sites=(SITE_FRAME_ALLOC, SITE_EPCM_ALLOC),
        seed=seed, workers=1)
    clock.verdict("crash-step", report.ok and report.runs, report)
    report = campaigns.parallel_crash_ni_campaign(
        factory_args=(config,), seed=seed, workers=1)
    clock.verdict("crash-ni", report.ok and report.runs, report)
    report = campaigns.parallel_crash_in_critical_section_campaign(
        seed=seed, config=config, workers=1)
    clock.verdict("crash-critical-section", report.ok and report.records,
                  report)
    for flip_seed, report in zip(
            (seed, seed + 1), campaigns.parallel_bitflip_campaigns(
                (seed, seed + 1), factory_args=(config,), workers=1)):
        clock.verdict(f"bitflip:{flip_seed}", report.ok, report)
    for bug, detected, how in run_matrix_parallel(workers=1,
                                                  config=config):
        clock.verdict(f"matrix:{bug}", detected and how.startswith(
            MATRIX_DETECTORS.get(bug, "?")), (bug, detected, how))


def registry_counts(snapshot):
    """The scheduler and snapshot-tree counters the program keeps."""
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    out = {}
    for name in ("fiber_steps", "handoffs", "inline_decisions"):
        out[f"scheduler.{name}"] = counters.get(f"sched.{name}", 0)
    for name in ("hits", "misses", "captures", "steps_saved", "evictions"):
        out[f"snapshot.{name}"] = counters.get(f"snapshot_cache.{name}", 0)
    out["snapshot.bytes_resident"] = gauges.get(
        "snapshot_cache.bytes_resident", 0)
    return out


def memo_counts(stats):
    out = {}
    for table in ("invariants", "vcpu", "observation", "obs_digest"):
        row = stats.get(table, {})
        out[f"memo.{table}.hits"] = row.get("hits", 0)
        out[f"memo.{table}.misses"] = row.get("misses", 0)
    return out


def import_entry_points():
    """The imports a caller pays before its first call: set-up time."""
    import repro.engine.bug_matrix    # noqa: F401
    import repro.engine.campaigns     # noqa: F401
    import repro.faults.plane         # noqa: F401
    import repro.hyperenclave.monitor  # noqa: F401


def in_process(name, args, size):
    import_entry_points()
    ready_at = time.monotonic()
    from repro.engine.workers import MEMO
    from repro.obs.metrics import REGISTRY
    ledger = None
    if args.trace:
        import layers
        ledger = layers.Ledger()
        layers.install(ledger)
        ledger.start()
    clock = Clock()
    (run_sweep if name == "sweep" else run_faults)(args.seed, size, clock)
    traced_wall = ledger.stop() if ledger is not None else None
    out = {"setup_s": ready_at - args.spawned_at if args.spawned_at
           else None, "wall_s": clock.verdicts[-1]["at_s"],
           "cpu_s": clock.cpu_s,
           "peak_rss_mb": peak_rss_mb(
               resource.getrusage(resource.RUSAGE_SELF)),
           "verdicts": clock.digests()}
    if ledger is not None:
        out["layers"] = dict(layers.per_layer(ledger, traced_wall),
                             **registry_counts(REGISTRY.snapshot()),
                             **memo_counts(MEMO.stats()))
    return out


# ---------------------------------------------------------------------------
# The fleet: daemon process + this single-threaded client
# ---------------------------------------------------------------------------


def start_daemon(args, size, root):
    """Spawn ``python -m repro serve`` (or the traced launcher) and wait
    for ``/healthz``; returns (process, client, setup seconds)."""
    from repro.service.client import ServiceClient
    serve = ["serve", "--root", root, "--port", "0", "--workers", "1",
             "--max-active", str(size["max_active"])]
    if args.trace:
        command = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                   root + "-ledger.json", *serve]
    else:
        command = [sys.executable, "-m", "repro", *serve]
    spawned = time.monotonic()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        line = process.stdout.readline()
        if "listening on " not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        client = ServiceClient(line.split("listening on ")[1].split()[0])
        client.healthz(deadline=10.0)
        return process, client, time.monotonic() - spawned
    except BaseException:
        process.kill()
        process.wait()
        raise


def read_metrics(url):
    """``GET /metrics``: the daemon's metrics registry snapshot."""
    with urllib.request.urlopen(url + "/metrics", timeout=10.0) as reply:
        return json.load(reply)


def stop_daemon(process):
    """SIGTERM (graceful drain), reap, and return the daemon's rusage."""
    process.send_signal(signal.SIGTERM)
    _pid, status, rusage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    process.stdout.read()
    process.stdout.close()
    if process.returncode != 0:
        raise RuntimeError(f"daemon exited {process.returncode}")
    return rusage


def fleet_specs(seed, size):
    specs = [{"id": f"clean{index}", "seed": seed + index,
              "preemption_bound": size["bound"]}
             for index in range(size["clean"])]
    specs += [{"id": path.rsplit(":", 1)[1], "monitor": path, "seed": seed,
               "preemption_bound": size["buggy_bound"]}
              for path in FLEET_BUGGY]
    return specs


def run_fleet(args, size):
    root = os.path.join(args.work, f"fleet-{os.getpid()}")
    shutil.rmtree(root, ignore_errors=True)
    try:
        return fleet_rep(args, size, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        if os.path.exists(root + "-ledger.json"):
            os.remove(root + "-ledger.json")


def fleet_rep(args, size, root):
    process, client, setup = start_daemon(args, size, root)
    try:
        if args.setup_only:
            stop_daemon(process)
            return {"setup_s": setup, "verdicts": []}
        specs = fleet_specs(args.seed, size)
        requests = []

        def timed(call, *call_args):
            started = time.perf_counter()
            value = call(*call_args)
            requests.append(time.perf_counter() - started)
            return value

        clock = Clock()
        submitted, running, finished = {}, {}, {}
        for spec in specs:
            submitted[spec["id"]] = time.perf_counter() - clock.start
            timed(client.submit, spec)
        while len(finished) < len(specs):
            time.sleep(POLL_S)
            now = time.perf_counter() - clock.start
            for status in timed(client.list_campaigns):
                cid = status["id"]
                if status["status"] != "queued":
                    running.setdefault(cid, now)
                if status["status"] in ("done", "failed", "cancelled",
                                        "interrupted") \
                        and cid not in finished:
                    finished[cid] = status
                    clean = cid.startswith("clean")
                    clock.verdict(cid, status["status"] == "done" and (
                        status["violations"] == 0 if clean
                        else status["violations"] > 0),
                        status.get("result_digest"))
        wall = clock.verdicts[-1]["at_s"]
        for verdict in clock.verdicts:
            verdict["at_s"] -= submitted[verdict["name"]]
        metrics = timed(read_metrics, client.url) if args.trace else None
        rusage = stop_daemon(process)
    finally:
        if process.returncode is None:
            process.kill()
            process.wait()
    out = {"setup_s": setup, "wall_s": wall,
           "cpu_s": cpu_seconds(rusage), "peak_rss_mb": peak_rss_mb(rusage),
           "verdicts": clock.digests()}
    if args.trace:
        with open(root + "-ledger.json") as fh:
            dump = json.load(fh)
        counters = metrics.get("counters", {})
        layers = dict(dump["layers"], **registry_counts(metrics),
                      **memo_counts(dump["memo"]))
        for name in ("units_executed", "units_stolen", "bundles_cut",
                     "checkpoints", "http_requests"):
            layers[f"service.{name}"] = counters.get(f"service.{name}", 0)
        checkpoint = metrics.get("histograms", {}).get(
            "service.checkpoint_seconds", {})
        layers["service.checkpoint_s"] = checkpoint.get("total", 0.0)
        layers["service.admission_wait_s.p50"] = statistics.median(
            running[cid] - submitted[cid] for cid in submitted)
        layers["service.run_s.p50"] = statistics.median(
            v["at_s"] + submitted[v["name"]] - running[v["name"]]
            for v in clock.verdicts)
        layers["service.request_s.p50"] = statistics.median(requests)
        layers["service.request_s.p99"] = sorted(requests)[
            int(0.99 * (len(requests) - 1))]
        out["layers"] = layers
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--work", default=".perfbench-work")
    args = parser.parse_args(argv)
    size = SIZES[args.workload][args.size]
    if args.workload == "fleet":
        out = run_fleet(args, size)
    elif args.setup_only:
        import_entry_points()
        out = {"setup_s": time.monotonic() - args.spawned_at,
               "verdicts": []}
    else:
        out = in_process(args.workload, args, size)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
