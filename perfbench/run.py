"""The repository's benchmark: three checking workloads, timed end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {sweep,faults,fleet} [--seed N]
        [--seconds S] [--trace 0|1]

Each repetition runs in a fresh interpreter (``rep.py``), so no run
inherits a warm memo, world prototype or snapshot tree.  With
``--trace 0`` the end-to-end metrics are medians over the repetitions;
with ``--trace 1`` untraced and traced repetitions alternate and the
per-layer ledger of the traced ones is reported, with the tracing
overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
for why the workloads and metrics are what they are.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
WORK_DIR = ".perfbench-work"

# Seconds one repetition takes on a 2-core x86-64 host (spawn included);
# a run makes round(--seconds / this) repetitions, so the estimator (a
# median over a fixed count) does not change with the host's speed.  On
# a host so slow that the next repetition would end past 1.5 x
# --seconds, the run stops early instead.
REP_SECONDS = {"sweep": 1.8, "faults": 5.0, "fleet": 10.0}
OVERRUN = 1.5
SETUPS_PER_RUN = 7
RUN_LIMIT_S = 170.0     # a run must end within 180 s, hung or not
STARTED = time.monotonic()

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("verdict_s.p50", "s"),
              ("peak_rss_mb", "MiB")]

COUNTS = [
    "explorer.schedules",
    "scheduler.executions", "scheduler.decisions", "scheduler.fiber_steps",
    "scheduler.handoffs", "scheduler.inline_decisions",
    "snapshot.hits", "snapshot.misses", "snapshot.captures",
    "snapshot.steps_saved", "snapshot.evictions",
    "monitor.hypercalls", "txn.rollbacks",
    "paging.walks", "paging.pte_reads",
    "hardware.words_written", "hardware.frames_zeroed",
    "hardware.frames_copied",
    "state.clones",
    "invariants.calls", "ni.checks", "fingerprint.calls",
    "memo.invariants.hits", "memo.invariants.misses",
    "memo.vcpu.hits", "memo.vcpu.misses",
    "memo.observation.hits", "memo.observation.misses",
    "memo.obs_digest.hits", "memo.obs_digest.misses",
    "faults.runs", "faults.world_boots", "matrix.convicted",
    "executor.units",
    "service.units_executed", "service.units_stolen", "service.bundles_cut",
    "service.checkpoints", "service.http_requests",
]
# The client polls until every campaign is done, so its request count
# follows the wall time; every other count must repeat exactly.
TIMING_COUNTS = {"service.http_requests"}
# Self times partition the traced wall with unattributed_s.
SELF_TIMES = ["explorer.self_s", "scheduler.self_s", "snapshot.self_s",
              "monitor.self_s", "paging.self_s", "hardware.self_s",
              "state.clone_s", "invariants.self_s", "vcpu.self_s",
              "ni.self_s", "fingerprint.self_s", "faults.self_s",
              "executor.self_s", "service.self_s", "unattributed_s"]
# Times one or two workloads never reach (zero elsewhere): printed in
# the table, left out of the JSON line.
TABLE_ONLY = [(name, "s") for name in (
    "service.self_s", "service.admission_wait_s.p50", "service.run_s.p50",
    "service.request_s.p50", "service.request_s.p99",
    "service.checkpoint_s", "matrix.invariant_s", "matrix.ni_s",
    "matrix.rollback_s", "matrix.concurrency_s")]
PER_LAYER = [(name, "count") for name in COUNTS]
PER_LAYER += [("snapshot.bytes_resident", "bytes")]
PER_LAYER += [(name, "s") for name in SELF_TIMES
              if name not in dict(TABLE_ONLY)]
PER_LAYER += [("faults.boot_s", "s"), ("trace.overhead", "ratio")]
EXACT_COUNTS = [name for name, unit in PER_LAYER
                if unit in ("count", "bytes") and name not in TIMING_COUNTS]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(root):
    """A clean, reproducible environment for every child interpreter."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def rep(workload, args, env, *, trace=False, setup_only=False):
    """One repetition in a fresh interpreter; returns its JSON record."""
    command = [sys.executable, os.path.join(HERE, "rep.py"), workload,
               "--seed", str(args.seed), "--work", WORK_DIR]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned-at", repr(time.monotonic())]
    # Its own session, so a hung repetition is killed together with the
    # daemon it may have started.
    child = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, err = child.communicate(
            timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - STARTED)))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail(f"{workload} repetition did not finish in time")
    if child.returncode != 0:
        sys.stderr.write(err)
        fail(f"{workload} repetition exited {child.returncode}")
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------


def source_digest(root):
    """blake2b over every source file: names the code exactly, also in a
    checkout that is not a git repository."""
    h = hashlib.blake2b(digest_size=16)
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def environment(root):
    return {"source_digest": source_digest(root), "git": git_commit(root),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg_1m_start": os.getloadavg()[0]}


# ---------------------------------------------------------------------------
# Verdict gate
# ---------------------------------------------------------------------------


def load_golden(workload):
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh)[workload]


def gate(records, golden):
    """(attempted, failed, reasons): each verdict must give its known
    answer and, at the default seed, its golden digest."""
    attempted = failed = 0
    reasons = []
    for record in records:
        expected = dict(golden) if golden is not None else None
        for verdict in record["verdicts"]:
            attempted += 1
            name = verdict["name"]
            reason = None
            if not verdict["passed"]:
                reason = "wrong verdict"
            elif expected is not None and \
                    expected.pop(name, None) != verdict["digest"]:
                reason = "digest differs from golden"
            if reason:
                failed += 1
                reasons.append(f"{name}: {reason}")
        if expected:
            failed += len(expected)
            attempted += len(expected)
            reasons += [f"{name}: no verdict" for name in sorted(expected)]
    return attempted, failed, reasons


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def repeat(count, args, make):
    """Up to ``count`` results of ``make()``, stopping early when the
    next one would end past the run's time cap."""
    deadline = time.monotonic() + OVERRUN * args.seconds
    results, durations = [], []
    while len(results) < count:
        if durations and time.monotonic() + max(durations) > deadline:
            break
        started = time.monotonic()
        results.append(make())
        durations.append(time.monotonic() - started)
    return results


def end_to_end(workload, args, env, reps):
    records = repeat(reps, args, lambda: rep(workload, args, env))
    setups = [r["setup_s"] for r in records]
    while len(setups) < SETUPS_PER_RUN:
        setups.append(rep(workload, args, env, setup_only=True)["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "verdict_s.p50": statistics.median(
            statistics.median(v["at_s"] for v in r["verdicts"])
            for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                         for r in records),
    }
    table = [(name, metrics[name], unit) for name, unit in END_TO_END]
    # CPU time beside wall time tells host steal (wall grows alone) from
    # a slower host or program (both grow).
    table.append(("cpu_s", statistics.median(r["cpu_s"] for r in records),
                  "s"))
    table.append(("repetitions", len(records), "count"))
    table.append(("setups", len(setups), "count"))
    return records, metrics, table, []


def traced(workload, args, env, reps):
    pairs = repeat(max(1, reps // 2), args, lambda: (
        rep(workload, args, env), rep(workload, args, env, trace=True)))
    plain = [pair[0] for pair in pairs]
    traced_records = [pair[1] for pair in pairs]
    problems = []
    digests = {v["name"]: v["digest"] for v in plain[0]["verdicts"]}
    for record in plain + traced_records:
        if {v["name"]: v["digest"] for v in record["verdicts"]} != digests:
            problems.append("traced and untraced verdict digests differ")
    ledgers = [r["layers"] for r in traced_records]
    for ledger in ledgers:
        total = sum(ledger.get(name, 0.0) for name in SELF_TIMES)
        if abs(total - ledger["traced_wall_s"]) > 1e-6 * max(
                1.0, ledger["traced_wall_s"]):
            problems.append(f"self times sum to {total:.6f} s, traced "
                            f"wall is {ledger['traced_wall_s']:.6f} s")
    for ledger in ledgers[1:]:
        for name in EXACT_COUNTS:
            if ledger.get(name, 0) != ledgers[0].get(name, 0):
                problems.append(f"count {name} did not repeat")
    metrics = {}
    for name, _unit in PER_LAYER + TABLE_ONLY:
        if name == "trace.overhead":
            metrics[name] = statistics.median(
                r["wall_s"] for r in traced_records) / statistics.median(
                r["wall_s"] for r in plain)
        else:
            metrics[name] = statistics.median(
                ledger.get(name, 0) for ledger in ledgers)
    metrics["traced_wall_s"] = statistics.median(
        ledger["traced_wall_s"] for ledger in ledgers)
    table = layer_table(metrics)
    return plain + traced_records, {
        name: metrics[name] for name, _unit in PER_LAYER}, table, problems


def layer_table(metrics):
    """Rows grouped by layer, self times with their share of the wall."""
    wall = metrics["traced_wall_s"]
    units = dict(PER_LAYER + TABLE_ONLY + [("traced_wall_s", "s")])
    rows = []
    for name in sorted(units, key=lambda n: (n.split(".")[0], n)):
        value = metrics[name]
        if name in SELF_TIMES:
            rows.append((name, value, f"s  {100 * value / wall:5.1f}%"))
        else:
            rows.append((name, value, units[name]))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(REP_SECONDS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py")):
        fail("run from the root of a checkout: src/repro is missing")
    env = child_env(root)
    stamp = environment(root)
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        rep(args.workload, args, env, setup_only=True)   # fills __pycache__
        reps = max(1, round(args.seconds / REP_SECONDS[args.workload]))
        run = traced if args.trace else end_to_end
        records, metrics, table, problems = run(args.workload, args, env,
                                                reps)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    golden = load_golden(args.workload) if args.seed == DEFAULT_SEED \
        else None
    attempted, failed, reasons = gate(records, golden)
    stamp["loadavg_1m_end"] = os.getloadavg()[0]

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    for key, value in stamp.items():
        print(f"  env.{key:<22} {value}")
    for name, value, unit in table:
        print(f"  {name:<32} {value:>14.6g} {unit}")
    print(f"  {'failed_share':<32} {failed / attempted:>14.6g} "
          f"({failed}/{attempted} verdicts)")
    for line in reasons + problems:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in (PER_LAYER if args.trace
                                       else END_TO_END)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
