"""``python -m repro serve`` with the per-layer ledger installed.

Usage: ``python3 perfbench/serve_traced.py LEDGER_JSON [serve args...]``.
Runs the daemon's own CLI entry point unchanged; when it exits (SIGTERM
drains it), writes the ledger, the checkers' memo counters and the exit
code to ``LEDGER_JSON``.
"""

import json
import runpy
import sys

import layers


def main():
    out_path, serve_args = sys.argv[1], sys.argv[2:]
    ledger = layers.Ledger()
    layers.install(ledger)
    from repro.engine.workers import MEMO
    ledger.start()
    sys.argv = ["repro", *serve_args]
    code = 0
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code or 0
    wall = ledger.stop()
    with open(out_path, "w") as fh:
        json.dump({"layers": layers.per_layer(ledger, wall),
                   "memo": MEMO.stats(), "exit": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
