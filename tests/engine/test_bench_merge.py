"""``BENCH_checking.json`` merging: sections never silently clobber.

The bench CLI writes one JSON artifact shared by several benches; the
merge helper must (a) preserve every section a different bench last
wrote, and (b) refuse to overwrite a section measured under a
*different* configuration — the stale record stays, the new one lands
side-by-side under a config-tagged key, and the operator is warned.
"""

import json

from repro.engine.bench import _merged_out


def _record(benchmark, config, **extra):
    return {"benchmark": benchmark, "config": config, **extra}


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def test_same_config_overwrites_in_place(tmp_path):
    out = tmp_path / "bench.json"
    config = {"workers": 4, "bounds": [2, 3]}
    _merged_out(str(out), "service",
                _record("checking-service", config, speedup=1.9))
    merged = _merged_out(str(out), "service",
                         _record("checking-service", config, speedup=2.1))
    assert merged["service"]["speedup"] == 2.1
    assert set(_read(out)) == {"service"}


def test_config_mismatch_writes_side_by_side(tmp_path, capsys):
    out = tmp_path / "bench.json"
    old = _record("checking-service", {"workers": 4}, speedup=1.9)
    new = _record("checking-service", {"workers": 8}, speedup=2.4)
    _merged_out(str(out), "service", old)
    merged = _merged_out(str(out), "service", new)
    assert merged["service"] == old
    keyed = [key for key in merged if key.startswith("service@")]
    assert len(keyed) == 1
    assert merged[keyed[0]] == new
    assert "different config" in capsys.readouterr().err
    # re-running under the new config overwrites its own keyed slot
    again = _merged_out(str(out), "service", dict(new, speedup=2.5))
    assert again[keyed[0]]["speedup"] == 2.5
    assert len([k for k in again if k.startswith("service@")]) == 1


def test_top_level_write_preserves_section_records(tmp_path):
    out = tmp_path / "bench.json"
    _merged_out(str(out), "durability",
                _record("durable-orchestrator", {"seed": 0}))
    _merged_out(str(out), "service",
                _record("checking-service", {"seed": 0}))
    doc = _merged_out(str(out), None,
                      _record("parallel-checking-fabric", {"seed": 0},
                              sequential={"seconds": 1.0}))
    assert doc["benchmark"] == "parallel-checking-fabric"
    assert doc["durability"]["benchmark"] == "durable-orchestrator"
    assert doc["service"]["benchmark"] == "checking-service"
    # stale top-level sub-dicts of a *previous* document (no benchmark
    # tag) are not resurrected
    fresh = _merged_out(str(out), None,
                        _record("parallel-checking-fabric", {"seed": 1}))
    assert "sequential" not in fresh
    assert "service" in fresh
