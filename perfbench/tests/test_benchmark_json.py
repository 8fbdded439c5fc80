"""BENCHMARK.json stays within its contract and in step with the docs."""

import json
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys_and_sizes():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCH["paths"] == ["perfbench"]
    assert 1 <= BENCH["run_seconds"] <= 60
    assert [w["name"] for w in BENCH["workloads"]] == ["fig1-warm", "svc-mixed"]
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in BENCH["workloads"])


def test_metrics_are_well_formed():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert len(BENCH["per_layer"]) == 41


def test_readme_maps_every_per_layer_metric():
    readme = (HERE / "README.md").read_text()
    section = readme.split("## Layer -> end-to-end map", 1)[1]
    expanded = set()
    for cell in re.findall(r"`([^`]+)`", section):
        m = re.match(r"^(.*)\{([^}]*)\}(.*)$", cell)
        if m:
            expanded |= {m[1] + part + m[3] for part in m[2].split(",")}
        expanded.add(cell)
    missing = [m["name"] for m in BENCH["per_layer"] if m["name"] not in expanded]
    assert missing == []
