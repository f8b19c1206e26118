"""Checks on the scripts under tools/."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def _runs_of(blocks):
    """One JSON Lines record per run of the folded blocks, each run's
    result holding the run's value of every metric."""
    records = []
    for workload, entry in blocks.items():
        for side in SIDES:
            for k in range(entry["pairs"]):
                metrics = {name: {"value": m[side]["runs"][k], "unit": m["unit"]} for name, m in entry["metrics"].items()}
                result = {"correct": entry["correct"][side], "attempted": 1, "failed": entry["failed"][side], "metrics": metrics}
                records.append({"side": side, "pair": k, "workload": workload, "seed": entry["seeds"][k], "result": result})
    return records


def test_fold_bench_reproduces_a_folded_bench_file(tmp_path, capsys, monkeypatch):
    # BENCH_26.json was folded by hand: from its own runs the tool gives
    # every median and quartile, pair count and bound verdict, and the
    # relative change to within the rounding of the file's medians
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from fold_bench import main

    bench = json.loads((ROOT / "BENCH_26.json").read_text())
    blocks = {**bench["workloads"], **bench["held_out"]}
    runs = tmp_path / "runs.jsonl"
    runs.write_text("".join(json.dumps(record) + "\n" for record in _runs_of(blocks)))
    main([str(runs)])
    folded = json.loads(capsys.readouterr().out)
    assert list(folded) == list(blocks)
    triples = 0
    for workload, entry in blocks.items():
        got = folded[workload]
        assert {k: got[k] for k in ("pairs", "seeds", "failed", "correct")} == {
            k: entry[k] for k in ("pairs", "seeds", "failed", "correct")
        }
        assert list(got["metrics"]) == list(entry["metrics"])
        for name, metric in entry["metrics"].items():
            mine = got["metrics"][name]
            for side in SIDES:
                assert mine[side] == metric[side], (workload, name, side)
                triples += 1
            for key in ("unit", "better", "bound", "change_better_in_pairs", "within_bound"):
                assert mine[key] == metric[key], (workload, name, key)
            assert mine["change_vs_parent"] == pytest.approx(metric["change_vs_parent"], abs=4e-4)
    assert triples == 60


def test_fold_bench_needs_both_sides_of_a_pair_on_one_seed(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from fold_bench import fold

    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    parent = {"side": "parent", "pair": 0, "workload": "w", "seed": 1, "result": result}
    for records in ([parent], [parent, {**parent, "side": "change", "seed": 2}]):
        with pytest.raises(ValueError):
            fold(records, [])
