"""Smoke test of the benchmark itself (not tier-1; run it as
``PYTHONPATH=src python -m pytest benchmarks/e2e -q``).

Runs the ``--smoke`` mode of every workload through the command line and
checks the contract: exit code 0, a last line of exactly the four result
keys, every declared metric present with its declared unit, nothing
failed, and the span self times of each traced statement adding up to
the statement's wall time.
"""

import json

import pytest

from benchmarks.e2e.cli import declaration, main

DECLARED = declaration()


@pytest.mark.parametrize("workload",
                         [w["name"] for w in DECLARED["workloads"]])
def test_smoke(workload, tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main(["--workload", workload, "--smoke", "--out", str(out)])
    last_line = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last_line)

    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 15

    declared = {m["name"]: m["unit"]
                for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == declared
    for metric in DECLARED["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0

    (record,) = json.loads(out.read_text())
    assert record["layer_sum_error"] <= 0.01
