"""Self-test of the benchmark on scaled-down workloads (about 15 s on 2 cores).

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SEED = 3


def _declared(key: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, tiny=True) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared("per_layer" if trace else "end_to_end")
    for name, unit in printed.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_pass_matches_untraced_and_self_time_adds_up(workload):
    (untraced, traced), = run.run_groups(workload, SEED, 0, trace=True, tiny=True)
    assert untraced["spans"] is None and traced["spans"]
    assert [op["digest"] for op in untraced["ops"]] == [op["digest"] for op in traced["ops"]]

    spans = traced["spans"]
    metrics = run.layer_metrics(spans)
    runs = {s["id"] for s in spans if s["name"] == "experiments.run"}
    child_s = sum(s["end"] - s["start"] for s in spans if s["parent"] in runs)
    total = metrics["experiments.self_s"] + child_s
    assert total == pytest.approx(metrics["experiments.run.busy_s"], rel=1e-9, abs=1e-12)
    if workload == "small-paths":
        assert not runs and metrics["schemes.simpson_error_decomposition.calls"] > 0
    else:
        assert runs and 0.0 < metrics["experiments.self_frac"] < 1.0
        assert metrics["experiments.rows"] > 0


def test_counts_repeat_between_passes():
    groups = run.run_groups("rate-sweep", SEED, 0, trace=True, tiny=True)
    groups += run.run_groups("rate-sweep", SEED, 0, trace=True, tiny=True)
    counts = [{k: run.layer_metrics(g[1]["spans"])[k] for k in run.REPEATED} for g in groups]
    assert counts[0] == counts[1] and counts[0]["pathgen.increments"] == groups[0][1]["increments"]


def test_fails_without_the_program():
    bare = run.RESULTS / "bare-checkout"  # only BENCHMARK.json and the benchmark's files
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("results"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    argv = [sys.executable, f"{run.HERE.name}/run.py", "--workload", "clt-critical"]
    argv += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
