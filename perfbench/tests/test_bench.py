"""Tests of the benchmark itself (not of meroconn).

    python3 -m pytest -q perfbench/tests

Each test runs the benchmark's own scripts as subprocesses on a handful
of items, so the whole file takes about a minute.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402


def _bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _metric_lines(lines):
    return {ln.split()[0]: ln.split()[2] for ln in lines if ln and not ln.startswith(("#", "{"))}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke_prints_every_metric_with_unit(workload, trace):
    lines = _bench("--workload", workload, "--seed", "3", "--seconds", "5",
                   "--trace", str(trace), "--items", "2")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = dict(run.PER_LAYER if trace else run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert _metric_lines(lines) == want
    assert any(ln.startswith("# output_sha256 ") for ln in lines)


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in HERE.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def _worker(tmp_path, workload, inputs, mode, items):
    (tmp_path / "inputs.json").write_text(json.dumps(inputs))
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--inputs", str(tmp_path / "inputs.json"), "--workdir", str(tmp_path),
         "--mode", mode, "--items", str(items), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_corrupted_expected_value_counts_as_failed(tmp_path):
    inputs = gen.generate("stokes_betti", 5)
    stokes = [k for k, it in enumerate(inputs["items"]) if it["kind"] == "stokes"]
    inputs["items"] = [inputs["items"][k] for k in stokes[:3]]
    inputs["items"][1]["expect"]["dim"] += 1
    res = _worker(tmp_path, "stokes_betti", inputs, "run", 3)
    assert [f[0] for f in res["failures"]] == [1]
    assert res["attempted"] == 4  # the warm-up item and three timed items


def test_corrupted_dictionary_expectation_counts_as_failed(tmp_path):
    inputs = gen.generate("dictionary", 5)
    inputs["items"] = inputs["items"][:2]
    alpha = inputs["items"][0]["expect"]["alpha"]
    alpha[0] = str(Fraction(alpha[0]) + 1)
    res = _worker(tmp_path, "dictionary", inputs, "run", 2)
    assert [f[0] for f in res["failures"]] == [0]


@pytest.mark.parametrize("workload", ["canonical", "stokes_betti"])
def test_traced_self_times_fit_in_item_wall_time(tmp_path, workload):
    inputs = gen.generate(workload, 7)
    res = _worker(tmp_path, workload, inputs, "trace", 4)
    per_item = res["trace"]["per_item"]
    assert len(per_item) == 4
    for wall, inner in per_item.values():
        assert 0 < inner <= wall
    spans = (tmp_path / "spans.csv").read_text().splitlines()
    assert spans[0] == "name,start,end,parent,item,scalar_s" and len(spans) > 4
