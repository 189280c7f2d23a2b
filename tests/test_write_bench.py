"""write_bench.py, the script that writes BENCH_<n>.json, on canned benchmark runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "write_bench.py"
SPEC = json.loads((SCRIPT.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Each workload's links_per_s over its RUNS trace-0 runs, in run order.
LINKS_PER_S = [10.0, 40.0, 20.0, 50.0, 30.0]


@pytest.fixture
def write_bench():
    spec = importlib.util.spec_from_file_location("write_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned_result(value: float, traced: bool, correct: bool = True) -> dict:
    metrics = {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    metrics["links_per_s"]["value"] = value
    if traced:
        metrics["codec.si_context.calls"] = {"value": 4, "unit": "count"}
        metrics["wire.header_bytes"] = {"value": 22, "unit": "B"}
    return {"metrics": metrics, "attempted": 12, "correct": correct, "failed": 0}


def _canned_runs(digest_of=lambda workload, call: "d0"):
    calls = {name: 0 for name in WORKLOADS}

    def run(workload, trace):
        call = calls[workload]
        calls[workload] += 1
        value = LINKS_PER_S[call] if trace == 0 else 99.0
        return {
            "env": {"python": "3", "workload": workload, "trace": trace},
            "digests": {"messages": digest_of(workload, call)},
            "result": _canned_result(value, traced=trace == 1),
        }

    return run


def test_writes_the_median_quartiles_and_runs_of_each_metric(write_bench, monkeypatch, tmp_path):
    assert write_bench.RUNS == len(LINKS_PER_S)
    monkeypatch.setattr(write_bench, "_run", _canned_runs())
    out = tmp_path / "BENCH_9.json"
    assert write_bench.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["command"] == "python3 write_bench.py --out BENCH_9.json"
    assert report["env"] == {"python": "3"}
    assert report["seed"] == write_bench.SEED
    assert report["runs_per_workload"] == {"trace_0": write_bench.RUNS, "trace_1": 1}
    assert sorted(report["workloads"]) == sorted(WORKLOADS)
    for name in WORKLOADS:
        entry = report["workloads"][name]
        links = entry["end_to_end"]["links_per_s"]
        assert links["runs"] == LINKS_PER_S
        assert (links["q1"], links["median"], links["q3"]) == (20.0, 30.0, 40.0)
        assert (links["unit"], links["better"]) == ("1/s", "higher")
        assert entry["end_to_end"]["peak_rss_mb"]["median"] == 1.5
        assert sorted(entry["end_to_end"]) == sorted(m["name"] for m in SPEC["end_to_end"])
        assert entry["attempted"] == [12] * write_bench.RUNS
        assert entry["digests"] == {"messages": "d0"}
        assert entry["wire_sections"] == {
            "wire.header_bytes": {"value": 22, "unit": "B", "better": "lower"}
        }
        assert entry["per_layer"]["codec.si_context.calls"]["value"] == 4
        # The traced run's timing is a per-layer value, never an end-to-end run.
        assert entry["per_layer"]["links_per_s"]["value"] == 99.0


@pytest.mark.parametrize("differing_call", [2, 5], ids=["timed", "traced"])
def test_a_digest_that_differs_between_runs_writes_nothing(
    write_bench, monkeypatch, tmp_path, differing_call
):
    # Calls 0..4 are the trace-0 runs, call 5 the traced one.
    def digest_of(workload, call):
        return "d1" if workload == WORKLOADS[-1] and call == differing_call else "d0"

    monkeypatch.setattr(write_bench, "_run", _canned_runs(digest_of))
    out = tmp_path / "BENCH_9.json"
    with pytest.raises(SystemExit, match=f"^{WORKLOADS[-1]}: digest messages differs") as exc:
        write_bench.main(["--out", str(out)])
    assert exc.value.code not in (0, None)
    assert not out.exists()


def test_a_run_that_is_not_correct_writes_nothing(write_bench, monkeypatch, tmp_path):
    # Stub the subprocess, so _run's own parse and check of the output run.
    def benchmark(cmd, **kwargs):
        workload = cmd[cmd.index("--workload") + 1]
        correct = workload != WORKLOADS[1]
        lines = [
            "env " + json.dumps({"workload": workload, "trace": 0}),
            "digest messages d0",
            json.dumps(_canned_result(1.0, traced=False, correct=correct)),
        ]
        return subprocess.CompletedProcess(cmd, 0, "\n".join(lines) + "\n", "")

    monkeypatch.setattr(write_bench.subprocess, "run", benchmark)
    out = tmp_path / "BENCH_9.json"
    with pytest.raises(SystemExit, match=f"^{WORKLOADS[1]} --trace 0: run not correct") as exc:
        write_bench.main(["--out", str(out)])
    assert exc.value.code not in (0, None)
    assert not out.exists()
