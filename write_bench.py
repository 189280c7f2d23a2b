"""Write a BENCH_<n>.json file from repeated runs of the unedited benchmark.

    python3 write_bench.py --out BENCH_1.json

Run from the root of a checkout. Each run is ``perfbench/run.py`` as a
subprocess, unedited, for SECONDS seconds at seed SEED: every workload of
BENCHMARK.json RUNS times at ``--trace 0`` (round-robin over the workloads,
so slow drift on a shared machine spreads over all of them), then once each
at ``--trace 1``. The file records the environment line, the median and quartiles
of every end-to-end metric with each run's value, the traced per-layer
metrics, the per-section wire bytes and the output digests. The script
exits non-zero, writing nothing, if any run fails or is not ``correct``, or
if a digest of a workload differs between the runs that print it (tracing
included).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent
SEED = 7
RUNS = 5
SECONDS = 4


def _run(workload: str, trace: int) -> dict:
    """One benchmark run: its env line, digests and JSON last line, or SystemExit."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    what = f"{workload} --trace {trace}"
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{what}: benchmark exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{what}: run not correct ({result['failed']} failed operations)")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    digests = dict(line.split()[1:3] for line in lines if line.startswith("digest "))
    print(f"{what}: done", file=sys.stderr)
    return {"env": env, "digests": digests, "result": result}


def _spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and every value, in run order."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    timed = {name: [] for name in names}
    for _ in range(RUNS):
        for name in names:
            timed[name].append(_run(name, 0))
    traced = {name: _run(name, 1) for name in names}

    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = {}
    for name in names:
        # A traced sweep prints its csv digest only; every digest must agree
        # across the runs that print it.
        digests = {}
        for run in timed[name] + [traced[name]]:
            for key, value in run["digests"].items():
                if digests.setdefault(key, value) != value:
                    raise SystemExit(f"{name}: digest {key} differs between runs")
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in timed[name]]
            end_to_end[metric["name"]] = {"unit": metric["unit"], "better": metric["better"],
                                          **_spread(values)}
        layers = traced[name]["result"]["metrics"]
        per_layer, wire = {}, {}
        for metric, entry in layers.items():
            is_wire = metric.startswith("wire.") and metric.endswith("_bytes")
            (wire if is_wire else per_layer)[metric] = {
                "value": entry["value"], "unit": entry["unit"], "better": better[metric],
            }
        workloads[name] = {
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
            "attempted": [r["result"]["attempted"] for r in timed[name]],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "wire_sections": wire,
            "digests": digests,
        }

    env = dict(timed[names[0]][0]["env"])
    for key in ("workload", "trace"):
        env.pop(key)
    report = {
        "command": f"python3 write_bench.py --out {args.out.name}",
        "env": env,
        "seed": SEED,
        "seconds": SECONDS,
        "runs_per_workload": {"trace_0": RUNS, "trace_1": 1},
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the trace-0 runs",
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
