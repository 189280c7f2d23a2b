"""dsc-codec benchmark: one workload per invocation, result as a JSON last line.

    python3 perfbench/run.py --workload link-dense --seed 1 --seconds 4 --trace 0

Run from the root of a checkout; the program is imported from ``src/``. With
``--trace 0`` the run reports the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it repeats the workload once untraced
and once with spans around each layer, and reports the per-layer metrics.
Human-readable lines (environment, every metric with unit and sample count,
output digests, failures) come first. The exit code is 0 only if every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS thread, fixed before numpy loads, so timings do not depend on how
# many cores BLAS helper threads find free; the benchmark is a single
# closed-loop client.
BLAS_THREADS = 1


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = [w["name"] for w in _spec()["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a non-negative 64-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def _declared_metrics(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in _spec()[kind]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "dsc_codec" / "__init__.py").is_file():
        print(f"error: no dsc_codec package under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import dsc_codec
    import workloads

    if not Path(dsc_codec.__file__).resolve().is_relative_to(SRC):
        print(f"error: dsc_codec imported from {dsc_codec.__file__}, not {SRC}", file=sys.stderr)
        return 2

    checks = workloads.Checks()
    if args.trace:
        outcome = workloads.trace(args.workload, args.seed, checks)
        declared = _declared_metrics("per_layer")
    else:
        outcome = workloads.measure(args.workload, args.seed, args.seconds, checks)
        declared = _declared_metrics("end_to_end")

    print("env " + json.dumps(_environment(args), sort_keys=True))
    for name, value, unit, better, note in outcome.report:
        print(f"metric {name} = {value:.6g} {unit} ({better} is better; {note})")
    if not outcome.report:
        for name, value in sorted(outcome.metrics.items()):
            print(f"metric {name} = {value:.6g} {declared.get(name, '?')}")
    for name, digest in sorted(outcome.digests.items()):
        print(f"digest {name} {digest}")
    failed = sum(outcome.failures.values())
    print(f"failures {failed} of {outcome.attempted} attempted {dict(outcome.failures)}")
    for name, example in sorted(outcome.failure_examples.items()):
        print(f"failure {name}: {example}", file=sys.stderr)
    missing = sorted(set(declared) - set(outcome.metrics))
    checks.require(not missing, f"BENCHMARK.json metrics not measured: {missing}")
    for what in checks.failed:
        print(f"check failed: {what}", file=sys.stderr)
    print(f"checks {checks.passed} passed, {len(checks.failed)} failed")

    result = {
        "correct": checks.ok,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in declared.items()
            if name in outcome.metrics
        },
    }
    print(json.dumps(result))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
