"""Regenerates perfbench/reference.json, the reference figures in README.md.

    python3 perfbench/reference.py [--pairs 3] [--seconds 60]

Run from the root of a checkout. For each workload it makes `--pairs`
pairs of runs, one untraced and one traced, on seeds 0, 1, ..., alternating
which of the pair goes first. It records the medians of the end-to-end
metrics, of the per-layer metrics, and the tracing overhead: the traced
op_s minus the untraced op_s of each pair, as a median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                    choices=workloads.WORKLOADS)
    args = ap.parse_args()

    import numpy

    ref = {
        "machine": {"cpus": os.cpu_count(), "cpu": _cpu_model(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "pairs": args.pairs, "seconds": args.seconds, "workloads": {},
    }
    for workload in args.workloads:
        plain, traced = [], []
        for seed in range(args.pairs):
            order = (0, 1) if seed % 2 == 0 else (1, 0)
            got = {trace: _run(workload, seed, args.seconds, trace) for trace in order}
            for res in got.values():
                if not res["correct"]:
                    raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
            plain.append(got[0])
            traced.append(got[1])

        def med(runs, name):
            return statistics.median(r["metrics"][name]["value"] for r in runs)

        overhead = statistics.median(
            t["metrics"]["trace.op_s"]["value"] - p["metrics"]["op_s"]["value"]
            for p, t in zip(plain, traced))
        ref["workloads"][workload] = {
            "failed_share": plain[0]["failed"] / plain[0]["attempted"],
            "end_to_end": {name: med(plain, name) for name in plain[0]["metrics"]},
            "per_layer": {name: med(traced, name) for name in traced[0]["metrics"]},
            "trace_overhead_s": overhead,
            "trace_overhead_share": overhead / med(plain, "op_s"),
        }
        print(workload, json.dumps(ref["workloads"][workload]["end_to_end"]), flush=True)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
