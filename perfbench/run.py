"""Benchmark for kirchheat: one workload, timed end to end or layer by layer.

    python3 perfbench/run.py --workload scenario|study|membrane \
        [--seed 0] [--seconds 60] [--trace 0|1]

Run from the root of a checkout. The program is imported from the
checkout's own `src/`. The operations run in a child process with BLAS
pinned to one thread, so that the benchmark's own reference computations
stay out of its peak memory. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1). Outputs,
inputs and the trace go to `.perfbench_out/<workload>/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 4  # before the timed run, and as many after it
CHILD_TIMEOUT_S = 150.0
OUT_DIR = ".perfbench_out"


def child_env(root: Path, scratch: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("KIRCHHEAT_OUTDIR", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(scratch)
    return env


def _run_child(cmd, env, cwd, timeout):
    """Run a child to completion; on timeout kill it and wait for it."""
    with subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit(f"benchmark child timed out after {timeout:.0f} s: {cmd}")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"benchmark child failed with exit code {proc.returncode}: {cmd}")
    return stdout


def measure_setup(spec_path: Path, env, cwd) -> float:
    """Best of SETUP_RUNS cold set-ups, each in a fresh interpreter, timed
    from just before its start to the end of import and config loading.
    Slow phases of a shared machine last seconds, so a run measures one
    batch before its timed operations and one after them."""
    best = float("inf")
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(spec_path)]
        done = float(_run_child(cmd, env, cwd, 60.0).split()[-1])
        best = min(best, done - t0)
    return best


def prepare(root: Path, workload: str, seed: int):
    """Make the workload's inputs under a fresh output directory; return the
    spec, the file holding it, the directory of the program's outputs, the
    child environment and the worker command line."""
    base = root / OUT_DIR / workload
    shutil.rmtree(base, ignore_errors=True)
    indir, outdir, scratch = base / "inputs", base / "data", base / "tmp"
    scratch.mkdir(parents=True)
    spec = workloads.make_inputs(workload, seed, indir, outdir)
    spec_path = base / "spec.json"
    spec_path.write_text(json.dumps(spec))
    worker_cmd = [sys.executable, str(HERE / "worker.py"), "--spec", str(spec_path),
                  "--root", str(root)]
    return spec, spec_path, outdir, child_env(root, scratch), worker_cmd


def run_worker(root: Path, outdir: Path, env, worker_cmd, seconds: float, trace: int) -> dict:
    result_path = outdir.parent / "result.json"
    _run_child(worker_cmd + ["--seconds", str(seconds), "--trace", str(trace),
                             "--result", str(result_path)],
               env, root, seconds + CHILD_TIMEOUT_S)
    return json.loads(result_path.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "kirchheat" / "__init__.py").is_file():
        print(f"no kirchheat sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    spec, spec_path, outdir, env, worker_cmd = prepare(root, args.workload, args.seed)
    setup_s = measure_setup(spec_path, env, root)
    result = run_worker(root, outdir, env, worker_cmd, args.seconds, args.trace)
    setup_s = min(setup_s, measure_setup(spec_path, env, root))

    outputs = checks.load_outputs(spec, outdir, result)
    results, failed_per_op = checks.CHECKS[args.workload](spec, outputs)
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    correct = all(passed for _, passed, _ in results)

    times = result["times"]
    reps = len(times)
    q1, med, q3 = statistics.quantiles(times, n=4)
    op_s = min(times)
    print(f"op_s: best {op_s:.6f} s, median {med:.6f}, q1 {q1:.6f}, q3 {q3:.6f}, "
          f"{reps} operations; setup_s best of {2 * SETUP_RUNS}: {setup_s:.6f} s")

    if args.trace:
        layers = result["layers"]
        metrics = {}
        for name, unit in tracing.PER_LAYER:
            vals = [op[name] for op in layers]
            value = min(vals) if name == "trace.op_s" else statistics.median(vals)
            metrics[name] = {"value": value, "unit": unit}
        print(f"trace written to {outdir.parent / 'trace.jsonl'}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": op_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    print(json.dumps({
        "correct": correct,
        "attempted": reps * spec["items_per_op"],
        "failed": reps * failed_per_op,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
