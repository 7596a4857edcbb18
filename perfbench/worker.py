"""Runs one workload's operation repeatedly in this process and times it.

Started by run.py with PYTHONPATH set to the checkout's `src/` and BLAS
pinned to one thread. It runs one untimed warm-up operation, then timed operations, with garbage collected
before each, as long as the next one is expected to end within --seconds
of the warm-up's start (at least MIN_REPS of them). It writes the times, the
digests of every operation's outputs, the peak resident memory and, with
--trace 1, the per-layer metrics of each operation to --result.
"""

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

MIN_REPS = 3
TRACE_KEEP_OPS = 3  # operations whose spans are written out; all feed the metrics
PR_SET_PDEATHSIG = 1


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _operation(spec, main, package):
    """The workload's operation as a callable returning what it printed and
    returned, plus the Gram error for the membrane."""
    calls = spec["calls"]
    gram = spec.get("gram")

    def op():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [main(list(argv)) for argv in calls]
        gram_err = None
        if gram is not None:
            basis = package.spectrum.build_basis(
                package.spectrum.Domain.rectangle(*gram["lengths"]), gram["n_modes"])
            g = package.spectrum.gram_matrix(basis)
            g[range(basis.n_modes), range(basis.n_modes)] -= 1.0
            gram_err = float(abs(g).max())
        return codes, out.getvalue(), gram_err

    return op


def run(spec, seconds: float, trace: bool, result_path: Path, root: Path) -> None:
    import kirchheat
    import kirchheat.cli

    src = (root / "src").resolve()
    if src not in Path(kirchheat.__file__).resolve().parents:
        raise SystemExit(f"kirchheat imported from {kirchheat.__file__}, not from {src}")

    main = kirchheat.cli.main
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(kirchheat)
        main = tracer.span(main, "cli.main")
    op = _operation(spec, main, kirchheat)
    outdir = Path(spec["outdir"])

    start = time.perf_counter()  # the run's time budget includes the warm-up
    op()  # warm-up, untimed
    if tracer is not None:
        tracer.take()

    times, reps, layers, traced_ops = [], [], [], []
    while True:
        gc.collect()
        t0 = time.perf_counter()
        codes, printed, gram_err = op()
        t1 = time.perf_counter()
        times.append(t1 - t0)
        reps.append({
            "codes": codes,
            "stdout": hashlib.sha256(printed.encode()).hexdigest(),
            "outputs": {name: _digest(outdir / name) for name in spec["outputs"]},
            "gram_err": gram_err,
        })
        if tracer is not None:
            spans, counts = tracer.take()
            layers.append(tracing.op_metrics(spans, counts, t1 - t0))
            if len(traced_ops) < TRACE_KEEP_OPS:
                traced_ops.append(spans)
        elapsed = time.perf_counter() - start
        if len(times) >= MIN_REPS and elapsed + sorted(times)[len(times) // 2] > seconds:
            break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        tracing.dump_spans(result_path.with_name("trace.jsonl"), traced_ops)
    result_path.write_text(json.dumps({
        "times": times,
        "peak_rss_kb": peak_kb,
        "reps": reps,
        "last_stdout": printed,
        "layers": layers,
    }))


def _die_with_parent() -> None:
    """Ask Linux to send SIGTERM when run.py exits, so that no worker
    outlives a benchmark run that was killed."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    except (OSError, AttributeError):
        pass


def main() -> None:
    _die_with_parent()
    ap = argparse.ArgumentParser()
    ap.add_argument("--spec", required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    spec = json.loads(Path(args.spec).read_text())
    run(spec, args.seconds, bool(args.trace), Path(args.result), Path(args.root))


if __name__ == "__main__":
    sys.exit(main())
