"""Shows that every correctness check of the benchmark can fail.

    python3 perfbench/selftest.py

Run from the root of a checkout. For each workload it runs a few
operations at seed 0, requires every check to pass on the real outputs
(and, on `study`, exactly the two large-amplitude rows to count as failed),
then corrupts one output at a time and requires the check aimed at it to
fail. Exits 1 if any of that does not hold.
"""

from __future__ import annotations

import copy
import csv
import io
import sys
from pathlib import Path

import run  # perfbench/run.py; puts perfbench on sys.path
import checks


def _edit_trajectory(text: str, column: str, row: int, fn) -> str:
    """Replace one cell of a trajectory CSV by fn(old value, E of the row before)."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    col, e_col = header.index(column), header.index("E")
    prev_e = float(rows[row - 1][e_col]) if row else None
    rows[row][col] = repr(fn(float(rows[row][col]), prev_e))
    return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"


def _edit_table(text: str, match, column: str, fn) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        if match(row):
            row[column] = fn(row[column])
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _above_previous(value, prev_e):
    return prev_e * (1.0 + 1e-9)


def _scenario_cases(out):
    name = "scenario_trajectory.csv"
    text = out["files"][name]
    mid = (len(text.splitlines()) - 1) // 2
    return {
        "reference_energy": ("files", name, _edit_trajectory(text, "E", mid, lambda v, prev: v * (1 + 1e-3))),
        "energy_monotone": ("files", name, _edit_trajectory(text, "E", mid, _above_previous)),
        "energy_balance": ("files", name, _edit_trajectory(text, "D", mid, lambda v, prev: 1.5 * v)),
        "repeatable": ("digest", None, None),
    }


def _membrane_cases(out):
    name = "membrane_trajectory.csv"
    text = out["files"][name]
    mid = (len(text.splitlines()) - 1) // 2
    return {
        "gram_identity": ("gram", None, 1e-6),
        "initial_energy": ("files", name, _edit_trajectory(text, "E", 0, lambda v, prev: v * (1 + 1e-8))),
        "energy_monotone": ("files", name, _edit_trajectory(text, "E", mid, _above_previous)),
        "energy_identity": ("files", name, _edit_trajectory(text, "D", mid, lambda v, prev: 1.1 * v)),
        "repeatable": ("digest", None, None),
    }


def _study_cases(out):
    sweep = out["files"]["study_sweep.csv"]
    linear_mid = sorted(r["alpha"] for r in csv.DictReader(io.StringIO(sweep))
                        if float(r["m1"]) == 0.0)[1]
    stdout = out["stdout"].replace("10/10 checks passed", "9/10 checks passed")
    stdout = stdout.replace("PASS decay_fit", "FAIL decay_fit")
    return {
        "verify_suite": ("stdout", None, stdout),
        "nominal_rows": ("files", "study_sweep.csv",
                         _edit_table(sweep, lambda r: True, "energy_monotone", lambda v: "false")),
        "linear_decay_rate": ("files", "study_sweep.csv",
                              _edit_table(sweep, lambda r: float(r["m1"]) == 0.0
                                          and r["alpha"] == linear_mid,
                                          "omega", lambda v: repr(1.02 * float(v)))),
        "repeatable": ("codes", None, None),
    }


CASES = {"scenario": _scenario_cases, "study": _study_cases, "membrane": _membrane_cases}


def _corrupt(out, kind, key, value):
    bad = copy.deepcopy(out)
    if kind == "files":
        bad["files"][key] = value
    elif kind == "stdout":
        bad["stdout"] = value
    elif kind == "gram":
        bad["reps"][0]["gram_err"] = value
    elif kind == "digest":
        name = next(iter(bad["reps"][-1]["outputs"]))
        bad["reps"][-1]["outputs"][name] = "0" * 64
    elif kind == "codes":
        bad["reps"][-1]["codes"][-1] = 1
    return bad


def main() -> int:
    root = Path.cwd().resolve()
    problems = []
    for workload in CASES:
        spec, _, outdir, env, worker_cmd = run.prepare(root, workload, 0)
        result = run.run_worker(root, outdir, env, worker_cmd, 0.0, 0)
        out = checks.load_outputs(spec, outdir, result)
        check = checks.CHECKS[workload]
        results, failed = check(spec, out)
        for name, passed, detail in results:
            if not passed:
                problems.append(f"{workload}: {name} fails on real outputs: {detail}")
        expected_failed = 2 if workload == "study" else 0
        if failed != expected_failed:
            problems.append(f"{workload}: {failed} failed items per operation, "
                            f"expected {expected_failed}")
        for target, (kind, key, value) in CASES[workload](out).items():
            verdict = {name: passed for name, passed, _ in check(spec, _corrupt(out, kind, key, value))[0]}
            caught = target in verdict and not verdict[target]
            print(f"{workload}: corrupted for {target}: {'caught' if caught else 'MISSED'}")
            if not caught:
                problems.append(f"{workload}: corruption aimed at {target} was not caught")
        untested = {name for name, _, _ in results} - set(CASES[workload](out))
        if untested:
            problems.append(f"{workload}: no corruption for {sorted(untested)}")
    for line in problems:
        print("PROBLEM", line)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
