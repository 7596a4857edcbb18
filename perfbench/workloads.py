"""Workload inputs, made from a seed, and the operation each workload times.

Every workload writes plain kirchheat config files and names the
`kirchheat` command lines that make up one operation. The program sees
only those files; the seed never reaches it. The amount of work in one
operation (mode counts, step counts, record counts, grid shape) is fixed,
so that runs with different seeds time the same work on different data.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("scenario", "study", "membrane")

# scenario: small N, dense records, so per-step overhead, the energy record
# and the CSV export dominate
SCENARIO_N = 16
SCENARIO_DT = 1e-3
SCENARIO_T_END = 1.0
SCENARIO_RECORD_EVERY = 2
SCENARIO_S0 = 0.16      # |grad y0|^2, fixed so the fixed-point work per step is the same on every seed
SCENARIO_THERMAL = 0.01  # |theta0|^2

# study: the base config, the 3x3 grid and the sigma list. The base has
# strong coupling (alpha = beta = 2), so mode 1's slowest eigenvalue is
# real, and its initial data lies along that eigenvector: E then decays
# without oscillation, and verify's decay fit and dissipation check pass on
# a short horizon at a coarse step. The large sigmas scale y0 to amplitude
# 20 and 50, where implicit midpoint lets the energy rise; neither they nor
# the base depend on the seed.
STUDY_PARAMS = {"m0": 1.0, "m1": 0.5, "alpha": 2.0, "beta": 2.0}
STUDY_Y0 = 0.4
STUDY_N = 16
STUDY_DT = 0.01
STUDY_T_END = 5.0
STUDY_M1 = (0.0, 0.5, 1.0)
STUDY_ALPHA = (0.5, 1.0, 2.0)
STUDY_LARGE_SIGMAS = (50.0, 125.0)

# membrane: a rectangle with incommensurate sides (no tied eigenvalues),
# a few hundred modes, a short horizon and sparse records
MEMBRANE_LENGTHS = (3.3, 2.9)
MEMBRANE_N = 192
MEMBRANE_DT = 1e-3
MEMBRANE_T_END = 0.2
MEMBRANE_RECORD_EVERY = 10


def _jitter(rng, value: float, rel: float) -> float:
    return float(value * (1.0 + rel * rng.uniform(-1.0, 1.0)))


def _write(path: Path, tree: dict) -> str:
    path.write_text(json.dumps(tree, indent=2, sort_keys=True) + "\n")
    return str(path)


def _scenario(rng, indir: Path, outdir: str) -> dict:
    k = np.arange(1, SCENARIO_N + 1, dtype=float)
    lam = k * k  # interval of length pi
    y0 = rng.standard_normal(SCENARIO_N) / k ** 3
    y0 *= math.sqrt(SCENARIO_S0 / float(lam @ (y0 * y0)))
    th = rng.standard_normal(SCENARIO_N) / k ** 2
    th *= math.sqrt(SCENARIO_THERMAL / float(th @ th))
    tree = {
        "spec_version": 1,
        "domain": {"kind": "interval", "length": math.pi},
        "n_modes": SCENARIO_N,
        "params": {"m0": _jitter(rng, 1.0, 0.1), "m1": _jitter(rng, 0.5, 0.2),
                   "alpha": _jitter(rng, 1.0, 0.1), "beta": _jitter(rng, 1.0, 0.1)},
        "initial": {
            "y0": {"kind": "coefficients", "coefficients": y0.tolist()},
            "y1": {"kind": "bump", "amplitude": _jitter(rng, 0.2, 0.25)},
            "theta0": {"kind": "coefficients", "coefficients": th.tolist()},
        },
        "stepper": {"method": "implicit_midpoint", "dt": SCENARIO_DT},
        "t_end": SCENARIO_T_END,
        "record_every": SCENARIO_RECORD_EVERY,
        "output": {"dir": "out", "prefix": "scenario"},
    }
    config = _write(indir / "scenario.json", tree)
    return {
        "configs": [config],
        "calls": [["simulate", config, "--outdir", outdir]],
        "outputs": ["scenario_trajectory.csv", "scenario_diagnostics.json"],
        "items_per_op": 1,
        "trees": {"scenario": tree},
    }


def slow_mode(m0: float, alpha: float, beta: float, lam: float) -> np.ndarray:
    """(h, v, c) along the eigenvector of one linear mode's slowest
    eigenvalue, which must be real, scaled to h = STUDY_Y0."""
    a = np.array([[0.0, 1.0, 0.0], [-m0 * lam, 0.0, alpha * lam], [0.0, -beta * lam, -lam]])
    mu, vecs = np.linalg.eig(a)
    slow = int(np.argmax(mu.real))
    if mu[slow].imag != 0.0:
        raise ValueError(f"slowest eigenvalue {mu[slow]} is not real")
    vec = vecs[:, slow].real
    return STUDY_Y0 * vec / vec[0]


def study_base() -> dict:
    h, v, c = slow_mode(STUDY_PARAMS["m0"], STUDY_PARAMS["alpha"], STUDY_PARAMS["beta"], 1.0)
    return {
        "spec_version": 1,
        "domain": {"kind": "interval", "length": math.pi},
        "n_modes": STUDY_N,
        "params": dict(STUDY_PARAMS),
        "initial": {
            "y0": {"kind": "coefficients", "coefficients": [float(h)]},
            "y1": {"kind": "coefficients", "coefficients": [float(v)]},
            "theta0": {"kind": "coefficients", "coefficients": [float(c)]},
        },
        "stepper": {"method": "implicit_midpoint", "dt": STUDY_DT},
        "t_end": STUDY_T_END,
        "record_every": 1,
        "output": {"dir": "out", "prefix": "study"},
    }


def _study(rng, indir: Path, outdir: str) -> dict:
    base = study_base()
    config = _write(indir / "study.json", base)
    grid = {
        "m1": [STUDY_M1[0]] + [_jitter(rng, v, 0.1) for v in STUDY_M1[1:]],
        "alpha": [_jitter(rng, v, 0.1) for v in STUDY_ALPHA],
        "sigmas": [_jitter(rng, 0.3, 0.2), *STUDY_LARGE_SIGMAS],
    }
    grid_path = _write(indir / "grid.json", grid)
    n_rows = len(grid["m1"]) * len(grid["alpha"]) + len(grid["sigmas"])
    return {
        "configs": [config],
        "grids": [grid_path],
        "calls": [["sweep", config, grid_path, "--outdir", outdir], ["verify", config]],
        "outputs": ["study_sweep.csv", "study_scale.csv"],
        "items_per_op": n_rows + 1,  # every sweep row, plus the verify suite
        "trees": {"base": base, "grid": grid},
    }


def _membrane(rng, indir: Path, outdir: str) -> dict:
    tree = {
        "spec_version": 1,
        "domain": {"kind": "rectangle", "lengths": list(MEMBRANE_LENGTHS)},
        "n_modes": MEMBRANE_N,
        "params": {"m0": _jitter(rng, 1.0, 0.1), "m1": _jitter(rng, 0.5, 0.2),
                   "alpha": _jitter(rng, 1.0, 0.1), "beta": _jitter(rng, 1.0, 0.1)},
        "initial": {
            "y0": {"kind": "bump", "amplitude": _jitter(rng, 0.3, 0.15)},
            "y1": {"kind": "zero"},
            "theta0": {"kind": "bump", "amplitude": _jitter(rng, 0.1, 0.2)},
        },
        "stepper": {"method": "implicit_midpoint", "dt": MEMBRANE_DT},
        "t_end": MEMBRANE_T_END,
        "record_every": MEMBRANE_RECORD_EVERY,
        "output": {"dir": "out", "prefix": "membrane"},
    }
    config = _write(indir / "membrane.json", tree)
    return {
        "configs": [config],
        "calls": [["simulate", config, "--outdir", outdir]],
        "gram": {"lengths": list(MEMBRANE_LENGTHS), "n_modes": MEMBRANE_N},
        "outputs": ["membrane_trajectory.csv", "membrane_diagnostics.json"],
        "items_per_op": 1,
        "trees": {"membrane": tree},
    }


def make_inputs(workload: str, seed: int, indir: Path, outdir: Path) -> dict:
    """Write the workload's input files under `indir` and return its spec:
    the config paths, the command lines of one operation, the output files
    it writes under `outdir`, and the number of checked items per operation."""
    indir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make = {"scenario": _scenario, "study": _study, "membrane": _membrane}[workload]
    spec = make(rng, indir, str(outdir))
    spec.setdefault("grids", [])
    spec["outdir"] = str(outdir)
    spec["workload"] = workload
    spec["seed"] = seed
    return spec
