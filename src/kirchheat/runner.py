"""Scenario configs, experiment orchestration, and file export.

Everything here is deterministic: a config plus a seed fixes every byte of
the outputs. Scenario configs are JSON trees with a top-level spec_version;
see configs/default.json for the schema by example.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .diagnostics import (
    energy_balance_residual,
    first_apriori_check,
    fit_exponential_decay,
    higher_energy_bound_horizon,
)
from .model import ModalState, ModelParams
from .spectrum import Domain, EigenBasis, build_basis, project_initial_data
from .timeloop import (StepperConfig, Trajectory, check_rk4_dt, default_dt, rk4_dt_limit,
                       simulate)

SPEC_VERSION = 1
# most record values (rows x n_modes) a scenario may preallocate; its three
# state arrays then hold 240 MB
MAX_RECORD_VALUES = 10**7
# most time steps a scenario may take (t_end / dt); at about 20 us per
# implicit-midpoint step (N = 16) that is over half an hour
MAX_STEPS = 10**8
OUTDIR_ENV = "KIRCHHEAT_OUTDIR"
CSV_COLUMNS = ("t", "E", "E_star", "D", "kinetic", "potential_linear",
               "potential_kirchhoff", "thermal", "S")

PROFILE_KINDS = ("zero", "sine_mode", "bump", "coefficients")


class ConfigError(ValueError):
    """Invalid scenario config; `path` points at the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class InitialProfile:
    """One of the tiny built-in initial profiles.

    sine_mode: `amplitude` times the k-th (1-based, in eigenvalue order)
    normalized eigenfunction. bump: polynomial bump vanishing on the
    boundary with peak value `amplitude`. coefficients: explicit modal
    coefficient list, zero-padded to n_modes.
    """

    kind: str = "zero"
    mode: int = 1
    amplitude: float = 1.0
    coefficients: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}; expected one of {PROFILE_KINDS}")
        if self.kind == "sine_mode" and self.mode < 1:
            raise ValueError(f"sine_mode index must be >= 1, got {self.mode}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        if self.kind == "coefficients" and not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError("coefficients must all be finite")


@dataclass(frozen=True)
class ScenarioConfig:
    domain: Domain
    n_modes: int
    params: ModelParams
    y0: InitialProfile
    y1: InitialProfile
    theta0: InitialProfile
    t_end: float
    method: str = "implicit_midpoint"
    dt: float | None = None  # None: 0.1 / sqrt(phi(S0) lambda_max) at build time
    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    record_every: int = 1
    seed: int = 0
    output_dir: str = "."
    output_prefix: str = "run"
    spec_version: int = SPEC_VERSION

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if not (self.t_end > 0.0):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        for name, prof in (("y0", self.y0), ("y1", self.y1), ("theta0", self.theta0)):
            if prof.kind == "sine_mode" and prof.mode > self.n_modes:
                raise ValueError(f"{name} sine_mode {prof.mode} exceeds n_modes={self.n_modes}")
            if prof.kind == "coefficients" and len(prof.coefficients) > self.n_modes:
                raise ValueError(
                    f"{name}: {len(prof.coefficients)} coefficients exceed n_modes={self.n_modes}")


def _bump_callable(domain: Domain, amplitude: float):
    # 16 u^2 (1-u)^2 peaks at 1 on (0,1); product over dimensions; takes
    # one coordinate array per dimension (the projection callable contract)
    lengths = domain.lengths

    def f(*coords):
        if len(coords) != len(lengths):
            raise ValueError(f"expected {len(lengths)} coordinate arrays, got {len(coords)}")
        out = np.full_like(np.asarray(coords[0], dtype=float), amplitude)
        for arr, length in zip(coords, lengths):
            u = np.asarray(arr, dtype=float) / length
            out = out * 16.0 * u * u * (1.0 - u) ** 2
        return out

    return f


def profile_coefficients(basis: EigenBasis, profile: InitialProfile) -> np.ndarray:
    coeffs = np.zeros(basis.n_modes)
    if profile.kind == "zero":
        return coeffs
    if profile.kind == "sine_mode":
        if profile.mode > basis.n_modes:
            raise ValueError(f"sine_mode {profile.mode} exceeds basis size {basis.n_modes}")
        coeffs[profile.mode - 1] = profile.amplitude
        return coeffs
    if profile.kind == "coefficients":
        vals = np.asarray(profile.coefficients, dtype=float)
        coeffs[: vals.size] = vals
        return coeffs
    return project_initial_data(basis, _bump_callable(basis.domain, profile.amplitude))


def build_scenario(config: ScenarioConfig):
    """Materialize (basis, initial state, stepper) from a config."""
    try:
        basis = build_basis(config.domain, config.n_modes)
    except ValueError as exc:  # lengths so far from 1 that no basis can be built
        raise ConfigError("domain", str(exc)) from exc
    state0 = ModalState(
        t=0.0,
        h=profile_coefficients(basis, config.y0),
        v=profile_coefficients(basis, config.y1),
        c=profile_coefficients(basis, config.theta0),
    )
    dt = config.dt if config.dt is not None else default_dt(config.params, basis, state0)
    try:
        stepper = StepperConfig(method=config.method, dt=dt, newton_tol=config.newton_tol,
                                newton_max_iter=config.newton_max_iter)
        if stepper.method == "rk4":
            check_rk4_dt(config.params, basis, state0, dt)
    except ValueError as exc:
        raise ConfigError("stepper", str(exc)) from exc
    rows = 2.0 + config.t_end / dt / config.record_every  # a float: t_end / dt may be huge
    if rows * config.n_modes > MAX_RECORD_VALUES:
        raise ConfigError("t_end", f"{rows:.3g} records of {config.n_modes} modes at dt = {dt:g} "
                                   f"exceed the limit of {MAX_RECORD_VALUES:.0e} values")
    if config.t_end / dt > MAX_STEPS:
        raise ConfigError("t_end", f"{config.t_end / dt:.3g} steps at dt = {dt:g} exceed "
                                   f"the limit of {MAX_STEPS:.0e} steps")
    return basis, state0, stepper


# ---------------------------------------------------------------------------
# config (de)serialization

def _expect(tree: dict, key: str, path: str, kinds, required: bool = True, default=None):
    if key not in tree:
        if required:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
        return default
    val = tree[key]
    field = f"{path}.{key}" if path else key
    # bool is an int subclass, but no field takes a JSON true/false
    if kinds is not None and (not isinstance(val, kinds) or isinstance(val, bool)):
        names = kinds.__name__ if isinstance(kinds, type) else "/".join(k.__name__ for k in kinds)
        raise ConfigError(field, f"expected {names}, got {type(val).__name__}")
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(field, f"must be finite, got {val}")
    return val


def _parse_profile(tree, path: str) -> InitialProfile:
    if tree is None:
        return InitialProfile(kind="zero")
    if not isinstance(tree, dict):
        raise ConfigError(path, f"expected object, got {type(tree).__name__}")
    kind = _expect(tree, "kind", path, str)
    try:
        if kind == "coefficients":
            coeffs = _expect(tree, "coefficients", path, list)
            return InitialProfile(kind=kind, coefficients=tuple(float(c) for c in coeffs))
        return InitialProfile(
            kind=kind,
            mode=int(_expect(tree, "mode", path, (int,), required=False, default=1)),
            amplitude=float(_expect(tree, "amplitude", path, (int, float),
                                    required=False, default=1.0)),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


def config_from_dict(tree: dict, source: str = "<config>") -> ScenarioConfig:
    if not isinstance(tree, dict):
        raise ConfigError("", f"top level must be an object, got {type(tree).__name__}")
    version = _expect(tree, "spec_version", "", (int,))
    if version != SPEC_VERSION:
        raise ConfigError("spec_version", f"unsupported version {version}, expected {SPEC_VERSION}")

    dom_tree = _expect(tree, "domain", "", dict)
    kind = _expect(dom_tree, "kind", "domain", str)
    try:
        if kind == "interval":
            if "length" in dom_tree:
                domain = Domain.interval(float(dom_tree["length"]))
            else:
                lengths = _expect(dom_tree, "lengths", "domain", list)
                domain = Domain.interval(float(lengths[0]))
        elif kind == "rectangle":
            lengths = _expect(dom_tree, "lengths", "domain", list)
            if len(lengths) != 2:
                raise ConfigError("domain.lengths", f"rectangle needs 2 lengths, got {len(lengths)}")
            domain = Domain.rectangle(float(lengths[0]), float(lengths[1]))
        else:
            raise ConfigError("domain.kind", f"unknown domain kind {kind!r}")
    except ConfigError:
        raise
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError("domain", str(exc)) from exc

    par_tree = _expect(tree, "params", "", dict)
    try:
        params = ModelParams(
            m0=float(_expect(par_tree, "m0", "params", (int, float))),
            m1=float(_expect(par_tree, "m1", "params", (int, float))),
            alpha=float(_expect(par_tree, "alpha", "params", (int, float))),
            beta=float(_expect(par_tree, "beta", "params", (int, float))),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("params", str(exc)) from exc

    init_tree = _expect(tree, "initial", "", dict, required=False, default={})
    y0 = _parse_profile(init_tree.get("y0"), "initial.y0")
    y1 = _parse_profile(init_tree.get("y1"), "initial.y1")
    theta0 = _parse_profile(init_tree.get("theta0"), "initial.theta0")

    step_tree = _expect(tree, "stepper", "", dict, required=False, default={})
    method = _expect(step_tree, "method", "stepper", str, required=False,
                     default="implicit_midpoint")
    dt_raw = _expect(step_tree, "dt", "stepper", (int, float), required=False, default=None)
    out_tree = _expect(tree, "output", "", dict, required=False, default={})

    try:
        return ScenarioConfig(
            domain=domain,
            n_modes=int(_expect(tree, "n_modes", "", (int,))),
            params=params,
            y0=y0, y1=y1, theta0=theta0,
            t_end=float(_expect(tree, "t_end", "", (int, float))),
            method=method,
            dt=None if dt_raw is None else float(dt_raw),
            newton_tol=float(_expect(step_tree, "newton_tol", "stepper", (int, float),
                                     required=False, default=1e-12)),
            newton_max_iter=int(_expect(step_tree, "newton_max_iter", "stepper", (int,),
                                        required=False, default=50)),
            record_every=int(_expect(tree, "record_every", "", (int,), required=False, default=1)),
            seed=int(_expect(tree, "seed", "", (int,), required=False, default=0)),
            output_dir=str(_expect(out_tree, "dir", "output", str, required=False, default=".")),
            output_prefix=str(_expect(out_tree, "prefix", "output", str,
                                      required=False, default="run")),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(source, str(exc)) from exc


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        tree = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    return config_from_dict(tree, source=str(path))


# ---------------------------------------------------------------------------
# scenario execution and export

def resolve_outdir(config: ScenarioConfig, override: str | None = None) -> Path:
    """Precedence: explicit override, then $KIRCHHEAT_OUTDIR, then the config."""
    if override:
        return Path(override)
    env = os.environ.get(OUTDIR_ENV)
    if env:
        return Path(env)
    return Path(config.output_dir)


def format_float(x: float) -> str:
    x = float(x)
    if x == 0.0:
        return "0"  # canonicalize -0.0 so zero data exports as literal zeros
    return format(x, ".17g")


def csv_text(records) -> str:
    # one "%.17g" per value is format_float once -0.0 + 0.0 has made it 0.0
    table = np.column_stack([getattr(records, col) for col in CSV_COLUMNS]) + 0.0
    row = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"
    return ",".join(CSV_COLUMNS) + "\n" + (row * len(table)) % tuple(table.ravel().tolist())


def write_trajectory_csv(records, path: Path) -> None:
    Path(path).write_text(csv_text(records))


def energy_monotone(records, rel_tol: float = 1e-9) -> bool:
    e = records.E
    if e.size < 2:
        return True
    return bool(np.diff(e).max() <= rel_tol * max(e[0], 1e-300))


def trajectory_diagnostics(traj: Trajectory) -> dict:
    recs = traj.records
    apriori = first_apriori_check(recs)
    diag = {
        "energy_balance_residual": energy_balance_residual(recs),
        "first_apriori": {"holds": apriori.holds, "margin": apriori.margin,
                          "tol": apriori.tol},
        "energy_monotone": energy_monotone(recs),
        "E0": float(recs.E[0]),
        "E_end": float(recs.E[-1]),
        "n_records": recs.E.size,
        "n_steps": traj.n_steps,
        "solver": asdict(traj.solver),
    }
    try:  # a one-step run has only the two endpoint records
        horizon = higher_energy_bound_horizon(recs)
        diag["higher_energy_horizon"] = {
            "c_emp": horizon.c_emp,
            "horizon": horizon.horizon if math.isfinite(horizon.horizon) else None,
        }
    except ValueError as exc:
        diag["higher_energy_horizon"] = {"error": str(exc)}
    try:
        fit = fit_exponential_decay(recs)
        diag["decay_fit"] = {"C": fit.C, "omega": fit.omega, "r_squared": fit.r_squared,
                             "window": list(fit.window), "n_used": fit.n_used,
                             "no_decay": fit.no_decay}
    except ValueError as exc:
        diag["decay_fit"] = {"error": str(exc)}
    return diag


@dataclass
class RunResult:
    trajectory: Trajectory
    diagnostics: dict
    csv_path: Path | None = None
    json_path: Path | None = None


def run_scenario(config: ScenarioConfig, outdir: str | None = None,
                 write_files: bool = True) -> RunResult:
    basis, state0, stepper = build_scenario(config)
    traj = simulate(config.params, basis, state0, config.t_end, stepper,
                    record_every=config.record_every)
    diag = trajectory_diagnostics(traj)
    diag["config"] = {"n_modes": config.n_modes, "t_end": config.t_end,
                      "dt": stepper.dt, "method": stepper.method,
                      "record_every": config.record_every, "seed": config.seed}
    result = RunResult(trajectory=traj, diagnostics=diag)
    if write_files:
        out = resolve_outdir(config, outdir)
        out.mkdir(parents=True, exist_ok=True)
        result.csv_path = out / f"{config.output_prefix}_trajectory.csv"
        result.json_path = out / f"{config.output_prefix}_diagnostics.json"
        write_trajectory_csv(traj.records, result.csv_path)
        result.json_path.write_text(json.dumps(diag, indent=2, sort_keys=True) + "\n")
    return result


# ---------------------------------------------------------------------------
# studies

@dataclass(frozen=True)
class ConvergenceRow:
    n_coarse: int
    n_fine: int
    max_energy_diff: float
    terminal_state_diff: float


def convergence_study(config: ScenarioConfig, mode_counts) -> list[ConvergenceRow]:
    """Re-run the scenario at each truncation level and compare consecutive
    resolutions: max |E_N(t) - E_M(t)| over shared record times and the
    terminal modal state discrepancy on the coarse mode set."""
    counts = list(mode_counts)
    if len(counts) < 2:
        raise ValueError("need at least 2 mode counts")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError(f"mode counts must be strictly increasing, got {counts}")

    dt = config.dt
    if dt is None:
        # a shared record grid needs a shared dt; the finest basis sets it
        _, _, stepper = build_scenario(replace(config, n_modes=counts[-1]))
        dt = stepper.dt

    runs = []
    for n in counts:
        cfg = replace(config, n_modes=n, dt=dt)
        basis, state0, stepper = build_scenario(cfg)
        traj = simulate(cfg.params, basis, state0, cfg.t_end, stepper,
                        record_every=cfg.record_every)
        runs.append(traj)

    rows = []
    for coarse, fine in zip(runs, runs[1:]):
        e_c, e_f = coarse.records.E, fine.records.E
        if e_c.size != e_f.size:
            raise RuntimeError("record grids differ between resolutions; fix dt/record_every")
        # match coarse modes inside the fine basis by their index tuples
        fine_pos = {idx: i for i, idx in enumerate(fine.basis.mode_indices)}
        sel = np.array([fine_pos[idx] for idx in coarse.basis.mode_indices])
        sc, sf = coarse.final_state, fine.final_state
        diff2 = (np.sum((sc.h - sf.h[sel]) ** 2) + np.sum((sc.v - sf.v[sel]) ** 2)
                 + np.sum((sc.c - sf.c[sel]) ** 2))
        rows.append(ConvergenceRow(
            n_coarse=coarse.basis.n_modes,
            n_fine=fine.basis.n_modes,
            max_energy_diff=float(np.abs(e_c - e_f).max()),
            terminal_state_diff=float(math.sqrt(diff2)),
        ))
    return rows


@dataclass(frozen=True)
class UniquenessReport:
    epsilon: float
    max_diff_norm: float           # max_t sqrt of the difference quadratic form
    ratio: float                   # max_diff_norm / epsilon (inf-safe for eps=0)
    bitwise_identical: bool
    horizon_breach: bool           # empirical E* bound cannot certify [0, t_end]
    final_diff_norm: float


def uniqueness_probe(config: ScenarioConfig, epsilon: float) -> UniquenessReport:
    """Compare the scenario against a copy with y0 perturbed by epsilon on
    the first mode. The reported quantity is the square root of the
    difference quadratic form |V|^2 + phi(S_base) |grad Y|^2 + (a/b) |thbar|^2,
    so report/epsilon is a Lipschitz-type constant, stable as epsilon -> 0.
    epsilon = 0 must reproduce the base run bit for bit.
    """
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    basis, state0, stepper = build_scenario(config)
    base = simulate(config.params, basis, state0, config.t_end, stepper,
                    record_every=config.record_every)

    state0p = state0.copy()
    state0p.h = state0p.h.copy()
    state0p.h[0] += epsilon
    pert = simulate(config.params, basis, state0p, config.t_end, stepper,
                    record_every=config.record_every)

    a, b = base.states, pert.states
    bitwise = (np.array_equal(a.h, b.h) and np.array_equal(a.v, b.v)
               and np.array_equal(a.c, b.c))
    p = config.params
    dh, dv, dc = b.h - a.h, b.v - a.v, b.c - a.c
    ones = np.ones(basis.n_modes)
    q = ((dv * dv) @ ones + (p.m0 + p.m1 * base.records.S) * ((dh * dh) @ basis.lambdas)
         + (p.alpha / p.beta) * ((dc * dc) @ ones))
    diffs = np.sqrt(np.maximum(q, 0.0))
    max_norm = float(diffs.max())
    horizon = higher_energy_bound_horizon(pert.records).horizon
    return UniquenessReport(
        epsilon=epsilon,
        max_diff_norm=max_norm,
        ratio=max_norm / epsilon if epsilon > 0.0 else (math.inf if max_norm > 0.0 else 0.0),
        bitwise_identical=bitwise,
        horizon_breach=horizon < config.t_end,
        final_diff_norm=float(diffs[-1]),
    )


SWEEP_AXES = ("m1", "alpha", "beta", "n_modes")


@dataclass
class SweepRow:
    point: dict
    omega: float = math.nan
    r_squared: float = math.nan
    energy_monotone: bool = False
    error: str = ""


def _sweep_cell(config: ScenarioConfig, point: dict) -> SweepRow:
    row = SweepRow(point=dict(point))
    try:
        params = replace(config.params, **{k: v for k, v in point.items() if k != "n_modes"})
        cfg = replace(config, params=params,
                      n_modes=int(point.get("n_modes", config.n_modes)))
        result = run_scenario(cfg, write_files=False)
        row.energy_monotone = result.diagnostics["energy_monotone"]
        fit = result.diagnostics["decay_fit"]
        if "error" in fit:
            row.error = fit["error"]
        else:
            row.omega = fit["omega"]
            row.r_squared = fit["r_squared"]
    except Exception as exc:  # per-cell isolation: a bad cell must not kill the sweep
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def _scaled_profile(profile: InitialProfile, sigma: float) -> InitialProfile:
    if profile.kind == "coefficients":
        return replace(profile, coefficients=tuple(sigma * c for c in profile.coefficients))
    if profile.kind == "zero":
        return profile
    return replace(profile, amplitude=sigma * profile.amplitude)


def sweep(config: ScenarioConfig, grid: dict, sigmas=None):
    """Cartesian sweep over axes in {m1, alpha, beta, n_modes}, plus an
    optional initial-data scaling study at the base point (fitted omega per
    sigma; reported, not asserted, since the decay constant may drift with
    amplitude once m1 > 0). Cells run in grid order; failed cells carry an
    error string and the sweep continues."""
    for key in grid:
        if key not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {key!r}; expected subset of {SWEEP_AXES}")
    axes = [k for k in SWEEP_AXES if k in grid]
    if not axes or any(len(grid[k]) == 0 for k in axes):
        raise ValueError("sweep grid must be nonempty")
    rows = [_sweep_cell(config, dict(zip(axes, combo)))
            for combo in itertools.product(*(grid[k] for k in axes))]

    scale_rows = []
    for sigma in (sigmas or ()):
        cfg = replace(config,
                      y0=_scaled_profile(config.y0, sigma),
                      y1=_scaled_profile(config.y1, sigma),
                      theta0=_scaled_profile(config.theta0, sigma))
        row = _sweep_cell(cfg, {})
        row.point = {"sigma": sigma}
        scale_rows.append(row)
    return rows, scale_rows


def write_sweep_csv(rows, path: Path, axes=None) -> None:
    if not rows:
        raise ValueError("no sweep rows to write")
    if axes is None:
        axes = [k for k in (*SWEEP_AXES, "sigma") if k in rows[0].point]
    lines = [",".join([*axes, "omega", "r_squared", "energy_monotone", "error"])]
    for row in rows:
        cells = [format_float(row.point[a]) if isinstance(row.point.get(a), float)
                 else str(row.point.get(a, "")) for a in axes]
        cells += [format_float(row.omega), format_float(row.r_squared),
                  str(row.energy_monotone).lower(),
                  '"' + row.error.replace('"', "'") + '"' if row.error else ""]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    detail: str


def verify_suite(config: ScenarioConfig) -> list[VerifyCheck]:
    """Run the invariant suite on a config: quadrature identity, exact zero
    fixed point, monotone energy, dissipation identity, a-priori bound,
    balance-residual convergence order, coupling sign-flip symmetry,
    determinism, cross-integrator agreement, and the decay fit."""
    from .spectrum import gram_matrix

    checks: list[VerifyCheck] = []

    def add(name, passed, detail):
        checks.append(VerifyCheck(name=name, passed=bool(passed), detail=detail))

    basis, state0, stepper = build_scenario(config)
    gram_err = float(np.abs(gram_matrix(basis) - np.eye(basis.n_modes)).max())
    add("quadrature_identity", gram_err <= 1e-8, f"max |G - I| = {gram_err:.3e}")

    zero_cfg = replace(config, y0=InitialProfile(kind="zero"),
                       y1=InitialProfile(kind="zero"), theta0=InitialProfile(kind="zero"))
    zr = run_scenario(zero_cfg, write_files=False).trajectory
    zs = zr.states
    zero_ok = not (zr.records.E.any() or zs.h.any() or zs.v.any() or zs.c.any())
    add("zero_data_exact", zero_ok, "zero data stays exactly zero")

    traj = simulate(config.params, basis, state0, config.t_end, stepper,
                    record_every=config.record_every)
    recs = traj.records
    e0 = float(recs.E[0])

    inc = float(np.diff(recs.E).max())
    add("energy_monotone", inc <= 1e-9 * max(e0, 1e-300),
        f"max energy increment = {inc:.3e} (E0 = {e0:.6g})")

    # centered differences need the finest record spacing or their truncation
    # error masquerades as a solver defect; check on a record_every=1 prefix
    if config.record_every == 1:
        recs_d = recs
    else:
        recs_d = simulate(config.params, basis, state0, min(config.t_end, 2.0),
                          stepper, record_every=1).records
    t, e, d = recs_d.t, recs_d.E, recs_d.D
    cd = (e[2:] - e[:-2]) / (t[2:] - t[:-2])
    dscale = np.abs(d).max()
    diss_err = float(np.abs(cd - d[1:-1]).max() / dscale) if dscale > 0.0 else 0.0
    add("dissipation_identity", diss_err <= 1e-4,
        f"max rel error of dE/dt vs dissipation rate = {diss_err:.3e}")

    ap = first_apriori_check(recs)
    add("first_apriori", ap.holds, f"margin = {ap.margin:.3e} (tol {ap.tol:.3e})")

    half = StepperConfig(method=stepper.method, dt=0.5 * stepper.dt,
                         newton_tol=stepper.newton_tol, newton_max_iter=stepper.newton_max_iter)
    traj_half = simulate(config.params, basis, state0, config.t_end, half,
                         record_every=config.record_every)
    r1 = energy_balance_residual(recs)
    r2 = energy_balance_residual(traj_half.records)
    ratio = r1 / r2 if r2 > 0.0 else math.inf
    add("balance_residual_order", 3.25 <= ratio <= 4.92,
        f"residual ratio dt vs dt/2 = {ratio:.2f} (nominal 4 for order 2)")

    flipped_params = replace(config.params, alpha=-config.params.alpha,
                             beta=-config.params.beta)
    s0f = state0.copy()
    s0f.c = -s0f.c
    traj_f = simulate(flipped_params, basis, s0f, config.t_end, stepper,
                      record_every=config.record_every)
    a, b = traj.states, traj_f.states
    flip_err = float(max(np.abs(a.h - b.h).max(), np.abs(a.v - b.v).max(),
                         np.abs(a.c + b.c).max()))
    add("coupling_sign_flip", flip_err <= 1e-12,
        f"(alpha,beta,theta0) -> (-alpha,-beta,-theta0) state mismatch = {flip_err:.3e}")

    traj_re = simulate(config.params, basis, state0, config.t_end, stepper,
                       record_every=config.record_every)
    add("determinism", csv_text(recs) == csv_text(traj_re.records),
        "re-run produces byte-identical trajectory CSV")

    t_cross = min(1.0, config.t_end)
    dt_rk = min(stepper.dt, rk4_dt_limit(config.params, basis, state0))
    if t_cross / dt_rk <= 200_000:
        def final_energy(cfg):  # one record per endpoint: record_every >= the step count
            return simulate(config.params, basis, state0, t_cross, cfg,
                            record_every=math.ceil(t_cross / cfg.dt)).records.E[-1]

        e_mid = final_energy(stepper)
        e_rk = final_energy(StepperConfig(method="rk4", dt=dt_rk))
        cross = abs(e_mid - e_rk) / max(e0, 1e-300)
        add("cross_integrator", cross <= 1e-4,
            f"midpoint vs rk4 energy at t={t_cross:.3g}: rel diff = {cross:.3e}")
    else:
        add("cross_integrator", True, "skipped (rk4 step budget exceeded)")

    try:
        fit = fit_exponential_decay(recs)
        add("decay_fit", fit.omega > 0.0 and fit.r_squared >= 0.99,
            f"omega = {fit.omega:.4f}, r^2 = {fit.r_squared:.5f}")
    except ValueError as exc:
        add("decay_fit", False, f"fit unavailable: {exc}")
    return checks


def random_small_scenario(seed: int) -> ScenarioConfig:
    """Seeded random small-data scenario with alpha*beta > 0, for property
    runs. Amplitudes are kept small so the quartic term stays subdominant."""
    rng = np.random.default_rng(seed)
    n_modes = int(rng.integers(4, 13))
    sign = 1.0 if rng.random() < 0.5 else -1.0
    params = ModelParams(
        m0=float(rng.uniform(0.5, 2.0)),
        m1=float(rng.uniform(0.0, 1.0)),
        alpha=sign * float(rng.uniform(0.5, 2.0)),
        beta=sign * float(rng.uniform(0.5, 2.0)),
    )
    decay = 1.0 / (1.0 + np.arange(n_modes)) ** 2
    def coeffs(scale):
        return tuple((scale * decay * rng.standard_normal(n_modes)).tolist())
    return ScenarioConfig(
        domain=Domain.interval(math.pi),
        n_modes=n_modes,
        params=params,
        y0=InitialProfile(kind="coefficients", coefficients=coeffs(0.1)),
        y1=InitialProfile(kind="coefficients", coefficients=coeffs(0.05)),
        theta0=InitialProfile(kind="coefficients", coefficients=coeffs(0.05)),
        t_end=2.0,
        dt=1e-3,
        seed=seed,
        output_prefix=f"rand{seed}",
    )
