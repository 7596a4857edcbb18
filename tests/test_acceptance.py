"""Acceptance gate: one test per advertised criterion, each printing a
PASS/FAIL line with the measured numbers before asserting."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from kirchheat import (
    build_scenario,
    check_martinez,
    check_modified_gronwall,
    config_from_dict,
    convergence_study,
    first_apriori_check,
    fit_exponential_decay,
    load_config,
    random_small_scenario,
    run_scenario,
    simulate,
    uniqueness_probe,
)
from kirchheat.runner import InitialProfile

from conftest import CONFIG_DIR

OMEGA_REF = 0.4301597090019469  # 2 |Re| of the slow root of s^3+s^2+2s+1


def announce(capsys, n, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def run_records(cfg):
    basis, state0, stepper = build_scenario(cfg)
    traj = simulate(cfg.params, basis, state0, cfg.t_end, stepper,
                    record_every=cfg.record_every)
    return traj


def dissipation_residual(records):
    t, e, d = records.t, records.E, records.D
    cd = (e[2:] - e[:-2]) / (t[2:] - t[:-2])
    return float(np.abs(cd - d[1:-1]).max() / np.abs(d).max())


@pytest.fixture(scope="module")
def default_cfg():
    return load_config(CONFIG_DIR / "default.json")


@pytest.fixture(scope="module")
def small_population(default_cfg):
    """Default scenario plus 50 seeded random small-data scenarios,
    simulated once and shared by the energy and a-priori criteria."""
    t0 = time.perf_counter()
    population = [("default", run_records(default_cfg).records)]
    for seed in range(50):
        cfg = random_small_scenario(seed)
        population.append((f"seed {seed}", run_records(cfg).records))
    return population, time.perf_counter() - t0


def test_criterion_01_dissipation_identity(default_cfg, capsys):
    t0 = time.perf_counter()
    err = dissipation_residual(run_records(default_cfg).records)
    half = replace(default_cfg, dt=0.5 * default_cfg.dt)
    err_half = dissipation_residual(run_records(half).records)
    elapsed = time.perf_counter() - t0
    ratio = err / err_half
    ok = err <= 1e-4 and 2.8 <= ratio <= 5.2 and elapsed < 5.0
    announce(capsys, 1, "dissipation identity", ok,
             f"max rel residual {err:.3e} (tol 1e-4), dt-halving ratio "
             f"{ratio:.2f} (want ~4 within 30%), {elapsed:.2f}s")
    assert ok


def test_criterion_02_energy_never_increases(small_population, capsys):
    population, elapsed = small_population
    worst = -math.inf
    worst_label = ""
    for label, recs in population:
        e0 = recs.E[0]
        inc = np.diff(recs.E).max() / e0
        if inc > worst:
            worst, worst_label = inc, label
    ok = worst <= 1e-9 and elapsed < 60.0
    announce(capsys, 2, "monotone energy", ok,
             f"worst relative increment {worst:.3e} ({worst_label}; tol 1e-9) "
             f"over {len(population)} scenarios, {elapsed:.2f}s")
    assert ok


def test_criterion_03_first_apriori_bound(small_population, capsys):
    population, _ = small_population
    worst_margin = math.inf
    holds = True
    for label, recs in population:
        chk = first_apriori_check(recs)  # tol defaults to 1e-8 E(0)
        holds = holds and chk.holds
        worst_margin = min(worst_margin, chk.tol - chk.margin)
    announce(capsys, 3, "first a-priori estimate", holds,
             f"holds on all {len(population)} scenarios at tol 1e-8 E(0), "
             f"smallest headroom {worst_margin:.3e}")
    assert holds


def test_criterion_04_linear_decay_rate(capsys):
    cfg = config_from_dict({
        "spec_version": 1,
        "domain": {"kind": "interval", "length": math.pi},
        "n_modes": 1,
        "params": {"m0": 1.0, "m1": 0.0, "alpha": 1.0, "beta": 1.0},
        "initial": {"y0": {"kind": "sine_mode", "mode": 1, "amplitude": 1.0}},
        "stepper": {"dt": 2e-3},
        "t_end": 40.0,
        "record_every": 5,
    }, source="<criterion 4>")
    t0 = time.perf_counter()
    fit = fit_exponential_decay(run_records(cfg).records)
    elapsed = time.perf_counter() - t0
    rel = abs(fit.omega - OMEGA_REF) / OMEGA_REF
    ok = rel <= 0.02 and elapsed < 1.0
    announce(capsys, 4, "single-mode decay rate", ok,
             f"fitted omega {fit.omega:.6f} vs {OMEGA_REF:.6f} "
             f"(rel err {rel:.2%}, tol 2%), {elapsed:.2f}s")
    assert ok


def test_criterion_05_default_decay_fit(default_cfg, capsys):
    t0 = time.perf_counter()
    fit = fit_exponential_decay(run_records(default_cfg).records)
    elapsed = time.perf_counter() - t0
    t_end = default_cfg.t_end
    ok = (fit.r_squared >= 0.99 and fit.omega > 0.0
          and fit.window == (0.2 * t_end, 0.8 * t_end) and elapsed < 5.0)
    announce(capsys, 5, "default scenario decay fit", ok,
             f"omega {fit.omega:.4f}, r^2 {fit.r_squared:.5f} (floor 0.99), "
             f"window {fit.window}, {elapsed:.2f}s")
    assert ok


def test_criterion_06_mode_convergence(capsys):
    cfg = load_config(CONFIG_DIR / "bump_convergence.json")
    t0 = time.perf_counter()
    rows = convergence_study(cfg, [8, 16, 32])
    elapsed = time.perf_counter() - t0
    d1, d2 = rows[0].max_energy_diff, rows[1].max_energy_diff
    ok = d2 < d1 and d2 <= 0.25 * d1 and elapsed < 30.0
    announce(capsys, 6, "mode refinement", ok,
             f"energy diffs 8->16: {d1:.3e}, 16->32: {d2:.3e}, "
             f"ratio {d2 / d1:.3f} (cap 0.25), {elapsed:.2f}s")
    assert ok


def test_criterion_07_perturbation_response(default_cfg, capsys):
    cfg = replace(default_cfg, t_end=10.0)
    exact = uniqueness_probe(cfg, 0.0)
    ratios = [uniqueness_probe(cfg, eps).ratio for eps in (1e-4, 1e-5, 1e-6)]
    spread = max(ratios) / min(ratios)
    ok = exact.bitwise_identical and all(
        math.isfinite(r) and r > 0.0 for r in ratios) and spread <= 3.0
    announce(capsys, 7, "perturbation response", ok,
             f"eps=0 bitwise identical: {exact.bitwise_identical}, "
             f"ratios {[f'{r:.4f}' for r in ratios]}, spread {spread:.6f} (cap 3)")
    assert ok


def test_criterion_08_gronwall_checker(capsys):
    t = np.linspace(0.0, 3.0, 301)
    flat = check_modified_gronwall(t, np.full_like(t, 1.0), np.zeros_like(t),
                                   K=2.0, r=1.5)
    exact_ok = bool(np.all(flat.bound == 2.0)) and flat.blowup_time is None

    t2 = np.linspace(0.0, 1.2, 1201)
    blow = check_modified_gronwall(t2, np.zeros_like(t2), np.ones_like(t2),
                                   K=1.0, r=1.0)
    cell = t2[1] - t2[0]
    blow_ok = (blow.blowup_time is not None
               and abs(blow.blowup_time - 1.0) <= cell + 1e-12)

    # independent RK4 integration of G' = G^2, G(0) = 1 on [0, 0.9]
    h, steps = 1e-4, 9000
    g = np.empty(steps + 1)
    g[0] = 1.0
    x = 1.0
    for i in range(steps):
        k1 = x * x
        k2 = (x + 0.5 * h * k1) ** 2
        k3 = (x + 0.5 * h * k2) ** 2
        k4 = (x + h * k3) ** 2
        x += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        g[i + 1] = x
    t3 = np.linspace(0.0, 0.9, steps + 1)
    eq = check_modified_gronwall(t3, g, np.ones_like(t3), K=1.0, r=1.0)
    eq_err = float(np.abs(eq.bound - g).max())
    eq_ok = eq_err <= 1e-4 and eq.holds and eq.hypothesis_ok

    ok = exact_ok and blow_ok and eq_ok
    announce(capsys, 8, "modified Gronwall checker", ok,
             f"zero forcing exact: {exact_ok}, blowup at "
             f"{blow.blowup_time} (want 1 +/- {cell:.4g}), "
             f"ODE-oracle max err {eq_err:.3e} (tol 1e-4)")
    assert ok


def test_criterion_09_integral_decay_estimate(capsys):
    t = np.linspace(0.0, 30.0, 30001)
    e = np.exp(-t)
    res = check_martinez(t, e, mu=0.0)
    err = abs(res.omega_est - 1.0)
    dominated = bool(np.all(e <= res.envelope + 1e-9))
    ok = err <= 1e-3 and dominated and res.holds and res.hypothesis_ok
    announce(capsys, 9, "integral decay estimate", ok,
             f"omega_est {res.omega_est:.6f} (want 1 +/- 1e-3), "
             f"envelope dominates: {dominated}")
    assert ok


def test_criterion_10_zero_data_exact(default_cfg, tmp_path, capsys):
    cfg = replace(default_cfg, t_end=2.0,
                  y0=InitialProfile(kind="zero"), y1=InitialProfile(kind="zero"),
                  theta0=InitialProfile(kind="zero"))
    result = run_scenario(cfg, outdir=tmp_path)
    traj = result.trajectory
    s, r = traj.states, traj.records
    states_zero = not (s.h.any() or s.v.any() or s.c.any())
    fields_zero = not (r.E.any() or r.E_star.any() or r.D.any() or r.S.any())
    csv_lines = result.csv_path.read_text().strip().splitlines()[1:]
    csv_zero = all(all(f == "0" for f in line.split(",")[1:]) for line in csv_lines)
    ok = states_zero and fields_zero and csv_zero
    announce(capsys, 10, "zero data stays zero", ok,
             f"states exactly zero: {states_zero}, records exactly zero: "
             f"{fields_zero}, CSV literal zeros: {csv_zero} (no tolerance)")
    assert ok
