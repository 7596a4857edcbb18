"""Correctness checks on a workload's outputs, computed apart from kirchheat.

Nothing here imports the program. Each check reads the files the program
wrote and compares them with a computation of the benchmark's own (a
DOP853 integration of the modal ODE, closed-form sine coefficients of the
bump, the eigenvalues of each mode's 3x3 matrix) or with a property the
method must have. A check returns (name, passed, detail).
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

GRAM_TOL = 1e-8
E0_REL_TOL = 1e-9
MONOTONE_REL_TOL = 1e-12
# scenario: |E - E_ref| <= REF_FACTOR * dt^2 sum_k rate_k^2 E_k(0), and
# |E - E(0) - trapezoid int D| <= BALANCE_FACTOR * (stride dt)^2 sum_k rate_k^2 E_k(0)
REF_FACTOR = 1.0
BALANCE_FACTOR = 1.0
# membrane: Simpson residual <= SIMPSON_GAIN * |Simpson - trapezoid(2h)|
#                              + dt^2 sum_k rate_k^2 E_k(0)
SIMPSON_GAIN = 0.25
FIT_REL_TOL = 0.005
VERIFY_CHECKS = 10


def load_outputs(spec: dict, outdir, result: dict) -> dict:
    """The texts of the last operation's output files plus the worker's
    per-operation record."""
    texts = {name: (outdir / name).read_text() for name in spec["outputs"]}
    return {"files": texts, "reps": result["reps"], "stdout": result["last_stdout"]}


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _trajectory(text: str) -> dict[str, np.ndarray]:
    header, rows = _table(text)
    data = np.array([[float(x) for x in row] for row in rows])
    return {name: data[:, i] for i, name in enumerate(header)}


def bump_sine_coefficients(length: float, n: int) -> np.ndarray:
    """<16 u^2 (1-u)^2, sqrt(2/L) sin(k pi x / L)> for k = 1..n, u = x/L.

    Four integrations by parts give int_0^1 u^2 (1-u)^2 sin(a u) du =
    (1 - cos a) (24/a^5 - 2/a^3) at a = k pi."""
    a = np.arange(1, n + 1) * math.pi
    one_minus_cos = 1.0 - np.cos(a)
    one_minus_cos[1::2] = 0.0  # even k: the bump is symmetric, exactly zero
    return 16.0 * math.sqrt(2.0 * length) * one_minus_cos * (24.0 / a ** 5 - 2.0 / a ** 3)


def _energy(p: dict, lam, h, v, c):
    s = lam @ (h * h)
    return (0.5 * (v * v).sum(axis=0) + 0.5 * p["m0"] * s + 0.25 * p["m1"] * s * s
            + 0.5 * p["alpha"] / p["beta"] * (c * c).sum(axis=0))


def rate2_energy(p: dict, lam, h0, v0, c0) -> float:
    """sum_k rate_k^2 E_k(0): each mode's initial energy weighted by the
    square of its rate, omega_k^2 = phi(S0) lambda_k for the wave part and
    lambda_k^2 for the heat part. Implicit midpoint is second order, so its
    energy error is O(dt^2) times this."""
    phi0 = p["m0"] + p["m1"] * (lam @ (h0 * h0))
    wave = 0.5 * v0 * v0 + 0.5 * phi0 * lam * h0 * h0
    heat = 0.5 * p["alpha"] / p["beta"] * c0 * c0
    return float(np.sum(phi0 * lam * wave + lam * lam * heat))


def _profile(prof: dict, n: int, length: float) -> np.ndarray:
    out = np.zeros(n)
    kind = prof["kind"]
    if kind == "coefficients":
        vals = np.asarray(prof["coefficients"], dtype=float)
        out[: vals.size] = vals
    elif kind == "sine_mode":
        out[prof["mode"] - 1] = prof["amplitude"]
    elif kind == "bump":
        out = prof["amplitude"] * bump_sine_coefficients(length, n)
    return out


def _reps_identical(out: dict) -> tuple:
    reps = out["reps"]
    first = reps[0]
    same = all(r["outputs"] == first["outputs"] and r["stdout"] == first["stdout"]
               for r in reps)
    codes_ok = all(code == 0 for r in reps for code in r["codes"])
    return ("repeatable", same and codes_ok,
            f"{len(reps)} operations, identical outputs: {same}, exit codes all 0: {codes_ok}")


def _monotone(name: str, e: np.ndarray) -> tuple:
    inc = float(np.diff(e).max() / e[0])
    return (name, inc <= MONOTONE_REL_TOL, f"max E increment / E(0) = {inc:.3e}")


def check_scenario(spec: dict, out: dict):
    """E(t) against a DOP853 integration of the modal ODE; E non-increasing;
    the energy balance by trapezoid on the CSV; repeatable outputs."""
    from scipy.integrate import solve_ivp

    tree = spec["trees"]["scenario"]
    p, n, length = tree["params"], tree["n_modes"], tree["domain"]["length"]
    dt = tree["stepper"]["dt"]
    lam = (np.arange(1, n + 1) * math.pi / length) ** 2
    init = tree["initial"]
    x0 = np.concatenate([_profile(init[k], n, length) for k in ("y0", "y1", "theta0")])
    traj = _trajectory(out["files"]["scenario_trajectory.csv"])
    t, e, d = traj["t"], traj["E"], traj["D"]

    def rhs(_, x):
        h, v, c = x[:n], x[n:2 * n], x[2 * n:]
        phi = p["m0"] + p["m1"] * (lam @ (h * h))
        return np.concatenate([v, -phi * lam * h + p["alpha"] * lam * c,
                               -lam * c - p["beta"] * lam * v])

    sol = solve_ivp(rhs, (0.0, t[-1]), x0, method="DOP853", rtol=1e-12, atol=1e-14, t_eval=t)
    e_ref = _energy(p, lam, sol.y[:n], sol.y[n:2 * n], sol.y[2 * n:])

    # the trapezoid rule on records `stride` steps apart errs like
    # (rate * stride * dt)^2 on the same terms as the integrator
    r2e = rate2_energy(p, lam, x0[:n], x0[n:2 * n], x0[2 * n:])
    scale = dt * dt * r2e
    bal_scale = (tree["record_every"] * dt) ** 2 * r2e

    ref_err = float(np.abs(e - e_ref).max())
    trap = np.concatenate([[0.0], np.cumsum(0.5 * (d[1:] + d[:-1]) * np.diff(t))])
    bal_err = float(np.abs(e - e[0] - trap).max())
    return [
        ("reference_energy", sol.success and ref_err <= REF_FACTOR * scale,
         f"max |E - E_ref| = {ref_err:.3e}, tolerance {REF_FACTOR * scale:.3e}, "
         f"{len(t)} records"),
        _monotone("energy_monotone", e),
        ("energy_balance", bal_err <= BALANCE_FACTOR * bal_scale,
         f"max |E - E(0) - int D| = {bal_err:.3e}, tolerance {BALANCE_FACTOR * bal_scale:.3e}"),
        _reps_identical(out),
    ], 0


def _rectangle_spectrum(lx: float, ly: float, n: int):
    """The n smallest (j pi/lx)^2 + (k pi/ly)^2, ties broken by (j, k)."""
    j, k = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1), indexing="ij")
    j, k = j.ravel(), k.ravel()
    lam = (j * math.pi / lx) ** 2 + (k * math.pi / ly) ** 2
    order = np.lexsort((k, j, lam))[:n]
    return lam[order], j[order], k[order]


def check_membrane(spec: dict, out: dict):
    """Gram identity; E(0) from closed-form separable coefficients; E
    non-increasing; the energy identity by Simpson on the records;
    repeatable outputs."""
    tree = spec["trees"]["membrane"]
    p, n = tree["params"], tree["n_modes"]
    lx, ly = tree["domain"]["lengths"]
    lam, j, k = _rectangle_spectrum(lx, ly, n)
    bx = bump_sine_coefficients(lx, int(j.max()))
    by = bump_sine_coefficients(ly, int(k.max()))
    shape = bx[j - 1] * by[k - 1]
    init = tree["initial"]
    h0 = init["y0"]["amplitude"] * shape
    c0 = init["theta0"]["amplitude"] * shape
    e0_ref = float(_energy(p, lam, h0, np.zeros(n), c0))

    traj = _trajectory(out["files"]["membrane_trajectory.csv"])
    t, e, d = traj["t"], traj["E"], traj["D"]
    e0_err = float(abs(e[0] - e0_ref) / e0_ref)

    gram = max(r["gram_err"] for r in out["reps"])

    # Simpson on pairs of record intervals: its residual is its quadrature
    # error, an O(h^4) term well under the O(h^2) gap to the trapezoid rule
    # on the same pairs, plus the integrator's O(dt^2) defect
    defect = tree["stepper"]["dt"] ** 2 * rate2_energy(p, lam, h0, np.zeros(n), c0)
    h = np.diff(t)
    uniform = len(t) % 2 == 1 and np.allclose(h, h[0], rtol=1e-9)
    if uniform:
        simp = np.concatenate([[0.0], np.cumsum(h[0] / 3.0 * (d[:-2:2] + 4.0 * d[1:-1:2] + d[2::2]))])
        trap2 = np.concatenate([[0.0], np.cumsum(h[0] * (d[:-2:2] + d[2::2]))])
        resid = np.abs(e[::2] - e[0] - simp)[1:]
        gap = np.abs(simp - trap2)[1:]
        worst = float((resid / (SIMPSON_GAIN * gap + defect)).max())
        ident = (worst <= 1.0,
                 f"max Simpson residual = {resid.max():.3e}, worst residual / allowed = {worst:.3f}")
    else:
        ident = (False, f"{len(t)} records are not an odd count on a uniform grid")
    return [
        ("gram_identity", gram <= GRAM_TOL, f"max |G - I| = {gram:.3e} (tolerance {GRAM_TOL:g})"),
        ("initial_energy", e0_err <= E0_REL_TOL,
         f"E(0) = {e[0]:.15g}, closed form {e0_ref:.15g}, rel diff {e0_err:.2e}"),
        _monotone("energy_monotone", e),
        ("energy_identity", *ident),
        _reps_identical(out),
    ], 0


def _mode_matrix(m0: float, alpha: float, beta: float, lam: float) -> np.ndarray:
    """d/dt (h, v, c) of one mode when m1 = 0."""
    return np.array([[0.0, 1.0, 0.0],
                     [-m0 * lam, 0.0, alpha * lam],
                     [0.0, -beta * lam, -lam]])


def linear_decay(p: dict, lams, x0: np.ndarray, times: np.ndarray):
    """Slowest decay rate sigma1 over the excited modes of a linear cell, and
    the exact energy at `times`, from each mode's eigendecomposition."""
    n = len(lams)
    sigma1 = math.inf
    energy = np.zeros_like(times)
    for i, lam in enumerate(lams):
        mu, vecs = np.linalg.eig(_mode_matrix(p["m0"], p["alpha"], p["beta"], lam))
        sigma1 = min(sigma1, float(-mu.real.max()))
        coef = np.linalg.solve(vecs, x0[[i, n + i, 2 * n + i]])
        h, v, c = (vecs @ (coef[:, None] * np.exp(np.outer(mu, times)))).real
        energy += 0.5 * v * v + 0.5 * p["m0"] * lam * h * h + 0.5 * p["alpha"] / p["beta"] * c * c
    return sigma1, energy


def fit_rate(times: np.ndarray, energy: np.ndarray) -> float:
    """Least-squares slope of -log E over the middle 60% of the horizon."""
    span = times[-1] - times[0]
    mask = (times >= times[0] + 0.2 * span) & (times <= times[0] + 0.8 * span)
    return -float(np.polyfit(times[mask], np.log(energy[mask]), 1)[0])


def _row_ok(row: dict) -> bool:
    return row["error"] == "" and row["energy_monotone"] == "true"


def check_study(spec: dict, out: dict):
    """All verify checks pass; every nominal row is error-free and monotone;
    each linear cell's omega sits where the exact solution puts it relative
    to the slowest decay rate; repeatable outputs. Rows at the large sigmas
    are counted, not checked."""
    base, grid = spec["trees"]["base"], spec["trees"]["grid"]
    large = set(grid["sigmas"][1:])
    header, rows = _table(out["files"]["study_sweep.csv"])
    cells = [dict(zip(header, r)) for r in rows]
    sheader, srows = _table(out["files"]["study_scale.csv"])
    scales = [dict(zip(sheader, r)) for r in srows]

    nominal = cells + [s for s in scales if float(s["sigma"]) not in large]
    bad = [r for r in nominal if not _row_ok(r)]
    failed_large = sum(1 for s in scales if float(s["sigma"]) in large and not _row_ok(s))

    lines = out["stdout"].splitlines()
    passes = sum(1 for ln in lines if ln.startswith("PASS "))
    summary = f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"
    verify_ok = passes == VERIFY_CHECKS and summary in lines
    verify_detail = next((ln for ln in lines if ln.endswith("checks passed")), "no summary line")

    # E decays at 2 sigma1 once faster terms have died out; the fit window
    # still sees them when the next rate is close to sigma1 or the horizon
    # is short, so each cell's
    # offset from 2 sigma1 must match, within FIT_REL_TOL, the offset of the
    # same fit on the exact linear energy
    n, length = base["n_modes"], base["domain"]["length"]
    dt, stride, t_end = base["stepper"]["dt"], base["record_every"], base["t_end"]
    x0 = np.concatenate([_profile(base["initial"][k], n, length) for k in ("y0", "y1", "theta0")])
    excited = [i for i in range(n) if x0[[i, n + i, 2 * n + i]].any()]
    lams = [((i + 1) * math.pi / length) ** 2 for i in excited]
    x0 = x0.reshape(3, n)[:, excited].ravel()
    steps = int(math.floor(t_end / dt + 1e-9))
    times = np.append(np.arange(0, steps, stride) * dt, t_end)
    fit_ok, fit_notes = True, []
    for cell in cells:
        if float(cell["m1"]) != 0.0 or not _row_ok(cell):
            continue
        p = dict(base["params"], alpha=float(cell["alpha"]))
        sigma1, energy = linear_decay(p, lams, x0, times)
        bias = fit_rate(times, energy) / (2.0 * sigma1) - 1.0
        dev = float(cell["omega"]) / (2.0 * sigma1) - 1.0
        ok = abs(dev - bias) <= FIT_REL_TOL
        fit_ok &= ok
        fit_notes.append(f"alpha={p['alpha']:.4g}: omega / 2 sigma1 - 1 = {dev:+.2%}, "
                         f"exact-solution fit {bias:+.2%}{'' if ok else ' FAIL'}")
    return [
        ("verify_suite", verify_ok, verify_detail),
        ("nominal_rows", not bad, f"{len(nominal) - len(bad)}/{len(nominal)} nominal rows "
                                  "error-free with monotone energy"),
        ("linear_decay_rate", fit_ok and len(fit_notes) == len(grid["alpha"]), "; ".join(fit_notes)),
        _reps_identical(out),
    ], len(bad) + failed_large + (0 if verify_ok else 1)


CHECKS = {"scenario": check_scenario, "study": check_study, "membrane": check_membrane}
