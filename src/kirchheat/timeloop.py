"""Time integration of the modal system.

Two steppers:

* ``implicit_midpoint`` (default): A-stable, so the step size is set by the
  wave period of interest, not by the stiff heat modes. Each step solves the
  midpoint system exactly per mode; the only nonlinearity is the scalar
  Kirchhoff coefficient, which is resolved by fixed-point iteration. The
  linear (m1 = 0) problem needs no iteration.
* ``rk4``: classical explicit Runge-Kutta, for convergence studies. Its
  stability region holds the left half-disk of radius 2.6, so the step is
  limited to dt * rho <= 2.5, with rho the spectral radius of the top
  mode's 3x3 matrix at the initial stiffness (coupling included).

Both steppers accumulate the dissipation integral int_0^t E' ds alongside the
state (midpoint: the exact discrete flux dt * D(midpoint); RK4: the same
Runge-Kutta quadrature as the state). Re-integrating that quantity from
thinned records afterwards is too lossy for the a-priori identity check.

A stepper is built once per (run, dt) by `_stepper`, which forms every
per-mode coefficient up front and returns a kernel `advance(x, t)` that
steps the state as one (3, N) block x = [h; v; c] and reports its
fixed-point evaluations. `simulate` builds one kernel for dt, and a second
one only for a shortened last step, writes its records into one (R, 3, N)
block and sums the evaluations into `SolverStats`; `step` builds a kernel
and applies it once, so both go through the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import EnergyRecord, energy
from .model import (ModelParams, ModalState, grad_norm_sq, kirchhoff_coefficient,
                    linear_system_matrix)
from .model import rhs  # noqa: F401  unused; bound here so call counters can wrap it
from .spectrum import EigenBasis

RK4_STABILITY_LIMIT = 2.5


class SolverDivergenceError(RuntimeError):
    """Midpoint fixed-point iteration failed to converge."""

    def __init__(self, message: str, residual: float, t: float):
        super().__init__(message)
        self.residual = residual
        self.t = t


@dataclass(frozen=True)
class StepperConfig:
    method: str = "implicit_midpoint"
    dt: float = 1e-3
    newton_tol: float = 1e-12
    newton_max_iter: int = 50

    def __post_init__(self):
        if self.method not in ("implicit_midpoint", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (self.newton_tol > 0.0):
            raise ValueError(f"newton_tol must be positive, got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise ValueError(f"newton_max_iter must be >= 1, got {self.newton_max_iter}")


@dataclass(frozen=True)
class SolverStats:
    """Fixed-point work of a run: `iterations` evaluations of the Kirchhoff
    coefficient over `steps` steps, at most `max_iterations` in one step.
    RK4 and m1 = 0 runs take none."""

    steps: int
    iterations: int
    max_iterations: int


@dataclass
class Trajectory:
    """Thinned simulation output, stacked along a leading record axis:
    `states` (t of shape (R,), h, v, c of shape (R, N)) and `records`
    (fields of shape (R,)) share the R sample times: every
    record_every-th step, plus t = 0 and t = t_end. The h, v, c of a
    simulated run are views of one (R, 3, N) block. `solver` counts the
    run's fixed-point work."""

    params: ModelParams
    basis: EigenBasis
    config: StepperConfig
    states: ModalState
    records: EnergyRecord
    n_steps: int
    solver: SolverStats

    @property
    def final_state(self) -> ModalState:
        s = self.states
        return ModalState(float(s.t[-1]), s.h[-1].copy(), s.v[-1].copy(), s.c[-1].copy())


def rk4_dt_limit(params: ModelParams, basis: EigenBasis, state: ModalState) -> float:
    """Largest stable RK4 step: RK4_STABILITY_LIMIT over the spectral radius
    of the top mode's linearised 3x3 matrix, with the stiffness frozen at
    phi(S) of `state`. Every eigenvalue of that matrix has Re <= 0."""
    phi = kirchhoff_coefficient(params, grad_norm_sq(basis, state.h))
    a = linear_system_matrix(replace(params, m0=phi, m1=0.0), basis.lambda_max)
    return RK4_STABILITY_LIMIT / float(np.abs(np.linalg.eigvals(a)).max())


def check_rk4_dt(params: ModelParams, basis: EigenBasis, state: ModalState,
                 dt: float) -> None:
    """Raise ValueError if RK4 steps of size `dt` from `state` are unstable."""
    limit = rk4_dt_limit(params, basis, state)
    if dt > limit:
        raise ValueError(f"rk4 unstable: dt = {dt:.3g} exceeds the stability limit "
                         f"{limit:.3e} of the top mode; shrink dt or use implicit_midpoint")


def default_dt(params: ModelParams, basis: EigenBasis, state: ModalState) -> float:
    """0.1 / sqrt(phi(S0) * lambda_max): ~ a tenth of the fastest retained
    wave period at the initial stiffness."""
    phi = kirchhoff_coefficient(params, grad_norm_sq(basis, state.h))
    return 0.1 / math.sqrt(phi * basis.lambda_max)


@np.errstate(all="ignore")  # overflow is checked once the block is formed
def _midpoint_block(params: ModelParams, lam: np.ndarray, dt: float):
    """The (10, 3, N) numerator block and tt = d0 / d1 of `_midpoint_stepper`."""
    a = 0.5 * dt
    s_ = 1.0 + a * lam
    q = a * params.alpha * lam
    r_ = a * params.beta * lam
    zero, one = np.zeros_like(lam), np.ones_like(lam)
    # Cramer numerators, (3, 3, N) each: rows h, v, c; columns act on (h, v, c)
    p = np.array([[s_ + q * r_, a * s_, a * q],
                  [zero, s_, q],
                  [zero, -r_, one]])
    qm = np.array([[zero, zero, zero],
                   [-a * lam * s_, zero, zero],
                   [a * lam * r_, zero, a * a * lam]])
    d0 = s_ + a * a * params.alpha * params.beta * lam * lam
    d1 = a * a * lam * s_
    tt = d0 / d1
    eye = np.eye(3)[:, :, None]
    # rows 0-3: A, P_c / d1; rows 4-7: B, Q_c / d1; row 8: w; row 9: lam (h + dt v)
    numer = np.concatenate([(2.0 * p - d0 * eye) / d1, p[2:] / d1,
                            (2.0 * qm - d1 * eye) / d1, qm[2:] / d1,
                            np.sqrt(lam) * p[:1] / d1,
                            [[lam, dt * lam, zero]]])
    if not (np.isfinite(numer).all() and np.isfinite(tt).all()):
        raise FloatingPointError(f"midpoint coefficients are not finite at dt = {dt:g} "
                                 f"with lambda in [{lam[0]:g}, {lam[-1]:g}]")
    return numer, tt


def _midpoint_stepper(params: ModelParams, lam: np.ndarray, dt: float,
                      tol: float, max_iter: int):
    """Implicit-midpoint kernel for step size `dt`, with exact per-mode solves.

    With a = dt/2 and phi frozen, the midpoint system per mode is linear:

        m_h - a m_v                       = h
        a phi lam m_h + m_v - a alpha lam m_c = v
        a beta lam m_v + (1 + a lam) m_c  = c

    Cramer's rule gives m = (P b + phi Q b) / det, with b = (h, v, c),
    det = d0 + d1 phi and Q's h row zero, so the fixed point runs on the
    scalar phi alone. Dividing through by d1 > 0 folds the new state
    x_new = 2 m - b into one combine,

        x_new = (A b + phi B b) / (tt + phi),  A = (2P - d0 I) / d1,
                                               B = (2Q - d1 I) / d1,

    with tt = d0 / d1. One contraction of b with a per-run (10, 3, N) block
    gives, besides A b and B b:

    * the heat rows of P b / d1 and Q b / d1, so the same combine yields
      m_c for the flux;
    * w = sqrt(lam) P_h b / d1, so sqrt(lam) m_h = w / (tt + phi) and one
      fixed-point evaluation is an add, a divide and a dot;
    * lam (h + dt v), for the start m0 + m1 sum lam h (h + dt v) of the
      fixed point. That is phi at the midpoint up to O(dt^2), clamped to
      the root's lower bound m0; it depends on the state alone, so the
      kernel stays stateless.

    A step so short that d1 underflows to 0, or a spectrum so stiff that
    the block overflows, is refused as a FloatingPointError.
    """
    numer, tt = _midpoint_block(params, lam, dt)
    flux = -dt * (params.alpha / params.beta) * lam  # exact discrete heat flux
    m0, m1 = params.m0, params.m1

    def advance(x: np.ndarray, t: float):
        n = np.einsum("ijn,jn->in", numer, x)
        phi, evals = m0, 0  # the linear (m1 = 0) solve needs no iteration
        if m1 != 0.0:
            phi = max(m0, m0 + m1 * float(x[0] @ n[9]))
            while True:
                evals += 1
                grad_mh = n[8] / (tt + phi)  # sqrt(lam) m_h
                phi_new = m0 + m1 * float(grad_mh @ grad_mh)
                resid = abs(phi_new - phi)
                phi = phi_new
                if resid <= tol * max(1.0, abs(phi)):
                    break
                if evals == max_iter:
                    raise SolverDivergenceError(
                        f"midpoint iteration stalled at t={t:.6g} (residual {resid:.3e})",
                        residual=resid, t=t)
        out = (n[:4] + phi * n[4:8]) / (tt + phi)
        x_new, mid_c = out[:3], out[3]
        if not np.isfinite(x_new).all():
            raise FloatingPointError(f"non-finite state after step at t={t:.6g}")
        return x_new, float(flux @ (mid_c * mid_c)), evals

    return advance


def _rk4_stepper(params: ModelParams, lam: np.ndarray, dt: float):
    """Classical RK4 kernel for step size `dt`; the dissipation integral is
    advanced by the same Runge-Kutta quadrature as the state.

    A stage's right-hand side is one contraction of the (3, N) state with
    the per-run linear block (phi = m0), plus -m1 S lam h on the v row."""
    m1, ab = params.m1, params.alpha / params.beta
    zero = np.zeros_like(lam)
    linear = np.array([[zero, np.ones_like(lam), zero],
                       [-params.m0 * lam, zero, params.alpha * lam],
                       [zero, -params.beta * lam, -lam]])
    half, sixth = 0.5 * dt, dt / 6.0

    def f(x):
        k = np.einsum("ijn,jn->in", linear, x)
        if m1 != 0.0:
            lam_h = lam * x[0]
            k[1] -= (m1 * float(x[0] @ lam_h)) * lam_h
        return k

    def d_of(x):
        return -ab * float(lam @ (x[2] * x[2]))

    def advance(x: np.ndarray, t: float):
        k1 = f(x)
        x2 = x + half * k1
        k2 = f(x2)
        x3 = x + half * k2
        k3 = f(x3)
        x4 = x + dt * k3
        x_new = x + sixth * (k1 + 2.0 * (k2 + k3) + f(x4))
        if not np.isfinite(x_new).all():
            raise FloatingPointError(f"non-finite state after step at t={t:.6g}")
        return x_new, sixth * (d_of(x) + 2.0 * d_of(x2) + 2.0 * d_of(x3) + d_of(x4)), 0

    return advance


def _stepper(params: ModelParams, basis: EigenBasis, method: str, dt: float,
             tol: float, max_iter: int):
    """The step kernel `advance(x, t) -> (x_new, d_inc, evals)` for one (run, dt).

    `x` is the (3, N) block of rows h, v, c at time t (used only in error
    messages); `d_inc` is the increment of the dissipation integral and
    `evals` the number of fixed-point evaluations the step took (0 for RK4
    and for m1 = 0).
    """
    if method == "implicit_midpoint":
        return _midpoint_stepper(params, basis.lambdas, dt, tol, max_iter)
    return _rk4_stepper(params, basis.lambdas, dt)


def step(params: ModelParams, basis: EigenBasis, state: ModalState,
         config: StepperConfig, dt: float | None = None):
    """Advance one step of size `dt` (default config.dt). Returns the new
    state and the increment of the dissipation integral over the step.

    Builds the kernel for this step and applies it once; `simulate` builds
    one kernel per run instead."""
    if dt is None:
        dt = config.dt
    advance = _stepper(params, basis, config.method, dt,
                       config.newton_tol, config.newton_max_iter)
    x, d_inc, _ = advance(np.array((state.h, state.v, state.c), dtype=float), state.t)
    return ModalState(t=state.t + dt, h=x[0], v=x[1], c=x[2]), d_inc


def simulate(params: ModelParams, basis: EigenBasis, state0: ModalState,
             t_end: float, config: StepperConfig | None = None,
             record_every: int = 1) -> Trajectory:
    """Integrate from state0.t to t_end, landing on t_end exactly (the last
    step shrinks as needed). Snapshots are kept every `record_every`-th step
    plus the endpoints."""
    if config is None:
        config = StepperConfig()
    if not (math.isfinite(t_end) and t_end > state0.t):
        raise ValueError(f"t_end={t_end} must be finite and exceed start time {state0.t}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    if config.method == "rk4":
        check_rk4_dt(params, basis, state0, config.dt)

    span = t_end - state0.t
    n_full = int(math.floor(span / config.dt + 1e-9))
    dt_last = span - n_full * config.dt
    if dt_last < 1e-12 * config.dt:
        dt_last = 0.0

    # rows: t0, every record_every-th full step, then t_end; a full step
    # that lands on t_end fills only the t_end row
    n_rec = 2 + n_full // record_every
    if dt_last == 0.0 and n_full > 0 and n_full % record_every == 0:
        n_rec -= 1
    rows = np.empty((n_rec, 3, basis.n_modes))
    times = np.empty(n_rec)
    diss = np.empty(n_rec)

    t0, dt = state0.t, config.dt
    x = np.array((state0.h, state0.v, state0.c), dtype=float)
    acc, evals, max_evals = 0.0, 0, 0
    times[0], rows[0], diss[0] = t0, x, acc
    i = 1
    advance = _stepper(params, basis, config.method, dt,
                       config.newton_tol, config.newton_max_iter)
    for n in range(1, n_full + 1):
        x, d_inc, k = advance(x, t0 + (n - 1) * dt)
        acc += d_inc
        evals += k
        if k > max_evals:
            max_evals = k
        if n % record_every == 0 and i < n_rec - 1:  # the last row is t_end's
            times[i], rows[i], diss[i] = t0 + n * dt, x, acc  # t without roundoff drift
            i += 1
    if dt_last > 0.0:
        advance = _stepper(params, basis, config.method, dt_last,
                           config.newton_tol, config.newton_max_iter)
        x, d_inc, k = advance(x, t0 + n_full * dt)
        acc += d_inc
        evals += k
        max_evals = max(max_evals, k)
    times[-1], rows[-1], diss[-1] = t_end, x, acc
    states = ModalState(times, rows[:, 0], rows[:, 1], rows[:, 2])
    n_steps = n_full + (1 if dt_last > 0.0 else 0)
    return Trajectory(params=params, basis=basis, config=config, states=states,
                      records=energy(params, basis, states, diss_int=diss),
                      n_steps=n_steps, solver=SolverStats(n_steps, evals, max_evals))
