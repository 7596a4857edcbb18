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
steps the state as one (3, N) block x = [h; v; c]. `simulate` builds one
kernel for dt, and a second one only for a shortened last step, and writes
its records into one (R, 3, N) block; `step` builds a kernel and applies it
once, so both go through the same code.
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


@dataclass
class Trajectory:
    """Thinned simulation output, stacked along a leading record axis:
    `states` (t of shape (R,), h, v, c of shape (R, N)) and `records`
    (fields of shape (R,)) share the R sample times: every
    record_every-th step, plus t = 0 and t = t_end. The h, v, c of a
    simulated run are views of one (R, 3, N) block."""

    params: ModelParams
    basis: EigenBasis
    config: StepperConfig
    states: ModalState
    records: EnergyRecord
    n_steps: int

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


def default_dt(params: ModelParams, basis: EigenBasis, state: ModalState) -> float:
    """0.1 / sqrt(phi(S0) * lambda_max): ~ a tenth of the fastest retained
    wave period at the initial stiffness."""
    phi = kirchhoff_coefficient(params, grad_norm_sq(basis, state.h))
    return 0.1 / math.sqrt(phi * basis.lambda_max)


def _midpoint_stepper(params: ModelParams, lam: np.ndarray, dt: float,
                      tol: float, max_iter: int):
    """Implicit-midpoint kernel for step size `dt`, with exact per-mode solves.

    With a = dt/2 and phi frozen, the midpoint system per mode is linear:

        m_h - a m_v                       = h
        a phi lam m_h + m_v - a alpha lam m_c = v
        a beta lam m_v + (1 + a lam) m_c  = c

    Cramer's rule gives m = (P b + phi Q b) / det, with b = (h, v, c),
    det = d0 + d1 phi and Q's h row zero, so the fixed point runs on the
    scalar phi alone. P, Q, d0, d1 and the flux weights depend only on the
    run and dt, so they are built here once.
    """
    a = 0.5 * dt
    s_ = 1.0 + a * lam
    q = a * params.alpha * lam
    r_ = a * params.beta * lam
    zero, one = np.zeros_like(lam), np.ones_like(lam)
    # (6, 3, N): rows P_h, P_v, P_c, Q_h, Q_v, Q_c; columns act on (h, v, c)
    numer = np.array([
        [s_ + q * r_, a * s_, a * q],
        [zero, s_, q],
        [zero, -r_, one],
        [zero, zero, zero],
        [-a * lam * s_, zero, zero],
        [a * lam * r_, zero, a * a * lam],
    ])
    d0 = s_ + a * a * params.alpha * params.beta * lam * lam
    d1 = a * a * lam * s_
    flux = -dt * (params.alpha / params.beta) * lam  # exact discrete heat flux
    m0, m1 = params.m0, params.m1

    def advance(x: np.ndarray, t: float):
        n = np.einsum("ijn,jn->in", numer, x)
        n_h = n[0]
        phi = m0  # the linear (m1 = 0) solve needs no iteration
        if m1 != 0.0:
            phi += m1 * float(lam @ (x[0] * x[0]))
            converged = False
            for _ in range(max_iter):
                m_h = n_h / (d0 + d1 * phi)
                phi_new = m0 + m1 * float(lam @ (m_h * m_h))
                resid = abs(phi_new - phi)
                phi = phi_new
                if resid <= tol * max(1.0, abs(phi)):
                    converged = True
                    break
            if not converged:
                raise SolverDivergenceError(
                    f"midpoint iteration stalled at t={t:.6g} (residual {resid:.3e})",
                    residual=resid, t=t)
        mid = (n[:3] + phi * n[3:]) / (d0 + d1 * phi)
        x_new = 2.0 * mid - x
        if not np.isfinite(x_new).all():
            raise FloatingPointError(f"non-finite state after step at t={t:.6g}")
        return x_new, float(flux @ (mid[2] * mid[2]))

    return advance


def _rk4_stepper(params: ModelParams, lam: np.ndarray, dt: float):
    """Classical RK4 kernel for step size `dt`; the dissipation integral is
    advanced by the same Runge-Kutta quadrature as the state."""
    m0, m1 = params.m0, params.m1
    ab = params.alpha / params.beta
    alpha_lam = params.alpha * lam
    beta_lam = params.beta * lam
    half, sixth = 0.5 * dt, dt / 6.0

    def f(x):
        h, v, c = x
        phi = m0 + m1 * float(lam @ (h * h))
        return np.stack((v, -phi * lam * h + alpha_lam * c, -lam * c - beta_lam * v))

    def d_of(x):
        return -ab * float(lam @ (x[2] * x[2]))

    def advance(x: np.ndarray, t: float):
        k1 = f(x)
        x2 = x + half * k1
        k2 = f(x2)
        x3 = x + half * k2
        k3 = f(x3)
        x4 = x + dt * k3
        x_new = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + f(x4))
        if not np.isfinite(x_new).all():
            raise FloatingPointError(f"non-finite state after step at t={t:.6g}")
        return x_new, sixth * (d_of(x) + 2.0 * d_of(x2) + 2.0 * d_of(x3) + d_of(x4))

    return advance


def _stepper(params: ModelParams, basis: EigenBasis, method: str, dt: float,
             tol: float, max_iter: int):
    """The step kernel `advance(x, t) -> (x_new, d_inc)` for one (run, dt).

    `x` is the (3, N) block of rows h, v, c at time t (used only in error
    messages); `d_inc` is the increment of the dissipation integral.
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
    x, d_inc = advance(np.array((state.h, state.v, state.c), dtype=float), state.t)
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
        limit = rk4_dt_limit(params, basis, state0)
        if config.dt > limit:
            raise ValueError(f"rk4 unstable: dt = {config.dt:.3g} exceeds the stability "
                             f"limit {limit:.3e} of the top mode; shrink dt or use "
                             "implicit_midpoint")

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
    acc = 0.0
    times[0], rows[0], diss[0] = t0, x, acc
    i = 1
    advance = _stepper(params, basis, config.method, dt,
                       config.newton_tol, config.newton_max_iter)
    for n in range(1, n_full + 1):
        x, d_inc = advance(x, t0 + (n - 1) * dt)
        acc += d_inc
        if n % record_every == 0 and i < n_rec - 1:  # the last row is t_end's
            times[i], rows[i], diss[i] = t0 + n * dt, x, acc  # t without roundoff drift
            i += 1
    if dt_last > 0.0:
        advance = _stepper(params, basis, config.method, dt_last,
                           config.newton_tol, config.newton_max_iter)
        x, d_inc = advance(x, t0 + n_full * dt)
        acc += d_inc
    times[-1], rows[-1], diss[-1] = t_end, x, acc
    states = ModalState(times, rows[:, 0], rows[:, 1], rows[:, 2])
    return Trajectory(params=params, basis=basis, config=config, states=states,
                      records=energy(params, basis, states, diss_int=diss),
                      n_steps=n_full + (1 if dt_last > 0.0 else 0))
