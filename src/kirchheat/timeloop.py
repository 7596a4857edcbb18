"""Time integration of the modal system.

Two steppers:

* ``implicit_midpoint`` (default): A-stable, so the step size is set by the
  wave period of interest, not by the stiff heat modes. Each step solves the
  midpoint system exactly per mode; the only nonlinearity is the scalar
  Kirchhoff coefficient, which is resolved by fixed-point iteration. The
  linear (m1 = 0) problem converges in one pass.
* ``rk4``: classical explicit Runge-Kutta, for convergence studies. Its
  stability region holds the left half-disk of radius 2.6, so the step is
  limited to dt * rho <= 2.5, with rho the spectral radius of the top
  mode's 3x3 matrix at the initial stiffness (coupling included).

Both steppers accumulate the dissipation integral int_0^t E' ds alongside the
state (midpoint: the exact discrete flux dt * D(midpoint); RK4: the same
Runge-Kutta quadrature as the state). Re-integrating that quantity from
thinned records afterwards is too lossy for the a-priori identity check.
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
    record_every-th step, plus t = 0 and t = t_end."""

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


def _midpoint_step(params: ModelParams, basis: EigenBasis, state: ModalState,
                   dt: float, tol: float, max_iter: int):
    """One implicit-midpoint step via exact per-mode solves.

    With a = dt/2 and phi frozen, the midpoint system per mode is linear:

        m_h - a m_v                       = h
        a phi lam m_h + m_v - a alpha lam m_c = v
        a beta lam m_v + (1 + a lam) m_c  = c

    Cramer's rule gives m = n / det with det = d0 + d1 phi and n_h
    independent of phi, so the fixed point runs on the scalar phi alone.
    """
    lam = basis.lambdas
    a = 0.5 * dt
    s_ = 1.0 + a * lam
    q = a * params.alpha * lam
    r_ = a * params.beta * lam
    d0 = s_ + a * a * params.alpha * params.beta * lam * lam
    d1 = a * a * lam * s_

    b1, b2, b3 = state.h, state.v, state.c
    n_h = (s_ + q * r_) * b1 + a * s_ * b2 + a * q * b3

    phi = kirchhoff_coefficient(params, grad_norm_sq(basis, state.h))
    if params.linear:
        det = d0 + d1 * phi
        m_h = n_h / det
    else:
        converged = False
        for _ in range(max_iter):
            det = d0 + d1 * phi
            m_h = n_h / det
            s_mid = float(lam @ (m_h * m_h))
            phi_new = params.m0 + params.m1 * s_mid
            resid = abs(phi_new - phi)
            phi = phi_new
            if resid <= tol * max(1.0, abs(phi)):
                converged = True
                break
        if not converged:
            raise SolverDivergenceError(
                f"midpoint iteration stalled at t={state.t:.6g} (residual {resid:.3e})",
                residual=resid, t=state.t)
        det = d0 + d1 * phi
        m_h = n_h / det

    m_v = (s_ * b2 + q * b3 - phi * a * lam * s_ * b1) / det
    m_c = (b3 - r_ * b2 + phi * a * lam * (r_ * b1 + a * b3)) / det

    h_new = 2.0 * m_h - b1
    v_new = 2.0 * m_v - b2
    c_new = 2.0 * m_c - b3
    if not (np.isfinite(h_new).all() and np.isfinite(v_new).all() and np.isfinite(c_new).all()):
        raise FloatingPointError(f"non-finite state after step at t={state.t:.6g}")
    # exact discrete heat flux of the midpoint scheme
    d_inc = -dt * (params.alpha / params.beta) * float(lam @ (m_c * m_c))
    return ModalState(t=state.t + dt, h=h_new, v=v_new, c=c_new), d_inc


def _rk4_step(params: ModelParams, basis: EigenBasis, state: ModalState, dt: float):
    lam = basis.lambdas
    ab = params.alpha / params.beta

    def f(h, v, c):
        phi = params.m0 + params.m1 * float(lam @ (h * h))
        return v, -phi * lam * h + params.alpha * lam * c, -lam * c - params.beta * lam * v

    def d_of(c):
        return -ab * float(lam @ (c * c))

    h, v, c = state.h, state.v, state.c
    k1 = f(h, v, c)
    d1 = d_of(c)
    s2 = (h + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1], c + 0.5 * dt * k1[2])
    k2 = f(*s2)
    d2 = d_of(s2[2])
    s3 = (h + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1], c + 0.5 * dt * k2[2])
    k3 = f(*s3)
    d3 = d_of(s3[2])
    s4 = (h + dt * k3[0], v + dt * k3[1], c + dt * k3[2])
    k4 = f(*s4)
    d4 = d_of(s4[2])

    h_new = h + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    v_new = v + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    c_new = c + dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    if not (np.isfinite(h_new).all() and np.isfinite(v_new).all() and np.isfinite(c_new).all()):
        raise FloatingPointError(f"non-finite state after step at t={state.t:.6g}")
    d_inc = dt / 6.0 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
    return ModalState(t=state.t + dt, h=h_new, v=v_new, c=c_new), d_inc


def step(params: ModelParams, basis: EigenBasis, state: ModalState,
         config: StepperConfig, dt: float | None = None):
    """Advance one step of size `dt` (default config.dt). Returns the new
    state and the increment of the dissipation integral over the step."""
    if dt is None:
        dt = config.dt
    if config.method == "implicit_midpoint":
        return _midpoint_step(params, basis, state, dt,
                              config.newton_tol, config.newton_max_iter)
    return _rk4_step(params, basis, state, dt)


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
    shape = (n_rec, basis.n_modes)
    rows = ModalState(np.empty(n_rec), np.empty(shape), np.empty(shape), np.empty(shape))
    diss = np.empty(n_rec)

    def keep(i, state, acc):
        rows.t[i], rows.h[i], rows.v[i], rows.c[i], diss[i] = (
            state.t, state.h, state.v, state.c, acc)

    state = state0
    acc = 0.0
    keep(0, state, acc)
    i = 1
    t0 = state0.t
    for n in range(1, n_full + 1):
        state, d_inc = step(params, basis, state, config)
        state.t = t0 + n * config.dt  # avoid accumulated roundoff in t
        acc += d_inc
        if n % record_every == 0 and i < n_rec - 1:  # the last row is t_end's
            keep(i, state, acc)
            i += 1
    if dt_last > 0.0:
        state, d_inc = step(params, basis, state, config, dt=dt_last)
        acc += d_inc
    keep(n_rec - 1, state, acc)
    rows.t[-1] = t_end
    return Trajectory(params=params, basis=basis, config=config, states=rows,
                      records=energy(params, basis, rows, diss_int=diss),
                      n_steps=n_full + (1 if dt_last > 0.0 else 0))
