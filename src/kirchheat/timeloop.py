"""Time integration of the modal system.

Two steppers:

* ``implicit_midpoint`` (default): A-stable, so the step size is set by the
  wave period of interest, not by the stiff heat modes. Each step solves the
  midpoint system exactly per mode; the only nonlinearity is the scalar
  Kirchhoff coefficient phi, the unique root on [m0, inf) of a decreasing
  fixed-point map. It is settled from four moments of the step's state (a
  cubic with a proven error bound, `_moment_root`), and by fixed-point
  iteration only when that bound exceeds newton_tol max(1, phi), which
  takes a large amplitude or a large dt. The linear (m1 = 0) problem needs
  neither.
* ``rk4``: classical explicit Runge-Kutta, for convergence studies. Its
  stability region holds the left half-disk of radius 2.6, so the step is
  limited to dt * rho <= 2.5, with rho the spectral radius of the top
  mode's 3x3 matrix at the initial stiffness (coupling included).

Both steppers accumulate the dissipation integral int_0^t E' ds alongside the
state (midpoint: the exact discrete flux dt * D(midpoint); RK4: the same
Runge-Kutta quadrature as the state). Re-integrating that quantity from
thinned records afterwards is too lossy for the a-priori identity check.

Computing a step is apart from accounting for it. A stepper is built once
per (run, dt) by `_stepper`, which forms every per-mode coefficient up
front and returns a kernel `advance(x, out, t)`. It steps the state as one
(3, N) block x = [h; v; c], writes the (4, N) block [x_new; r] into a row
`out` that the caller owns, with -(r . r) the step's dissipation
increment, and reports its fixed-point evaluations (0 for a
moment-settled step) and accepted residual (for a moment-settled step,
the bound on the error in phi). `_march` runs the kernel over a per-run
block of up to 64 such rows and settles each block at once (increments,
finiteness checks, the dissipation integral and the record rows), with
one kernel for dt and a second one only for a shortened last step, and
folds the per-step counts into `SolverStats`, with a histogram of
evaluations per step. `simulate` runs it over a run and `step` over one
step, so both go through the same code.
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
# the moment solve needs rho = m1 mu0 / min T below this; its truncation,
# about 5 rho^4 of phi - m0, is then below that value's rounding
_MOMENT_RHO_MAX = 1e-4


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
    coefficient over `steps` steps, at most `max_iterations` in one step,
    and `histogram[k]` steps that took k evaluations (k = 0 for a step
    settled from the moments, and for every RK4 or m1 = 0 step).
    `max_residual` is the largest residual a step accepted: the proven
    bound on |phi - phi*| of a moment-settled step, or the last
    |phi_k+1 - phi_k| of a fixed-point step (0.0 for RK4 and m1 = 0).
    `last_step_shortened` says whether the last step shrank to land on
    t_end."""

    steps: int
    iterations: int
    max_iterations: int
    max_residual: float
    last_step_shortened: bool
    histogram: tuple[int, ...]


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
    # the exact discrete heat flux is -dt (alpha/beta) lam m_c^2 = -(sq m_c)^2
    sq = np.sqrt(dt * (params.alpha / params.beta) * lam)
    # rows 0-3: A, sq P_c / d1; rows 4-7: B, sq Q_c / d1; row 8: w;
    # row 9: lam (h + dt v)
    numer = np.concatenate([(2.0 * p - d0 * eye) / d1, sq * p[2:] / d1,
                            (2.0 * qm - d1 * eye) / d1, sq * qm[2:] / d1,
                            np.sqrt(lam) * p[:1] / d1,
                            [[lam, dt * lam, zero]]])
    if not (np.isfinite(numer).all() and np.isfinite(tt).all()):
        raise FloatingPointError(f"midpoint coefficients are not finite at dt = {dt:g} "
                                 f"with lambda in [{lam[0]:g}, {lam[-1]:g}]")
    return numer, tt


def _moment_root(mu, m1: float, t_min: float):
    """Root s of the cubic truncation of the midpoint fixed point in
    s = phi - m0, and a bound on its distance to the exact root.

    `mu` holds the moments mu_j = sum_k w_k^2 T_k^-(j+2), j = 0..3, with
    T = tt + m0 and `t_min` = min T (see `_midpoint_stepper`). With
    a0 = m1 mu0 and rho = a0 / t_min, the cubic
    s - m1 (mu0 - 2 mu1 s + 3 mu2 s^2 - 4 mu3 s^3) has its root within
    3 rho^2 a0 of a0 / (1 + 2 m1 mu1); one Newton step from there leaves
    about 27 rho^6 a0. The bound is |cubic(s)| + a0 (5 rho^4 - 4 rho^5) /
    (1 - rho)^2; it is inf unless rho < _MOMENT_RHO_MAX (so a moment that
    is inf or nan gives inf) and s lies in [0, a0].
    """
    mu0, mu1, mu2, mu3 = mu
    a0 = m1 * mu0
    rho = a0 / t_min
    if not rho < _MOMENT_RHO_MAX:
        return 0.0, math.inf
    b, c, d = 1.0 + 2.0 * m1 * mu1, 3.0 * m1 * mu2, 4.0 * m1 * mu3
    s = a0 / b
    s -= (((d * s - c) * s + b) * s - a0) / ((3.0 * d * s - 2.0 * c) * s + b)
    if not 0.0 <= s <= a0:
        return s, math.inf
    tail = a0 * rho ** 4 * (5.0 - 4.0 * rho) / (1.0 - rho) ** 2
    return s, abs(((d * s - c) * s + b) * s - a0) + tail


def _midpoint_stepper(params: ModelParams, lam: np.ndarray, dt: float,
                      tol: float, max_iter: int):
    """Implicit-midpoint kernel for step size `dt`, with exact per-mode solves.

    With a = dt/2 and phi frozen, the midpoint system per mode is linear:

        m_h - a m_v                       = h
        a phi lam m_h + m_v - a alpha lam m_c = v
        a beta lam m_v + (1 + a lam) m_c  = c

    Cramer's rule gives m = (P b + phi Q b) / det, with b = (h, v, c),
    det = d0 + d1 phi and Q's h row zero, so the solve runs on the scalar
    phi alone. Dividing through by d1 > 0 folds the new state
    x_new = 2 m - b into one combine,

        x_new = (A b + phi B b) / (tt + phi),  A = (2P - d0 I) / d1,
                                               B = (2Q - d1 I) / d1,

    with tt = d0 / d1. One contraction of b with a per-run (10, 3, N) block
    gives, besides A b and B b:

    * the heat rows of P b / d1 and Q b / d1, scaled by
      sq = sqrt(dt (alpha/beta) lam), so the same combine yields
      r = sq m_c and the step's flux is -(r . r);
    * w = sqrt(lam) P_h b / d1, so sqrt(lam) m_h = w / (tt + phi) and phi
      solves phi = F(phi) = m0 + m1 sum_k w_k^2 / (tt_k + phi)^2;
    * lam (h + dt v), for the fallback's start (below).

    **The Kirchhoff coefficient from four moments.** With s = phi - m0 and
    T = tt + m0 > 0, expanding 1/(T + s)^2 gives

        F(m0 + s) - m0 = m1 sum_j (-1)^j (j+1) mu_j s^j,
        mu_j = sum_k w_k^2 T_k^-(j+2).

    F >= m0 and F is decreasing, so G(s) = s - (F(m0 + s) - m0) has
    G' >= 1 on s > -min T: the midpoint root is unique on [m0, inf) (and
    no fixed point lies below m0), and it lies in s in [0, m1 mu0]. With
    rho = m1 mu0 / min T < 1, the series converges there, and its tail
    after j = 3 is at most m1 mu0 sum_{j>=4} (j+1) rho^j
    = m1 mu0 (5 rho^4 - 4 rho^5) / (1 - rho)^2. The root s^ of the cubic
    truncation (`_moment_root`) therefore satisfies
    |s^ - s*| <= |G(s^)| <= |cubic(s^)| + that tail, because G' >= 1.
    So the per-run (4, N) block K_j = T^-(j+2) and min T, one square of
    w and one matvec give the four moments; a step accepts phi = m0 + s^
    when rho < _MOMENT_RHO_MAX and the bound is at most tol max(1, phi),
    and reports the bound as its residual with 0 fixed-point evaluations. For a moment-settled
    step `newton_tol` thus bounds the error in phi itself (in exact
    arithmetic on the computed moments, whose rounding is relative
    N eps), not the last increment of an iteration.

    **The fallback** runs whenever the bound is larger, rho is not small
    (large amplitude or large dt) or a moment is not finite: the fixed
    point phi_k+1 = F(phi_k), each evaluation an add, a divide and a dot,
    from the start max(m0, m0 + m1 sum lam h (h + dt v)), S at the
    midpoint to O(dt^2) clamped to m0. It stops when
    |phi_k+1 - phi_k| <= tol max(1, |phi|), raises SolverDivergenceError
    after `max_iter` evaluations, and raises FloatingPointError at the
    first nan iterate (a non-finite state, or one whose step overflows).
    Steps that take it are bit-identical to the fixed point alone. Both
    paths depend on `x` alone.

    A step writes [x_new; r] into the caller's (4, N) row `out` and
    leaves the flux -(r . r) and every finiteness check of its output to
    `_march`. The last divide is by a per-run (4, N) tiling
    of tt, plus phi: a same-shape divide is cheaper than one that
    broadcasts tt + phi, and gives the same bits.

    The contraction output and the scratch vectors are allocated once here
    and written in place by every step. `x` may be `out[:3]`, because
    every read of `x` happens before `out` is written.

    A step so short that d1 underflows to 0, or a spectrum so stiff that
    the block overflows, is refused as a FloatingPointError.
    """
    numer, tt = _midpoint_block(params, lam, dt)
    m0, m1 = params.m0, params.m1
    n = np.empty((10, lam.size))
    n_a, n_b, n_w, n_s = n[:4], n[4:8], n[8], n[9]
    den, g = np.empty_like(lam), np.empty_like(lam)
    tt4, den4 = np.tile(tt, (4, 1)), np.empty((4, lam.size))
    big_t = tt + m0
    t_min = float(big_t.min())
    with np.errstate(over="ignore"):  # an inf in K only sends steps to the fallback
        kmom = big_t ** -np.arange(2.0, 6.0)[:, None]  # (4, N) block K
    mu = np.empty(4)

    def advance(x: np.ndarray, out: np.ndarray, t: float):
        np.einsum("ijn,jn->in", numer, x, out=n)
        phi, evals, resid = m0, 0, 0.0  # the linear (m1 = 0) solve needs no iteration
        if m1 != 0.0:
            np.multiply(n_w, n_w, out=g)
            np.dot(kmom, g, out=mu)
            s, resid = _moment_root(mu.tolist(), m1, t_min)
            if resid <= tol * max(1.0, m0 + s):
                phi = m0 + s
            else:
                phi = max(m0, m0 + m1 * float(x[0] @ n_s))
                while True:
                    evals += 1
                    np.add(tt, phi, out=den)
                    np.divide(n_w, den, out=g)  # sqrt(lam) m_h
                    phi_new = m0 + m1 * float(g @ g)
                    resid = abs(phi_new - phi)
                    phi = phi_new
                    if resid <= tol * max(1.0, abs(phi)):
                        break
                    if phi != phi:
                        raise FloatingPointError(
                            f"non-finite state or Kirchhoff coefficient at t={t:.6g}")
                    if evals == max_iter:
                        raise SolverDivergenceError(
                            f"midpoint iteration stalled at t={t:.6g} (residual {resid:.3e})",
                            residual=resid, t=t)
        np.multiply(n_b, phi, out=out)
        np.add(n_a, out, out=out)
        np.add(tt4, phi, out=den4)
        np.divide(out, den4, out=out)
        return evals, resid

    return advance


def _rk4_stepper(params: ModelParams, lam: np.ndarray, dt: float):
    """Classical RK4 kernel for step size `dt`. Its dissipation increment
    is the Runge-Kutta quadrature of the flux -(alpha/beta) sum lam c^2 over
    the four stage temperatures c1..c4, written as -(r . r) with

        r = sqrt((dt/6) (alpha/beta) lam (c1^2 + 2 c2^2 + 2 c3^2 + c4^2))

    (alpha beta > 0, so the root is real); a flux that overflows makes r
    inf, and `_march` refuses the step.

    A stage's right-hand side is one contraction of the (3, N) state with
    the per-run linear block (phi = m0), plus -m1 S lam h on the v row."""
    m1 = params.m1
    zero = np.zeros_like(lam)
    linear = np.array([[zero, np.ones_like(lam), zero],
                       [-params.m0 * lam, zero, params.alpha * lam],
                       [zero, -params.beta * lam, -lam]])
    half, sixth = 0.5 * dt, dt / 6.0
    flux = sixth * (params.alpha / params.beta) * lam

    def f(x):
        k = np.einsum("ijn,jn->in", linear, x)
        if m1 != 0.0:
            lam_h = lam * x[0]
            k[1] -= (m1 * float(x[0] @ lam_h)) * lam_h
        return k

    def advance(x: np.ndarray, out: np.ndarray, t: float):
        k1 = f(x)
        x2 = x + half * k1
        k2 = f(x2)
        x3 = x + half * k2
        k3 = f(x3)
        x4 = x + dt * k3
        c2 = x[2] * x[2] + 2.0 * (x2[2] * x2[2] + x3[2] * x3[2]) + x4[2] * x4[2]
        np.add(x, sixth * (k1 + 2.0 * (k2 + k3) + f(x4)), out=out[:3])  # x may be out[:3]
        np.sqrt(flux * c2, out=out[3])
        return 0, 0.0

    return advance


def _stepper(params: ModelParams, basis: EigenBasis, method: str, dt: float,
             tol: float, max_iter: int):
    """The step kernel `advance(x, out, t) -> (evals, resid)` for one
    (run, dt).

    `x` is the (3, N) block of rows h, v, c at time t (used only in error
    messages). The kernel writes the (4, N) block [x_new; r] into `out`,
    which the caller owns; the step's dissipation increment is -(r . r).
    `evals` is the number of fixed-point evaluations the step took and
    `resid` the residual of the accepted iterate (0 and 0.0 for RK4 and
    for m1 = 0). `x` may be `out[:3]`: every read of `x` happens before
    `out` is written. The kernel checks nothing for finiteness beyond its
    own fixed point; `_march` checks every row it writes.
    """
    if method == "implicit_midpoint":
        return _midpoint_stepper(params, basis.lambdas, dt, tol, max_iter)
    return _rk4_stepper(params, basis.lambdas, dt)


def _block_len(n_steps: int, n_modes: int) -> int:
    """Steps per block of `_march`: at most 64, and at most 2^14 values
    (128 KB) in the (B, 4, N) block, so that a block stays in cache
    beside the kernel's own buffers until it is settled (one row from
    N = 4096 up)."""
    return max(1, min(64, n_steps, 2**14 // (4 * n_modes)))


def _march(params: ModelParams, basis: EigenBasis, config: StepperConfig,
           state0: ModalState, dt: float, n_full: int, dt_last: float, t_end: float,
           record_every: int):
    """Take `n_full` steps of `dt` from state0, then one of `dt_last` if it
    is positive, and keep the state and the dissipation integral at t0,
    at every record_every-th full step and at t_end.

    The kernel writes up to B = `_block_len` steps into the rows of a
    per-run (B, 4, N) block, each row read as the next step's state, and
    each block is settled once. One BLAS dot per row, of [x_new; r] with
    [0; -r] (a per-run block whose zeros are never written), gives
    every increment and checks every value: an inf or nan anywhere in a
    row makes its increment nan (0 * inf = nan), and a flux that overflows
    makes it -inf. It is the dot a single step would take, whatever the
    block length. One cumsum, seeded with the integral carried so far,
    adds the increments in the order of one step at a time, and one
    strided slice copies the record rows. A non-finite increment is
    refused as a FloatingPointError at the start time of its step. When
    the kernel raises at step j, the rows before j are settled first, so
    an earlier non-finite row is reported in its place. A row after a bad
    one runs on inf or nan, so the loop runs with numpy's warnings off.

    Returns the (R, 3, N) record rows, their times and dissipation
    integrals, and the run's `SolverStats`.
    """
    n_modes = basis.n_modes
    shortened = dt_last > 0.0
    n_steps = n_full + (1 if shortened else 0)
    # rows: t0, every record_every-th full step, then t_end; a full step
    # that lands on t_end fills only the t_end row
    n_rec = 2 + n_full // record_every
    if not shortened and n_full > 0 and n_full % record_every == 0:
        n_rec -= 1
    rows = np.empty((n_rec, 3, n_modes))
    times = np.empty(n_rec)
    diss = np.empty(n_rec)
    t0 = state0.t
    x = np.array((state0.h, state0.v, state0.c), dtype=float)
    times[0], rows[0], diss[0] = t0, x, 0.0

    b = _block_len(n_steps, n_modes)
    buf = np.empty((b, 4, n_modes))
    outs, xs = list(buf), [row[:3] for row in buf]  # views built once: slicing costs per step
    cols = buf.reshape(b, -1, 1)
    weighted = np.zeros((b, 4, n_modes))  # rows [0; -r]: the zeros are never written
    neg_r, weighted = weighted[:, 3], weighted.reshape(b, 1, -1)
    cum = np.empty(b + 1)
    incs = cum[:, None, None]
    acc, hist, max_evals, max_resid = 0.0, [0], 0, 0.0

    def settle(n0: int, m: int) -> None:
        """Check and account rows 0..m-1 of the block, steps n0..n0+m-1."""
        nonlocal acc
        np.negative(buf[:m, 3], out=neg_r[:m])
        cum[0] = acc
        # a stack of (1, 4N) @ (4N, 1) products is one BLAS dot per row,
        # as for a single step, whatever m is
        np.matmul(weighted[:m], cols[:m], out=incs[1:m + 1])
        np.cumsum(cum[:m + 1], out=cum[:m + 1])
        if not math.isfinite(cum[m]):  # a bad row, or a sum that overflows
            bad = np.flatnonzero(~np.isfinite(np.matmul(weighted[:m], cols[:m])))
            if bad.size:
                raise FloatingPointError("non-finite state or dissipation after step "
                                         f"at t={t0 + (n0 + bad[0] - 1) * dt:.6g}")
        first = -n0 % record_every
        i0 = (n0 + first) // record_every
        count = min(len(range(first, m, record_every)), n_rec - 1 - i0)  # t_end's row is last
        if count > 0:
            sl = slice(first, first + (count - 1) * record_every + 1, record_every)
            rows[i0:i0 + count] = buf[sl, :3]
            diss[i0:i0 + count] = cum[1:][sl]
            # t without roundoff drift
            times[i0:i0 + count] = t0 + np.arange(n0 + first, n0 + sl.stop, record_every) * dt
        acc = float(cum[m])

    advance = _stepper(params, basis, config.method, dt,
                       config.newton_tol, config.newton_max_iter)
    n0 = 1
    with np.errstate(all="ignore"):
        while n0 <= n_steps:
            m = min(b, n_steps - n0 + 1)
            try:
                for j in range(m):
                    n = n0 + j
                    if n > n_full:  # the shortened last step, which lands on t_end
                        advance = _stepper(params, basis, config.method, dt_last,
                                           config.newton_tol, config.newton_max_iter)
                    k, resid = advance(x, outs[j], t0 + (n - 1) * dt)
                    x = xs[j]
                    if k > max_evals:
                        hist.extend([0] * (k - max_evals))
                        max_evals = k
                    hist[k] += 1
                    if resid > max_resid:
                        max_resid = resid
            except (FloatingPointError, SolverDivergenceError):
                settle(n0, j)
                raise
            settle(n0, m)
            n0 += m
    times[-1], rows[-1], diss[-1] = t_end, x, acc
    solver = SolverStats(n_steps, sum(k * c for k, c in enumerate(hist)), max_evals,
                         max_resid, shortened, tuple(hist))
    return rows, times, diss, solver


def step(params: ModelParams, basis: EigenBasis, state: ModalState,
         config: StepperConfig, dt: float | None = None):
    """Advance one step of size `dt` (default config.dt). Returns the new
    state and the increment of the dissipation integral over the step.

    Runs `_march` for one step, with its own kernel; `simulate` runs it
    over a whole run instead, so both check and account a step alike."""
    if dt is None:
        dt = config.dt
    rows, _, diss, _ = _march(params, basis, config, state, dt, 1, 0.0, state.t + dt, 1)
    x = rows[-1]
    return ModalState(t=state.t + dt, h=x[0], v=x[1], c=x[2]), float(diss[-1])


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
    rows, times, diss, solver = _march(params, basis, config, state0, config.dt, n_full,
                                       dt_last, t_end, record_every)
    states = ModalState(times, rows[:, 0], rows[:, 1], rows[:, 2])
    return Trajectory(params=params, basis=basis, config=config, states=states,
                      records=energy(params, basis, states, diss_int=diss),
                      n_steps=solver.steps, solver=solver)
