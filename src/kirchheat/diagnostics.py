"""Energies, dissipation identities, decay fits, and integral-inequality checkers.

All norms are evaluated in modal form (weighted coefficient sums), which is
exact by orthonormality of the eigenbasis:

    E(t)  = 1/2 |v|^2 + m0/2 S + m1/4 S^2 + alpha/(2 beta) |c|^2,  S = sum lam h^2
    E'(t) = -(alpha/beta) sum lam c^2   (heat conduction is the only damping)
    E*(t) = sum lam v^2 + (m0 + m1 S) sum lam^2 h^2 + (alpha/beta) sum lam c^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, ModalState, grad_norm_sq, kirchhoff_coefficient, validate_state
from .spectrum import EigenBasis


@dataclass(frozen=True)
class EnergyRecord:
    """Energy of one instant (scalar fields) or of a whole run (fields of
    shape (R,), one entry per record, as `energy` gives for a stacked state).

    `diss_int` carries the cumulative dissipation integral int_0^t E' ds
    when the integrator accumulated it step by step (NaN otherwise); the
    a-priori check prefers it over re-quadrature of the thinned records.
    """

    t: float | np.ndarray
    E: float | np.ndarray
    E_star: float | np.ndarray
    D: float | np.ndarray
    kinetic: float | np.ndarray
    potential_linear: float | np.ndarray
    potential_kirchhoff: float | np.ndarray
    thermal: float | np.ndarray
    S: float | np.ndarray
    diss_int: float | np.ndarray = math.nan


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential envelope E(t) ~ C E(0) exp(-omega t)."""

    C: float
    omega: float
    r_squared: float
    window: tuple[float, float]
    n_used: int

    @property
    def no_decay(self) -> bool:
        return not (self.omega > 0.0)


def dissipation_rate(params: ModelParams, basis: EigenBasis, state: ModalState):
    """E'(t) in modal form: -(alpha/beta) sum_k lambda_k c_k^2 (<= 0 for alpha*beta > 0)."""
    return energy(params, basis, state).D


def higher_energy(params: ModelParams, basis: EigenBasis, state: ModalState):
    """Strong-norm energy sum lam v^2 + phi(S) sum lam^2 h^2 + (alpha/beta) sum lam c^2."""
    return energy(params, basis, state).E_star


def energy(params: ModelParams, basis: EigenBasis, state: ModalState,
           diss_int=math.nan) -> EnergyRecord:
    """Energy record of `state`: E with its component split, E*, and E'.

    A stacked state of R instants gives a record of (R,) columns in one
    vectorised pass; `diss_int` is then one value per instant or a scalar
    broadcast to all of them.
    """
    validate_state(basis, state)
    lam = basis.lambdas
    ab = params.alpha / params.beta
    h, v, c = state.h, state.v, state.c
    # weighted sums over the mode axis: a dot product for one instant, a
    # matrix-vector product for a run
    s = (h * h) @ lam
    lam_c2 = (c * c) @ lam
    kinetic = 0.5 * ((v * v) @ np.ones_like(lam))
    pot_lin = 0.5 * params.m0 * s
    pot_kir = 0.25 * params.m1 * s * s
    thermal = 0.5 * ab * ((c * c) @ np.ones_like(lam))
    e_star = ((v * v) @ lam + (params.m0 + params.m1 * s) * ((h * h) @ (lam * lam))
              + ab * lam_c2)
    if np.ndim(state.t):
        diss_int = np.broadcast_to(np.asarray(diss_int, dtype=float), np.shape(state.t))
    return EnergyRecord(
        t=state.t,
        E=kinetic + pot_lin + pot_kir + thermal,
        E_star=e_star,
        D=-ab * lam_c2,
        kinetic=kinetic,
        potential_linear=pot_lin,
        potential_kirchhoff=pot_kir,
        thermal=thermal,
        S=s,
        diss_int=diss_int,
    )


def energy_gradient(params: ModelParams, basis: EigenBasis, state: ModalState):
    """(dE/dh, dE/dv, dE/dc); pairing this with the modal time derivative
    reproduces the dissipation rate identically."""
    validate_state(basis, state)
    lam = basis.lambdas
    phi = kirchhoff_coefficient(params, grad_norm_sq(basis, state.h))
    return phi * lam * state.h, state.v.copy(), (params.alpha / params.beta) * state.c


def energy_balance_residual(traj_or_records) -> float:
    """max_i |E(t_i) - E(0) - int_0^{t_i} E' ds| with trapezoid on the records.

    Measures the time-discretization defect; shrinks at the integrator's
    order as dt -> 0.
    """
    recs = getattr(traj_or_records, "records", traj_or_records)
    if np.size(recs.t) < 2:
        raise ValueError("need at least 2 records")
    return float(np.abs(recs.E - recs.E[0] - _cumtrapz(recs.t, recs.D)).max())


@dataclass(frozen=True)
class AprioriCheck:
    holds: bool
    margin: float
    tol: float


def first_apriori_check(traj_or_records, tol: float | None = None) -> AprioriCheck:
    """Uniform-in-time bound |v|^2 + (m0 + m1/2 S) S + (a/b)|c|^2 + 2(a/b) int |grad theta|^2 <= 2 E(0).

    The left side equals 2E(t) - 2 int_0^t E' ds, so the check uses the
    recorded components plus the accumulated dissipation integral (falling
    back to trapezoid quadrature when no accumulator was stored). Returns
    the worst margin max_t (LHS - 2E(0)); the bound holds when it is <= tol
    (default 1e-8 * E(0)).
    """
    recs = getattr(traj_or_records, "records", traj_or_records)
    if np.size(recs.t) == 0:
        raise ValueError("no records")
    e0 = float(recs.E[0])
    if tol is None:
        tol = 1e-8 * e0
    di = recs.diss_int
    if not np.isfinite(di).all():
        di = _cumtrapz(recs.t, recs.D)
    lhs = 2.0 * recs.E - 2.0 * di
    margin = float((lhs - 2.0 * e0).max())
    return AprioriCheck(holds=margin <= tol, margin=margin, tol=tol)


def fit_exponential_decay(records, window: tuple[float, float] | None = None,
                          floor: float = 1e-12) -> DecayFit:
    """Least-squares line on (t, log E) over `window`.

    Records with E <= floor * E(0) are dropped before taking logs. The
    default window [0.2 T, 0.8 T] skips the initial transient, where the
    envelope prefactor absorbs oscillation, and the numerically-zero tail.
    Needs at least 10 usable records.
    """
    recs = getattr(records, "records", records)
    if np.size(recs.t) == 0:
        raise ValueError("no records")
    t, e = recs.t, recs.E
    e0 = float(e[0])
    if window is None:
        span = t[-1] - t[0]
        window = (t[0] + 0.2 * span, t[0] + 0.8 * span)
    lo, hi = window
    mask = (t >= lo) & (t <= hi) & (e > floor * e0)
    if mask.sum() < 10:
        raise ValueError(
            f"insufficient records for decay fit: {int(mask.sum())} usable in window {window}"
        )
    ts, ls = t[mask], np.log(e[mask])
    slope, intercept = np.polyfit(ts, ls, 1)
    pred = intercept + slope * ts
    ss_res = float(np.sum((ls - pred) ** 2))
    ss_tot = float(np.sum((ls - ls.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 1e-300 else (1.0 if ss_res < 1e-300 else 0.0)
    omega = -float(slope)
    c = math.exp(float(intercept)) / e0 if e0 > 0.0 else math.nan
    return DecayFit(C=c, omega=omega, r_squared=r2, window=(float(lo), float(hi)),
                    n_used=int(mask.sum()))


@dataclass(frozen=True)
class GronwallCheck:
    bound: np.ndarray
    blowup_time: float | None
    holds: bool
    hypothesis_ok: bool


def check_modified_gronwall(t, G, f, K: float, r: float,
                            tol: float | None = None) -> GronwallCheck:
    """Verify G(t) <= {K^-r - r int_0^t f}^(-1/r) on a sample grid.

    The bound may blow up in finite time; `blowup_time` is the first grid
    point where K^-r - r int f drops to <= 0 and the comparison stops
    there. `holds` is meaningful only when the hypothesis
    G(t) <= K + int_0^t f G^{r+1} is itself satisfied by the samples
    (reported as `hypothesis_ok`); both integrals use the trapezoid rule.
    """
    t = np.asarray(t, dtype=float)
    G = np.asarray(G, dtype=float)
    f = np.asarray(f, dtype=float)
    if not (t.shape == G.shape == f.shape) or t.ndim != 1 or t.size < 2:
        raise ValueError("t, G, f must be equal-length 1D arrays with >= 2 samples")
    if (G < 0.0).any() or (f < 0.0).any():
        raise ValueError("G and f must be nonnegative")
    if not (K > 0.0 and r > 0.0):
        raise ValueError(f"K and r must be positive, got K={K}, r={r}")
    if tol is None:
        tol = 1e-6 * K

    int_f = _cumtrapz(t, f)
    base = K ** (-r) - r * int_f
    alive = base > 0.0
    bound = np.full_like(t, np.inf)
    bound[alive] = base[alive] ** (-1.0 / r)
    bound[int_f == 0.0] = K  # exact where no forcing has accumulated
    blowup = None if alive.all() else float(t[np.argmin(alive)])

    int_hyp = _cumtrapz(t, f * G ** (r + 1.0))
    hyp_ok = bool((G <= K + int_hyp + tol).all())
    holds = bool((G[alive] <= bound[alive] + tol).all())
    return GronwallCheck(bound=bound, blowup_time=blowup, holds=holds,
                         hypothesis_ok=hyp_ok)


def _cumtrapz(t, y):
    return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))])


@dataclass(frozen=True)
class MartinezCheck:
    omega_est: float
    holds: bool
    hypothesis_ok: bool
    envelope: np.ndarray


def check_martinez(t, E, mu: float = 0.0, tail_rel: float = 1e-6,
                   mono_tol: float | None = None,
                   envelope_tol: float | None = None) -> MartinezCheck:
    """Estimate the integral-inequality constant of a nonincreasing energy
    and verify the implied decay envelope.

    omega_est = max_t (int_t^T E^{mu+1} ds) / (E(0)^mu E(t)). The implied
    envelope is E(0) e^{1 - t/omega} for mu = 0 and the decreasing
    algebraic envelope E(0) ((1+mu)/(1 + omega mu t))^{1/mu} for mu > 0.
    The tail integral is truncated at T, which is only faithful when
    E(T) <= tail_rel * E(0); otherwise the hypothesis is reported failed
    (e.g. constant E admits no finite omega). Samples increasing beyond
    mono_tol raise.
    """
    t = np.asarray(t, dtype=float)
    E = np.asarray(E, dtype=float)
    if t.shape != E.shape or t.ndim != 1 or t.size < 3:
        raise ValueError("t and E must be equal-length 1D arrays with >= 3 samples")
    if mu < 0.0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    e0 = float(E[0])
    if mono_tol is None:
        mono_tol = 1e-9 * max(e0, 1.0)
    if (np.diff(E) > mono_tol).any():
        raise ValueError("samples increase beyond tolerance; E must be nonincreasing")

    tail = _cumtrapz(t, E ** (mu + 1.0))
    tail = tail[-1] - tail          # int_t^T E^{mu+1} ds
    pos = E > 0.0
    ratios = tail[pos] / (e0 ** mu * E[pos])
    omega = float(ratios.max())
    hyp_ok = bool(E[-1] <= tail_rel * e0) and omega > 0.0

    if mu == 0.0:
        env = e0 * np.exp(1.0 - t / omega) if omega > 0.0 else np.full_like(t, np.inf)
    else:
        env = e0 * ((1.0 + mu) / (1.0 + omega * mu * t)) ** (1.0 / mu)
    if envelope_tol is None:
        envelope_tol = 1e-9 * max(e0, 1.0)
    holds = hyp_ok and bool((E <= env + envelope_tol).all())
    return MartinezCheck(omega_est=omega, holds=holds, hypothesis_ok=hyp_ok, envelope=env)


@dataclass(frozen=True)
class HorizonEstimate:
    """Empirical growth constant of the strong energy and the blowup horizon
    its integral bound would impose. Reported, never asserted: the analytic
    constant hides embedding factors."""

    c_emp: float
    horizon: float


def higher_energy_bound_horizon(traj_or_records) -> HorizonEstimate:
    """Estimate C = max |dE*/dt| / E*^(3/2) from records and the induced
    horizon 2 / (C sqrt(E*(0))) of the bound E*(t) <= {E*(0)^-1/2 - C t/2}^-2."""
    recs = getattr(traj_or_records, "records", traj_or_records)
    if np.size(recs.t) < 3:
        raise ValueError("need at least 3 records")
    t, es = recs.t, recs.E_star
    dstar = (es[2:] - es[:-2]) / (t[2:] - t[:-2])
    mid = es[1:-1]
    ok = mid > 1e-300
    if not ok.any():
        return HorizonEstimate(c_emp=0.0, horizon=math.inf)
    c = float((np.abs(dstar[ok]) / mid[ok] ** 1.5).max())
    if c <= 0.0 or es[0] <= 0.0:
        return HorizonEstimate(c_emp=c, horizon=math.inf)
    return HorizonEstimate(c_emp=c, horizon=2.0 / (c * math.sqrt(es[0])))
