"""Modal form of the coupled Kirchhoff-heat system.

Displacement y, velocity y_t and temperature theta are expanded on the
Dirichlet eigenbasis; with -Laplacian acting as multiplication by
lambda_k, the wave-heat system

    y_tt - phi(|grad y|^2) Lap y + alpha Lap theta = 0
    theta_t - Lap theta - beta Lap y_t = 0

becomes, per mode k,

    h_k' = v_k
    v_k' = -phi(S) lambda_k h_k + alpha lambda_k c_k
    c_k' = -lambda_k c_k - beta lambda_k v_k

with S = sum_k lambda_k h_k^2 and the affine stiffness
phi(s) = m0 + m1 s (non-degenerate: m0 > 0). The sign convention is
fixed here once: Lap contributes -lambda_k, so the temperature coupling
enters v' with +alpha lambda_k c_k and the velocity coupling enters c'
with -beta lambda_k v_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import EigenBasis


@dataclass(frozen=True)
class ModelParams:
    """Stiffness constants (m0, m1) and couplings (alpha, beta).

    All four must be finite. alpha and beta must be nonzero with the same
    sign; that product sign is what makes heat conduction dissipate the
    total energy.
    """

    m0: float
    m1: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("m0", "m1", "alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.m0 > 0.0:
            raise ValueError(f"m0 must be positive (non-degenerate), got {self.m0}")
        if self.m1 < 0.0:
            raise ValueError(f"m1 must be nonnegative, got {self.m1}")
        if self.alpha == 0.0 or self.beta == 0.0 or self.alpha * self.beta < 0.0:
            raise ValueError(
                "alpha and beta must be nonzero real numbers with the same sign, "
                f"got alpha={self.alpha}, beta={self.beta}"
            )

    @property
    def linear(self) -> bool:
        """True in the degenerate-stiffness case m1 = 0 (linear oracle mode)."""
        return self.m1 == 0.0


@dataclass
class ModalState:
    """Modal coefficients: displacement h, velocity v, temperature c.

    One instant has a float `t` and arrays of shape (N,). A whole run stacks
    R instants along a leading record axis: `t` has shape (R,) and h, v, c
    have shape (R, N).
    """

    t: float | np.ndarray
    h: np.ndarray
    v: np.ndarray
    c: np.ndarray

    def copy(self) -> "ModalState":
        return ModalState(self.t, self.h.copy(), self.v.copy(), self.c.copy())


def zero_state(basis: EigenBasis, t: float = 0.0) -> ModalState:
    n = basis.n_modes
    return ModalState(t, np.zeros(n), np.zeros(n), np.zeros(n))


def validate_state(basis: EigenBasis, state: ModalState):
    """Check that h, v, c have shape (N,) for one instant or (R, N) for a run of R."""
    shape = np.shape(state.t) + (basis.n_modes,)
    for name, arr in (("h", state.h), ("v", state.v), ("c", state.c)):
        if arr.shape != shape:
            raise ValueError(f"state.{name} has shape {arr.shape}, expected {shape}")


def kirchhoff_coefficient(params: ModelParams, s: float) -> float:
    """Amplitude-dependent wave stiffness m0 + m1*s, evaluated at s >= 0."""
    if s < 0.0:
        raise ValueError(f"gradient norm square must be nonnegative, got {s}")
    return params.m0 + params.m1 * s


def grad_norm_sq(basis: EigenBasis, h) -> float:
    """|grad y|^2 in modal form: sum_k lambda_k h_k^2."""
    h = np.asarray(h, dtype=float)
    if h.shape != (basis.n_modes,):
        raise ValueError(f"expected {basis.n_modes} coefficients, got shape {h.shape}")
    return float(basis.lambdas @ (h * h))


def rhs(params: ModelParams, basis: EigenBasis, state: ModalState):
    """Time derivative (dh, dv, dc) of the modal system at `state`."""
    validate_state(basis, state)
    h, v, c = state.h, state.v, state.c
    if not (np.isfinite(h).all() and np.isfinite(v).all() and np.isfinite(c).all()):
        raise FloatingPointError("non-finite state entries")
    lam = basis.lambdas
    phi = kirchhoff_coefficient(params, grad_norm_sq(basis, h))
    dh = v.copy()
    dv = -phi * lam * h + params.alpha * lam * c
    dc = -lam * c - params.beta * lam * v
    return dh, dv, dc


def linear_system_matrix(params: ModelParams, lam: float) -> np.ndarray:
    """Single-mode coefficient matrix of d/dt (h, v, c); exact only for m1 = 0."""
    if params.m1 != 0.0:
        raise ValueError("linear_system_matrix requires m1 = 0")
    if not lam > 0.0:
        raise ValueError(f"eigenvalue must be positive, got {lam}")
    return np.array([
        [0.0, 1.0, 0.0],
        [-params.m0 * lam, 0.0, params.alpha * lam],
        [0.0, -params.beta * lam, -lam],
    ])
