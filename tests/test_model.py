import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirchheat import (
    Domain,
    ModalState,
    ModelParams,
    build_basis,
    dissipation_rate,
    energy_gradient,
    grad_norm_sq,
    kirchhoff_coefficient,
    linear_system_matrix,
    rhs,
    zero_state,
)

BASIS_2 = build_basis(Domain.interval(math.pi), 2)   # lambdas [1, 4]
BASIS_1 = build_basis(Domain.interval(math.pi), 1)   # lambda 1


def test_params_validation():
    ModelParams(m0=1.0, m1=0.0, alpha=1.0, beta=2.0)
    ModelParams(m0=1.0, m1=0.5, alpha=-1.0, beta=-0.5)
    with pytest.raises(ValueError, match="m0"):
        ModelParams(m0=0.0, m1=1.0, alpha=1.0, beta=1.0)
    with pytest.raises(ValueError, match="m1"):
        ModelParams(m0=1.0, m1=-0.1, alpha=1.0, beta=1.0)
    for a, b in [(0.0, 1.0), (1.0, 0.0), (1.0, -1.0), (-2.0, 3.0)]:
        with pytest.raises(ValueError, match="same sign"):
            ModelParams(m0=1.0, m1=0.0, alpha=a, beta=b)
    for name in ("m0", "m1", "alpha", "beta"):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                ModelParams(**{"m0": 1.0, "m1": 0.5, "alpha": 1.0, "beta": 1.0, name: bad})


def test_linear_flag():
    assert ModelParams(m0=1.0, m1=0.0, alpha=1.0, beta=1.0).linear
    assert not ModelParams(m0=1.0, m1=1e-12, alpha=1.0, beta=1.0).linear


def test_kirchhoff_coefficient():
    assert kirchhoff_coefficient(ModelParams(1.0, 2.0, 1.0, 1.0), 3.0) == 7.0
    assert kirchhoff_coefficient(ModelParams(1.0, 0.0, 1.0, 1.0), 100.0) == 1.0
    assert kirchhoff_coefficient(ModelParams(0.5, 1.0, 1.0, 1.0), 0.0) == 0.5
    with pytest.raises(ValueError):
        kirchhoff_coefficient(ModelParams(1.0, 1.0, 1.0, 1.0), -1e-9)


def test_grad_norm_sq():
    assert grad_norm_sq(BASIS_2, [2.0, 1.0]) == pytest.approx(8.0, rel=1e-14)
    assert grad_norm_sq(BASIS_2, [0.0, 0.0]) == 0.0
    assert grad_norm_sq(BASIS_1, [3.0]) == pytest.approx(9.0, rel=1e-14)
    with pytest.raises(ValueError):
        grad_norm_sq(BASIS_2, [1.0, 2.0, 3.0])


@given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
       st.lists(st.booleans(), min_size=2, max_size=2))
def test_grad_norm_sign_invariance(h, flips):
    h = np.array(h)
    flipped = h * np.where(flips, -1.0, 1.0)
    assert grad_norm_sq(BASIS_2, flipped) == grad_norm_sq(BASIS_2, h)


def test_rhs_hand_examples():
    params = ModelParams(m0=1.0, m1=0.0, alpha=1.0, beta=1.0)
    state = ModalState(0.0, np.array([1.0]), np.array([0.0]), np.array([0.0]))
    dh, dv, dc = rhs(params, BASIS_1, state)
    assert (dh[0], dv[0], dc[0]) == (0.0, -1.0, 0.0)

    dh, dv, dc = rhs(params, BASIS_1, zero_state(BASIS_1))
    assert not dh.any() and not dv.any() and not dc.any()

    # nonlocal term: S = 4, phi = 5
    params = ModelParams(m0=1.0, m1=1.0, alpha=1.0, beta=1.0)
    state = ModalState(0.0, np.array([2.0]), np.array([0.0]), np.array([0.0]))
    _, dv, _ = rhs(params, BASIS_1, state)
    assert dv[0] == pytest.approx(-10.0, rel=1e-14)


def test_rhs_coupling_signs():
    # v' picks +alpha lam c, c' picks -beta lam v (Lap = -lambda convention)
    params = ModelParams(m0=1.0, m1=0.0, alpha=2.0, beta=3.0)
    state = ModalState(0.0, np.array([0.0, 0.0]), np.array([0.0, 1.0]),
                       np.array([0.5, 0.0]))
    dh, dv, dc = rhs(params, BASIS_2, state)
    assert dv[0] == pytest.approx(2.0 * 1.0 * 0.5)
    assert dc[1] == pytest.approx(-3.0 * 4.0 * 1.0)
    assert dh[1] == 1.0


def test_rhs_rejects_non_finite():
    params = ModelParams(m0=1.0, m1=0.0, alpha=1.0, beta=1.0)
    state = ModalState(0.0, np.array([np.nan]), np.array([0.0]), np.array([0.0]))
    with pytest.raises(FloatingPointError):
        rhs(params, BASIS_1, state)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_rhs_linear_superposition_when_m1_zero(seed):
    params = ModelParams(m0=1.3, m1=0.0, alpha=0.7, beta=1.1)
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((2, 3, 2))
    a = float(rng.uniform(-3.0, 3.0))
    sx = ModalState(0.0, *xs[0])
    sy = ModalState(0.0, *xs[1])
    s_sum = ModalState(0.0, *(xs[0] + xs[1]))
    s_scaled = ModalState(0.0, *(a * xs[0]))
    for i in range(3):
        np.testing.assert_allclose(
            rhs(params, BASIS_2, s_sum)[i],
            np.array(rhs(params, BASIS_2, sx)[i]) + rhs(params, BASIS_2, sy)[i],
            rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            rhs(params, BASIS_2, s_scaled)[i],
            a * np.array(rhs(params, BASIS_2, sx)[i]),
            rtol=1e-13, atol=1e-13)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_energy_gradient_pairs_to_dissipation(seed, negative_couplings):
    """<grad E, rhs> = -(alpha/beta) sum lam c^2 along the flow, the
    continuous-time dissipation identity."""
    rng = np.random.default_rng(seed)
    sign = -1.0 if negative_couplings else 1.0
    params = ModelParams(m0=float(rng.uniform(0.2, 2.0)),
                         m1=float(rng.uniform(0.0, 2.0)),
                         alpha=sign * float(rng.uniform(0.2, 2.0)),
                         beta=sign * float(rng.uniform(0.2, 2.0)))
    basis = build_basis(Domain.interval(math.pi), 4)
    state = ModalState(0.0, rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4),
                       rng.uniform(-2, 2, 4))
    gh, gv, gc = energy_gradient(params, basis, state)
    dh, dv, dc = rhs(params, basis, state)
    paired = float(gh @ dh + gv @ dv + gc @ dc)
    d = dissipation_rate(params, basis, state)
    assert abs(paired - d) <= 1e-10 * max(1.0, abs(d))


def test_linear_system_matrix():
    params = ModelParams(m0=1.0, m1=0.0, alpha=1.0, beta=1.0)
    a = linear_system_matrix(params, 1.0)
    np.testing.assert_array_equal(
        a, [[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, -1.0]])
    # char poly s^3 + s^2 + 2 s + 1 via numpy's eigenvalue-based expansion
    np.testing.assert_allclose(np.poly(a), [1.0, 1.0, 2.0, 1.0], atol=1e-12)
    with pytest.raises(ValueError):
        linear_system_matrix(ModelParams(1.0, 0.5, 1.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        linear_system_matrix(params, -1.0)


def test_linear_spectrum_sets_decay_exponent():
    # slowest eigenvalue pair has Re = -0.21507985...; energy (quadratic)
    # decays at twice that rate
    params = ModelParams(m0=1.0, m1=0.0, alpha=1.0, beta=1.0)
    eigs = np.linalg.eigvals(linear_system_matrix(params, 1.0))
    slow = max(e.real for e in eigs)
    assert slow == pytest.approx(-0.2150798545006734, abs=1e-12)
    roots = np.roots([1.0, 1.0, 2.0, 1.0])
    assert max(r.real for r in roots) == pytest.approx(slow, abs=1e-12)
    assert 2.0 * abs(slow) == pytest.approx(0.4301597090019469, abs=1e-12)
