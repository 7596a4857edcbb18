import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirchheat import (
    Domain,
    EnergyRecord,
    ModalState,
    ModelParams,
    StepperConfig,
    build_basis,
    check_martinez,
    check_modified_gronwall,
    dissipation_rate,
    energy,
    energy_balance_residual,
    first_apriori_check,
    fit_exponential_decay,
    higher_energy,
    higher_energy_bound_horizon,
    simulate,
    zero_state,
)

BASIS_L1 = build_basis(Domain.interval(math.pi), 1)             # lambda = 1
BASIS_L2 = build_basis(Domain.interval(math.pi / math.sqrt(2.0)), 1)   # lambda = 2
BASIS_L4 = build_basis(Domain.interval(math.pi / 2.0), 1)       # lambda = 4


def mk_state(h, v, c):
    return ModalState(0.0, np.atleast_1d(np.array(h, dtype=float)),
                      np.atleast_1d(np.array(v, dtype=float)),
                      np.atleast_1d(np.array(c, dtype=float)))


def test_energy_hand_values():
    rec = energy(ModelParams(1.0, 2.0, 1.0, 1.0), BASIS_L1, mk_state(1.0, 0.0, 0.0))
    assert rec.E == pytest.approx(1.0, rel=1e-14)  # 0.5 m0 S + 0.25 m1 S^2
    assert rec.S == pytest.approx(1.0, rel=1e-14)

    rec = energy(ModelParams(1.0, 2.0, 1.0, 1.0), BASIS_L1, mk_state(0.0, 0.0, 0.0))
    assert rec.E == 0.0 and rec.E_star == 0.0 and rec.D == 0.0

    rec = energy(ModelParams(1.0, 0.0, 3.0, 1.0), BASIS_L1, mk_state(0.0, 0.0, 2.0))
    assert rec.E == pytest.approx(6.0, rel=1e-14)  # (alpha/(2 beta)) c^2
    assert rec.thermal == pytest.approx(6.0, rel=1e-14)


def test_dissipation_rate_hand_values():
    assert dissipation_rate(ModelParams(1.0, 0.0, 2.0, 1.0), BASIS_L1,
                            mk_state(0.0, 0.0, 3.0)) == pytest.approx(-18.0)
    assert dissipation_rate(ModelParams(1.0, 0.0, 2.0, 1.0), BASIS_L1,
                            mk_state(1.0, 2.0, 0.0)) == 0.0
    assert dissipation_rate(ModelParams(1.0, 0.0, -1.0, -2.0), BASIS_L4,
                            mk_state(0.0, 0.0, 1.0)) == pytest.approx(-2.0)


def test_higher_energy_hand_values():
    assert higher_energy(ModelParams(1.0, 1.0, 1.0, 1.0), BASIS_L1,
                         mk_state(0.0, 0.0, 0.0)) == 0.0
    assert higher_energy(ModelParams(1.0, 1.0, 1.0, 1.0), BASIS_L1,
                         mk_state(1.0, 0.0, 0.0)) == pytest.approx(2.0, rel=1e-14)
    assert higher_energy(ModelParams(1.0, 0.0, 1.0, 1.0), BASIS_L2,
                         mk_state(0.0, 1.0, 0.0)) == pytest.approx(2.0, rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_energy_components_sum_and_positivity(seed):
    rng = np.random.default_rng(seed)
    basis = build_basis(Domain.interval(math.pi), 3)
    params = ModelParams(m0=float(rng.uniform(0.1, 3.0)), m1=float(rng.uniform(0.0, 3.0)),
                         alpha=float(rng.uniform(0.1, 3.0)), beta=float(rng.uniform(0.1, 3.0)))
    state = ModalState(0.0, rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3),
                       rng.uniform(-3, 3, 3))
    rec = energy(params, basis, state)
    total = rec.kinetic + rec.potential_linear + rec.potential_kirchhoff + rec.thermal
    assert rec.E == pytest.approx(total, rel=1e-12)
    assert rec.E >= 0.0 and rec.E_star >= 0.0 and rec.D <= 0.0


def test_energy_invariant_under_joint_coupling_negation():
    # only alpha/beta enters the energy
    basis = build_basis(Domain.interval(math.pi), 2)
    state = mk_state([0.3, -0.1], [0.2, 0.4], [-0.5, 0.1])
    a = energy(ModelParams(1.0, 0.5, 1.3, 0.7), basis, state)
    b = energy(ModelParams(1.0, 0.5, -1.3, -0.7), basis, state)
    assert a.E == b.E and a.E_star == b.E_star and a.D == b.D


@pytest.mark.parametrize("n", [8, 16])
def test_energy_on_stacked_state_matches_rows(n):
    """A run of R instants gives (R,) columns equal to R single-instant
    records, up to the summation order of a matrix-vector product."""
    rng = np.random.default_rng(n)
    basis = build_basis(Domain.interval(math.pi), n)
    params = ModelParams(1.0, 0.5, 1.3, 0.7)
    r = 6
    run = ModalState(np.linspace(0.0, 1.0, r), rng.standard_normal((r, n)),
                     rng.standard_normal((r, n)), rng.standard_normal((r, n)))
    diss = -rng.uniform(0.0, 1.0, r)
    rec = energy(params, basis, run, diss_int=diss)
    for i in range(r):
        row = energy(params, basis, ModalState(run.t[i], run.h[i], run.v[i], run.c[i]),
                     diss_int=diss[i])
        for f in fields(EnergyRecord):
            col = getattr(rec, f.name)
            assert col.shape == (r,)
            np.testing.assert_allclose(col[i], getattr(row, f.name), rtol=1e-15, atol=0.0)
    np.testing.assert_array_equal(higher_energy(params, basis, run), rec.E_star)
    np.testing.assert_array_equal(dissipation_rate(params, basis, run), rec.D)

    zero = energy(params, basis, ModalState(run.t, np.zeros((r, n)), np.zeros((r, n)),
                                            np.zeros((r, n))))
    for f in fields(EnergyRecord):
        if f.name not in ("t", "diss_int"):
            np.testing.assert_array_equal(getattr(zero, f.name), np.zeros(r))
    with pytest.raises(ValueError, match="shape"):
        energy(params, basis, ModalState(run.t[:-1], run.h, run.v, run.c))


def run_small(m1=0.5, seed=0, t_end=2.0, dt=1e-3, n=4):
    basis = build_basis(Domain.interval(math.pi), n)
    rng = np.random.default_rng(seed)
    state0 = ModalState(0.0, 0.2 * rng.standard_normal(n), 0.2 * rng.standard_normal(n),
                        0.2 * rng.standard_normal(n))
    params = ModelParams(1.0, m1, 1.0, 1.0)
    return params, basis, simulate(params, basis, state0, t_end, StepperConfig(dt=dt))


def test_balance_residual_zero_trajectory():
    basis = build_basis(Domain.interval(math.pi), 3)
    params = ModelParams(1.0, 0.5, 1.0, 1.0)
    traj = simulate(params, basis, zero_state(basis), 1.0, StepperConfig(dt=1e-2))
    assert energy_balance_residual(traj) == 0.0


def test_balance_residual_needs_two_records():
    params, basis, traj = run_small()
    s = traj.states
    one_row = energy(params, basis, ModalState(s.t[:1], s.h[:1], s.v[:1], s.c[:1]))
    with pytest.raises(ValueError):
        energy_balance_residual(one_row)


def test_first_apriori_holds_then_fails_when_corrupted():
    _, _, traj = run_small(seed=5)
    check = first_apriori_check(traj.records)
    assert check.holds
    assert check.tol == pytest.approx(1e-8 * traj.records.E[0])

    e = traj.records.E.copy()
    e[e.size // 2] *= 2.0
    assert not first_apriori_check(replace(traj.records, E=e)).holds


def test_first_apriori_zero_data():
    basis = build_basis(Domain.interval(math.pi), 2)
    params = ModelParams(1.0, 0.5, 1.0, 1.0)
    traj = simulate(params, basis, zero_state(basis), 1.0, StepperConfig(dt=1e-2))
    check = first_apriori_check(traj.records, tol=0.0)
    assert check.holds and check.margin == 0.0


def test_first_apriori_falls_back_to_trapezoid():
    _, _, traj = run_small(seed=6)
    stripped = replace(traj.records, diss_int=np.full_like(traj.records.t, math.nan))
    check = first_apriori_check(stripped, tol=1e-4 * traj.records.E[0])
    assert check.holds


def synthetic_records(t, e=None, e_star=None):
    zero = np.zeros_like(t)
    return EnergyRecord(t=t, E=zero if e is None else e,
                        E_star=zero if e_star is None else e_star, D=zero, kinetic=zero,
                        potential_linear=zero, potential_kirchhoff=zero, thermal=zero,
                        S=zero)


def test_fit_recovers_exact_exponential():
    t = np.linspace(0.0, 10.0, 401)
    fit = fit_exponential_decay(synthetic_records(t, 5.0 * np.exp(-0.3 * t)))
    assert abs(fit.omega - 0.3) <= 1e-10
    assert abs(fit.C - 1.0) <= 1e-10
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.window == (2.0, 8.0)
    assert not fit.no_decay


def test_fit_flags_constant_energy():
    t = np.linspace(0.0, 10.0, 101)
    fit = fit_exponential_decay(synthetic_records(t, np.ones_like(t)))
    assert fit.omega == pytest.approx(0.0, abs=1e-14)
    assert fit.no_decay


def test_fit_drops_floored_records_and_validates():
    t = np.linspace(0.0, 10.0, 101)
    e = np.exp(-t)
    e[60:] = 1e-15  # below the 1e-12 relative floor
    fit = fit_exponential_decay(synthetic_records(t, e), window=(0.0, 10.0))
    assert fit.n_used == 60
    with pytest.raises(ValueError, match="insufficient"):
        fit_exponential_decay(synthetic_records(t[:5], e[:5]), window=(0.0, 0.4))


def test_gronwall_zero_forcing_is_exact():
    t = np.linspace(0.0, 3.0, 301)
    res = check_modified_gronwall(t, np.full_like(t, 1.5), np.zeros_like(t), K=2.0, r=1.0)
    assert np.all(res.bound == 2.0)
    assert res.blowup_time is None
    assert res.holds and res.hypothesis_ok


def test_gronwall_unit_forcing_blowup():
    t = np.linspace(0.0, 1.2, 1201)
    G = np.zeros_like(t)  # trivially satisfies the hypothesis
    res = check_modified_gronwall(t, G, np.ones_like(t), K=1.0, r=1.0)
    alive = t < 1.0 - 1e-12
    np.testing.assert_allclose(res.bound[alive], 1.0 / (1.0 - t[alive]), rtol=1e-10)
    assert res.blowup_time == pytest.approx(1.0, abs=1.2 / 1200 + 1e-12)


def test_gronwall_equality_case_ode_oracle():
    """G' = G^2, G(0)=1 has G = 1/(1-t); the checker bound must track it."""
    h = 1e-4
    steps = 9000
    g = np.empty(steps + 1)
    g[0] = 1.0
    x = 1.0
    for i in range(steps):  # RK4 on the scalar ODE, independent of the checker
        k1 = x * x
        k2 = (x + 0.5 * h * k1) ** 2
        k3 = (x + 0.5 * h * k2) ** 2
        k4 = (x + h * k3) ** 2
        x += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        g[i + 1] = x
    t = np.linspace(0.0, 0.9, steps + 1)
    res = check_modified_gronwall(t, g, np.ones_like(t), K=1.0, r=1.0)
    assert np.abs(res.bound - g).max() <= 1e-4
    assert res.hypothesis_ok and res.holds


def test_gronwall_input_validation():
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        check_modified_gronwall(t, -np.ones_like(t), np.ones_like(t), K=1.0, r=1.0)
    with pytest.raises(ValueError):
        check_modified_gronwall(t, np.ones_like(t), np.ones_like(t), K=0.0, r=1.0)
    with pytest.raises(ValueError):
        check_modified_gronwall(t, np.ones_like(t), np.ones_like(t), K=1.0, r=-2.0)
    with pytest.raises(ValueError):
        check_modified_gronwall(t[:3], np.ones(4), np.ones(4), K=1.0, r=1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.2, 3.0), st.floats(0.2, 3.0))
def test_gronwall_bound_monotonicity(seed, K, r):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, 64)
    f = rng.uniform(0.0, 0.3, 64)
    res = check_modified_gronwall(t, np.zeros_like(t), f, K=K, r=r)
    finite = np.isfinite(res.bound)
    assert np.all(np.diff(res.bound[finite]) >= -1e-12)  # nondecreasing in t
    res_smaller_k = check_modified_gronwall(t, np.zeros_like(t), f, K=0.9 * K, r=r)
    both = finite & np.isfinite(res_smaller_k.bound)
    assert np.all(res_smaller_k.bound[both] <= res.bound[both] + 1e-12)


def test_martinez_exponential_mu_zero():
    t = np.linspace(0.0, 30.0, 30001)
    res = check_martinez(t, np.exp(-t), mu=0.0)
    assert abs(res.omega_est - 1.0) <= 1e-3
    assert res.hypothesis_ok and res.holds
    assert np.all(np.exp(-t) <= res.envelope + 1e-9)


def test_martinez_polynomial_mu_half():
    # E = (1+t)^-2, mu = 1/2: closed-form tail integral gives omega = 1/2
    t = np.linspace(0.0, 2000.0, 40001)
    e = (1.0 + t) ** -2
    res = check_martinez(t, e, mu=0.5)
    assert res.hypothesis_ok
    assert abs(res.omega_est - 0.5) <= 1e-3
    assert res.holds
    assert np.all(np.diff(res.envelope) <= 0.0)  # decreasing envelope, not the
    # increasing shape a sign slip in the exponent would produce


def test_martinez_constant_energy_reports_hypothesis_failure():
    t = np.linspace(0.0, 10.0, 101)
    res = check_martinez(t, np.ones_like(t), mu=0.0)
    assert not res.hypothesis_ok
    assert not res.holds


def test_martinez_rejects_increasing_samples_and_bad_mu():
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="nonincreasing"):
        check_martinez(t, t.copy(), mu=0.0)
    with pytest.raises(ValueError):
        check_martinez(t, np.exp(-t), mu=-0.5)


def test_horizon_estimate_on_exact_riccati_growth():
    # E* = (E0^-1/2 - C t / 2)^-2 solves dE*/dt = C E*^(3/2); C = 1, E0 = 1
    t = np.linspace(0.0, 1.5, 1501)
    estar = (1.0 - 0.5 * t) ** -2.0
    est = higher_energy_bound_horizon(synthetic_records(t, e_star=estar))
    assert est.c_emp == pytest.approx(1.0, rel=2e-2)
    assert est.horizon == pytest.approx(2.0, rel=2e-2)


def test_horizon_estimate_reports_on_simulated_run():
    _, _, traj = run_small(seed=11)
    est = higher_energy_bound_horizon(traj.records)
    assert est.c_emp > 0.0
    assert est.horizon > 0.0
