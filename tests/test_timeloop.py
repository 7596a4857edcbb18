import decimal
import itertools
import math
from decimal import Decimal

import numpy as np
import pytest
from scipy.linalg import expm

from kirchheat import (
    Domain,
    ModalState,
    ModelParams,
    SolverDivergenceError,
    StepperConfig,
    build_basis,
    default_dt,
    grad_norm_sq,
    kirchhoff_coefficient,
    linear_system_matrix,
    simulate,
    step,
    zero_state,
)
from kirchheat import timeloop
from kirchheat.timeloop import _block_len, _midpoint_block, _moment_root, rk4_dt_limit

BASIS_1 = build_basis(Domain.interval(math.pi), 1)
BASIS_4 = build_basis(Domain.interval(math.pi), 4)
LIN = ModelParams(m0=1.0, m1=0.0, alpha=1.0, beta=1.0)
NONLIN = ModelParams(m0=1.0, m1=0.5, alpha=1.0, beta=1.0)


def small_state(basis, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    n = basis.n_modes
    return ModalState(0.0, scale * rng.standard_normal(n),
                      scale * rng.standard_normal(n), scale * rng.standard_normal(n))


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(method="euler", dt=0.1)
    with pytest.raises(ValueError):
        StepperConfig(dt=0.0)
    with pytest.raises(ValueError):
        StepperConfig(dt=0.1, newton_tol=0.0)
    with pytest.raises(ValueError):
        StepperConfig(dt=0.1, newton_max_iter=0)


@pytest.mark.parametrize("method", ["implicit_midpoint", "rk4"])
def test_zero_state_is_exact_fixed_point(method):
    cfg = StepperConfig(method=method, dt=1e-2)
    new, d_inc = step(NONLIN, BASIS_4, zero_state(BASIS_4), cfg)
    assert not new.h.any() and not new.v.any() and not new.c.any()
    assert d_inc == 0.0


@pytest.mark.parametrize("method,order", [("implicit_midpoint", 3), ("rk4", 5)])
def test_single_step_matches_matrix_exponential(method, order):
    """m1 = 0 single mode: one step agrees with expm(dt A) x0 at the local
    order; halving dt shrinks the defect by ~2^order."""
    a = linear_system_matrix(LIN, 1.0)
    x0 = np.array([0.7, -0.2, 0.4])

    def defect(dt):
        state = ModalState(0.0, x0[:1].copy(), x0[1:2].copy(), x0[2:3].copy())
        new, _ = step(LIN, BASIS_1, state, StepperConfig(method=method, dt=dt))
        exact = expm(dt * a) @ x0
        return float(np.abs(np.array([new.h[0], new.v[0], new.c[0]]) - exact).max())

    d1, d2 = defect(2e-2), defect(1e-2)
    assert d1 <= 5.0 * (2e-2) ** order
    ratio = d1 / d2
    nominal = 2.0 ** order
    assert 0.8 * nominal <= ratio <= 1.2 * nominal


def test_record_count_contract():
    state0 = small_state(BASIS_4)
    cfg = StepperConfig(dt=1e-2)
    # 100 steps land exactly on t_end
    traj = simulate(NONLIN, BASIS_4, state0, 1.0, cfg, record_every=5)
    assert traj.records.t.size == 1 + 100 // 5
    traj = simulate(NONLIN, BASIS_4, state0, 1.0, cfg, record_every=7)
    assert traj.records.t.size == 1 + 100 // 7 + 1
    # partial final step appends one more record
    traj = simulate(NONLIN, BASIS_4, state0, 1.005, cfg, record_every=5)
    assert traj.records.t.size == 1 + 100 // 5 + 1
    assert traj.records.t[-1] == 1.005
    assert traj.n_steps == 101


def test_record_times_and_states_align():
    state0 = small_state(BASIS_4, seed=1)
    traj = simulate(NONLIN, BASIS_4, state0, 0.5, StepperConfig(dt=1e-2), record_every=3)
    times = traj.records.t
    assert times[0] == 0.0
    assert times[-1] == 0.5
    assert np.all(np.diff(times) > 0.0)
    assert np.array_equal(traj.states.t, times)
    np.testing.assert_allclose(np.diff(times)[:-1], 3e-2, rtol=1e-12)


def test_simulate_argument_validation():
    state0 = small_state(BASIS_4)
    with pytest.raises(ValueError):
        simulate(NONLIN, BASIS_4, state0, 0.0, StepperConfig(dt=1e-2))
    with pytest.raises(ValueError):
        simulate(NONLIN, BASIS_4, state0, 1.0, StepperConfig(dt=1e-2), record_every=0)


def test_rk4_stability_guard():
    cfg = StepperConfig(method="rk4", dt=1.0)  # dt * lambda_max = 16
    with pytest.raises(ValueError, match="rk4 unstable"):
        simulate(NONLIN, BASIS_4, small_state(BASIS_4), 2.0, cfg)


def test_rk4_limit_accounts_for_coupling():
    """With alpha = beta = 2 the top mode's eigenvalues reach |mu| ~ 2
    lambda_max, so the limit lies well below 2.5 / lambda_max; RK4 runs
    stably at it and is refused at 2 / lambda_max."""
    coupled = ModelParams(m0=1.0, m1=0.5, alpha=2.0, beta=2.0)
    state0 = small_state(BASIS_4)
    limit = rk4_dt_limit(coupled, BASIS_4, state0)
    assert limit < 1.5 / BASIS_4.lambda_max
    traj = simulate(coupled, BASIS_4, state0, 2.0, StepperConfig(method="rk4", dt=limit),
                    record_every=10)
    assert np.isfinite(traj.states.h).all() and traj.records.E[-1] < traj.records.E[0]
    with pytest.raises(ValueError, match="rk4 unstable"):
        simulate(coupled, BASIS_4, state0, 2.0,
                 StepperConfig(method="rk4", dt=2.0 / BASIS_4.lambda_max))


def test_energy_never_increases_beyond_tolerance():
    state0 = small_state(BASIS_4, seed=2)
    traj = simulate(NONLIN, BASIS_4, state0, 5.0, StepperConfig(dt=1e-3))
    e = traj.records.E
    assert np.diff(e).max() <= 1e-9 * e[0]
    assert e[-1] < e[0]


def test_dissipation_accumulator_tracks_energy_drop():
    # the in-step accumulator of int_0^T E' ds reproduces E(T) - E(0) exactly
    # for the quadratic energy (m1 = 0); the quartic term adds O(dt^2) defect
    state0 = small_state(BASIS_4, seed=3)
    lin = simulate(LIN, BASIS_4, state0, 2.0, StepperConfig(dt=1e-3))
    drop = lin.records.E[-1] - lin.records.E[0]
    assert lin.records.diss_int[-1] == pytest.approx(drop, abs=1e-13 * lin.records.E[0])

    traj = simulate(NONLIN, BASIS_4, state0, 2.0, StepperConfig(dt=1e-3))
    drop = traj.records.E[-1] - traj.records.E[0]
    assert traj.records.diss_int[-1] == pytest.approx(drop, abs=1e-5 * traj.records.E[0])


def test_default_dt_formula():
    state0 = small_state(BASIS_4, seed=4)
    phi = kirchhoff_coefficient(NONLIN, grad_norm_sq(BASIS_4, state0.h))
    expected = 0.1 / math.sqrt(phi * BASIS_4.lambda_max)
    assert default_dt(NONLIN, BASIS_4, state0) == pytest.approx(expected, rel=1e-14)


def test_midpoint_linear_solve_is_iteration_free():
    # m1 = 0 converges immediately even with a one-iteration budget
    cfg = StepperConfig(dt=0.1, newton_max_iter=1)
    new, _ = step(LIN, BASIS_4, small_state(BASIS_4, seed=5), cfg)
    assert np.isfinite(new.h).all()


def test_solver_divergence_reported_with_time_and_residual():
    # nonlinear phi update cannot settle within a single iteration at 1e-12
    cfg = StepperConfig(dt=0.2, newton_max_iter=1, newton_tol=1e-12)
    state = small_state(BASIS_4, seed=6, scale=1.5)
    state.t = 0.75
    with pytest.raises(SolverDivergenceError) as err:
        step(NONLIN, BASIS_4, state, cfg)
    assert err.value.t == 0.75
    assert err.value.residual > 1e-12


def test_simulate_attaches_failing_time():
    cfg = StepperConfig(dt=0.2, newton_max_iter=1, newton_tol=1e-15)
    with pytest.raises(SolverDivergenceError) as err:
        simulate(NONLIN, BASIS_4, small_state(BASIS_4, seed=7, scale=1.5), 3.0, cfg)
    assert 0.0 <= err.value.t < 3.0


def test_coupling_sign_flip_with_negated_temperature():
    """(alpha, beta, theta0) -> (-alpha, -beta, -theta0) reproduces the same
    displacement/velocity path with the temperature negated, bit for bit."""
    state0 = small_state(BASIS_4, seed=8)
    flipped_params = ModelParams(m0=NONLIN.m0, m1=NONLIN.m1,
                                 alpha=-NONLIN.alpha, beta=-NONLIN.beta)
    s0f = state0.copy()
    s0f.c = -s0f.c
    cfg = StepperConfig(dt=2e-3)
    a = simulate(NONLIN, BASIS_4, state0, 1.0, cfg)
    b = simulate(flipped_params, BASIS_4, s0f, 1.0, cfg)
    np.testing.assert_array_equal(a.states.h, b.states.h)
    np.testing.assert_array_equal(a.states.v, b.states.v)
    np.testing.assert_array_equal(a.states.c, -b.states.c)
    for col in ("E", "D", "E_star"):
        np.testing.assert_array_equal(getattr(a.records, col), getattr(b.records, col))


def test_balance_residual_second_order():
    from kirchheat import energy_balance_residual
    state0 = small_state(BASIS_4, seed=9)
    r = []
    for dt in (2e-3, 1e-3):
        traj = simulate(NONLIN, BASIS_4, state0, 2.0, StepperConfig(dt=dt))
        r.append(energy_balance_residual(traj))
    assert 3.25 <= r[0] / r[1] <= 4.92


def test_rk4_midpoint_cross_agreement():
    state0 = small_state(BASIS_4, seed=10)
    mid = simulate(NONLIN, BASIS_4, state0, 1.0, StepperConfig(dt=5e-4))
    rk = simulate(NONLIN, BASIS_4, state0, 1.0, StepperConfig(method="rk4", dt=5e-4))
    assert abs(mid.records.E[-1] - rk.records.E[-1]) <= 1e-7 * mid.records.E[0]


def cramer_midpoint_step(params, basis, state, dt, tol=1e-12, max_iter=50):
    """One implicit-midpoint step by the per-mode Cramer formulas, written
    out term by term, with the fixed point on the scalar phi."""
    lam = basis.lambdas
    a = 0.5 * dt
    s_ = 1.0 + a * lam
    q = a * params.alpha * lam
    r_ = a * params.beta * lam
    d0 = s_ + a * a * params.alpha * params.beta * lam * lam
    d1 = a * a * lam * s_
    b1, b2, b3 = state.h, state.v, state.c
    n_h = (s_ + q * r_) * b1 + a * s_ * b2 + a * q * b3
    phi = params.m0 + params.m1 * float(lam @ (b1 * b1))
    for _ in range(max_iter):
        m_h = n_h / (d0 + d1 * phi)
        phi_new = params.m0 + params.m1 * float(lam @ (m_h * m_h))
        done = abs(phi_new - phi) <= tol * max(1.0, abs(phi_new))
        phi = phi_new
        if done:
            break
    det = d0 + d1 * phi
    m_h = n_h / det
    m_v = (s_ * b2 + q * b3 - phi * a * lam * s_ * b1) / det
    m_c = (b3 - r_ * b2 + phi * a * lam * (r_ * b1 + a * b3)) / det
    d_inc = -dt * (params.alpha / params.beta) * float(lam @ (m_c * m_c))
    return np.array([2.0 * m_h - b1, 2.0 * m_v - b2, 2.0 * m_c - b3]), d_inc


KERNEL_CASES = [
    (Domain.interval(math.pi), 8, LIN),
    (Domain.interval(math.pi), 8, NONLIN),
    (Domain.rectangle(1.0, 1.7), 9, LIN),
    (Domain.rectangle(1.0, 1.7), 9, ModelParams(m0=0.8, m1=0.7, alpha=-1.5, beta=-0.5)),
]


@pytest.mark.parametrize("domain,n,params", KERNEL_CASES)
def test_kernel_matches_cramer_formulas(domain, n, params):
    basis = build_basis(domain, n)
    state = small_state(basis, seed=11)
    dt = 0.1 / math.sqrt(basis.lambda_max)
    new, d_inc = step(params, basis, state, StepperConfig(dt=dt))
    want, d_want = cramer_midpoint_step(params, basis, state, dt)
    got = np.array([new.h, new.v, new.c])
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert d_inc == pytest.approx(d_want, rel=1e-14)
    assert new.t == dt


@pytest.mark.parametrize("record_every", [1, 7, 64])
@pytest.mark.parametrize("method", ["implicit_midpoint", "rk4"])
@pytest.mark.parametrize("domain,n,params", KERNEL_CASES)
def test_simulate_equals_repeated_step(domain, n, params, method, record_every):
    """150 full steps and a shortened one run over three blocks of 64
    steps; every record equals a loop of `step` bit for bit, including
    the dissipation integral."""
    basis = build_basis(domain, n)
    state = small_state(basis, seed=12)
    dt = 0.5 / basis.lambda_max
    cfg = StepperConfig(method=method, dt=dt)
    k = 150
    t_end = (k + 0.4) * dt
    traj = simulate(params, basis, state, t_end, cfg, record_every=record_every)
    assert traj.n_steps == k + 1 and traj.records.t.size == k // record_every + 2
    acc = 0.0
    for i in range(1, k + 2):
        state, d_inc = step(params, basis, state, cfg, dt=dt if i <= k else t_end - k * dt)
        acc += d_inc
        if i % record_every and i <= k:
            continue
        row = i // record_every if i <= k else -1
        assert np.array_equal(traj.states.h[row], state.h)
        assert np.array_equal(traj.states.v[row], state.v)
        assert np.array_equal(traj.states.c[row], state.c)
        assert traj.records.diss_int[row] == acc


@pytest.mark.parametrize("method", ["implicit_midpoint", "rk4"])
def test_shortened_last_step_lands_on_t_end(method):
    basis = build_basis(Domain.rectangle(1.0, 1.7), 9)
    state = small_state(basis, seed=13)
    dt = 0.5 / basis.lambda_max
    t_end = 3.4 * dt
    cfg = StepperConfig(method=method, dt=dt)
    traj = simulate(NONLIN, basis, state, t_end, cfg)
    assert traj.n_steps == 4 and traj.records.t[-1] == t_end
    for _ in range(3):
        state, _ = step(NONLIN, basis, state, cfg)
    last, _ = step(NONLIN, basis, state, cfg, dt=t_end - 3 * dt)
    assert np.array_equal(traj.states.h[-1], last.h)
    assert np.array_equal(traj.states.c[-1], last.c)
    assert last.t == pytest.approx(t_end, rel=1e-15)


@pytest.mark.parametrize("method", ["implicit_midpoint", "rk4"])
def test_endpoint_records_keep_final_energy(method):
    """record_every = the step count keeps only the two endpoint rows, and
    the final energy is the full-record run's, bit for bit."""
    state0 = small_state(BASIS_4, seed=14)
    cfg = StepperConfig(method=method, dt=1e-2)
    full = simulate(NONLIN, BASIS_4, state0, 1.0, cfg)
    ends = simulate(NONLIN, BASIS_4, state0, 1.0, cfg, record_every=full.n_steps)
    assert ends.records.t.size == 2 and full.records.t.size == 101
    assert ends.records.E[-1] == full.records.E[-1]
    assert ends.records.diss_int[-1] == full.records.diss_int[-1]


def midpoint_step_from(params, basis, state, dt, phi, tol=1e-12, max_iter=50):
    """One implicit-midpoint step whose fixed point starts at `phi`; also
    returns the number of evaluations it took."""
    lam = basis.lambdas
    a = 0.5 * dt
    s_ = 1.0 + a * lam
    q = a * params.alpha * lam
    r_ = a * params.beta * lam
    d0 = s_ + a * a * params.alpha * params.beta * lam * lam
    d1 = a * a * lam * s_
    b1, b2, b3 = state.h, state.v, state.c
    n_h = (s_ + q * r_) * b1 + a * s_ * b2 + a * q * b3
    for evals in range(1, max_iter + 1):
        m_h = n_h / (d0 + d1 * phi)
        phi_new = params.m0 + params.m1 * float(lam @ (m_h * m_h))
        done = abs(phi_new - phi) <= tol * max(1.0, abs(phi_new))
        phi = phi_new
        if done:
            break
    det = d0 + d1 * phi
    m = np.array([n_h, s_ * b2 + q * b3 - phi * a * lam * s_ * b1,
                  b3 - r_ * b2 + phi * a * lam * (r_ * b1 + a * b3)]) / det
    return 2.0 * m - np.array([b1, b2, b3]), evals


def one_step(params, basis, state, dt, max_iter=50):
    """A one-step `simulate`: the new (3, N) block and the run's SolverStats."""
    traj = simulate(params, basis, state, state.t + dt,
                    StepperConfig(dt=dt, newton_max_iter=max_iter))
    s = traj.states
    return np.array([s.h[-1], s.v[-1], s.c[-1]]), traj.solver


def test_predicted_start_far_off_matches_reference():
    """At dt = 0.05 and y0 amplitude 50 the predicted S (2375) and S_n
    (2500) both lie far from the root (S at the midpoint ~ 1236), and the
    fixed point contracts slowly; started at the prediction, the step
    lands on the root that a fixed point started at m0 + m1 S_n reaches
    at the same tolerance."""
    basis = build_basis(Domain.interval(math.pi), 16)
    h, v, c = np.zeros(16), np.zeros(16), np.zeros(16)
    h[0], v[0], c[1] = 50.0, -50.0, 0.1
    state = ModalState(0.0, h, v, c)
    got, stats = one_step(NONLIN, basis, state, 0.05, max_iter=100)
    want, _ = cramer_midpoint_step(NONLIN, basis, state, 0.05, max_iter=100)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert stats.steps == 1 and stats.iterations == stats.max_iterations > 10


def test_negative_predicted_start_is_clamped_to_m0():
    """sum lam h (h + dt v) < 0: the start clamps to m0 and the fixed point
    takes exactly the evaluations of one started at m0."""
    state = small_state(BASIS_4, seed=15)
    dt = 0.1
    state.v = -3.0 * state.h / dt
    lam = BASIS_4.lambdas
    assert float(lam @ (state.h * (state.h + dt * state.v))) < 0.0
    got, stats = one_step(NONLIN, BASIS_4, state, dt)
    want, evals = midpoint_step_from(NONLIN, BASIS_4, state, dt, NONLIN.m0)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert stats.iterations == evals


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("row", ["h", "v", "c"])
def test_non_finite_state_is_refused(row, bad):
    """m1 = 0 runs no fixed point, so only the kernel's folded flux and
    finiteness dot can catch an inf or nan in one entry of h, v or c."""
    state = small_state(BASIS_4, seed=16)
    getattr(state, row)[2] = bad
    with pytest.raises(FloatingPointError, match="non-finite state or dissipation"):
        step(LIN, BASIS_4, state, StepperConfig(dt=1e-2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_flux_is_refused():
    """A finite new state whose discrete heat flux overflows to -inf."""
    basis = build_basis(Domain.interval(math.pi), 6)
    state = zero_state(basis)
    state.c[2] = 1e160
    with pytest.raises(FloatingPointError, match="non-finite state or dissipation"):
        step(LIN, basis, state, StepperConfig(dt=1e-2))


def test_rk4_overflowing_flux_is_refused():
    """RK4 refuses a finite new state whose dissipation increment
    overflows to -inf, as the midpoint kernel does."""
    basis = build_basis(Domain.interval(math.pi), 6)
    state = zero_state(basis)
    state.c[2] = 1e160
    with pytest.raises(FloatingPointError, match="non-finite state or dissipation"):
        step(LIN, basis, state, StepperConfig(method="rk4", dt=1e-2))


@pytest.mark.parametrize("method", ["implicit_midpoint", "rk4"])
def test_solver_stats_report_residual_and_shortened_step(method):
    """`max_residual` passes the convergence test (0.0 for RK4 and for
    m1 = 0), and `last_step_shortened` is set only when t_end is not a
    whole number of steps."""
    state0 = small_state(BASIS_4, seed=17)
    cfg = StepperConfig(method=method, dt=1e-2)
    whole = simulate(NONLIN, BASIS_4, state0, 0.1, cfg)
    short = simulate(NONLIN, BASIS_4, state0, 0.095, cfg)
    assert not whole.solver.last_step_shortened
    assert short.solver.last_step_shortened
    assert simulate(LIN, BASIS_4, state0, 0.1, cfg).solver.max_residual == 0.0
    if method == "rk4":
        assert whole.solver.max_residual == 0.0
    else:
        s = whole.states
        phi = max(kirchhoff_coefficient(NONLIN, grad_norm_sq(BASIS_4, h)) for h in s.h)
        assert 0.0 <= whole.solver.max_residual <= cfg.newton_tol * 2.0 * max(1.0, phi)


def exact_root_gap(w, tt, m0, m1):
    """s* = phi* - m0 for the float w and tt, by bisection on G(s) =
    s - m1 sum w^2 / (tt + m0 + s)^2 in 60-digit decimal arithmetic."""
    with decimal.localcontext(decimal.Context(prec=60)):
        w2 = [Decimal(float(v)) ** 2 for v in w]
        big_t = [Decimal(float(v)) + Decimal(m0) for v in tt]
        m1 = Decimal(m1)

        def g(s):
            return s - m1 * sum(a / (t + s) ** 2 for a, t in zip(w2, big_t))

        lo, hi = Decimal(0), m1 * sum(a / t ** 2 for a, t in zip(w2, big_t))
        for _ in range(100):  # hi - lo = m1 mu0 2^-100
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)
        return float((lo + hi) / 2)


def moment_case(seed):
    """A random interval or rectangle run with m1 in (0, 2], either
    coupling sign, dt log-uniform in [1e-4, 0.1 / sqrt(lambda_max)] and
    amplitude log-uniform in [1e-3, 1]."""
    rng = np.random.default_rng(seed)
    domain, n = ((Domain.interval(math.pi), 8) if seed % 2 else
                 (Domain.rectangle(1.0, 1.7), 9))
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    params = ModelParams(m0=rng.uniform(0.5, 1.5), m1=rng.uniform(1e-3, 2.0),
                         alpha=sign * rng.uniform(0.5, 2.0), beta=sign * rng.uniform(0.5, 2.0))
    basis = build_basis(domain, n)
    dt = math.exp(rng.uniform(math.log(1e-4), math.log(0.1 / math.sqrt(basis.lambda_max))))
    state = small_state(basis, seed=seed, scale=math.exp(rng.uniform(math.log(1e-3), 0.0)))
    return params, basis, state, dt


def test_moment_solve_lies_within_its_bound_of_the_exact_root():
    """Every phi the moments settle lies within its reported bound of the
    exact root of G, up to the rounding of the moments (relative
    (N + 8) eps on m1 mu0) and of m0 + s; a step settles from the moments
    exactly when the bound passes, and its state matches the Cramer
    formulas."""
    tol, settled = 1e-12, 0
    for seed in range(40):
        params, basis, state, dt = moment_case(seed)
        numer, tt = _midpoint_block(params, basis.lambdas, dt)
        x = np.array([state.h, state.v, state.c])
        w = np.einsum("jn,jn->n", numer[8], x)
        big_t = tt + params.m0
        mu = [float(big_t ** -(j + 2.0) @ (w * w)) for j in range(4)]
        s, bound = _moment_root(mu, params.m1, float(big_t.min()))
        accepted = bound <= tol * max(1.0, params.m0 + s)
        got, stats = one_step(params, basis, state, dt)
        assert (stats.iterations == 0) == accepted, seed
        if accepted:
            settled += 1
            a0 = params.m1 * mu[0]
            phi = params.m0 + s
            gap = abs(phi - (params.m0 + exact_root_gap(w, tt, params.m0, params.m1)))
            assert gap <= bound + (basis.n_modes + 8) * 2.2e-16 * a0 + 2.2e-16 * phi, seed
            assert stats.max_residual == pytest.approx(bound, rel=1e-9)
        want, _ = cramer_midpoint_step(params, basis, state, dt)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), seed
    assert settled >= 15


def head_fixed_point_step(params, basis, state, dt, tol=1e-12, max_iter=100):
    """The midpoint step with the Kirchhoff coefficient settled by the
    predicted start and the fixed point alone, in the kernel's own
    operations: what a step that falls back must reproduce bit for bit."""
    numer, tt = _midpoint_block(params, basis.lambdas, dt)
    m0, m1 = params.m0, params.m1
    x = np.array([state.h, state.v, state.c])
    n = np.einsum("ijn,jn->in", numer, x)
    phi, evals = max(m0, m0 + m1 * float(x[0] @ n[9])), 0
    while True:
        evals += 1
        g = n[8] / (tt + phi)
        phi_new = m0 + m1 * float(g @ g)
        resid, phi = abs(phi_new - phi), phi_new
        if resid <= tol * max(1.0, abs(phi)) or evals == max_iter:
            break
    out = (n[:4] + n[4:8] * phi) / (tt + phi)
    return out[:3], evals


def test_large_amplitude_step_falls_back_bit_identically():
    """y0 amplitude 50 at dt = 0.05: rho is far above the moment solve's
    cap, so the step runs the fixed point, evaluation for evaluation."""
    basis = build_basis(Domain.interval(math.pi), 16)
    h, v, c = np.zeros(16), np.zeros(16), np.zeros(16)
    h[0], v[0], c[1] = 50.0, -50.0, 0.1
    state = ModalState(0.0, h, v, c)
    got, stats = one_step(NONLIN, basis, state, 0.05, max_iter=100)
    want, evals = head_fixed_point_step(NONLIN, basis, state, 0.05)
    assert stats.iterations == evals > 0 and stats.histogram[evals] == 1
    assert np.array_equal(got, want)


def test_scenario_like_run_is_moment_settled():
    """N = 16, dt = 1e-3 and |grad y0|^2 = 0.16, as in the benchmark's
    scenario: every step settles from the moments."""
    basis = build_basis(Domain.interval(math.pi), 16)
    state = small_state(basis, seed=18, scale=0.1)
    state.h *= math.sqrt(0.16 / grad_norm_sq(basis, state.h))
    traj = simulate(NONLIN, basis, state, 0.5, StepperConfig(dt=1e-3), record_every=50)
    assert traj.solver.iterations == traj.solver.max_iterations == 0
    assert traj.solver.histogram == (traj.n_steps,) == (500,)
    assert 0.0 <= traj.solver.max_residual <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("row", ["h", "v", "c"])
def test_nan_state_is_refused_at_the_first_evaluation(row):
    """With m1 > 0 a nan moment falls back to the fixed point, whose
    first iterate is nan: a numeric fault within a budget of one
    evaluation, not a solver divergence after all of them."""
    state = small_state(BASIS_4, seed=19)
    getattr(state, row)[1] = math.nan
    with pytest.raises(FloatingPointError, match="non-finite state"):
        step(NONLIN, BASIS_4, state, StepperConfig(dt=1e-2, newton_max_iter=1))


def test_histogram_counts_steps_by_evaluations():
    """The histogram has max_iterations + 1 entries, sums to the step
    count and weights to the evaluation count."""
    state = small_state(BASIS_4, seed=20, scale=1.5)
    traj = simulate(NONLIN, BASIS_4, state, 1.0, StepperConfig(dt=0.05))
    hist = traj.solver.histogram
    assert len(hist) == traj.solver.max_iterations + 1 and hist[-1] > 0
    assert sum(hist) == traj.n_steps
    assert sum(k * c for k, c in enumerate(hist)) == traj.solver.iterations


def poison_stepper(monkeypatch, k, row=None, bad=None, raise_at=None):
    """Wrap every kernel of a run so that the output of step k (counted
    from 0 over the run) holds `bad` in `row` (h, v, c or r), and step
    `raise_at` raises SolverDivergenceError before it writes anything."""
    real, count = timeloop._stepper, itertools.count()

    def stepper(*args):
        advance = real(*args)

        def poisoned(x, out, t):
            i = next(count)
            if i == raise_at:
                raise SolverDivergenceError("stalled", residual=1.0, t=t)
            result = advance(x, out, t)
            if i == k:
                out["hvcr".index(row), 1] = bad
            return result
        return poisoned

    monkeypatch.setattr(timeloop, "_stepper", stepper)


@pytest.mark.parametrize("params", [LIN, NONLIN], ids=["m1=0", "m1>0"])
@pytest.mark.parametrize("row,bad", [("h", math.inf), ("c", math.nan), ("r", math.nan)])
@pytest.mark.parametrize("k", [0, 37, 63, 64, 65, 149])
def test_poisoned_row_is_refused_at_its_step(monkeypatch, k, row, bad, params):
    """A non-finite value in the output of step k, at either end of a
    block or in the shortened last step (k = 149), is refused with the
    start time of step k, whatever the steps after it do: a bad state
    spoils the steps after it (with m1 > 0 the kernel itself raises at
    step k + 1), a bad r leaves them finite."""
    poison_stepper(monkeypatch, k, row, bad)
    dt = 1e-2
    with pytest.raises(FloatingPointError) as err:
        simulate(params, BASIS_4, small_state(BASIS_4, seed=21), 149.5 * dt,
                 StepperConfig(dt=dt))
    assert str(err.value) == f"non-finite state or dissipation after step at t={k * dt:.6g}"


@pytest.mark.parametrize("poisoned", [True, False])
def test_kernel_error_after_a_poisoned_row_reports_the_row(monkeypatch, poisoned):
    """A kernel that raises at step 40 of a block whose step 37 is not
    finite: the earlier row wins with its own message and time; without
    the bad row the kernel's error stands."""
    poison_stepper(monkeypatch, 37 if poisoned else None, "h", math.inf, raise_at=40)
    dt = 1e-2
    want = FloatingPointError if poisoned else SolverDivergenceError
    with pytest.raises(want) as err:
        simulate(LIN, BASIS_4, small_state(BASIS_4, seed=22), 1.0, StepperConfig(dt=dt))
    if poisoned:
        assert str(err.value).endswith(f"at t={37 * dt:.6g}")
    else:
        assert err.value.t == 40 * dt


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("params", [LIN, NONLIN], ids=["m1=0", "m1>0"])
def test_huge_amplitude_is_refused_without_warnings(params):
    """y0 amplitude 1e200: the state overflows within the first block, and
    the run stops with a numeric fault and no RuntimeWarning."""
    basis = build_basis(Domain.interval(math.pi), 16)
    state = zero_state(basis)
    state.h[0] = 1e200
    with pytest.raises(FloatingPointError, match="non-finite state"):
        simulate(params, basis, state, 1.0, StepperConfig(dt=1e-3))


def test_block_stays_within_128_kb():
    """A block of (B, 4, N) doubles holds at most 64 steps and 128 KB,
    down to one step per block from N = 4096 up."""
    for n_modes in (1, 16, 192, 256, 4096, 20000):
        b = _block_len(10**6, n_modes)
        assert 1 <= b <= 64
        assert b * 4 * n_modes * 8 <= 128 * 1024 or b == 1
    assert _block_len(10**6, 16) == 64 and _block_len(10**6, 4096) == 1
    assert _block_len(3, 16) == 3
