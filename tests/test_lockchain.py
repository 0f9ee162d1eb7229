import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from afclink.lockchain import (
    BEAT,
    DRIVEN_LASERS,
    DriftModel,
    LaserId,
    LaserNetworkState,
    LockChainConfig,
    LockRunResult,
    RfOffsets,
    ServoModel,
    _exact_step_operators,
    _system_matrices,
    matching_residual,
    simulate_lock_run,
)

RF = RfOffsets()
STILL = DriftModel()
OPEN = ServoModel(gain=0.0)


def _state(e_photon=0.0, e_qm=0.0, e_wc=0.0):
    return LaserNetworkState(errors={
        LaserId.TPC_PUMP_1514: e_photon,
        LaserId.QM_MASTER_1212: e_qm,
        LaserId.WC_PUMP_1010: e_wc,
    })


def _beat(st, rf):
    """Beat note between the monitoring light and the memory control laser."""
    return rf.f_beat + sum(c * st.error(laser) for c, laser in zip(BEAT, DRIVEN_LASERS))


def test_residual_zero_at_stock_rf():
    assert matching_residual(_state(), RF) == 0.0


def test_stock_rf_matching_condition():
    # the three stock RF values satisfy f_qm_pump_aom = f_beat + f_noisecut_aom
    assert RF.f_beat + RF.f_noisecut_aom - RF.f_qm_pump_aom == 0.0


def test_beat_perturbation_shifts_residual_exactly():
    for delta in (1e6, -2e6, 250_000.0):
        rf = RfOffsets(f_beat=RF.f_beat + delta)
        assert matching_residual(_state(), rf) == delta


def test_master_error_doubles_into_comb_frequency():
    # the comb sits at twice the master frequency, so an untracked master
    # error of 1 kHz moves the comb 2 kHz away from the photon
    assert matching_residual(_state(e_qm=1e3), RF) == pytest.approx(-2e3)
    st = _state(e_qm=1e3, e_wc=2e3)  # ideal monitor tracking: e_wc = 2 e_qm - e_photon
    assert matching_residual(st, RF) == pytest.approx(0.0, abs=1e-9)


def test_open_loop_pass_through():
    st = _state(e_wc=3e3)
    assert matching_residual(st, RF) == pytest.approx(3e3)


def test_matching_theorem_independent_of_common_errors():
    # if the monitor loop holds the beat and the RF condition holds, the
    # residual vanishes no matter where the individual lasers sit
    rng = np.random.default_rng(42)
    for _ in range(100):
        e_p, e_qm = rng.normal(0, 1e6, 2)
        st = _state(e_p, e_qm, 2 * e_qm - e_p)
        assert _beat(st, RF) == pytest.approx(RF.f_beat, abs=1e-3)
        assert matching_residual(st, RF) == pytest.approx(0.0, abs=1e-3)


def _chain(drift=None, monitor_lock=None):
    """Lock chain whose lasers hold still except those in ``drift``, with no
    comb locks and only the given monitor lock (open by default)."""
    drifts = {laser: STILL for laser in DRIVEN_LASERS}
    drifts.update(drift or {})
    return LockChainConfig(drift=drifts, comb_locks={}, monitor_lock=monitor_lock or OPEN)


def test_monitor_lock_holds_residual_under_master_drift():
    # the monitor lock alone tracks a drifting master through the beat, so
    # the residual stays at the servo's lag while 2 e_qm wanders widely
    drift = DriftModel(1e4)
    servo = ServoModel(gain=2000.0)
    res = simulate_lock_run(_chain({LaserId.QM_MASTER_1212: drift}, servo), 600.0, 1.0, seed=4)
    comb_excursion = np.max(np.abs(2.0 * res.laser_errors[LaserId.QM_MASTER_1212]))
    assert comb_excursion > 1e5
    assert res.max_abs_residual < 0.01 * comb_excursion


def test_free_running_zero_sigma():
    res = simulate_lock_run(_chain(), duration=1.0, dt=1.0, seed=0)
    for errors in res.laser_errors.values():
        assert np.all(errors == 0.0)
    assert res.t[-1] == 1.0


def test_random_walk_variance():
    # Monte Carlo vs Var[e(T)] = sigma^2 T, over disjoint T-long blocks of one
    # free-running trajectory
    sigma, dt, n_steps, n_trials = 100.0, 0.5, 16, 3000
    drift = DriftModel(sigma)
    res = simulate_lock_run(_chain({LaserId.WC_PUMP_1010: drift}), n_trials * n_steps * dt, dt, seed=21)
    e = res.laser_errors[LaserId.WC_PUMP_1010]
    finals = e[n_steps::n_steps] - e[:-n_steps:n_steps]
    assert len(finals) == n_trials
    want = sigma**2 * dt * n_steps
    assert np.var(finals) == pytest.approx(want, rel=0.05)


def test_ou_stationary_std():
    sigma, lam = 500.0, 4.0
    drift = DriftModel(sigma, reversion_rate=lam)
    res = simulate_lock_run(_chain({LaserId.TPC_PUMP_1514: drift}), 6000 * 0.125, 0.125, seed=8)
    vals = res.laser_errors[LaserId.TPC_PUMP_1514][502:]
    want = sigma / np.sqrt(2 * lam)
    assert np.std(vals) == pytest.approx(want, rel=0.05)


def test_servo_no_error_signal_no_motion():
    servo = ServoModel(gain=50.0, residual_noise_rms=0.0)
    res = simulate_lock_run(_chain(monitor_lock=servo), 1.0, 0.01, seed=0)
    assert np.all(res.laser_errors[LaserId.WC_PUMP_1010] == 0.0)


def _beat_errors(gain, dt, d, n_steps):
    """Monitor beat error after 0..n_steps noiseless steps of the monitor
    lock alone, from an initial beat error d (on the 1010 nm pump)."""
    A, Q = _system_matrices(_chain(monitor_lock=ServoModel(gain=gain)))
    M = _exact_step_operators(A, Q, dt)[0]
    x = np.array([0.0, 0.0, d])
    errors = [np.dot(BEAT, x)]
    for _ in range(n_steps):
        x = M @ x
        errors.append(np.dot(BEAT, x))
    return np.array(errors)


def test_servo_step_response_decay():
    # an initial beat error d decays like exp(-gain t)
    gain, dt, d = 10.0, 1e-3, 1000.0
    beat_error = _beat_errors(gain, dt, d, int(round(10.0 / gain / dt)))
    for t_chk, decay in {1.0: np.exp(-1.0), 2.0: np.exp(-2.0)}.items():
        k = int(round(t_chk / gain / dt))
        assert beat_error[k] == pytest.approx(d * decay, rel=0.02)
    assert abs(beat_error[-1]) < 0.02 * d


def test_servo_high_gain_converges_in_few_steps():
    # gain*dt = 3 lies beyond the stability limit (2) of an explicit update
    gain, dt, d = 3000.0, 1e-3, 5e5
    assert abs(_beat_errors(gain, dt, d, 5)[-1]) < 1.0


def test_servo_noise_stationary_rms():
    gain, dt, rms = 50.0, 1e-3, 30.0
    servo = ServoModel(gain=gain, residual_noise_rms=rms)
    res = simulate_lock_run(_chain(monitor_lock=servo), 30000 * dt, dt, seed=77)
    vals = res.laser_errors[LaserId.WC_PUMP_1010][2002:]
    assert np.std(vals) == pytest.approx(rms, rel=0.10)


def test_exact_step_operators_analytic_cases():
    # servos off: pure diffusion, covariance Q dt
    Q = np.diag([4.0, 9.0, 1.0])
    M, L = _exact_step_operators(np.zeros((3, 3)), Q, dt=2.0)
    assert np.allclose(M, np.eye(3))
    assert np.allclose(L @ L.T, Q * 2.0, rtol=1e-9, atol=1e-12)
    # independent OU channels: exact transition and variance
    lam = np.array([3.0, 0.5, 10.0])
    M, L = _exact_step_operators(np.diag(lam), Q, dt=0.7)
    want = np.diag(Q) * (1 - np.exp(-2 * lam * 0.7)) / (2 * lam)
    np.testing.assert_allclose(np.diag(M), np.exp(-lam * 0.7), rtol=1e-12, atol=0)
    np.testing.assert_allclose(np.diag(L @ L.T), want, rtol=1e-12, atol=0)


def _scipy_step_operators(A, Q, dt):
    """(M, C) built with one scipy exponential of the Van Loan block
    [[A, Q], [0, -A']], on the same scaled step and doublings as
    ``_exact_step_operators``."""
    scale = np.linalg.norm(A, ord=np.inf) * dt
    k = max(0, int(np.ceil(np.log2(scale / 0.01)))) if scale > 0.01 else 0
    h = dt / 2**k
    G = np.zeros((6, 6))
    G[:3, :3], G[:3, 3:], G[3:, 3:] = A, Q, -A.T
    F = expm(G * h)
    M = F[3:, 3:].T
    C = M @ F[:3, 3:]
    for _ in range(k):
        C = C + M @ C @ M.T
        M = M @ M
    return M, 0.5 * (C + C.T)


@pytest.mark.parametrize(
    "servos, dt", [("locked", 1e-3), ("locked", 1.0), ("off", 1.0)], ids=["locked-1ms", "locked-1s", "off-1s"]
)
def test_step_operators_match_scipy_reference(servos, dt):
    # the coupled servos, with the non-normal monitor row; at 1 ms the
    # closed-loop M has not underflowed to 0
    cfg = LockChainConfig() if servos == "locked" else LockChainConfig().with_servos_disabled()
    A, Q = _system_matrices(cfg)
    M, L = _exact_step_operators(A, Q, dt)
    for got, want in zip((M, L @ L.T), _scipy_step_operators(A, Q, dt)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("servos", ["locked", "off"])
def test_noise_factor_moves_only_by_rounding(servos):
    # a few ulps in A and Q move the step covariance only by rounding; the
    # factor must follow it, whatever signs eigh gives the eigenvectors
    cfg = LockChainConfig() if servos == "locked" else LockChainConfig().with_servos_disabled()
    A, Q = _system_matrices(cfg)
    L = _exact_step_operators(A, Q, dt=1.0)[1]
    rng = np.random.default_rng(12)
    for _ in range(20):
        A2, Q2 = (x * (1.0 + 4 * np.finfo(float).eps * rng.uniform(-1, 1, x.shape)) for x in (A, Q))
        L2 = _exact_step_operators(A2, Q2, dt=1.0)[1]
        assert np.linalg.norm(L2 - L) < 1e-12 * np.linalg.norm(L)


def test_simulate_zero_noise_residual_identically_zero():
    cfg = LockChainConfig(
        drift={laser: STILL for laser in DRIVEN_LASERS},
        comb_locks={
            LaserId.TPC_PUMP_1514: ServoModel(2000.0),
            LaserId.QM_MASTER_1212: ServoModel(2000.0),
        },
        monitor_lock=ServoModel(2000.0),
    )
    res = simulate_lock_run(cfg, duration=600, dt=1.0, seed=3)
    assert np.all(res.residual == 0.0)


@pytest.mark.parametrize("part", ["drift", "comb_locks", "monitor_lock"])
def test_every_lock_field_reaches_the_dynamics(part):
    # a field that a document can set but the dynamics ignore would run
    # silently with the wrong numbers; each is moved on one laser's models
    laser = LaserId.TPC_PUMP_1514
    cfg = LockChainConfig()
    value = getattr(cfg, part)
    model = value if part == "monitor_lock" else value[laser]
    base = _system_matrices(cfg)
    for f in dataclasses.fields(model):
        moved = dataclasses.replace(model, **{f.name: getattr(model, f.name) + 1.0})
        edited = dataclasses.replace(cfg, **{part: moved if part == "monitor_lock" else {**value, laser: moved}})
        assert any(not np.array_equal(g, b) for g, b in zip(_system_matrices(edited), base)), f.name


def test_simulate_deterministic():
    cfg = LockChainConfig()
    a = simulate_lock_run(cfg, 1800, 1.0, seed=99)
    b = simulate_lock_run(cfg, 1800, 1.0, seed=99)
    assert np.array_equal(a.residual, b.residual)
    assert a.to_csv() == b.to_csv()


def test_open_loop_residual_is_algebraic_combination():
    cfg = LockChainConfig().with_servos_disabled()
    res = simulate_lock_run(cfg, 900, 1.0, seed=5)
    combo = (cfg.rf.mismatch
             + res.laser_errors[LaserId.TPC_PUMP_1514]
             + res.laser_errors[LaserId.WC_PUMP_1010]
             - 2.0 * res.laser_errors[LaserId.QM_MASTER_1212])
    assert np.array_equal(res.residual, combo)


def test_closed_loop_suppression_paired_seeds():
    cfg = LockChainConfig()
    closed = simulate_lock_run(cfg, 3600, 1.0, seed=17)
    opened = simulate_lock_run(cfg.with_servos_disabled(), 3600, 1.0, seed=17)
    assert closed.max_abs_residual < 5e3
    assert opened.max_abs_residual > 50 * closed.max_abs_residual


def test_csv_format():
    res = simulate_lock_run(LockChainConfig(), 10, 1.0, seed=1)
    lines = res.to_csv().strip().split("\n")
    assert lines[0] == "t_s,residual_hz"
    assert len(lines) == 12  # header + 11 samples (t = 0..10)


def test_residual_at_holds_last_sample_and_clips():
    residual = np.array([5.0, -3.0, 8.0, 1.0, 7.0])
    res = LockRunResult(dt=0.5, residual=residual, laser_errors={})
    # sample floor(t / dt): 0.9 and 1.3 lie past the midpoint of their step
    assert np.array_equal(res.residual_at(np.array([0.2, 0.9, 1.3])), [5.0, -3.0, 8.0])
    # on a grid point the new sample already holds
    assert np.array_equal(res.residual_at(res.t), residual)
    # before 0 the first sample, past the end the last
    assert np.array_equal(res.residual_at(np.array([-1.0, -0.2, 2.0, 10.0])), [5.0, 5.0, 7.0, 7.0])


def test_step_at_is_the_sample_residual_at_reads():
    res = simulate_lock_run(LockChainConfig(), 10, 0.5, seed=1)
    k = np.arange(len(res.t))
    # on a grid point its own sample holds, up to the next point the same one
    assert np.array_equal(res.step_at(k * res.dt), k)
    assert np.array_equal(res.step_at((k + 0.999) * res.dt), k)
    # before 0 the first sample, past the end the last
    assert np.array_equal(res.step_at(np.array([-5.0, -1e-9])), [0, 0])
    assert np.array_equal(res.step_at(np.array([10.0 + 1e-9, 1e6])), [k[-1], k[-1]])
    t = np.random.default_rng(0).uniform(-1.0, 11.0, 1000)
    assert np.array_equal(res.residual_at(t), res.residual[res.step_at(t)])


@pytest.mark.parametrize("dt", [0.1, 1e-3, 0.05])
def test_step_at_reads_the_stored_grid_exactly(dt):
    # a time on the stored grid t = k * dt holds sample k, and the float
    # just below it sample k - 1, where floor(t / dt) alone misses by one
    res = LockRunResult(dt, np.zeros(round(60.0 / dt) + 1), {})
    k = np.arange(len(res.residual))
    assert np.array_equal(res.step_at(res.t), k)
    assert np.array_equal(res.step_at(np.nextafter(res.t[1:], -np.inf)), k[:-1])


def test_simulated_run_carries_its_step():
    res = simulate_lock_run(LockChainConfig(), 10, 0.5, seed=1)
    assert res.dt == 0.5
    assert np.array_equal(res.residual_at(res.t), res.residual)
