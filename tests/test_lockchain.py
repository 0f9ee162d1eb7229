import numpy as np
import pytest

from afclink.lockchain import (
    DRIVEN_LASERS,
    DriftModel,
    LaserId,
    LaserNetworkState,
    LockChainConfig,
    RfOffsets,
    ServoModel,
    _exact_step_operators,
    beat_frequency,
    comb_lock,
    derived_frequencies,
    matching_residual,
    simulate_lock_run,
)

RF = RfOffsets()
STILL = DriftModel("random_walk", 0.0)


def _state(e_photon=0.0, e_qm=0.0, e_wc=0.0):
    return LaserNetworkState(errors={
        LaserId.TPC_PUMP_1514: e_photon,
        LaserId.QM_MASTER_1212: e_qm,
        LaserId.WC_PUMP_1010: e_wc,
    })


def test_residual_zero_at_stock_rf():
    assert matching_residual(_state(), RF) == 0.0


def test_stock_rf_matching_condition():
    # the three stock RF values satisfy f_qm_pump_aom = f_beat + f_noisecut_aom
    assert RF.f_beat + RF.f_noisecut_aom - RF.f_qm_pump_aom == 0.0


def test_beat_perturbation_shifts_residual_exactly():
    for delta in (1e6, -2e6, 250_000.0):
        rf = RfOffsets(f_beat=RF.f_beat + delta)
        assert matching_residual(_state(), rf) == delta


def test_derived_identities_hold_to_machine_precision():
    # sums live at the 1e8 Hz scale, so "exact" means within a couple of ulp
    rng = np.random.default_rng(5)
    for _ in range(200):
        st = _state(*rng.normal(0, 1e5, 3))
        d = derived_frequencies(st, RF)
        assert d.nu_afc - d.nu_qm == pytest.approx(RF.f_qm_pump_aom, abs=1e-6)
        assert d.nu_606photon - d.nu_monitor == pytest.approx(RF.f_noisecut_aom, abs=1e-6)


def test_master_error_doubles_into_comb_frequency():
    st = _state(e_qm=1e3, e_wc=2e3)  # ideal monitor tracking: e_wc = 2 e_qm - e_photon
    d0 = derived_frequencies(_state(), RF)
    d = derived_frequencies(st, RF)
    assert d.nu_afc - d0.nu_afc == pytest.approx(2e3)
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
        assert beat_frequency(st, RF) == pytest.approx(RF.f_beat, abs=1e-3)
        assert matching_residual(st, RF) == pytest.approx(0.0, abs=1e-3)


def _chain(drift=None, monitor_lock=None):
    """Lock chain whose lasers hold still except those in ``drift``, with no
    comb locks and only the given monitor lock."""
    drifts = {laser: STILL for laser in DRIVEN_LASERS}
    drifts.update(drift or {})
    if monitor_lock is None:
        monitor_lock = ServoModel(setpoint=RF.f_beat, gain=1.0, enabled=False)
    return LockChainConfig(drift=drifts, comb_locks={}, monitor_lock=monitor_lock)


def test_free_running_zero_sigma():
    res = simulate_lock_run(_chain(), duration=1.0, dt=1.0, seed=0)
    for errors in res.laser_errors.values():
        assert np.all(errors == 0.0)
    assert res.t[-1] == 1.0


def test_drift_rejects_derived_laser():
    with pytest.raises(ValueError):
        LockChainConfig(drift={LaserId.MONITOR_606: DriftModel("random_walk", 1.0)})


def test_random_walk_variance():
    # Monte Carlo vs Var[e(T)] = sigma^2 T, over disjoint T-long blocks of one
    # free-running trajectory
    sigma, dt, n_steps, n_trials = 100.0, 0.5, 16, 3000
    drift = DriftModel("random_walk", sigma)
    res = simulate_lock_run(_chain({LaserId.WC_PUMP_1010: drift}), n_trials * n_steps * dt, dt, seed=21)
    e = res.laser_errors[LaserId.WC_PUMP_1010]
    finals = e[n_steps::n_steps] - e[:-n_steps:n_steps]
    assert len(finals) == n_trials
    want = sigma**2 * dt * n_steps
    assert np.var(finals) == pytest.approx(want, rel=0.05)


def test_ou_stationary_std():
    sigma, lam = 500.0, 4.0
    drift = DriftModel("ou_process", sigma, reversion_rate=lam)
    res = simulate_lock_run(_chain({LaserId.TPC_PUMP_1514: drift}), 6000 * 0.125, 0.125, seed=8)
    vals = res.laser_errors[LaserId.TPC_PUMP_1514][502:]
    want = sigma / np.sqrt(2 * lam)
    assert np.std(vals) == pytest.approx(want, rel=0.05)


def test_servo_no_error_signal_no_motion():
    servo = ServoModel(setpoint=RF.f_beat, gain=50.0, residual_noise_rms=0.0)
    res = simulate_lock_run(_chain(monitor_lock=servo), 1.0, 0.01, seed=0)
    assert np.all(res.laser_errors[LaserId.WC_PUMP_1010] == 0.0)


def test_servo_step_response_decay():
    # constant disturbance d on the beat (setpoint d below the nominal beat):
    # the beat error decays like exp(-gain t)
    gain, dt, d = 10.0, 1e-3, 1000.0
    servo = ServoModel(setpoint=RF.f_beat - d, gain=gain, residual_noise_rms=0.0)
    res = simulate_lock_run(_chain(monitor_lock=servo), 10.0 / gain, dt, seed=0)
    beat_error = d + res.laser_errors[LaserId.WC_PUMP_1010]
    for t_chk, decay in {1.0: np.exp(-1.0), 2.0: np.exp(-2.0)}.items():
        k = int(round(t_chk / gain / dt))
        assert beat_error[k] == pytest.approx(d * decay, rel=0.02)
    assert abs(beat_error[-1]) < 0.02 * d


def test_servo_high_gain_converges_in_few_steps():
    # gain*dt = 3 lies beyond the stability limit (2) of an explicit update
    gain, dt, d = 3000.0, 1e-3, 5e5
    servo = ServoModel(setpoint=RF.f_beat - d, gain=gain, residual_noise_rms=0.0)
    res = simulate_lock_run(_chain(monitor_lock=servo), 5 * dt, dt, seed=0)
    st = LaserNetworkState(errors={laser: e[-1] for laser, e in res.laser_errors.items()})
    assert abs(beat_frequency(st, RF) - servo.setpoint) < 1.0


def test_servo_noise_stationary_rms():
    gain, dt, rms = 50.0, 1e-3, 30.0
    servo = ServoModel(setpoint=RF.f_beat, gain=gain, residual_noise_rms=rms)
    res = simulate_lock_run(_chain(monitor_lock=servo), 30000 * dt, dt, seed=77)
    vals = res.laser_errors[LaserId.WC_PUMP_1010][2002:]
    assert np.std(vals) == pytest.approx(rms, rel=0.10)


def test_exact_step_operators_analytic_cases():
    # servos off: pure diffusion, covariance Q dt
    Q = np.diag([4.0, 9.0, 1.0])
    M, m, L = _exact_step_operators(np.zeros((3, 3)), np.zeros(3), Q, dt=2.0)
    assert np.allclose(M, np.eye(3))
    assert np.allclose(m, 0.0)
    assert np.allclose(L @ L.T, Q * 2.0, rtol=1e-9, atol=1e-12)
    # independent OU channels: exact transition and variance
    lam = np.array([3.0, 0.5, 10.0])
    A = np.diag(lam)
    M, m, L = _exact_step_operators(A, np.zeros(3), Q, dt=0.7)
    assert np.allclose(np.diag(M), np.exp(-lam * 0.7))
    want = np.diag(Q) * (1 - np.exp(-2 * lam * 0.7)) / (2 * lam)
    assert np.allclose(np.diag(L @ L.T), want, rtol=1e-8)


def test_simulate_zero_noise_residual_identically_zero():
    cfg = LockChainConfig(
        drift={laser: DriftModel("random_walk", 0.0) for laser in DRIVEN_LASERS},
        comb_locks={
            LaserId.TPC_PUMP_1514: comb_lock(2000.0),
            LaserId.QM_MASTER_1212: comb_lock(2000.0),
        },
        monitor_lock=ServoModel(setpoint=RF.f_beat, gain=2000.0),
    )
    res = simulate_lock_run(cfg, duration=600, dt=1.0, seed=3)
    assert np.all(res.residual == 0.0)


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
