"""Acceptance suite: one test per shipped claim, each printing a PASS line
with the measured numbers (run with ``pytest -s`` to watch them live).

The heavy end-to-end criteria share one calibrated 25-mode verification run
through session fixtures; everything is seeded, so the suite is
deterministic run to run.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import afclink as al
from afclink import intervals as iv
from afclink.calibrate import calibrate_rate
from afclink.channel import FiberLink, as_closures, fiber_passes, gate_passes
from afclink.config import LockSettings, load_bundled_scenario
from afclink.detection import CoincidenceHistogram, compute_snr
from afclink.lockchain import DRIVEN_LASERS
from afclink.memory import (
    afc_efficiency,
    afc_efficiency_oracle,
    comb_spectrum,
    exit_times,
    KIND_ECHO,
    KIND_PROMPT,
)
from afclink.reporting import run_scenario

SEED = 20240611
VERIFY_SEED = 777001


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- shared end-to-end runs ---------------------------------------------------

@pytest.fixture(scope="session")
def calibrated_cfg():
    cfg = load_bundled_scenario("multiplexed_25mode_10km")
    return calibrate_rate(cfg, 74.0, rel_tol=0.07, calibration_duration=14400.0, workers=2)


@pytest.fixture(scope="session")
def fig_run(calibrated_cfg):
    cfg = dataclasses.replace(calibrated_cfg, seed=VERIFY_SEED)
    return cfg, run_scenario(cfg, workers=2)


def test_criterion_1_lock_identity():
    st = al.LaserNetworkState()
    rf = al.RfOffsets()
    residual = al.matching_residual(st, rf)
    shifts_exact = all(
        al.matching_residual(st, al.RfOffsets(f_beat=rf.f_beat + d)) == d
        for d in (1e6, -5e5, 2.5e6)
    )
    ok = residual == 0.0 and shifts_exact
    _report(1, ok, f"ideal-servo residual {residual} Hz at stock RF; beat perturbations pass through exactly")


def test_criterion_2_lock_stability():
    cfg = al.LockChainConfig()
    closed = al.simulate_lock_run(cfg, 12 * 3600, 1.0, SEED)
    opened = al.simulate_lock_run(cfg.with_servos_disabled(), 12 * 3600, 1.0, SEED)
    long = al.simulate_lock_run(cfg, 42 * 3600, 1.0, SEED)
    min_excursion = min(np.max(np.abs(e)) for e in opened.laser_errors.values())
    ok = (
        closed.max_abs_residual < 5e3
        and long.max_abs_residual < 5e3
        and opened.max_abs_residual > 1e6
        and min_excursion > 1e6
        and len(opened.laser_errors) == len(DRIVEN_LASERS)
    )
    _report(2, ok, (
        f"12 h locked max |residual| {closed.max_abs_residual:.0f} Hz < 5 kHz; "
        f"42 h {long.max_abs_residual:.0f} Hz; same-seed unlocked drift "
        f"{opened.max_abs_residual/1e6:.1f} MHz (every laser > "
        f"{min_excursion/1e6:.1f} MHz)"
    ))


def test_criterion_3_sideband_plan():
    s = al.eom_sideband_offsets(117.2e6, 586.0e6, 2)
    ladder = al.tpc_mode_offsets(25, 117.2e6)
    ok = len(s) == 25 and np.array_equal(s, ladder)
    _report(3, ok, "two-modulator plan = {k * 117.2 MHz : k = -12..12}, 25 elements, equal to the source comb")


def test_criterion_4_link_budget():
    n = 100_000
    keep = fiber_passes(FiberLink(length=10.0, loss=0.2), n, np.random.default_rng(SEED))
    p_hat = keep.sum() / n
    p = 10 ** (-0.2)
    sigma = math.sqrt(p * (1 - p) / n)
    ok = abs(p_hat - 0.6310) <= 3 * sigma
    _report(4, ok, f"10 km at 0.2 dB/km: empirical survival {p_hat:.4f} vs 0.6310 +/- {3*sigma:.4f}")


def test_criterion_5_afc_oracle_agreement():
    worst = 0.0
    for d in (0.5, 1.0, 2.0, 3.0, 4.0):
        for F in (2.0, 3.0, 5.0, 10.0, 20.0):
            sp = comb_spectrum(d, F, n_teeth=81, points_per_tooth=24)
            eta_o = afc_efficiency_oracle(sp, 0.0, 1.15e6)
            eta_f = afc_efficiency(d, F, 0.0)
            worst = max(worst, abs(eta_o - eta_f) / eta_f)
    r = minimize_scalar(lambda d: -afc_efficiency(d, 100.0, 0.0), bounds=(1.0, 600.0), method="bounded")
    eta_opt = -r.fun
    sp = comb_spectrum(40.0, 20.0, n_teeth=81, points_per_tooth=24)
    oracle_opt = afc_efficiency_oracle(sp, 0.0, 1.15e6)
    formula_opt = afc_efficiency(40.0, 20.0, 0.0)
    ok = (
        worst <= 0.05
        and abs(eta_opt - 0.541) <= 0.01
        and abs(oracle_opt - formula_opt) / formula_opt <= 0.05
    )
    _report(5, ok, (
        f"analytic vs filter oracle within {worst:.1%} over (d, F) in [0.5,4]x[2,20] "
        f"(mean-depth comb convention); optimum at large finesse eta = {eta_opt:.4f} vs 0.541"
    ))


def test_criterion_6_echo_timing():
    cfg = load_bundled_scenario("multiplexed_25mode_10km")
    afc = cfg.memory.afc
    slow = cfg.memory.slow_light_delay
    rng = np.random.default_rng(SEED)
    entries = rng.uniform(0.0, 1.0, 2000)
    echo_exit = exit_times(entries, np.full(2000, KIND_ECHO, np.uint8), afc, slow)
    prompt_exit = exit_times(entries, np.full(2000, KIND_PROMPT, np.uint8), afc, slow)
    gap = echo_exit - prompt_exit
    gap_ok = np.max(np.abs(gap - afc.storage_time)) < 1e-12
    storage_ok = abs(afc.storage_time - 869.57e-9) < 0.01e-9

    # histogram-level structure: prompt peak near the slow-light delay and
    # the echo one rephasing period later
    boosted = dataclasses.replace(cfg, duration=240.0, seed=SEED).with_rate(2e4)
    boosted = dataclasses.replace(boosted, lock=LockSettings(mode="ideal"))
    rep = run_scenario(boosted, workers=2)
    centers = rep.histogram.bin_centers()
    sm = rep.smoothed
    prompt_region = (centers > 20e-9) & (centers < 400e-9)
    echo_region = (centers > 900e-9) & (centers < 1150e-9)
    t_prompt = centers[prompt_region][np.argmax(sm[prompt_region])]
    t_echo = centers[echo_region][np.argmax(sm[echo_region])]
    prompt_ok = abs(t_prompt - slow) < 10e-9
    echo_pos_ok = abs((t_echo - t_prompt) - afc.storage_time) < 5e-9
    ok = gap_ok and storage_ok and prompt_ok and echo_pos_ok
    _report(6, ok, (
        f"echo exits exactly 1/spacing = {afc.storage_time*1e9:.2f} ns after its prompt "
        f"counterpart (max dev {np.max(np.abs(gap - afc.storage_time))*1e15:.2f} fs); prompt peak at "
        f"{t_prompt*1e9:.1f} ns (slow light {slow*1e9:.0f} ns), echo at {t_echo*1e9:.1f} ns"
    ))


def test_criterion_7_noise_gating(fig_run):
    cfg, rep = fig_run
    sched = cfg.shutter
    rng = np.random.default_rng(SEED)

    # channel-level flux oracle: Poisson heralds at the run's herald rate,
    # converter noise gated by the shutter, counted inside each herald's
    # expected-echo window, against the brute-force interval expectation;
    # 40 duty cycles give a thousand-count ungated flux to compare against
    herald_rate = rep.counts["heralds_detected"] / rep.transmission_time
    span = (0.0, 40 * sched.cycle_period)
    windows = sched.transmission_windows(0, 40, span[1])
    heralds = iv.sample_poisson(windows, herald_rate, rng)
    noise = iv.sample_poisson(np.array([span]), cfg.converter.noise_rate, rng)
    closed = as_closures(heralds, sched)
    gated = noise[gate_passes(noise, windows, closed, sched.extinction, rng)]
    w0, w1 = sched.echo_window

    def in_echo_windows(times):
        lo = np.searchsorted(times, heralds + w0)
        hi = np.searchsorted(times, heralds + w1)
        return int(np.sum(hi - lo))

    flux_ungated = in_echo_windows(noise)
    flux_gated = in_echo_windows(gated)
    open_set = iv.intersect(windows, iv.complement(closed, span))
    echo_wins = iv.as_interval_set(heralds + w0, heralds + w1)
    open_len = iv.total_length(iv.intersect(echo_wins, open_set))
    closed_len = iv.total_length(echo_wins) - open_len
    expect = cfg.converter.noise_rate * (open_len + sched.extinction * closed_len)
    expect_ungated = cfg.converter.noise_rate * iv.total_length(echo_wins)

    reduction = flux_ungated / max(flux_gated, 1)
    oracle_ok = abs(flux_gated - expect) <= 4 * math.sqrt(expect) + 4
    ungated_ok = abs(flux_ungated - expect_ungated) <= 4 * math.sqrt(expect_ungated)
    ok = reduction >= 100 and oracle_ok and ungated_ok
    _report(7, ok, (
        f"conversion-noise flux into the echo window: ungated {flux_ungated}, gated "
        f"{flux_gated} ({reduction:.0f}x reduction, >= 100x); interval-intersection "
        f"expectation {expect:.1f} (full-pipeline gated count {rep.counts['noise_in_echo_window']})"
    ))


def test_criterion_8_flagship_reproduction(fig_run):
    cfg, rep = fig_run
    peak = rep.peak["peak_above_floor"]
    snr = rep.snr
    ok = abs(peak - 74.0) <= 0.1 * 74.0 and 1.0 <= snr <= 1.8
    _report(8, ok, (
        f"calibrated 25-mode/10 km run (independent seed): echo peak {peak:.1f} counts "
        f"(target 74 +/- 10%), SNR {snr:.2f} in [1.0, 1.8] "
        f"(rate {cfg.source.total_pair_rate:.0f} pairs/s)"
    ))


@pytest.fixture(scope="session")
def multiplexing_runs(calibrated_cfg, fig_run):
    rate25 = calibrated_cfg.source.total_pair_rate
    runs = {25: fig_run[1].snr}
    for name, n in (("multiplexed_5mode_5m", 5), ("single_mode_5m", 1)):
        cfg = load_bundled_scenario(name).with_rate(rate25 * n / 25.0)
        cfg = dataclasses.replace(cfg, seed=VERIFY_SEED + n)
        runs[n] = run_scenario(cfg, workers=2).snr
    return runs


def test_criterion_9_multiplexing_ordering(multiplexing_runs):
    s = multiplexing_runs
    ok = s[25] > s[5] > s[1]
    _report(9, ok, (
        f"matched calibration, rate proportional to modes: SNR(25) = {s[25]:.2f} > "
        f"SNR(5) = {s[5]:.2f} > SNR(1) = {s[1]:.2f}"
    ))


def test_criterion_10_snr_formula():
    # S = 74 with a duration-scaled floor of 185/6 = 30.8333 (6:1 noise to
    # signal window ratio realizes scaled N = 30.83 with integer raw counts)
    bw = 0.128e-9
    h = CoincidenceHistogram(
        bin_width=bw, tau_min=0.0, tau_max=1400e-9,
        signal_window=(200 * bw, 300 * bw), noise_window=(400 * bw, 1000 * bw),
    )
    h.counts[h._window_slice(h.signal_window).start] = 74
    sl_n = h._window_slice(h.noise_window)
    h.counts[sl_n.start : sl_n.start + 185] = 1
    snr = compute_snr(h)

    h_eq = CoincidenceHistogram(
        bin_width=bw, tau_min=0.0, tau_max=1400e-9,
        signal_window=(200 * bw, 300 * bw), noise_window=(400 * bw, 500 * bw),
    )
    h_eq.counts[h_eq._window_slice(h_eq.signal_window)] = 3
    h_eq.counts[h_eq._window_slice(h_eq.noise_window)] = 3
    snr_equal = compute_snr(h_eq)

    h_zero = CoincidenceHistogram(
        bin_width=bw, tau_min=0.0, tau_max=1400e-9,
        signal_window=(200 * bw, 300 * bw), noise_window=(400 * bw, 500 * bw),
    )
    h_zero.counts[h_zero._window_slice(h_zero.signal_window)] = 1
    with pytest.raises(ValueError, match="noise floor unresolved"):
        compute_snr(h_zero)

    ok = abs(snr - 1.40) <= 0.01 and snr_equal == pytest.approx(0.0, abs=1e-12)
    _report(10, ok, (
        f"synthetic S = 74 / scaled N = 30.83 gives SNR {snr:.4f} (1.40 +/- 0.01); "
        f"S = N gives {snr_equal:.1e}; empty floor raises 'noise floor unresolved'"
    ))


def test_criterion_11_determinism(tmp_path):
    cfg = load_bundled_scenario("multiplexed_25mode_10km_smoke")
    a = run_scenario(cfg, out_dir=str(tmp_path / "a"), workers=2)
    b = run_scenario(cfg, out_dir=str(tmp_path / "b"), workers=1)
    files = ["report.json", "histogram.csv", "summary.csv", "lock_telemetry.csv"]
    same = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files
    )
    ok = same and a.to_json() == b.to_json()
    _report(11, ok, "two runs of a shipped scenario produce byte-identical CSV and report payloads "
                    "(including across worker counts)")
