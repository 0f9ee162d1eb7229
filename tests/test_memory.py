import math

import numpy as np
import pytest

from afclink.memory import (
    AFCConfig,
    AbsorptionSpectrum,
    InhomogeneousProfile,
    afc_efficiency,
    afc_efficiency_oracle,
    comb_spectrum,
    exit_times,
    prepare_afc,
    storage_branches,
    KIND_ECHO,
    KIND_LOST,
    KIND_OUT_OF_BAND,
    KIND_PROMPT,
)
from afclink.spectral import SpectralGrid, tpc_mode_offsets

INH = InhomogeneousProfile()
CFG = AFCConfig()


def test_prepare_single_mode_tooth_count():
    spec = prepare_afc(INH, CFG)
    f = spec.frequencies()
    d = spec.optical_depth
    in_pit = np.abs(f) <= CFG.pit_halfwidth
    # 15 teeth: |k| * 1.15 MHz <= 9 MHz allows k = -7..7
    from scipy.signal import find_peaks

    peaks, _ = find_peaks(d * in_pit, height=CFG.tooth_peak_depth * 0.5)
    assert len(peaks) == 15
    centers = f[peaks]
    assert np.allclose(np.diff(centers), CFG.tooth_spacing, atol=2 * spec.grid.step)


def test_prepare_multiplexed_replicas_are_identical():
    modes = tuple(tpc_mode_offsets(25, 117.2e6))
    cfg = AFCConfig(mode_offsets=modes)
    spec = prepare_afc(INH, cfg)
    f = spec.frequencies()

    # 25 disjoint pits, each carrying the same comb pattern; compare
    # mode-relative profiles by interpolation (grid phases differ per mode)
    x = np.linspace(-cfg.pit_halfwidth * 0.9, cfg.pit_halfwidth * 0.9, 4001)
    ref = spec.depth_at(0.0 + x)
    for m in (modes[0], modes[-1], modes[7]):
        prof = spec.depth_at(m + x)
        assert np.max(np.abs(prof - ref)) < 0.03 * cfg.tooth_peak_depth
        assert np.mean(prof) == pytest.approx(np.mean(ref), rel=1e-3)
    # pits are emptied to the background between teeth
    mid = np.searchsorted(f, modes[3] + cfg.tooth_spacing / 2)
    assert spec.optical_depth[mid] < cfg.background_depth + 0.05 * cfg.tooth_peak_depth
    # and the regions between pits keep the inhomogeneous absorption
    between = np.searchsorted(f, modes[3] + 58.6e6)
    assert spec.optical_depth[between] > 2.0


def test_prepare_without_teeth_leaves_flat_background():
    cfg = AFCConfig(tooth_peak_depth=0.0)
    spec = prepare_afc(INH, cfg)
    f = spec.frequencies()
    in_pit = np.abs(f) <= cfg.pit_halfwidth
    assert np.allclose(spec.optical_depth[in_pit], cfg.background_depth)


def test_prepare_rejects_overlapping_pits():
    cfg = AFCConfig(mode_offsets=(0.0, 10e6), pit_halfwidth=9e6)
    with pytest.raises(ValueError):
        prepare_afc(INH, cfg)


def test_prepare_rejects_coarse_grid():
    grid = SpectralGrid(-20e6, 20e6, 1e6)
    with pytest.raises(ValueError):
        prepare_afc(INH, CFG, grid=grid)


def test_prepared_comb_is_periodic_inside_pit():
    spec = prepare_afc(INH, CFG)
    f = spec.frequencies()
    sel = np.abs(f) <= 6e6
    d = spec.optical_depth[sel] - np.mean(spec.optical_depth[sel])
    lag = int(round(CFG.tooth_spacing / spec.grid.step))
    ac = np.correlate(d, d, mode="full")[len(d) - 1 :]
    assert ac[lag] > 0.9 * ac[0]


def test_prepared_mean_depth_matches_analytic():
    spec = prepare_afc(INH, CFG)
    f = spec.frequencies()
    sel = np.abs(f) <= 7 * CFG.tooth_spacing / 2  # whole periods around center
    measured = np.mean(spec.optical_depth[sel])
    assert measured == pytest.approx(CFG.mean_comb_depth, rel=0.02)


def test_efficiency_zero_depth():
    assert afc_efficiency(0.0, 4.0, 0.0) == 0.0


def test_efficiency_opaque_background():
    assert afc_efficiency(2.0, 4.0, 50.0) == pytest.approx(0.0, abs=1e-20)


def test_efficiency_optimum_large_finesse():
    from scipy.optimize import minimize_scalar

    for F in (40.0, 100.0):
        r = minimize_scalar(lambda d: -afc_efficiency(d, F, 0.0), bounds=(0.1, 6 * F), method="bounded")
        assert r.x == pytest.approx(2 * F, rel=1e-3)
        assert -r.fun == pytest.approx(4 * math.exp(-2), abs=0.01)


def test_efficiency_monotone_rise_then_fall():
    F = 4.0
    d = np.linspace(0.05, 2 * F, 60)
    eta = np.array([afc_efficiency(x, F, 0.0) for x in d])
    assert np.all(np.diff(eta) > 0)
    d2 = np.linspace(2 * F, 10 * F, 60)
    eta2 = np.array([afc_efficiency(x, F, 0.0) for x in d2])
    assert np.all(np.diff(eta2) < 0)


def test_oracle_flat_spectrum_has_no_echo():
    g = SpectralGrid(-30e6, 30e6, 1.15e6 / 64)
    flat = AbsorptionSpectrum(g, np.zeros(g.n_points))
    assert afc_efficiency_oracle(flat, 0.0, 1.15e6) < 1e-6


def test_oracle_agrees_with_formula_on_grid():
    # combs normalized so the period-averaged depth equals d/F, the depth
    # convention the closed-form efficiency expression is written in
    for d in (0.5, 1.0, 2.0, 4.0):
        for F in (2.0, 5.0, 20.0):
            sp = comb_spectrum(d, F, n_teeth=81, points_per_tooth=24)
            eta_o = afc_efficiency_oracle(sp, 0.0, 1.15e6)
            eta_f = afc_efficiency(d, F, 0.0)
            assert eta_o == pytest.approx(eta_f, rel=0.05), (d, F)


def test_oracle_example_point():
    F = 10.0
    sp = comb_spectrum(2 * F, F, n_teeth=81, points_per_tooth=24)
    assert afc_efficiency_oracle(sp, 0.0, 1.15e6) == pytest.approx(
        afc_efficiency(2 * F, F, 0.0), rel=0.05
    )


def test_oracle_grid_convergence():
    a = afc_efficiency_oracle(comb_spectrum(2, 4, points_per_tooth=16), 0.0, 1.15e6)
    b = afc_efficiency_oracle(comb_spectrum(2, 4, points_per_tooth=32), 0.0, 1.15e6)
    assert abs(b - a) / a < 0.01


def test_oracle_rejects_coarse_grid():
    g = SpectralGrid(-30e6, 30e6, 1e6)
    flat = AbsorptionSpectrum(g, np.zeros(g.n_points))
    with pytest.raises(ValueError):
        afc_efficiency_oracle(flat, 0.0, 1.15e6)


def test_peak_convention_runs_hotter_than_formula():
    # preparation-style teeth (peak depth d) average ~6% more depth than the
    # formula's d/F convention; the oracle quantifies the documented gap
    sp = comb_spectrum(1.0, 10.0, n_teeth=81, points_per_tooth=24, normalization="peak")
    eta_o = afc_efficiency_oracle(sp, 0.0, 1.15e6)
    assert eta_o > afc_efficiency(1.0, 10.0, 0.0)


SPEC = prepare_afc(INH, CFG)


def _store(offset, rng, t=1.0):
    """Outcome code and exit time of one photon sent into the memory."""
    kinds = storage_branches(np.array([offset]), CFG, INH, rng)
    return int(kinds[0]), float(exit_times(np.array([t]), kinds, CFG, 150e-9)[0])


def test_echo_and_prompt_timing_exact():
    kinds = np.array([KIND_ECHO, KIND_PROMPT], dtype=np.uint8)
    t = exit_times(np.array([1.0, 1.0]), kinds, CFG, slow_light_delay=150e-9)
    # exact up to the last-place rounding of the absolute timestamps
    assert t[0] - t[1] == pytest.approx(CFG.storage_time, abs=1e-12)
    assert CFG.storage_time == pytest.approx(869.57e-9, rel=1e-4)
    assert t[1] == pytest.approx(1.0 + 150e-9)


def test_out_of_band_transmits_without_delay():
    kind, exit_time = _store(15e9, np.random.default_rng(1))
    assert kind == KIND_OUT_OF_BAND
    assert exit_time == 1.0


def test_echo_probability_matches_formula():
    rng = np.random.default_rng(2)
    n = 100_000
    kinds = storage_branches(np.zeros(n), CFG, INH, rng)
    eta = afc_efficiency(CFG.tooth_peak_depth, CFG.finesse, CFG.background_depth)
    p_hat = np.mean(kinds == KIND_ECHO)
    sigma = math.sqrt(eta * (1 - eta) / n)
    assert p_hat == pytest.approx(eta, abs=3 * sigma)
    p_prompt = math.exp(-CFG.mean_comb_depth)
    sigma_p = math.sqrt(p_prompt * (1 - p_prompt) / n)
    assert np.mean(kinds == KIND_PROMPT) == pytest.approx(p_prompt, abs=3 * sigma_p)


def test_outcome_probabilities_cover_all_events():
    rng = np.random.default_rng(3)
    offsets = rng.uniform(-20e9, 20e9, 20000)
    kinds = storage_branches(offsets, CFG, INH, rng)
    assert np.all(np.isin(kinds, [KIND_ECHO, KIND_PROMPT, KIND_OUT_OF_BAND, KIND_LOST]))
    # out of band exactly where beyond the inhomogeneous support
    assert np.array_equal(kinds == KIND_OUT_OF_BAND, np.abs(offsets) > INH.fwhm)


def test_detuned_photon_cannot_echo():
    # a shift of several tooth widths (e.g. an unlocked chain) lands between
    # teeth and removes the echo branch entirely
    rng = np.random.default_rng(4)
    detune = 10 * CFG.tooth_spacing / CFG.finesse  # 2.5 tooth spacings
    kinds = storage_branches(np.full(30000, detune), CFG, INH, rng)
    assert np.sum(kinds == KIND_ECHO) == 0
    # exactly one tooth spacing away still echoes (the comb is periodic)
    kinds2 = storage_branches(np.full(30000, CFG.tooth_spacing), CFG, INH, rng)
    assert np.sum(kinds2 == KIND_ECHO) > 0


def test_in_band_off_pit_absorption():
    rng = np.random.default_rng(5)
    offset = 3e9  # in band, far from every pit
    n = 50_000
    kinds = storage_branches(np.full(n, offset), CFG, INH, rng)
    p_pass = math.exp(-float(INH.depth_at(offset)))
    sigma = math.sqrt(p_pass * (1 - p_pass) / n)
    assert np.mean(kinds == KIND_PROMPT) == pytest.approx(p_pass, abs=4 * sigma)
    assert np.sum(kinds == KIND_ECHO) == 0


def test_comb_center_photon_outcome_and_exit_time():
    kind, exit_time = _store(0.0, np.random.default_rng(6))
    assert kind in (KIND_ECHO, KIND_PROMPT, KIND_LOST)
    if kind == KIND_ECHO:
        assert exit_time == pytest.approx(1.0 + 150e-9 + CFG.storage_time)


def test_spectrum_csv_format():
    text = SPEC.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "offset_hz,optical_depth"
    assert len(lines) == SPEC.grid.n_points + 1
