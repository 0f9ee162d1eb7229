import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afclink.memory import (
    AFCConfig,
    AbsorptionSpectrum,
    InhomogeneousProfile,
    afc_efficiency,
    afc_efficiency_oracle,
    comb_spectrum,
    eom_sideband_offsets,
    exit_times,
    prepare_afc,
    storage_branches,
    KIND_ECHO,
    KIND_LOST,
    KIND_OUT_OF_BAND,
    KIND_PROMPT,
)
from afclink.source import tpc_mode_offsets

INH = InhomogeneousProfile()
CFG = AFCConfig()
MODES = np.zeros(1)  # a single-mode source plan


def test_prepare_single_mode_tooth_count():
    spec = prepare_afc(INH, CFG, MODES)
    f = spec.frequencies()
    d = spec.optical_depth
    in_pit = np.abs(f) <= CFG.pit_halfwidth
    # 15 teeth: |k| * 1.15 MHz <= 9 MHz allows k = -7..7
    from scipy.signal import find_peaks

    peaks, _ = find_peaks(d * in_pit, height=CFG.tooth_peak_depth * 0.5)
    assert len(peaks) == 15
    centers = f[peaks]
    assert np.allclose(np.diff(centers), CFG.tooth_spacing, atol=2 * spec.step)


def test_spectrum_points_cover_the_requested_span():
    # each builder asks for a span: the first point is its low end, the step
    # is uniform and the last point lies within one step of its high end
    modes = tpc_mode_offsets(25, 117.2e6)
    pit = CFG.pit_halfwidth + 4 * CFG.tooth_spacing
    teeth = 2 * 30 * 1.15e6  # comb_spectrum's 61 teeth, twice their extent
    for spec, lo, hi in [
        (prepare_afc(INH, CFG, modes), modes[0] - pit, modes[-1] + pit),
        (comb_spectrum(2.0, 4.0), -teeth, teeth),
    ]:
        f = spec.frequencies()
        assert f[0] == lo
        assert np.allclose(np.diff(f), spec.step, rtol=1e-9, atol=0)
        assert hi - spec.step < f[-1] <= hi


def test_prepare_multiplexed_replicas_are_identical():
    modes = tpc_mode_offsets(25, 117.2e6)
    cfg = AFCConfig()
    spec = prepare_afc(INH, cfg, modes)
    f = spec.frequencies()

    # 25 disjoint pits, each carrying the same comb pattern; compare
    # mode-relative profiles by interpolation (grid phases differ per mode)
    x = np.linspace(-cfg.pit_halfwidth * 0.9, cfg.pit_halfwidth * 0.9, 4001)
    ref = np.interp(0.0 + x, f, spec.optical_depth)
    for m in (modes[0], modes[-1], modes[7]):
        prof = np.interp(m + x, f, spec.optical_depth)
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
    spec = prepare_afc(INH, cfg, MODES)
    f = spec.frequencies()
    in_pit = np.abs(f) <= cfg.pit_halfwidth
    assert np.allclose(spec.optical_depth[in_pit], cfg.background_depth)


def test_prepared_comb_is_periodic_inside_pit():
    spec = prepare_afc(INH, CFG, MODES)
    f = spec.frequencies()
    sel = np.abs(f) <= 6e6
    d = spec.optical_depth[sel] - np.mean(spec.optical_depth[sel])
    lag = int(round(CFG.tooth_spacing / spec.step))
    ac = np.correlate(d, d, mode="full")[len(d) - 1 :]
    assert ac[lag] > 0.9 * ac[0]


def test_prepared_mean_depth_matches_analytic():
    spec = prepare_afc(INH, CFG, MODES)
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
    flat = AbsorptionSpectrum(-30e6, 1.15e6 / 64, np.zeros(3340), 1.15e6)
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


def test_oracle_rejects_another_spacing():
    with pytest.raises(ValueError, match="tooth spacing"):
        afc_efficiency_oracle(comb_spectrum(2, 4), 0.0, 2e6)


def test_oracle_rejects_coarse_grid():
    flat = AbsorptionSpectrum(-30e6, 1e6, np.zeros(61), 1.15e6)
    with pytest.raises(ValueError):
        afc_efficiency_oracle(flat, 0.0, 1.15e6)


SPEC = prepare_afc(INH, CFG, MODES)


def _store(offset, rng, t=1.0):
    """Outcome code and exit time of one photon sent into the memory."""
    kinds = storage_branches(np.array([offset]), MODES, CFG, INH, rng)
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
    kinds = storage_branches(np.zeros(n), MODES, CFG, INH, rng)
    eta = CFG.echo_efficiency
    p_hat = np.mean(kinds == KIND_ECHO)
    sigma = math.sqrt(eta * (1 - eta) / n)
    assert p_hat == pytest.approx(eta, abs=3 * sigma)
    p_prompt = math.exp(-CFG.mean_comb_depth)
    sigma_p = math.sqrt(p_prompt * (1 - p_prompt) / n)
    assert np.mean(kinds == KIND_PROMPT) == pytest.approx(p_prompt, abs=3 * sigma_p)


@settings(max_examples=300, deadline=None)
@given(
    peak=st.floats(0.0, 1e300),
    finesse=st.floats(1.0, 1e6, exclude_min=True),
    background=st.floats(0.0, 1e3),
)
def test_on_tooth_chances_sum_to_at_most_one(peak, finesse, background):
    # the echo and prompt chances of a photon on a tooth leave the loss a
    # chance >= 0 for every comb the decoder accepts
    afc = AFCConfig(tooth_peak_depth=peak, finesse=finesse, background_depth=background)
    assert afc.echo_efficiency + math.exp(-afc.mean_comb_depth) <= 1.0


def test_outcome_probabilities_cover_all_events():
    rng = np.random.default_rng(3)
    offsets = rng.uniform(-20e9, 20e9, 20000)
    kinds = storage_branches(offsets, MODES, CFG, INH, rng)
    assert np.all(np.isin(kinds, [KIND_ECHO, KIND_PROMPT, KIND_OUT_OF_BAND, KIND_LOST]))
    # out of band exactly where beyond the inhomogeneous support
    assert np.array_equal(kinds == KIND_OUT_OF_BAND, np.abs(offsets) > INH.fwhm)


def test_detuned_photon_cannot_echo():
    # a shift of several tooth widths (e.g. an unlocked chain) lands between
    # teeth and removes the echo branch entirely
    rng = np.random.default_rng(4)
    detune = 10 * CFG.tooth_spacing / CFG.finesse  # 2.5 tooth spacings
    kinds = storage_branches(np.full(30000, detune), MODES, CFG, INH, rng)
    assert np.sum(kinds == KIND_ECHO) == 0
    # exactly one tooth spacing away still echoes (the comb is periodic)
    kinds2 = storage_branches(np.full(30000, CFG.tooth_spacing), MODES, CFG, INH, rng)
    assert np.sum(kinds2 == KIND_ECHO) > 0


def test_in_band_off_pit_absorption():
    rng = np.random.default_rng(5)
    offset = 3e9  # in band, far from every pit
    n = 50_000
    kinds = storage_branches(np.full(n, offset), MODES, CFG, INH, rng)
    p_pass = math.exp(-float(INH.depth_at(offset)))
    sigma = math.sqrt(p_pass * (1 - p_pass) / n)
    assert np.mean(kinds == KIND_PROMPT) == pytest.approx(p_pass, abs=4 * sigma)
    assert np.sum(kinds == KIND_ECHO) == 0


def _storage_branch_per_photon(offsets, modes, cfg, inh, u):
    """Per-photon reference of ``storage_branches`` given its uniforms, one
    per in-band photon in order."""
    eta = cfg.echo_efficiency
    p_prompt_pit = math.exp(-cfg.mean_comb_depth)
    p_pass = np.exp(-inh.depth_at(offsets))
    u = iter(u)
    out = []
    for f, p_off_pit in zip(offsets, p_pass):
        if abs(f) > inh.fwhm:
            out.append(KIND_OUT_OF_BAND)
            continue
        v = next(u)
        nearest = min(modes, key=lambda m: (abs(f - m), -m))  # upper on a tie
        d = f - nearest
        if abs(d) <= cfg.pit_halfwidth:
            miss = abs(d - cfg.tooth_spacing * round(d / cfg.tooth_spacing))
            p_echo = eta if miss <= 0.5 * cfg.tooth_fwhm else 0.0
            out.append(KIND_ECHO if v < p_echo else KIND_PROMPT if v < p_echo + p_prompt_pit else KIND_LOST)
        else:
            out.append(KIND_PROMPT if v < p_off_pit else KIND_LOST)
    return np.array(out, dtype=np.uint8)


def test_storage_branches_match_per_photon_reference():
    cfg = AFCConfig()
    modes = tpc_mode_offsets(5, 117.2e6)
    rng = np.random.default_rng(12)
    k = rng.integers(-8, 9, 4000) * cfg.tooth_spacing
    offsets = np.concatenate([
        modes,
        0.5 * (modes[1:] + modes[:-1]),  # ties between neighbouring modes
        modes[:, None] + [-cfg.pit_halfwidth, cfg.pit_halfwidth],  # pit edges
        modes[rng.integers(0, len(modes), 4000)] + k + rng.uniform(-0.6, 0.6, 4000) * cfg.tooth_fwhm,
        rng.uniform(-2.0, 2.0, 4000) * modes.max(),
        [-INH.fwhm, INH.fwhm, np.nextafter(INH.fwhm, np.inf), 3e9, -15e9],
    ], axis=None)
    offsets = rng.permutation(offsets)
    kinds = storage_branches(offsets, modes, cfg, INH, np.random.default_rng(99))
    u = np.random.default_rng(99).random(int(np.sum(np.abs(offsets) <= INH.fwhm)))
    assert np.array_equal(kinds, _storage_branch_per_photon(offsets, modes, cfg, INH, u))
    assert set(np.unique(kinds)) == {KIND_ECHO, KIND_PROMPT, KIND_OUT_OF_BAND, KIND_LOST}


def test_comb_center_photon_outcome_and_exit_time():
    kind, exit_time = _store(0.0, np.random.default_rng(6))
    assert kind in (KIND_ECHO, KIND_PROMPT, KIND_LOST)
    if kind == KIND_ECHO:
        assert exit_time == pytest.approx(1.0 + 150e-9 + CFG.storage_time)


def test_spectrum_csv_format():
    text = SPEC.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "offset_hz,optical_depth"
    assert len(lines) == len(SPEC.optical_depth) + 1


# -- the EOM sideband plan of the comb copies ------------------------------------

def _brute_force_sidebands(f1, f2, m, tol=1.0):
    vals = sorted(i * f1 + j * f2 for i in range(-m, m + 1) for j in range(-m, m + 1))
    out = []
    for v in vals:
        if not out or v - out[-1] >= tol:
            out.append(v)
    return np.array(out)


def test_eom_carrier_only():
    assert list(eom_sideband_offsets(1e6, 2e6, 0)) == [0.0]


def test_eom_25_mode_plan_matches_source_comb():
    s = eom_sideband_offsets(117.2e6, 586.0e6, 2)
    assert len(s) == 25
    # collisions merge onto the k * fsr ladder for k = -12..12, exactly once each
    assert np.array_equal(s, tpc_mode_offsets(25, 117.2e6))


def test_eom_collisions_merge():
    s = eom_sideband_offsets(100e6, 200e6, 1)
    assert len(s) == 7
    assert np.allclose(s, [-300e6, -200e6, -100e6, 0.0, 100e6, 200e6, 300e6])


def test_eom_merges_offsets_closer_than_one_hz():
    # f2 sits 0.4 Hz above f1: an offset less than 1 Hz above the one below
    # merges into it, so the chain -0.4, 0, 0.4 keeps only -0.4
    got = eom_sideband_offsets(1e6, 1e6 + 0.4, 1)
    assert np.allclose(got, [-2e6 - 0.4, -1e6 - 0.4, -0.4, 1e6, 2e6 + 0.4], rtol=0, atol=1e-6)


def test_eom_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        f1 = rng.uniform(10e6, 500e6)
        f2 = rng.uniform(10e6, 2e9)
        m = int(rng.integers(0, 4))
        got = eom_sideband_offsets(f1, f2, m)
        want = _brute_force_sidebands(f1, f2, m)
        assert len(got) == len(want)
        assert np.allclose(got, want, atol=1.5)


def test_eom_symmetry_under_negation():
    s = eom_sideband_offsets(117.2e6, 586.0e6, 2)
    assert np.allclose(s, -s[::-1], atol=1e-6)


def test_eom_count_bound_and_no_collision_case():
    # golden-ratio spacing: no integer collisions, so the count saturates
    f1 = 100e6
    f2 = f1 * (1 + math.sqrt(5)) / 2
    for m in (1, 2, 3):
        s = eom_sideband_offsets(f1, f2, m)
        assert len(s) == (2 * m + 1) ** 2
    # harmonic spacing collides and must fall short of the bound
    assert len(eom_sideband_offsets(f1, 2 * f1, 1)) < 9
