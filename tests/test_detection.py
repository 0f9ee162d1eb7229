import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afclink.detection import (
    NO_OUTCOME,
    ORIGIN_DARK_COUNT,
    ORIGIN_PAIR,
    CoincidenceHistogram,
    SPDConfig,
    accumulate_histogram,
    compute_snr,
    dead_time_filter,
    detect,
    moving_average,
)


def _span(t0, t1):
    return np.array([[t0, t1]])


def _detect(times, spd, window, rng):
    """Detected times of a pair-photon stream on one window."""
    t = np.asarray(times, dtype=float)
    return detect(t, spd.efficiency, spd, _span(*window), rng)[0]


def test_ideal_detector_is_identity():
    spd = SPDConfig(efficiency=1.0, dark_rate=0.0, dead_time=0.0, jitter_fwhm=0.0)
    t = np.sort(np.random.default_rng(0).uniform(0, 1, 500))
    out = _detect(t, spd, (0.0, 1.0), np.random.default_rng(1))
    assert np.array_equal(out, t)


def test_efficiency_binomial():
    spd = SPDConfig(efficiency=0.5, dark_rate=0.0, dead_time=0.0, jitter_fwhm=0.0)
    n = 100_000
    out = _detect(np.linspace(0, 1, n), spd, (0.0, 1.0), np.random.default_rng(2))
    sigma = math.sqrt(0.25 / n)
    assert len(out) / n == pytest.approx(0.5, abs=3 * sigma)


def test_dead_time_blocks_second_event():
    spd = SPDConfig(efficiency=1.0, dark_rate=0.0, dead_time=50e-9, jitter_fwhm=0.0)
    out = _detect([1.0, 1.0 + 10e-9], spd, (0.0, 2.0), np.random.default_rng(3))
    assert len(out) == 1 and out[0] == 1.0


def test_dead_time_filter_runs():
    # 0,10,20,30 with 15 ns dead time: the greedy non-paralyzable filter
    # keeps 0 and 20
    t = np.array([0.0, 10e-9, 20e-9, 30e-9])
    keep = dead_time_filter(t, 15e-9)
    assert list(keep) == [True, False, True, False]


@settings(max_examples=300, deadline=None)
@given(
    ticks=st.lists(st.integers(0, 400), max_size=60),
    dead=st.integers(0, 40),
)
def test_dead_time_filter_matches_sequential_scan(ticks, dead):
    # integer ticks keep every gap comparison exact; duplicates and runs
    # longer than the dead time exercise the multi-pass path
    t = np.sort(np.array(ticks, dtype=float))
    want = np.zeros(len(t), dtype=bool)
    last = -np.inf
    for i, ti in enumerate(t):
        if ti - last >= dead:
            want[i] = True
            last = ti
    assert np.array_equal(dead_time_filter(t, float(dead)), want)


def test_dark_counts_poisson():
    spd = SPDConfig(efficiency=1.0, dark_rate=5000.0, dead_time=0.0, jitter_fwhm=0.0)
    rng = np.random.default_rng(4)
    empty = np.empty(0)
    counts = [len(detect(empty, 1.0, spd, _span(0.0, 1.0), rng)[0]) for _ in range(40)]
    assert np.mean(counts) == pytest.approx(5000, abs=3 * math.sqrt(5000 / 40))
    t, origin, kind = detect(
        empty, 1.0, spd, _span(0.0, 1.0), rng, np.empty(0, np.uint8), np.empty(0, np.uint8)
    )
    assert np.all(origin == ORIGIN_DARK_COUNT)
    assert np.all(kind == NO_OUTCOME)


def test_detect_keeps_companion_columns_aligned():
    spd = SPDConfig(efficiency=0.6, dark_rate=2000.0, dead_time=50e-9, jitter_fwhm=0.0)
    t = np.sort(np.random.default_rng(13).uniform(0, 1, 3000))
    label = np.arange(len(t), dtype=np.int64)
    out_t, org, lab = detect(
        t, spd.efficiency, spd, _span(0.0, 1.0), np.random.default_rng(14),
        np.full(len(t), ORIGIN_PAIR, np.uint8), label,
    )
    assert np.all(np.diff(out_t) >= 0)
    pair = org == ORIGIN_PAIR
    assert np.array_equal(out_t[pair], t[lab[pair]])
    assert np.all(lab[~pair] == NO_OUTCOME)


def test_jitter_broadens_timing():
    spd = SPDConfig(efficiency=1.0, dark_rate=0.0, dead_time=0.0, jitter_fwhm=100e-12)
    t = np.full(20000, 0.5)
    out = _detect(t, spd, (0.0, 1.0), np.random.default_rng(5))
    sigma = 100e-12 / (2 * math.sqrt(2 * math.log(2)))
    assert np.std(out) == pytest.approx(sigma, rel=0.05)


def test_detect_zero_dead_time_commutes_with_concatenation():
    spd = SPDConfig(efficiency=0.7, dark_rate=0.0, dead_time=0.0, jitter_fwhm=0.0)
    t1 = np.sort(np.random.default_rng(6).uniform(0, 1, 4000))
    t2 = np.sort(np.random.default_rng(7).uniform(1, 2, 4000))
    joint = _detect(np.concatenate([t1, t2]), spd, (0.0, 2.0), np.random.default_rng(8))
    a = _detect(t1, spd, (0.0, 1.0), np.random.default_rng(8))
    # same rng state stream: the first len(t1) draws coincide, so the kept
    # subset of the first block is identical
    assert np.array_equal(joint[joint < 1.0], a)


def _histogram(heralds, signals, bin_width, tau_range, **windows):
    hist = CoincidenceHistogram(bin_width, tau_range[0], tau_range[1], **windows)
    accumulate_histogram(hist, heralds, signals)
    return hist


def test_histogram_empty():
    h = _histogram(np.array([1.0, 2.0]), np.array([]), 0.128e-9, (-200e-9, 1400e-9))
    assert h.total() == 0


def test_histogram_single_bin_index():
    h = _histogram(np.array([0.0]), np.array([870.0e-9]), 0.128e-9, (0.0, 1400e-9))
    assert h.total() == 1
    idx = int(np.flatnonzero(h.counts)[0])
    assert idx == math.floor(870.0 / 0.128) == 6796


def test_histogram_uniform_noise_floor():
    rng = np.random.default_rng(9)
    heralds = np.sort(rng.uniform(0, 1.0, 200))
    rate = 50_000.0
    signals = np.sort(rng.uniform(0, 1.0, rng.poisson(rate)))
    h = _histogram(
        heralds, signals, 1e-9, (100e-9, 1100e-9),
        signal_window=(200e-9, 300e-9), noise_window=(400e-9, 500e-9),
    )
    expected = len(heralds) * rate * 1e-9
    sigma = math.sqrt(expected)
    inner = h.counts[5:-5]
    assert np.mean(inner) == pytest.approx(expected, abs=4 * sigma / math.sqrt(len(inner)))


def test_histogram_conservation_against_double_loop():
    rng = np.random.default_rng(10)
    heralds = np.sort(rng.uniform(0, 1e-3, 40))
    signals = np.sort(rng.uniform(0, 1e-3, 60))
    h = _histogram(heralds, signals, 0.128e-9, (-200e-9, 1400e-9))
    brute = sum(
        1
        for th in heralds
        for ts in signals
        if -200e-9 <= ts - th < 1400e-9
    )
    assert h.total() == brute


@settings(max_examples=200, deadline=None)
@given(
    heralds=st.lists(st.integers(-160, 480), max_size=40),
    signals=st.lists(st.integers(-160, 480), max_size=40),
)
def test_accumulate_histogram_matches_double_loop(heralds, signals):
    # times on a grid of 1/4 with unit bins keep every delay and bin index exact
    h = np.sort(np.array(heralds, dtype=float) / 4)
    s = np.sort(np.array(signals, dtype=float) / 4)
    hist = CoincidenceHistogram(1.0, -16.0, 64.0, (0.0, 8.0), (10.0, 12.0))
    want = np.zeros(hist.n_bins, dtype=np.int64)
    for th in h:
        for ts in s:
            if hist.tau_min <= ts - th < hist.tau_max:
                want[math.floor((ts - th - hist.tau_min) / hist.bin_width)] += 1
    accumulate_histogram(hist, h, s)
    assert hist.counts.dtype == np.int64
    assert np.array_equal(hist.counts, want)
    accumulate_histogram(hist, h, s)  # accumulates in place
    assert np.array_equal(hist.counts, 2 * want)


def test_histogram_merge_elementwise():
    rng = np.random.default_rng(11)
    heralds = np.sort(rng.uniform(0, 1e-3, 30))
    signals = np.sort(rng.uniform(0, 1e-3, 50))
    full = _histogram(heralds, signals, 0.128e-9, (-200e-9, 1400e-9))
    a = _histogram(heralds[:15], signals, 0.128e-9, (-200e-9, 1400e-9))
    b = _histogram(heralds[15:], signals, 0.128e-9, (-200e-9, 1400e-9))
    merged = a + b
    assert np.array_equal(merged.counts, full.counts)


def test_moving_average_identity_and_constant():
    h = CoincidenceHistogram(counts=np.random.default_rng(0).integers(0, 5, CoincidenceHistogram().n_bins))
    assert np.array_equal(moving_average(h, 1), h.counts.astype(float))
    const = np.full(100, 7.0)
    assert np.allclose(moving_average(const, 10), 7.0)


def test_moving_average_delta_plateau():
    x = np.zeros(100)
    x[50] = 10.0
    sm = moving_average(x, 10)
    plateau = np.flatnonzero(sm == 1.0)
    assert len(plateau) == 10
    assert sm.sum() == pytest.approx(10.0)


def test_moving_average_mass_preserved_away_from_edges():
    rng = np.random.default_rng(12)
    x = rng.integers(0, 20, 500).astype(float)
    x[:20] = 0
    x[-20:] = 0
    assert moving_average(x, 9).sum() == pytest.approx(x.sum(), rel=1e-12)


def _hist_with(s_per_bin, n_per_bin):
    h = CoincidenceHistogram()
    sl_s = h._window_slice(h.signal_window)
    sl_n = h._window_slice(h.noise_window)
    h.counts[sl_s] = s_per_bin
    h.counts[sl_n] = n_per_bin
    return h


def snr_inversion_histogram():
    # S = 74 with SNR 1.4 implies a duration-scaled floor of 74/2.4 ~= 30.83;
    # a 6:1 noise/signal window ratio realizes it with integer raw counts
    # (185 / 6 = 30.8333)
    bw = 0.128e-9
    h = CoincidenceHistogram(
        bin_width=bw, tau_min=0.0, tau_max=1400e-9,
        signal_window=(200 * bw, 300 * bw), noise_window=(400 * bw, 1000 * bw),
    )
    h.counts[h._window_slice(h.signal_window).start] = 74
    sl_n = h._window_slice(h.noise_window)
    h.counts[sl_n.start : sl_n.start + 185] = 1
    return h


def test_snr_formula_inversion():
    h = snr_inversion_histogram()
    assert h.window_counts(h.signal_window) == 74
    assert h.window_counts(h.noise_window) / 6 == pytest.approx(30.83, abs=0.01)
    assert compute_snr(h) == pytest.approx(1.40, abs=0.01)


def test_snr_trivial_values():
    h = _hist_with(2, 2)
    assert compute_snr(h) == pytest.approx(0.0, abs=1e-12)
    h2 = _hist_with(4, 2)
    assert compute_snr(h2) == pytest.approx(1.0, abs=1e-12)


def test_snr_requires_noise_floor():
    h = _hist_with(5, 0)
    with pytest.raises(ValueError, match="noise floor unresolved"):
        compute_snr(h)


def test_snr_scale_invariance():
    a = _hist_with(6, 2)
    b = _hist_with(18, 6)
    assert compute_snr(a) == pytest.approx(compute_snr(b), rel=1e-12)


def test_histogram_window_validation():
    with pytest.raises(ValueError):
        CoincidenceHistogram(signal_window=(0.9e-6, 1.2e-6), noise_window=(1.1e-6, 1.3e-6))
    with pytest.raises(ValueError):
        CoincidenceHistogram(bin_width=-1.0)
