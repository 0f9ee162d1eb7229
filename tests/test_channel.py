import math

import numpy as np
import pytest

from afclink import intervals as iv
from afclink.channel import (
    ConverterConfig,
    FiberLink,
    ShutterSchedule,
    as_closures,
    fiber_passes,
    gate_passes,
)


def test_zero_length_fiber_is_lossless_and_instant():
    link = FiberLink(length=0.0)
    t = np.linspace(0, 1, 1000)
    keep = fiber_passes(link, len(t), np.random.default_rng(0))
    assert keep.sum() == 1000
    assert np.array_equal(t[keep], t)


def test_ten_km_survival_probability():
    link = FiberLink(length=10.0, loss=0.2)
    assert link.survival_probability == pytest.approx(10 ** (-0.2), rel=1e-12)
    n = 100_000
    keep = fiber_passes(link, n, np.random.default_rng(17))
    p = 10 ** (-0.2)
    sigma = math.sqrt(p * (1 - p) / n)
    assert keep.sum() / n == pytest.approx(p, abs=3 * sigma)


def test_loss_composes_over_segments():
    a, b_len = 3.7, 6.3
    p_two = FiberLink(length=a).survival_probability * FiberLink(length=b_len).survival_probability
    p_one = FiberLink(length=a + b_len).survival_probability
    assert p_two == pytest.approx(p_one, rel=1e-12)
    # statistical check through the survival masks
    n = 60_000
    rng = np.random.default_rng(5)
    via_two = fiber_passes(FiberLink(length=b_len), fiber_passes(FiberLink(length=a), n, rng).sum(), rng)
    via_one = fiber_passes(FiberLink(length=a + b_len), n, rng)
    sigma = math.sqrt(p_one * (1 - p_one) / n)
    assert via_two.sum() / n == pytest.approx(via_one.sum() / n, abs=4 * sigma)


def _converted(cfg, offsets, rng):
    """Conversion survival mask of photons at ``offsets``: one uniform per
    photon against the per-mode ``conversion_probability``."""
    modes, idx = np.unique(np.asarray(offsets, dtype=float), return_inverse=True)
    return rng.random(len(idx)) < cfg.conversion_probability(modes)[idx]


def test_convert_survival_on_resonance():
    cfg = ConverterConfig()
    n = 100_000
    keep = _converted(cfg, np.zeros(n), np.random.default_rng(2))
    sigma = math.sqrt(0.558 * 0.442 / n)
    assert keep.sum() / n == pytest.approx(0.558, abs=3 * sigma)


def test_convert_window_half_maximum_and_edges():
    cfg = ConverterConfig()
    def window(f):
        return cfg.conversion_probability(f) / cfg.efficiency

    assert window(20e9) == pytest.approx(0.5, rel=1e-12)
    assert window(-20e9) == pytest.approx(0.5, rel=1e-12)
    # the outermost multiplexed mode barely notices the window
    assert window(1.4064e9) == pytest.approx(0.9966, abs=2e-4)
    n = 50_000
    keep = _converted(cfg, np.full(n, 20e9), np.random.default_rng(3))
    p = 0.558 * 0.5
    sigma = math.sqrt(p * (1 - p) / n)
    assert keep.sum() / n == pytest.approx(p, abs=3 * sigma)


def test_convert_preserves_times_and_offsets():
    cfg = ConverterConfig()
    t = np.linspace(0, 1, 5000)
    offsets = np.linspace(-1e9, 1e9, 5000)
    keep = _converted(cfg, offsets, np.random.default_rng(4))
    assert keep.shape == t.shape
    assert np.all(np.isin(t[keep], t))
    assert np.all(np.isin(offsets[keep], offsets))


def test_noise_rate_per_mw_gives_the_shipped_rates():
    # the shipped 40,000 counts/s at 140 mW, and a tenth of it at 14 mW,
    # come out of the one per-mW field exactly
    assert ConverterConfig(pump_power=140.0).noise_rate == 40_000.0
    assert ConverterConfig(pump_power=14.0).noise_rate == 4_000.0
    cfg = ConverterConfig()
    rng = np.random.default_rng(6)
    counts = [len(iv.sample_poisson(np.array([[0.0, 1.0]]), cfg.noise_rate, rng)) for _ in range(30)]
    assert np.mean(counts) == pytest.approx(40_000, abs=3 * math.sqrt(40_000 / 30))


def test_noise_scales_linearly_with_pump():
    cfg = ConverterConfig(pump_power=70.0)
    assert cfg.noise_rate == pytest.approx(20_000.0)
    rng = np.random.default_rng(7)
    counts = [len(iv.sample_poisson(np.array([[0.0, 1.0]]), cfg.noise_rate, rng)) for _ in range(30)]
    assert np.mean(counts) == pytest.approx(20_000, abs=3 * math.sqrt(20_000 / 30))
    assert ConverterConfig(pump_power=0.0).noise_rate == 0.0
    assert len(iv.sample_poisson(np.array([[0.0, 1.0]]), ConverterConfig(pump_power=0.0).noise_rate, rng)) == 0


def test_noise_spectrum_spans_phase_matching_window():
    cfg = ConverterConfig()
    offsets = cfg.noise_offsets(20_000, np.random.default_rng(8))
    assert np.all(np.abs(offsets) <= 20e9)
    assert np.min(np.abs(offsets)) < 2e9  # fills the span


SCHED = ShutterSchedule()


def _gate(times, heralds, sched, rng, duration=1.0):
    """Gate pass mask of a one-cycle run (transmission phase [0.3, 0.6))."""
    windows = sched.transmission_windows(0, 1, duration)
    return gate_passes(np.asarray(times, dtype=float), windows, as_closures(heralds, sched), sched.extinction, rng)


def test_transmission_windows_clip_to_duration():
    w = SCHED.transmission_windows(0, 3, 1.5)
    assert np.allclose(w, [[0.3, 0.6], [0.9, 1.2]])
    assert len(SCHED.transmission_windows(2, 3, 1.5)) == 0  # cycle 2 ends inside its prep phase
    assert np.allclose(SCHED.transmission_windows(0, 2, 1.0), [[0.3, 0.6], [0.9, 1.0]])


def test_shutter_extinction_one_is_identity():
    t = np.linspace(0.31, 0.59, 1000)
    keep = _gate(t, np.array([0.35]), ShutterSchedule(extinction=1.0), np.random.default_rng(0))
    assert np.array_equal(t[keep], t)


def test_gate_passes_geometry():
    # transmission phase is open by default; each herald closes the gate from
    # close_delay after it until the end of its echo window
    sched = ShutterSchedule(extinction=0.0)
    h = 0.4
    rng = np.random.default_rng(1)
    cases = {
        h + 50e-9: True,    # before the gate has closed
        h + 500e-9: False,  # closed during storage
        h + 1.05e-6: False, # closed through the echo window (stored light bypasses it)
        h + 1.5e-6: True,   # reopened for the next photon
        0.45: True,         # far from any herald: open
        0.1: False,         # preparation phase: closed
    }
    for t, expect in cases.items():
        keep = _gate([t], np.array([h]), sched, rng)
        assert bool(keep[0]) == expect, f"time {t}"


def test_shutter_overlapping_heralds_union():
    sched = ShutterSchedule(extinction=0.0)
    heralds = np.array([0.4, 0.4 + 0.6e-6])
    closures = as_closures(heralds, sched)
    assert len(closures) == 1  # merged
    keep = _gate([0.4 + 0.9e-6], heralds, sched, np.random.default_rng(0))
    assert keep.sum() == 0


def test_shutter_expectation_matches_interval_intersection():
    # gated count expectation: rate * |w & open| + extinction * rate * |w \ open|
    sched = ShutterSchedule(extinction=0.05)
    rng = np.random.default_rng(9)
    heralds = np.sort(rng.uniform(0.3, 0.6, 40))
    w = (0.3, 0.6)
    rate = 200_000.0
    times = np.sort(rng.uniform(w[0], w[1], rng.poisson(rate * (w[1] - w[0]))))
    keep = _gate(times, heralds, sched, rng)
    open_set = iv.complement(as_closures(heralds, sched), w)
    open_len = iv.total_length(iv.intersect(open_set, np.array([w])))
    expect = rate * open_len + sched.extinction * rate * ((w[1] - w[0]) - open_len)
    assert keep.sum() == pytest.approx(expect, abs=4 * math.sqrt(expect))


def test_schedule_validation():
    with pytest.raises(ValueError):
        ShutterSchedule(prep_duration=0.7, cycle_period=0.6)
    with pytest.raises(ValueError):
        ShutterSchedule(echo_window=(1.2e-6, 0.9e-6))
    with pytest.raises(ValueError):
        ShutterSchedule(extinction=1.5)
