import numpy as np
import pytest
from scipy import stats

from afclink.source import SourceConfig, pair_delays, sample_pairs


def _span(t0, t1):
    return np.array([[t0, t1]])


def test_zero_rate_is_empty():
    cfg = SourceConfig(total_pair_rate=0.0)
    times, mode_idx = sample_pairs(cfg, _span(0.0, 10.0), np.random.default_rng(0))
    assert len(times) == 0 and len(mode_idx) == 0


def test_poisson_mean_pair_count():
    cfg = SourceConfig(total_pair_rate=100.0, n_modes=5)
    rng = np.random.default_rng(12)
    n_trials = 400
    counts = [len(sample_pairs(cfg, _span(0.0, 1.0), rng)[0]) for _ in range(n_trials)]
    se = np.sqrt(100.0 / n_trials)
    assert np.mean(counts) == pytest.approx(100.0, abs=3 * se)


def test_mode_histogram_matches_weights():
    w = np.array([0.5, 0.3, 0.2])
    cfg = SourceConfig(total_pair_rate=20000.0, n_modes=3, mode_weights=tuple(w))
    _, mode_idx = sample_pairs(cfg, _span(0.0, 1.0), np.random.default_rng(9))
    counts = np.bincount(mode_idx, minlength=3)
    res = stats.chisquare(counts, w * counts.sum())
    assert res.pvalue > 0.001


def test_same_mode_double_pair_probability():
    # chop one long stream into windows and count multi-pair modes; the
    # small-occupancy law is (rate * tau / n_modes)^2 / 2 per mode
    n_modes, rate, tau, n_win = 25, 5000.0, 0.75e-3, 40000
    mu = rate * tau / n_modes
    cfg = SourceConfig(total_pair_rate=rate, n_modes=n_modes)
    times, mode_idx = sample_pairs(cfg, _span(0.0, n_win * tau), np.random.default_rng(31))
    win_idx = np.floor(times / tau).astype(np.int64)
    cells = np.bincount(win_idx * n_modes + mode_idx, minlength=n_win * n_modes)
    p_hat = np.mean(cells >= 2)
    p_exact = 1.0 - np.exp(-mu) * (1.0 + mu)
    sigma = np.sqrt(p_exact / (n_win * n_modes))
    assert p_hat == pytest.approx(p_exact, abs=4 * sigma)
    assert p_hat == pytest.approx(mu**2 / 2.0, rel=0.15)


def test_correlation_standard_deviation():
    cfg = SourceConfig(total_pair_rate=50000.0, linewidth=7.1e6)
    rng = np.random.default_rng(4)
    times, _ = sample_pairs(cfg, _span(0.0, 2.0), rng)
    delta = pair_delays(cfg, len(times), rng)
    tau_c = 1.0 / (2 * np.pi * 7.1e6)
    assert tau_c == pytest.approx(22.4e-9, rel=0.01)
    assert np.std(delta) == pytest.approx(np.sqrt(2) * tau_c, rel=0.02)


def test_correlation_symmetry_ks():
    cfg = SourceConfig(total_pair_rate=30000.0)
    rng = np.random.default_rng(6)
    times, _ = sample_pairs(cfg, _span(0.0, 2.0), rng)
    delta = pair_delays(cfg, len(times), rng)
    res = stats.ks_2samp(delta, -delta)
    assert res.pvalue > 0.01


def test_broadband_limit_removes_offsets():
    cfg = SourceConfig(total_pair_rate=5000.0, linewidth=1e18)
    rng = np.random.default_rng(8)
    times, _ = sample_pairs(cfg, _span(0.0, 1.0), rng)
    delta = pair_delays(cfg, len(times), rng)
    assert np.max(np.abs(delta)) < 1e-15


def test_streams_sorted_and_deterministic():
    cfg = SourceConfig(total_pair_rate=1000.0)
    windows = np.array([[0.0, 2.0], [2.5, 5.0]])
    a, mode_a = sample_pairs(cfg, windows, np.random.default_rng(55))
    b, mode_b = sample_pairs(cfg, windows, np.random.default_rng(55))
    assert np.array_equal(a, b) and np.array_equal(mode_a, mode_b)
    assert np.all(np.diff(a) >= 0)
    assert not np.any((a >= 2.0) & (a < 2.5))


def test_config_validation():
    with pytest.raises(ValueError):
        SourceConfig(total_pair_rate=-1.0)
    with pytest.raises(ValueError):
        SourceConfig(total_pair_rate=1.0, n_modes=2, mode_weights=(0.5, 0.4))
    with pytest.raises(ValueError):
        SourceConfig(total_pair_rate=1.0, linewidth=0.0)
